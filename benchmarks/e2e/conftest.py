"""Keep the smoke test out of a bare ``pytest`` run.

Tier-1 is ``python -m pytest`` from the repository root with no
``testpaths``, which would collect ``test_e2e_smoke.py`` too.  The smoke
test is opt-in: it is collected only when this directory (or the file)
is named on the command line.
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    named = any(Path(arg.split("::")[0]).resolve().is_relative_to(HERE)
                for arg in config.args)
    return None if named else True
