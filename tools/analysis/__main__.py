"""``python -m tools.analysis``: every rule over ``src/``, no arguments.

Prints one line per finding on stdout and a summary on stderr; exits 0
when clean (suppressed findings allowed) and 1 otherwise.
"""

from __future__ import annotations

import os
import sys

from tools.analysis.checkers import REPO_ROOT, default_checkers
from tools.analysis.core import AnalysisDriver, AnalysisResult


def run_on_repo() -> AnalysisResult:
    """Every rule over every ``.py`` file under ``src/``."""
    src = os.path.join(REPO_ROOT, "src")
    files = [os.path.join(dirpath, name)
             for dirpath, _dirs, names in os.walk(src)
             for name in names if name.endswith(".py")]
    return AnalysisDriver(default_checkers()).run(REPO_ROOT, files)


def main() -> int:
    result = run_on_repo()
    for finding in result.findings:
        print(finding.render())
    print(f"{len(result.findings)} finding(s), "
          f"{len(result.suppressed)} suppressed, "
          f"{result.files_checked} file(s) checked", file=sys.stderr)
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
