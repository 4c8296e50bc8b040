"""The top-level public surface: lazy re-exports and the engine's closure.

``repro/__init__`` re-exports its common entry points through a PEP 562
``__getattr__``, so ``import repro`` loads nothing; these tests pin that
every exported name still resolves, and that the engine's import closure
holds none of the paper side (the layers above the engine in
``tools/analysis/layers.py``), nor the degree constraints.
"""

import os
import subprocess
import sys

import pytest

import repro
from tools.analysis.layers import paper_side

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(script):
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("name", repro.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(repro, name) is not None


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)


def test_dir_covers_all():
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro, "no_such_name")


def test_import_repro_loads_no_subpackage():
    assert _run("import sys, repro; print(*sorted("
                "m for m in sys.modules if m.startswith('repro')))") == [
                    "repro"]


def test_engine_closure_is_small_and_holds_no_paper_side():
    loaded = _run("import sys, repro.engine; print(*sorted("
                  "m for m in sys.modules if m.split('.')[0] == 'repro'))")
    assert len(loaded) <= 50, loaded
    assert paper_side(loaded) == []
    # The degree constraints sit under the engine in the layer DAG, but
    # no query the engine runs needs them.
    assert [m for m in loaded if m.startswith("repro.constraints")] == []
