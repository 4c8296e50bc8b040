#!/usr/bin/env python3
"""Assert the core engine stays importable — and functional — without
NumPy, SciPy or networkx.

The columnar backend (``repro.columnar``) is the only subsystem allowed a
hard NumPy dependency, and even it must *import* cleanly without it (it
degrades to ``HAS_NUMPY = False`` and the dispatcher prices it as
unsupported).  Everything else — ``repro.joins``, ``repro.query``, the
engine, the CLI — is pure Python and must not grow a top-level
``import numpy`` by accident.

The check installs a meta-path finder that blocks ``numpy``, ``scipy``
and ``networkx`` before any ``repro`` import, then:

* imports every core module,
* runs four queries end to end through ``Engine.execute`` (parse,
  dispatch with its AGM bound, execute): a triangle, a 3-path ``COUNT``
  group-by, an ``ORDER BY … LIMIT`` 3-path and a join over an empty
  relation, each checked against its known answer,
* confirms ``repro.columnar`` reports itself unsupported instead of
  raising.

Usage::

    python tools/check_no_numpy_in_core.py
"""

from __future__ import annotations

import os
import sys


class _BlockNumericStack:
    """Meta-path finder that refuses numpy/scipy/networkx imports."""

    BLOCKED = ("numpy", "scipy", "networkx")

    def find_spec(self, name, path=None, target=None):
        if name.split(".", 1)[0] in self.BLOCKED:
            raise ImportError(
                f"blocked import of {name!r}: the core engine must not "
                "depend on it (see tools/check_no_numpy_in_core.py)"
            )
        return None


CORE_MODULES = (
    "repro",
    "repro.joins",
    "repro.joins.generic_join",
    "repro.joins.leapfrog",
    "repro.joins.binary_plans",
    "repro.joins.yannakakis",
    "repro.query",
    "repro.query.variable_order",
    "repro.query.widths",
    "repro.engine",
    "repro.engine.cost",
    "repro.engine.registry",
    "repro.ivm",
    "repro.cli",
    "repro.columnar",  # must import (and degrade), not crash
)


def main() -> int:
    for mod in list(sys.modules):
        if mod.split(".", 1)[0] in _BlockNumericStack.BLOCKED:
            del sys.modules[mod]
    sys.meta_path.insert(0, _BlockNumericStack())

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if os.path.isdir(src) and src not in sys.path:
        sys.path.insert(0, src)

    import importlib

    for name in CORE_MODULES:
        importlib.import_module(name)

    import repro.columnar as columnar

    if columnar.HAS_NUMPY:
        print("numpy import was not actually blocked — check is broken",
              file=sys.stderr)
        return 2
    reason = columnar.unsupported_reason()
    if not reason or "NumPy" not in reason:
        print(f"repro.columnar should report a NumPy-shaped unsupported "
              f"reason, got {reason!r}", file=sys.stderr)
        return 1

    # The engine must work, not merely import: every query is planned by
    # dispatch (whose AGM bound is a cover-vertex table, not an LP) and run.
    from repro.engine import Engine
    from repro.relational.relation import Relation

    rows = [(0, 1), (1, 2), (2, 0), (0, 2)]
    engine = Engine(relations=[Relation(name, ("X", "Y"), rows)
                               for name in ("R", "S", "T")]
                    + [Relation("E", ("X", "Y"), [])])
    path = "R(A,B), S(B,C), T(C,D)"
    expected = {
        "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)": [(0, 1, 2)],
        f"Q(A, COUNT(*) AS n) :- {path}": [(0, 3), (1, 2), (2, 2)],
        f"Q(A,B,C,D) :- {path} ORDER BY D DESC, A LIMIT 2":
            [(0, 2, 0, 2), (1, 2, 0, 2)],
        "Q(A,B,C) :- R(A,B), E(B,C)": [],
    }
    for text, want in expected.items():
        got = engine.execute(text).sorted_tuples()
        if got != want:
            print(f"{text!r} returned {got!r} without numpy, expected "
                  f"{want!r}", file=sys.stderr)
            return 1

    print(f"checked {len(CORE_MODULES)} core modules: "
          f"importable and {len(expected)} Engine queries run with "
          "numpy/scipy/networkx blocked; columnar degrades cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
