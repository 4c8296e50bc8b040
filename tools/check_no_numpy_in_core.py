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
* runs a small triangle join end-to-end on the python backend,
* plans the aggregate order of a 3-path ``COUNT`` group-by and the any-k
  order of an ``ORDER BY … LIMIT`` 3-path,
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

    # The pure-Python join layer and the order planners must work, not
    # merely import.  Full engine dispatch is still allowed scipy at
    # runtime for one thing: its AGM bound is an LP (ROADMAP item 6(a)
    # would take it off dispatch), so the functional check stops short of
    # Engine.execute.
    from repro.joins import generic_join
    from repro.query import parse_query
    from repro.query.builder import Query
    from repro.query.variable_order import (
        aggregate_elimination_order,
        ranked_order,
    )
    from repro.relational.database import Database
    from repro.relational.relation import Relation

    rows = [(0, 1), (1, 2), (2, 0), (0, 2)]
    database = Database([Relation("R", ("X", "Y"), rows),
                         Relation("S", ("X", "Y"), rows),
                         Relation("T", ("X", "Y"), rows)])
    query = parse_query("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
    if not list(generic_join(query, database).tuples):
        print("triangle join returned no rows without numpy", file=sys.stderr)
        return 1

    path = "R(A,B), S(B,C), T(C,D)"
    grouped = Query.coerce(f"Q(A, COUNT(*) AS n) :- {path}")
    order = aggregate_elimination_order(grouped.core, group=grouped.head_vars)
    if order[0] != "A" or sorted(order) != ["A", "B", "C", "D"]:
        print(f"group-by order {order!r} does not lead with the group",
              file=sys.stderr)
        return 1
    ranked = Query.coerce(f"Q(A,B,C,D) :- {path} ORDER BY D DESC, A LIMIT 10")
    order = ranked_order(ranked.core, [key for key, _desc in ranked.order_by],
                         head=ranked.head_vars)
    if order[:2] != ("D", "A") or sorted(order) != ["A", "B", "C", "D"]:
        print(f"ranked order {order!r} does not lead with the sort keys",
              file=sys.stderr)
        return 1

    print(f"checked {len(CORE_MODULES)} core modules: importable and "
          "functional with numpy/scipy/networkx blocked; columnar degrades "
          "cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
