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

* imports the core's entry points, and with them every module of their
  import closure,
* runs five queries end to end through ``Engine.execute`` (parse,
  dispatch with its AGM bound, execute): a triangle, a 3-path ``COUNT``
  group-by, an ``ORDER BY … LIMIT`` 3-path, a join over an empty
  relation and a 20-cycle over a 20-tuple ring (one exact simplex solve
  of 20 edges, which must stay fast), each checked against its known
  answer,
* confirms ``repro.columnar`` reports itself unsupported instead of
  raising,
* confirms that no paper-side module (a layer above the engine in
  ``tools/analysis/layers.py``: ``repro.panda``, ``repro.infotheory``,
  ``repro.experiments``, ``repro.datagen``, ``repro.bounds`` but AGM)
  was loaded along the way,
* then imports every other module of ``repro`` — the paper side
  included — so that none of them grows a module-level numpy, scipy or
  networkx import either.  Only the submodules of ``repro.columnar`` are
  left out: they need NumPy by design, and the package gates them,
* and runs each paper-side LP once, checked against its known value:
  the polymatroid bound and the Shannon-flow extraction on Example 1,
  the modular LP (54) and its dual (57) and ``acyclify`` on query (63),
  and the Shannon prover on Shearer's triangle inequality.

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


#: The core's entry points.  Each import pulls in its whole closure, and
#: the check covers every ``repro`` module that closure loads: no hand
#: list to fall behind the code.
ENTRY_POINTS = (
    "repro.engine",
    "repro.ivm",
    "repro.cli",
    "repro.columnar",  # must import (and degrade), not crash
)

#: The one package whose submodules may import NumPy at module level.
NUMERIC_PACKAGE = "repro.columnar"


def _repro_modules() -> list[str]:
    return sorted(m for m in sys.modules
                  if m == "repro" or m.startswith("repro."))


def _paper_side_values() -> dict[str, tuple[object, object]]:
    """Check name -> (computed, expected), one run of each paper-side LP."""
    from repro.bounds.modular import modular_bound, modular_bound_dual
    from repro.bounds.polymatroid import polymatroid_bound
    from repro.constraints.acyclify import acyclify
    from repro.experiments.acyclify_exp import query63_constraints
    from repro.infotheory.shannon import is_shannon_valid
    from repro.infotheory.shearer import shearer_expression
    from repro.panda.example1 import example1_constraints
    from repro.panda.shannon_flow import extract_flow_from_polymatroid_dual
    from repro.query.atoms import triangle_query

    example1 = example1_constraints(64, 64, 64, 4, 4)
    weakened = acyclify(query63_constraints())
    triangle = triangle_query().hypergraph()
    shearer = shearer_expression(triangle, dict.fromkeys(triangle.edge_keys, 0.5))
    return {
        "polymatroid_bound(Example 1)":
            (polymatroid_bound(example1).log2_bound, 11.0),
        "Shannon flow of Example 1":
            (str(extract_flow_from_polymatroid_dual(example1)),
             "h(ABCD) <= 1/2*h(AB) + 1/2*h(BC) + 1/2*h(CD) + 1/2*h(ABD|BD) "
             "+ 1/2*h(ACD|AC)"),
        "acyclify(query (63))":
            (str(weakened),
             "DC{deg(A | ()) <= 100 guarded by R; deg(A,B | A) <= 4 guarded "
             "by S; deg(B,C | B) <= 4 guarded by T; deg(C,D | C) <= 4 "
             "guarded by W}"),
        # 100 * 4 * 4 * 4 = 6400 = 2 ** 12.643856189774723
        "modular_bound(acyclified (63))":
            (round(modular_bound(weakened).log2_bound, 9), 12.64385619),
        "modular_bound_dual(acyclified (63))":
            (round(modular_bound_dual(weakened).log2_bound, 9), 12.64385619),
        "is_shannon_valid(Shearer, triangle)": (is_shannon_valid(shearer), True),
    }


def main() -> int:
    for mod in list(sys.modules):
        if mod.split(".", 1)[0] in _BlockNumericStack.BLOCKED:
            del sys.modules[mod]
    sys.meta_path.insert(0, _BlockNumericStack())

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in (os.path.join(root, "src"), root):
        if os.path.isdir(path) and path not in sys.path:
            sys.path.insert(0, path)

    import importlib
    import pkgutil

    from tools.analysis.layers import paper_side

    for name in ENTRY_POINTS:
        importlib.import_module(name)
    core = _repro_modules()

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
    # dispatch (whose AGM bound is one exact simplex solve, not scipy) and run.
    from repro.engine import Engine
    from repro.relational.relation import Relation

    rows = [(0, 1), (1, 2), (2, 0), (0, 2)]
    ring = [(v, (v + 1) % 20) for v in range(20)]
    engine = Engine(relations=[Relation(name, ("X", "Y"), rows)
                               for name in ("R", "S", "T")]
                    + [Relation("E", ("X", "Y"), []),
                       Relation("C", ("X", "Y"), ring)])
    path = "R(A,B), S(B,C), T(C,D)"
    cycle = ", ".join(f"C(V{k}, V{(k + 1) % 20})" for k in range(20))
    heads = ",".join(f"V{k}" for k in range(20))
    expected = {
        "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)": [(0, 1, 2)],
        f"Q(A, COUNT(*) AS n) :- {path}": [(0, 3), (1, 2), (2, 2)],
        f"Q(A,B,C,D) :- {path} ORDER BY D DESC, A LIMIT 2":
            [(0, 2, 0, 2), (1, 2, 0, 2)],
        "Q(A,B,C) :- R(A,B), E(B,C)": [],
        f"Q({heads}) :- {cycle}":
            [tuple((v + k) % 20 for k in range(20)) for v in range(20)],
    }
    for text, want in expected.items():
        got = engine.execute(text).sorted_tuples()
        if got != want:
            print(f"{text!r} returned {got!r} without numpy, expected "
                  f"{want!r}", file=sys.stderr)
            return 1

    paper = paper_side(_repro_modules())
    if paper:
        print(f"the engine loaded paper-side modules: {paper}",
              file=sys.stderr)
        return 1

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith(NUMERIC_PACKAGE + "."):
            importlib.import_module(info.name)
    everything = _repro_modules()

    paper_values = _paper_side_values()
    for name, (got, want) in paper_values.items():
        if got != want:
            print(f"{name} gave {got!r} without numpy, expected {want!r}",
                  file=sys.stderr)
            return 1

    print(f"checked {len(core)} core modules: "
          f"importable and {len(expected)} Engine queries run with "
          "numpy/scipy/networkx blocked and no paper-side module loaded; "
          "columnar degrades cleanly; "
          f"{len(everything)} repro modules in all (every one but "
          f"{NUMERIC_PACKAGE}'s submodules) import with the same block, "
          f"and {len(paper_values)} paper-side LP checks run under it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
