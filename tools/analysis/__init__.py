"""Repo-specific static analysis: paper-level contracts as lint rules.

The engine's CI gates compare *operation counts* and rest on conventions
nothing in the language enforces: every tuple loop must charge an
:class:`~repro.joins.instrumentation.OperationCounter`, the layer DAG
(``layers.py``) must stay acyclic, and ``src/repro`` must hold only what
something uses (another module, a benchmark, a tool, an example, or a
``docs/paper-map.md`` row — not its own tests alone).  (Contracts a type
can enforce itself — the semiring protocol, the never-None tracer — are
checked at run time by ``Semiring`` and ``Engine.tracer`` instead.)
This package turns the remaining conventions into machine-checked
invariants: one AST parse per file, checkers as visitor plugins (a
whole-program rule reads its corpus once, when it is built), and inline
suppressions that must carry a reason and silence a finding.

Run it as ``python -m tools.analysis`` from the repository root; it
takes no arguments, scans ``src/`` and exits 0 when clean, 1 otherwise.
"""

from tools.analysis.core import (  # noqa: F401
    AnalysisDriver,
    Checker,
    FileContext,
    Finding,
)
