"""Repo-specific static analysis: paper-level contracts as lint rules.

The engine's CI gates compare *operation counts* and rest on conventions
nothing in the language enforces: every tuple loop must charge an
:class:`~repro.joins.instrumentation.OperationCounter`, and the layer
DAG must stay acyclic.  (Contracts a type can enforce itself — the
semiring protocol, the never-None tracer — are checked at run time by
``Semiring`` and ``Engine.tracer`` instead.)  This package turns the
remaining conventions into machine-checked invariants: one AST parse per file,
checkers as visitor plugins, inline suppressions with a required reason,
a baseline file for grandfathered findings, and human/JSON output with
stable exit codes.

Run it as ``python -m tools.analysis`` from the repository root.
"""

from tools.analysis.core import (  # noqa: F401
    AnalysisDriver,
    Checker,
    FileContext,
    Finding,
    load_baseline,
)
