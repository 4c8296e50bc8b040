"""Columnar NumPy execution backend.

Relations are materialized once per (relation-version, column-order) as
lexicographically sorted, dictionary-encoded ``int64`` NumPy columns; the
trie a streaming WCOJ core walks node-by-node becomes offset ranges over
those sorted columns, and Leapfrog's seek/next iterator discipline becomes
one ``np.searchsorted`` per seek over a per-level composite key (prefix
rank times dictionary size plus code), batched over a frontier.  Semiring
folds for COUNT/SUM/MIN/MAX and the boolean existential tail run over runs
of equal separator keys instead of per-tuple Python ⊕ calls, and an
``ORDER BY`` ranks the joined code columns with one ``np.lexsort`` before
anything is decoded.

The pure-Python cores in :mod:`repro.joins` remain the reference oracle:
the columnar backend must produce bit-identical rows, aggregate values,
and output order, and it transparently degrades to the oracle whenever a
query uses a feature outside its vectorized subset (see
:func:`unsupported_reason`).

This module itself never imports NumPy so that ``repro.engine`` (which
imports it for planning) stays importable on NumPy-free installs; only the
sibling modules :mod:`repro.columnar.layout`, ``.join`` and ``.executor``
require NumPy, and the planner refuses the backend when it is missing.
"""

from __future__ import annotations

from typing import Iterable

try:  # pragma: no cover - exercised via tools/check_no_numpy_in_core.py
    import importlib.util as _ilu

    HAS_NUMPY = _ilu.find_spec("numpy") is not None
except Exception:  # pragma: no cover - importlib failure == no numpy
    HAS_NUMPY = False

#: Aggregate kinds with a vectorized semiring fold.  Anything else —
#: user-registered semirings, AVG-style finalized folds — degrades to the
#: python oracle at plan time.
SUPPORTED_AGGREGATE_KINDS = ("count", "sum", "min", "max")


class ColumnarFallback(Exception):
    """Raised when a query (or its data) leaves the vectorized subset.

    The executor catches this and transparently re-runs the query through
    the pure-Python oracle; it must never escape to the caller.
    """


def unsupported_reason(
    selections: Iterable = (),
    aggregates: Iterable = (),
    ranked_mode: str | None = None,
) -> str | None:
    """Plan-time feature gate: why a query cannot run columnar (or ``None``).

    The v1 vectorized subset excludes: multi-variable comparison
    selections (cross-atom predicates such as ``A < B``, and the equality
    couplings repeated-variable atoms lower to), aggregate kinds without a
    vectorized fold, and any-k ranked enumeration (tuple-at-a-time by
    construction).  A drain-ranked ``ORDER BY … LIMIT k`` is inside it:
    without aggregates the kernel sorts the joined dictionary codes and
    decodes only the top-k.  Data-dependent cases — mixed un-orderable
    domains, SUM over non-integer values — are only detectable at run
    time and degrade inside the executor instead.
    """
    if not HAS_NUMPY:
        return "NumPy is not installed"
    for sel in selections:
        if len(sel.variables) > 1:
            variables = ", ".join(sorted(sel.variables))
            return f"cross-atom comparison selection over {variables}"
    for agg in aggregates:
        if agg.kind not in SUPPORTED_AGGREGATE_KINDS:
            return f"no vectorized fold for aggregate kind {agg.kind!r}"
    if ranked_mode == "anyk":
        return "any-k ranked enumeration is tuple-at-a-time"
    return None
