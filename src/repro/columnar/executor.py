"""Engine executor running WCOJ plans on the columnar backend.

Shares the plan/payload/index-request protocol with the streaming WCOJ
executors (it subclasses their base), but resolves sorted columnar
layouts from the registry instead of hash tries and runs the batched
:func:`repro.columnar.join.columnar_rows`.  Any :class:`ColumnarFallback`
— planned-around features that slipped through, or data-dependent cases
like un-orderable mixed domains and non-integer SUMs — transparently
reruns the query through the pure-Python oracle executor, so a columnar
dispatch can never produce an error (or a different answer) the python
backend would not.  A non-aggregate ordered plan comes out ranked and cut
to its LIMIT, from the kernel or, after a fallback, from ``sort_rows``
over the oracle's drain.
"""

from __future__ import annotations

from typing import Iterator

from repro.columnar import ColumnarFallback
from repro.columnar.join import columnar_rows
from repro.engine.executors import GenericJoinExecutor, _WcojExecutor, _trie_requests
from repro.engine.fingerprint import payload_order, payload_ranked_mode
from repro.query.builder import sort_rows


class ColumnarExecutor(_WcojExecutor):
    """Columnar evaluation of generic/leapfrog plans (never dispatched
    directly — the session swaps it in when a plan resolves to the
    columnar backend, keeping ``strategy`` semantics untouched).

    ``oracle`` is the python executor of the plan's strategy, so a
    fallback reruns the exact run the python backend would have done —
    bit-identical rows in bit-identical order, by construction.
    """

    name = "columnar"

    def __init__(self, oracle: _WcojExecutor | None = None) -> None:
        self._oracle = oracle if oracle is not None else GenericJoinExecutor()

    def handles_ordering(self, spec, payload) -> bool:
        """Every non-aggregate ordered plan: the emission ranks its rows
        in code space and decodes only the top-k (aggregate plans order
        at most one row per group, above the stream)."""
        return bool(spec.order_by) and not spec.aggregates

    def stream(self, spec, database, payload, registry=None,
               counter=None) -> Iterator[tuple]:
        try:
            rows = self._columnar_rows(spec, database, payload, registry,
                                       counter)
        except ColumnarFallback:
            rows = self._oracle.stream(spec, database, payload,
                                       registry=registry, counter=counter)
            if (not self.handles_ordering(spec, payload)
                    or self._oracle.handles_ordering(spec, payload)):
                return rows
            # The session skips its sort for this plan: rank the
            # oracle's drain exactly as it would have.
            rows = sort_rows(rows, spec.output_columns, spec.order_by,
                             limit=spec.limit)
        return iter(rows)

    def _columnar_rows(self, spec, database, payload, registry,
                       counter) -> list[tuple]:
        if registry is None:
            raise ColumnarFallback("columnar layouts need an index registry")
        if payload_ranked_mode(payload) == "anyk":
            raise ColumnarFallback("any-k ranked mode is tuple-at-a-time")
        core = spec.core
        order = payload_order(payload)
        requests = _trie_requests(core, database, order)
        try:
            layouts = registry.columnar_layouts(requests)
        except TypeError as exc:  # un-orderable mixed value domain
            raise ColumnarFallback(str(exc)) from exc
        store = registry.columnar_store
        if spec.aggregates and self.handles_aggregation(spec, payload):
            return columnar_rows(core, order, layouts, store,
                                 selections=spec.all_selections,
                                 head=spec.head_vars,
                                 aggregates=spec.aggregates, counter=counter)
        if spec.aggregates:
            # Fold-mode aggregates drain full bindings (the engine folds
            # and orders above the stream), exactly like the oracle's
            # head=None path.
            return columnar_rows(core, order, layouts, store,
                                 selections=spec.all_selections,
                                 counter=counter)
        return columnar_rows(core, order, layouts, store,
                             selections=spec.all_selections,
                             head=spec.head_vars, counter=counter,
                             order_by=spec.order_by, limit=spec.limit)
