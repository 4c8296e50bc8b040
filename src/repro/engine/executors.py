"""The common executor protocol behind ``Engine.execute``.

Every join algorithm in :mod:`repro.joins` is adapted here to one uniform
shape so the dispatcher can treat them interchangeably.  Executors receive
the rich :class:`~repro.query.builder.Query` (the ``spec``) and are
responsible for the *relational* part of it — the join, the selections,
the projection, and (when the plan says so) the aggregation; the engine
layers the remaining folds, ordering and LIMIT on top of the streams they
return:

* ``plan(spec, database)`` produces the payload of a non-WCOJ plan (an
  atom order, or nothing); WCOJ payloads — variable orders, plain or
  mode-tagged — are minted by :func:`repro.engine.cost.dispatch` alone;
* ``canonical_payload`` / ``payload_from_canonical`` translate that payload
  to and from canonical vocabulary, so the plan cache can serve isomorphic
  queries;
* ``index_requests`` names the registry indexes the executor would use,
  letting the engine warm them in a traced ``index.resolve`` stage and
  ``explain`` report them warm or cold;
* ``handles_aggregation`` reports whether the plan evaluates the
  aggregates itself (in-recursion / in-pass), in which case ``stream``
  yields finalized aggregate rows and the engine skips its stream-fold;
* ``handles_ordering`` reports whether the plan enumerates in rank order
  itself (any-k; the columnar executor ranks its drain in code space), in
  which case ``stream`` yields head tuples already in ORDER BY order and
  the engine skips its drain-and-heap sort, merely truncating to the
  effective LIMIT;
* ``stream`` lazily yields result tuples over ``spec.stream_variables`` —
  deduplicated head tuples normally, full-variable tuples when a
  stream-fold must observe them, aggregate rows when the plan aggregates
  inside the join, rank-ordered head tuples under any-k plans.

Selections are pushed *below* the join everywhere: the WCOJ executors
prune candidate values inside the join recursion at the depth where each
predicate's variables are bound; the naive executor prunes partial
bindings at the earliest covering atom; binary plans and Yannakakis
filter base-relation scans for single-atom predicates and apply genuinely
cross-atom comparisons at the first pairwise join (binary) or join-tree
depth (Yannakakis) that binds both sides.
"""

from __future__ import annotations

from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from repro.engine.fingerprint import (
    CanonicalQuery,
    canonicalize_wcoj_payload,
    payload_aggregate_mode,
    payload_order,
    payload_ranked_mode,
    translate_wcoj_payload,
)
from repro.engine.registry import IndexRegistry
from repro.errors import QueryError
from repro.joins.binary_plans import greedy_atom_order
from repro.joins.generic_join import generic_join_stream
from repro.joins.hybrid import HybridPartition, partition_instance
from repro.joins.instrumentation import OperationCounter
from repro.joins.leapfrog import leapfrog_stream
from repro.joins.naive import nested_loop_stream
from repro.joins.plan import left_deep_plan, plan_rows, split_selections
from repro.joins.yannakakis import (
    yannakakis_aggregate_stream,
    yannakakis_ranked_stream,
    yannakakis_stream,
)
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import Query
from repro.query.terms import Comparison, Constant, pinned_constants
from repro.query.variable_order import hybrid_light_order
from repro.relational.database import Database
from repro.relational.index import HashIndex, TrieIndex
from repro.relational.relation import Relation


#: An index request: (edge key, stored relation name, attribute layout).
IndexRequest = tuple[str, str, tuple[str, ...]]


def head_projected(query: ConjunctiveQuery, stream: Iterator[tuple],
                   head: Sequence[str] | None = None) -> Iterator[tuple]:
    """Project a stream of full-variable tuples onto the head, deduplicating.

    ``head`` defaults to ``query.head``.  Full heads pass through
    untouched, and permuted full heads only reorder columns (an injective
    map needs no dedup bookkeeping); only strict-subset heads pay for a
    seen-set.
    """
    variables = query.variables
    head = tuple(query.head if head is None else head)
    if head == tuple(variables):
        yield from stream
        return
    positions = [variables.index(h) for h in head]
    if set(head) == set(variables):  # permutation: injective, no dedup
        for t in stream:
            yield tuple(t[p] for p in positions)
        return
    seen: set[tuple] = set()
    for t in stream:
        projected = tuple(t[p] for p in positions)
        if projected not in seen:
            seen.add(projected)
            yield projected


def bound_scan(atom: Atom, pinned: Mapping[str, Any], database: Database,
               registry: IndexRegistry | None = None
               ) -> Collection[tuple] | None:
    """The stored rows matching an atom's ``== constant`` columns, or None
    when it has none: one seek into the registry's hash index on exactly
    those columns (built for this call without a registry — the same
    single pass a filtering scan would make).  ``pinned`` maps the pinned
    variables to their constants."""
    positions = [p for p, v in enumerate(atom.variables) if v in pinned]
    if not positions:
        return None
    relation = database.get(atom.relation)
    key = tuple(relation.attributes[p] for p in positions)
    index = (registry.hash_index(atom.relation, key) if registry is not None
             else HashIndex(relation, key))
    return index.lookup([pinned[atom.variables[p]] for p in positions])


def filtered_instance(core: ConjunctiveQuery,
                      selections: Sequence[Comparison],
                      database: Database,
                      registry: IndexRegistry | None = None,
                      ) -> tuple[ConjunctiveQuery, Database, list[Comparison]]:
    """A derived (query, database) with single-atom selections pre-applied.

    For the materializing executors (and the dispatcher's selectivity-aware
    envelope): each atom with pushable selections is rebound to a filtered
    copy of its relation (selection strictly below the join), leaving only
    cross-atom predicates in the returned residual.  An atom with
    ``== constant`` columns is fetched by :func:`bound_scan` — an index
    seek, never a pass — and its remaining predicates run over that
    bucket.  Atoms without selections keep their original relations — no
    copying; when nothing is pushable at all, the original query and
    database are returned as-is.
    """
    per_atom, residual = split_selections(core, selections)
    if not any(per_atom):
        return core, database, residual
    pinned = pinned_constants(selections)
    relations = {}
    new_atoms: list[Atom] = []
    for i, atom in enumerate(core.atoms):
        relation = database.get(atom.relation)
        if not per_atom[i]:
            new_atoms.append(atom)
            relations.setdefault(atom.relation, relation)
            continue
        rows = bound_scan(atom, pinned, database, registry)

        def keep(t: tuple, _vars: tuple = atom.variables,
                 _sels: Sequence[Comparison] = per_atom[i]) -> bool:
            binding = dict(zip(_vars, t))
            return all(s.evaluate(binding) for s in _sels)

        derived_name = f"{atom.relation}#sel{i}"
        relations[derived_name] = Relation(
            derived_name, relation.schema,
            filter(keep, relation.tuples if rows is None else rows))
        new_atoms.append(Atom(derived_name, atom.variables))
    derived_query = ConjunctiveQuery(new_atoms, name=core.name)
    return derived_query, Database(relations.values()), residual


def _trie_requests(query: ConjunctiveQuery, database: Database,
                   order: Sequence[str]) -> list[IndexRequest]:
    """Registry trie layouts for a WCOJ run under a global variable order.

    The layout for an atom is the restriction of the global order to the
    atom's variables, translated to the *stored* relation's column names so
    self-joins and repeated queries land on the same registry key.
    """
    requests: list[IndexRequest] = []
    for i, atom in enumerate(query.atoms):
        relation = database.get(atom.relation)
        layout = tuple(
            relation.attributes[atom.variables.index(v)]
            for v in order if v in atom.variables
        )
        requests.append((query.edge_key(i), atom.relation, layout))
    return requests


def unique_index_layouts(executor: Any, spec: Query, database: Database,
                         payload: Any) -> list[tuple[str, tuple[str, ...]]]:
    """Deduplicated ``(relation, layout)`` pairs a plan's run would use.

    Self-join atoms request the same physical index under distinct edge
    keys; the registry builds it once, so the traced ``index.resolve``
    stage and ``explain``'s warm/cold report both want the per-index
    view, in first-request order.
    """
    seen: set[tuple[str, tuple[str, ...]]] = set()
    layouts: list[tuple[str, tuple[str, ...]]] = []
    for _edge_key, relation_name, layout in executor.index_requests(
            spec, database, payload):
        if (relation_name, layout) not in seen:
            seen.add((relation_name, layout))
            layouts.append((relation_name, layout))
    return layouts


class _Executor:
    """What every executor shares: its payload's mode tag says whether the
    plan aggregates or ranks inside the join.  Only WCOJ and Yannakakis
    payloads carry one; naive, binary and hybrid payloads never do."""

    def handles_aggregation(self, spec: Query, payload: Any) -> bool:
        return bool(spec.aggregates) and payload_aggregate_mode(payload) == "recursion"

    def handles_ordering(self, spec: Query, payload: Any) -> bool:
        return bool(spec.order_by) and payload_ranked_mode(payload) == "anyk"


class _WcojExecutor(_Executor):
    """Shared adaptation of the two streaming WCOJ engines."""

    name: str

    def canonical_payload(self, payload: tuple,
                          canon: CanonicalQuery) -> tuple:
        return canonicalize_wcoj_payload(payload, canon)

    def payload_from_canonical(self, payload: tuple,
                               canon: CanonicalQuery,
                               spec: Query) -> tuple:
        return translate_wcoj_payload(payload, canon)

    def index_requests(self, spec: Query, database: Database,
                       payload: tuple) -> list[IndexRequest]:
        return _trie_requests(spec.core, database, payload_order(payload))

    def _stream_fn(self):
        raise NotImplementedError

    def stream(self, spec: Query, database: Database,
               payload: tuple,
               registry: IndexRegistry | None = None,
               counter: OperationCounter | None = None) -> Iterator[tuple]:
        core = spec.core
        order = payload_order(payload)
        tries: dict[str, TrieIndex] | None = None
        if registry is not None:
            tries = {
                edge_key: registry.trie(relation_name, layout)
                for edge_key, relation_name, layout
                in _trie_requests(core, database, order)
            }
        if self.handles_ordering(spec, payload):
            # Any-k: the stream is already the head tuples in rank order.
            return self._stream_fn()(core, database, order=order,
                                     counter=counter, tries=tries,
                                     selections=spec.all_selections,
                                     head=spec.head_vars,
                                     ranked=spec.order_by)
        if self.handles_aggregation(spec, payload):
            # In-recursion elimination: the stream is already the
            # finalized aggregate rows over the output columns.
            return self._stream_fn()(core, database, order=order,
                                     counter=counter, tries=tries,
                                     selections=spec.all_selections,
                                     head=spec.head_vars,
                                     aggregates=spec.aggregates)
        head = None if spec.aggregates else spec.head_vars
        return self._stream_fn()(core, database, order=order,
                                 counter=counter, tries=tries,
                                 selections=spec.all_selections, head=head)


class GenericJoinExecutor(_WcojExecutor):
    """Generic-Join behind the common protocol."""

    name = "generic"

    def _stream_fn(self):
        return generic_join_stream


class LeapfrogExecutor(_WcojExecutor):
    """Leapfrog Triejoin behind the common protocol."""

    name = "leapfrog"

    def _stream_fn(self):
        return leapfrog_stream


class _NoPayloadExecutor(_Executor):
    """Base for executors whose plan payload is empty.

    They use no registry indexes either; subclasses override the payload
    trio when (like the binary executor) they do carry a plan.
    """

    def plan(self, spec: Query, database: Database) -> Any:
        return None

    def canonical_payload(self, payload: Any, canon: CanonicalQuery) -> Any:
        return payload

    def payload_from_canonical(self, payload: Any, canon: CanonicalQuery,
                               spec: Query) -> Any:
        return payload

    def index_requests(self, spec: Query, database: Database,
                       payload: Any) -> list[IndexRequest]:
        return []


class NaiveExecutor(_NoPayloadExecutor):
    """The nested-loop oracle behind the common protocol."""

    name = "naive"

    def stream(self, spec: Query, database: Database,
               payload: None, registry: IndexRegistry | None = None,
               counter: OperationCounter | None = None) -> Iterator[tuple]:
        inner = nested_loop_stream(spec.core, database, counter=counter,
                                   selections=spec.all_selections)
        if spec.aggregates:
            return inner
        return head_projected(spec.core, inner, head=spec.head_vars)


class BinaryPlanExecutor(_NoPayloadExecutor):
    """Greedy left-deep pairwise plans behind the common protocol.

    The payload is a tuple of atom *indices* (not edge keys): indices
    translate cleanly through the canonical atom order, whereas edge keys
    embed relation occurrence numbering that can differ between isomorphic
    queries.  ``stream`` is :func:`repro.joins.plan.plan_rows`: the joins
    below the root are materialized, the root join streams (a ``LIMIT``
    stops it), and cross-atom comparison predicates fire at the first
    pairwise join that binds both sides.
    """

    name = "binary"

    def plan(self, spec: Query, database: Database) -> tuple[int, ...]:
        return greedy_atom_order(spec.core, database)

    def canonical_payload(self, payload: tuple[int, ...],
                          canon: CanonicalQuery) -> tuple[int, ...]:
        return tuple(canon.canonical_position_of(i) for i in payload)

    def payload_from_canonical(self, payload: tuple[int, ...],
                               canon: CanonicalQuery,
                               spec: Query) -> tuple[int, ...]:
        return tuple(canon.atom_index_at(p) for p in payload)

    def stream(self, spec: Query, database: Database,
               payload: tuple[int, ...],
               registry: IndexRegistry | None = None,
               counter: OperationCounter | None = None) -> Iterator[tuple]:
        derived, derived_db, residual = filtered_instance(
            spec.core, spec.all_selections, database, registry)
        plan = left_deep_plan([derived.edge_key(i) for i in payload])
        rows = plan_rows(plan, derived, derived_db, counter, residual, [])
        if spec.aggregates:
            return rows
        return head_projected(spec.core, rows, head=spec.head_vars)


class YannakakisExecutor(_NoPayloadExecutor):
    """Yannakakis' acyclic-query algorithm behind the common protocol.

    Every mode is one :class:`repro.joins.yannakakis.AnnotatedJoinTree`
    pass, never a materialized join.  A plain payload (and ``("fold",
    ())``, whose fold the engine does) walks the support-only tree's
    candidate lists root-down, so a ``LIMIT`` stops the walk;
    ``("recursion", ())`` yields the tree's group rows — the state IVM
    maintains — and ``("anyk", ())`` runs the ranked frontier.  Scans are
    filtered first (:func:`filtered_instance`); the cross-atom residue
    fires at the first walk depth binding it, on complete assignments
    under any-k, and at the root in-pass.
    """

    name = "yannakakis"

    def stream(self, spec: Query, database: Database,
               payload: Any, registry: IndexRegistry | None = None,
               counter: OperationCounter | None = None) -> Iterator[tuple]:
        derived, derived_db, residual = filtered_instance(
            spec.core, spec.all_selections, database, registry)
        if self.handles_ordering(spec, payload):
            return yannakakis_ranked_stream(
                derived, derived_db, spec.head_vars, spec.order_by,
                selections=residual, counter=counter)
        if self.handles_aggregation(spec, payload):
            return yannakakis_aggregate_stream(
                derived, derived_db, spec.head_vars, spec.aggregates,
                selections=residual, counter=counter)
        rows = yannakakis_stream(derived, derived_db, residual, counter)
        if spec.aggregates:
            return rows
        return head_projected(spec.core, rows, head=spec.head_vars)


#: Operator images under operand swap, for specializing ``v op X`` to a
#: constant-on-the-right predicate when the hybrid binds v to a heavy key.
_MIRRORED_OPS = {"==": "==", "!=": "!=", "<": ">", "<=": ">=",
                 ">": "<", ">=": "<="}


def _keyed_selections(selections: Sequence[Comparison], variable: str,
                      key: Any) -> list[Comparison] | None:
    """``selections`` specialized to the binding ``variable = key``.

    Predicates over the variable alone are decided now: a failing one
    means no row with this key can qualify, signalled by returning None.
    Predicates relating the variable to another variable keep the other
    side, with the key as a constant (mirrored when the variable was on
    the left, since :class:`Comparison` keeps variables on the left).
    """
    kept: list[Comparison] = []
    for sel in selections:
        if variable not in sel.variables:
            kept.append(sel)
        elif sel.variables == frozenset((variable,)):
            if not sel.evaluate({variable: key}):
                return None
        elif sel.lhs == variable:
            kept.append(Comparison(sel.rhs, _MIRRORED_OPS[sel.op],
                                   Constant(key)))
        else:
            kept.append(Comparison(sel.lhs, sel.op, Constant(key)))
    return kept


class HybridExecutor(_NoPayloadExecutor):
    """Heavy/light partitioned plans behind the common protocol.

    The payload is ``("hybrid", variable, threshold, heavy_strategy,
    light_strategy)``: the skew variable and degree threshold the
    dispatcher derived from the instance statistics, plus the per-side
    executor names.  ``stream`` partitions every relation touching the
    skew variable by value heaviness
    (:func:`repro.joins.hybrid.partition_instance`), runs each side
    through its own sub-plans (selections pushed down by the
    sub-executors, shared operation counter), and stitches the result
    streams.  Heaviness is a property of the skew variable's *value*,
    so the sides' full bindings are disjoint — the stitch is
    concatenation, with a seen-set on the boundary only when the skew
    variable is projected away (the one case where different sub-streams
    can emit the same head tuple).

    The heavy side is where binding buys structure: with
    ``heavy_strategy == "yannakakis"`` each of the few heavy keys is
    bound in turn, the skew variable *drops out* of every touched atom
    (a triangle residual is a 2-path, a star residual a cross product of
    unary scans), and the acyclic residual runs an output-linear
    Yannakakis sub-plan — so a single hub never pays the hub-times-hub
    pairwise blowup.  A cyclic residual falls back to one whole-side
    binary sub-plan (``heavy_strategy == "binary"``).  The light side
    has per-key degree <= threshold in every touched relation, exactly
    the regime where generic join's intersections stay cheap; its
    variable order binds the skew variable first to keep that bound in
    force from the top of the search.

    Aggregate queries stream full core-variable tuples from both sides
    (disjoint on the skew binding, hence an exact multiset) and leave the
    ⊕-fold to the engine; ordered queries drain and leave the sort to the
    engine — so neither ``handles_aggregation`` nor ``handles_ordering``.
    """

    name = "hybrid"

    def canonical_payload(self, payload: tuple,
                          canon: CanonicalQuery) -> tuple:
        tag, variable, threshold, heavy, light = payload
        return (tag, canon.canonicalize_variables((variable,))[0],
                threshold, heavy, light)

    def payload_from_canonical(self, payload: tuple,
                               canon: CanonicalQuery,
                               spec: Query) -> tuple:
        tag, variable, threshold, heavy, light = payload
        return (tag, canon.translate_variables((variable,))[0],
                threshold, heavy, light)

    def stream(self, spec: Query, database: Database,
               payload: tuple,
               registry: IndexRegistry | None = None,
               counter: OperationCounter | None = None) -> Iterator[tuple]:
        _tag, variable, threshold, heavy_strategy, light_strategy = payload
        part = partition_instance(spec.core, database, variable, threshold,
                                  counter=counter)
        streams = []
        if part.heavy_total:
            if heavy_strategy == "yannakakis":
                streams.append(self._heavy_keyed_stream(
                    part, spec, variable, counter))
            else:
                streams.append(self._side_stream(
                    heavy_strategy, part.heavy_query, part.heavy_db, spec,
                    variable, counter))
        if part.light_total:
            streams.append(self._side_stream(
                light_strategy, part.light_query, part.light_db, spec,
                variable, counter))
        boundary_dedup = (not spec.aggregates
                          and variable not in spec.head_vars)
        return self._stitched(streams, boundary_dedup)

    def _heavy_keyed_stream(self, part: HybridPartition, spec: Query,
                            variable: str,
                            counter: OperationCounter | None
                            ) -> Iterator[tuple]:
        """Per-heavy-key residual sub-plans, concatenated over the keys.

        One grouping scan per touched relation buckets the heavy tuples
        by skew value with the skew column projected away (the
        restrictions partition the heavy side, so the total scan work is
        ``heavy_total`` regardless of the key count).  Then, per key:
        selections mentioning the skew variable are specialized to the
        key (an unsatisfiable constant predicate skips the key), every
        touched atom drops the variable — an atom *only* over it becomes
        an existence gate — and the residual runs as an ordinary
        Yannakakis sub-query, with the key re-inserted into each emitted
        row at the position the stitched head expects.
        """
        head = (spec.core.variables if spec.aggregates
                else tuple(spec.head_vars))
        residual_head = tuple(h for h in head if h != variable)
        insert_at = head.index(variable) if variable in head else None
        grouped = self._heavy_by_key(part, spec, variable, counter)
        try:
            keys = sorted(part.heavy_keys)
        except TypeError:  # mixed-type key column: any stable order works
            keys = sorted(part.heavy_keys, key=repr)
        executor = executor_for("yannakakis")
        for key in keys:
            instance = self._keyed_instance(part, spec, grouped, key)
            if instance is None:
                continue
            atoms, keyed_db = instance
            selections = _keyed_selections(spec.all_selections, variable,
                                           key)
            if selections is None:
                continue
            if not atoms:
                # Every atom was a satisfied existence gate on the skew
                # variable, so the head can only be the variable itself.
                yield (key,) * len(head)
                continue
            if residual_head:
                sub_head = residual_head
            else:
                # The head was just the skew variable: any witness from
                # the residual proves (key,); probe one row.
                sub_head = (atoms[0].variables[0],)
            sub_spec = Query(atoms, selections=selections, head=sub_head,
                             name=f"{spec.core.name}#key")
            sub_payload = executor.plan(sub_spec, keyed_db)
            rows = executor.stream(sub_spec, keyed_db, sub_payload,
                                   registry=None, counter=counter)
            if not residual_head:
                if next(iter(rows), None) is not None:
                    yield (key,) * len(head)
            elif insert_at is None:
                yield from rows
            else:
                for row in rows:
                    yield row[:insert_at] + (key,) + row[insert_at:]

    @staticmethod
    def _heavy_by_key(part: HybridPartition, spec: Query, variable: str,
                      counter: OperationCounter | None) -> dict:
        """Per touched atom: the heavy tuples bucketed by skew value,
        skew column(s) projected away.  A tuple binding the variable to
        two different values in one atom (a repeated-variable atom) can
        never satisfy it and is dropped."""
        grouped: dict[int, dict] = {}
        for i in part.touched:
            atom = spec.core.atoms[i]
            relation = part.heavy_db.get(part.heavy_query.atoms[i].relation)
            if counter is not None:
                counter.charge(tuples_scanned=len(relation))
            key_positions = [j for j, v in enumerate(atom.variables)
                             if v == variable]
            keep = [j for j, v in enumerate(atom.variables)
                    if v != variable]
            buckets: dict = {}
            first = key_positions[0]
            for t in relation.tuples:
                key = t[first]
                if any(t[j] != key for j in key_positions[1:]):
                    continue
                buckets.setdefault(key, set()).add(
                    tuple(t[j] for j in keep))
            grouped[i] = (keep, buckets)
        return grouped

    @staticmethod
    def _keyed_instance(part: HybridPartition, spec: Query, grouped: dict,
                        key: Any) -> tuple[list[Atom], Database] | None:
        """The residual (atoms, database) for one heavy key, or None when
        some touched atom has no tuple for the key (the conjunction is
        empty there and the key contributes nothing)."""
        atoms: list[Atom] = []
        relations: dict[str, Relation] = {}
        for i, atom in enumerate(spec.core.atoms):
            heavy_atom = part.heavy_query.atoms[i]
            if i not in grouped:
                atoms.append(heavy_atom)
                relations.setdefault(
                    heavy_atom.relation,
                    part.heavy_db.get(heavy_atom.relation))
                continue
            keep, buckets = grouped[i]
            restricted = buckets.get(key)
            if not restricted:
                return None
            if not keep:
                continue  # unary skew atom: a satisfied existence gate
            source = part.heavy_db.get(heavy_atom.relation)
            name = f"{heavy_atom.relation}@key"
            relations[name] = Relation(
                name, tuple(source.attributes[j] for j in keep), restricted)
            atoms.append(Atom(name, tuple(atom.variables[j] for j in keep)))
        return atoms, Database(relations.values())

    @staticmethod
    def _side_stream(strategy: str, side_core: ConjunctiveQuery,
                     side_db: Database, spec: Query, variable: str,
                     counter: OperationCounter | None) -> Iterator[tuple]:
        # Aggregate sides stream full core tuples so the engine's fold
        # observes every binding; plain sides project to the head.
        head = (spec.core.variables if spec.aggregates else spec.head_vars)
        side_spec = Query(side_core.atoms, selections=spec.all_selections,
                          head=head, name=side_core.name)
        executor = executor_for(strategy)
        if isinstance(executor, _WcojExecutor):
            # Bind the skew variable first: on the light side that keeps
            # every intersection under the degree threshold from the top
            # of the search; on the heavy side it enumerates the few
            # heavy keys outermost.
            side_payload = hybrid_light_order(
                side_spec.core, variable, fixed=side_spec.fixed_variables,
                leading=side_spec.head_vars)
        else:
            side_payload = executor.plan(side_spec, side_db)
        return executor.stream(side_spec, side_db, side_payload,
                               registry=None, counter=counter)

    @staticmethod
    def _stitched(streams: Iterable[Iterator[tuple]],
                  boundary_dedup: bool) -> Iterator[tuple]:
        if not boundary_dedup:
            for stream in streams:
                yield from stream
            return
        seen: set[tuple] = set()
        for stream in streams:
            for row in stream:
                if row not in seen:
                    seen.add(row)
                    yield row


#: Executor instances, keyed by strategy name (executors are stateless).
EXECUTORS = {
    executor.name: executor
    for executor in (GenericJoinExecutor(), LeapfrogExecutor(),
                     NaiveExecutor(), BinaryPlanExecutor(),
                     YannakakisExecutor(), HybridExecutor())
}


def executor_for(strategy: str) -> Any:
    """Look up an executor by strategy name."""
    try:
        return EXECUTORS[strategy]
    except KeyError:
        raise QueryError(
            f"unknown strategy {strategy!r}; expected one of {sorted(EXECUTORS)}"
        ) from None
