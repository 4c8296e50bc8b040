"""Yannakakis' algorithm for alpha-acyclic queries.

The classical counterpoint to WCOJ algorithms: when the query hypergraph is
alpha-acyclic, a full semijoin reduction along a join tree followed by joins
in reverse order evaluates the query in O(|D| + |output|) — no pairwise plan
pathology, no need for multiway intersection.  The paper's separation results
are precisely about the *cyclic* queries where this classical route is
unavailable; having Yannakakis in the library lets the optimizer (and the
experiments) treat the acyclic case with the right tool and makes the
"cyclic is where WCOJ matters" story executable.

Beyond the plain join, the module holds the join tree's annotated pass
and its two uses:

* cross-atom comparison predicates can be handed to :func:`yannakakis`
  (``selections``) and are applied *during* the bottom-up joins, at the
  first join where both sides are bound, instead of filtering the finished
  output;
* :class:`AnnotatedJoinTree` is the FAQ aggregate as ⊕/⊗ message passing
  (AJAR-style early aggregation): each input tuple is annotated with
  semiring values, join-tree messages are aggregated down to the parent
  separator before joining (``⊕`` over eliminated variables, ``⊗``
  across joined tuples), and group-by columns survive to the root — so an
  acyclic group-by never materializes the join, keeping the output-linear
  guarantee for the *aggregate* output.  The finished tree is also the
  state incremental view maintenance (:mod:`repro.ivm`) repairs: a tuple
  delta re-derives only the messages on the changed leaf's root path with
  :func:`ann_project` and :func:`ann_join`.
  :func:`yannakakis_aggregate_stream` builds one over
  :func:`aggregate_lifts` and yields its rows;
* :func:`yannakakis_ranked_stream` is the any-k instance of the same pass:
  one :class:`AnnotatedJoinTree` in the **ordering semiring**
  (:func:`repro.query.semiring.ranking_semiring`) annotates every tuple
  with the best sort-key contribution of its join-tree subtree, and a
  Lawler/REA-style priority frontier expands root-down tuple assignments
  in exact bound order — ``ORDER BY ... LIMIT k`` emits k rows after one
  annotated pass, with no semijoin reduction and without materializing
  the join.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter, phase
from repro.joins.plan import (
    apply_covered_selections,
    raise_if_pending,
    split_selections,
)
from repro.query.atoms import ConjunctiveQuery
from repro.query.decomposition import gyo_reduction
from repro.query.semiring import (
    RANKING,
    SEMIRINGS,
    Aggregate,
    Semiring,
    rank_component,
)
from repro.query.terms import Comparison
from repro.relational.database import Database
from repro.relational.operators import natural_join, semijoin
from repro.relational.relation import Relation


@dataclass(frozen=True)
class JoinTree:
    """A GYO join tree over a query's edge keys.

    ``order`` is the bottom-up (ear-elimination) sequence — every node
    appears before its parent, the root last — and ``children`` lists
    each node's children in that same absorption order, which is the
    deterministic schema-construction order the annotated passes rely on.
    """

    parent: Mapping[str, str | None]
    children: Mapping[str, tuple[str, ...]]
    order: tuple[str, ...]
    root: str


def join_tree_of(query: ConjunctiveQuery) -> JoinTree:
    """The query's GYO join tree (raises :class:`QueryError` if cyclic)."""
    reduction = gyo_reduction(query.hypergraph())
    if not reduction.acyclic:
        raise QueryError(
            f"query {query.name!r} is not alpha-acyclic; use a WCOJ algorithm instead"
        )
    order = tuple(reduction.elimination_order)
    children: dict[str, list[str]] = {node: [] for node in order}
    for node in order:
        par = reduction.parent[node]
        if par is not None:
            children[par].append(node)
    return JoinTree(
        parent=dict(reduction.parent),
        children={node: tuple(kids) for node, kids in children.items()},
        order=order,
        root=order[-1],
    )


def _semijoin_passes(relations: dict[str, Relation], tree: JoinTree,
                     counter: OperationCounter | None) -> None:
    """The two semijoin passes (bottom-up then top-down), in place.

    With a detail counter, each pass attributes its work under
    ``semijoin.bottom_up`` / ``semijoin.top_down``.
    """
    with phase(counter, "semijoin.bottom_up"):
        for node in tree.order:
            par = tree.parent[node]
            if par is None:
                continue
            relations[par] = semijoin(relations[par], relations[node],
                                      counter=counter)
    with phase(counter, "semijoin.top_down"):
        for node in reversed(tree.order):
            for child in tree.children[node]:
                relations[child] = semijoin(relations[child], relations[node],
                                            counter=counter)


def yannakakis(query: ConjunctiveQuery, database: Database,
               counter: OperationCounter | None = None,
               selections: Sequence[Comparison] = ()) -> Relation:
    """Evaluate an alpha-acyclic full conjunctive query with Yannakakis'
    algorithm.

    Phases:

    1. build a join tree from the GYO reduction;
    2. bottom-up semijoin pass (children reduce their parents);
    3. top-down semijoin pass (parents reduce their children);
    4. join bottom-up; after the two passes every intermediate join result
       is no larger than the final output times the subtree's contribution,
       giving the classical O(|D| + |output|) guarantee for full queries.

    ``selections`` (comparison predicates over the query variables, e.g.
    the cross-atom residue the engine cannot push into a single scan) are
    applied mid-plan: at the first relation — base or intermediate join
    result — whose schema covers all their variables, so predicates
    spanning atoms prune during phase 4 instead of post-filtering the
    output.

    Raises
    ------
    QueryError
        If the query hypergraph is not alpha-acyclic.
    """
    tree = join_tree_of(query)
    relations = dict(query.bind(database))
    pending = list(selections)
    if pending:
        relations = {key: apply_covered_selections(rel, pending, counter)
                     for key, rel in relations.items()}

    # Phases 2–3: the semijoin reduction.
    _semijoin_passes(relations, tree, counter)

    # Phase 4: join bottom-up, firing cross-atom predicates as soon as a
    # join binds all their variables.
    with phase(counter, "join"):
        for node in tree.order:
            par = tree.parent[node]
            if par is None:
                continue
            joined = natural_join(relations[par], relations[node],
                                  counter=counter)
            if pending:
                joined = apply_covered_selections(joined, pending, counter)
            if counter is not None:
                counter.charge(intermediate_tuples=len(joined))
            relations[par] = joined

    result = relations[tree.root]
    raise_if_pending(pending, query)
    variables = query.variables
    missing = [v for v in variables if v not in result.schema]
    if missing:
        raise QueryError(
            f"internal error: join tree result is missing variables {missing}"
        )
    ordered = result.reorder(variables, name=query.name)
    if tuple(query.head) != tuple(variables):
        ordered = ordered.project(query.head, name=query.name)
    return ordered


def semijoin_reduce(query: ConjunctiveQuery, database: Database,
                    counter: OperationCounter | None = None) -> dict[str, Relation]:
    """The full (bottom-up + top-down) semijoin reduction only.

    Returns the reduced relation per edge key.  After this pass every
    remaining tuple participates in at least one output tuple (for acyclic
    queries), which is the precondition for output-linear join evaluation.
    """
    tree = join_tree_of(query)
    relations = dict(query.bind(database))
    _semijoin_passes(relations, tree, counter)
    return relations


# ----------------------------------------------------------------------
# In-pass semiring aggregation (AJAR-style early aggregation).
# ----------------------------------------------------------------------

#: An annotated relation: variable schema plus one annotation list (one
#: value per semiring coordinate) for each tuple.
AnnTable = tuple[tuple[str, ...], dict[tuple, list]]

#: The hidden support ring: coordinate 0 of every annotation vector.
_SUPPORT: Semiring = SEMIRINGS["count"]


def ann_project(table: AnnTable, keep: Sequence[str],
                semirings: Sequence[Semiring],
                counter: OperationCounter | None = None) -> AnnTable:
    """The ``⊕`` message: aggregate an annotated table onto ``keep``.

    Returns ``table`` itself when ``keep`` is already its schema.
    """
    schema, rows = table
    keep = tuple(keep)
    if keep == schema:
        return table
    positions = [schema.index(v) for v in keep]
    out: dict[tuple, list] = {}
    for row, ann in rows.items():
        key = tuple(row[p] for p in positions)
        existing = out.get(key)
        if existing is None:
            out[key] = list(ann)
        else:
            for i, sr in enumerate(semirings):
                existing[i] = sr.plus(existing[i], ann[i])
    if counter is not None:
        counter.charge(tuples_scanned=len(rows), tuples_emitted=len(out))
    return keep, out


def ann_join(left: AnnTable, right: AnnTable,
             semirings: Sequence[Semiring],
             counter: OperationCounter | None = None) -> AnnTable:
    """The ``⊗`` annotated natural join: combine two annotated tables on
    their common columns, multiplying annotations coordinatewise."""
    left_schema, left_rows = left
    right_schema, right_rows = right
    common = [v for v in left_schema if v in right_schema]
    extra = [v for v in right_schema if v not in left_schema]
    left_common = [left_schema.index(v) for v in common]
    right_common = [right_schema.index(v) for v in common]
    right_extra = [right_schema.index(v) for v in extra]

    table: dict[tuple, list[tuple[tuple, list]]] = {}
    for row, ann in right_rows.items():
        key = tuple(row[p] for p in right_common)
        table.setdefault(key, []).append((row, ann))
    if counter is not None:
        counter.charge(tuples_scanned=len(right_rows),
                       hash_inserts=len(right_rows))

    out: dict[tuple, list] = {}
    for row, ann in left_rows.items():
        key = tuple(row[p] for p in left_common)
        for other, other_ann in table.get(key, ()):
            joined = row + tuple(other[p] for p in right_extra)
            out[joined] = [sr.times(a, b) for sr, a, b
                           in zip(semirings, ann, other_ann)]
    if counter is not None:
        counter.charge(tuples_scanned=len(left_rows),
                       hash_probes=len(left_rows), tuples_emitted=len(out))
    return left_schema + tuple(extra), out


#: A node's lift: a base tuple's annotation coordinates, one per caller
#: semiring (the tree prepends the support).
Lift = Callable[[tuple], list]


def _designated(query: ConjunctiveQuery, variables: Sequence[str | None]
                ) -> dict[str, dict[int, int]]:
    """Per edge key, ``{i: position}`` of each ``variables[i]`` whose
    *designated* atom — the first body atom holding it — is that edge's."""
    owned: dict[str, dict[int, int]] = {
        query.edge_key(j): {} for j in range(len(query.atoms))}
    for i, variable in enumerate(variables):
        if variable is None:
            continue
        for j, atom in enumerate(query.atoms):
            if variable in atom.variable_set:
                owned[query.edge_key(j)][i] = tuple(atom.variables).index(
                    variable)
                break
        else:
            raise QueryError(f"{variable!r} is bound by no atom")
    return owned


def aggregate_lifts(query: ConjunctiveQuery, aggregates: Sequence[Aggregate]
                    ) -> tuple[list[Semiring], dict[str, Lift]]:
    """The semirings and per-node lifts of in-pass aggregation.

    Each aggregate's designated atom lifts its input variable; every other
    atom lifts the semiring's ``one``.  Distributivity is what makes the
    tree's early ``⊕`` sound, so every aggregate needs a product semiring
    (``times``/``one``); a plus-only one raises :class:`QueryError`.
    """
    semirings = []
    for agg in aggregates:
        sr = agg.semiring()
        if not sr.has_product:
            raise QueryError(
                f"aggregate {agg} uses the plus-only semiring {sr.name!r}; "
                "in-pass aggregation needs a product semiring (times/one)"
            )
        semirings.append(sr)

    def lift_of(owned: dict[int, int]) -> Lift:
        plan = [(sr, owned.get(i)) for i, sr in enumerate(semirings)]

        def lift(row: tuple) -> list:
            return [sr.one if pos is None else sr.lift(row[pos])
                    for sr, pos in plan]

        return lift

    designated = _designated(query, [agg.var for agg in aggregates])
    return semirings, {edge: lift_of(owned)
                       for edge, owned in designated.items()}


class AnnotatedNode:
    """One join-tree node of an :class:`AnnotatedJoinTree`."""

    __slots__ = ("edge", "relation", "schema", "parent", "children", "sep",
                 "keep", "coordinates", "selections", "table", "message")

    def __init__(self, edge: str, relation: str, schema: tuple[str, ...],
                 parent: str | None, children: tuple[str, ...],
                 coordinates: Lift, selections: Sequence[Comparison]):
        self.edge = edge
        self.relation = relation
        self.schema = schema
        self.parent = parent
        self.children = children
        #: Separator columns with the parent (child-schema order).
        self.sep: tuple[str, ...] = ()
        #: Message columns (separator ∪ group ∪ residual-selection vars).
        self.keep: tuple[str, ...] = ()
        #: Row -> the caller's annotation coordinates for a base tuple.
        self.coordinates = coordinates
        #: The single-atom selections this node's atom covers.
        self.selections = tuple(selections)
        #: The annotated base table: row -> annotation vector.
        self.table: dict[tuple, list] = {}
        #: The ``⊕``-projected message to the parent (non-root nodes
        #: only); it owns its rows, never sharing ``table``'s dict.
        self.message: AnnTable = ((), {})

    def lift(self, row: tuple) -> list:
        """A base tuple's annotation vector: support 1, then the caller's
        coordinates."""
        return [1, *self.coordinates(row)]

    def admits(self, row: tuple) -> bool:
        """Whether a base tuple passes the node's single-atom selections."""
        if not self.selections:
            return True
        binding = dict(zip(self.schema, row))
        return all(sel.evaluate(binding) for sel in self.selections)


class AnnotatedJoinTree:
    """An acyclic query as annotated ⊕/⊗ join-tree messages.

    The constructor annotates every node's base table in one scan of the
    database:

    * ``lifts[edge]`` maps a base tuple of that node to its annotation
      coordinates, one per entry of ``semirings`` (:func:`aggregate_lifts`
      builds them for aggregates, :func:`yannakakis_ranked_stream` for
      sort keys);
    * every annotation vector starts with a hidden **support** coordinate
      (the COUNT ring): the number of join assignments behind a message
      entry or group, so a repair can tell "cancelled to zero" from "no
      longer derivable";
    * single-atom selections filter each covering node's base table.

    :meth:`pass_messages` then runs the bottom-up pass:

    * each node's table, ⊗-joined with its children's messages, is
      ``⊕``-projected onto its separator plus the group-by and
      residual-selection columns and joined into its parent;
    * the cross-atom residue filters the root's join, which is then
      projected onto the group columns: the group accumulators.

    Distributivity is what makes the early ``⊕`` sound, so every semiring
    needs a product (``times``/``one``).  No semijoin reduction runs: the
    message joins drop dangling tuples by themselves, and a reduced state
    is one a later delta would invalidate.  The tree keeps every node's
    table and message, which is what :class:`repro.ivm.view.ViewState`
    repairs, and no joined table.

    Raises :class:`QueryError` when the query is cyclic or a selection
    mentions a variable the query does not bind.
    """

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 group: Sequence[str], semirings: Sequence[Semiring],
                 lifts: Mapping[str, Lift],
                 selections: Sequence[Comparison] = (),
                 counter: OperationCounter | None = None):
        self.tree = join_tree_of(query)  # raises QueryError when cyclic
        self.group = tuple(group)
        self.semirings: list[Semiring] = [_SUPPORT, *semirings]

        per_atom, residual = split_selections(query, selections)
        variables = set(query.variables)
        raise_if_pending([sel for sel in residual
                          if not sel.variables <= variables], query)
        self.residual = tuple(residual)

        self.nodes: dict[str, AnnotatedNode] = {}
        for j, atom in enumerate(query.atoms):
            edge = query.edge_key(j)
            self.nodes[edge] = AnnotatedNode(
                edge, atom.relation, tuple(atom.variables),
                self.tree.parent[edge], self.tree.children[edge],
                lifts[edge], per_atom[j])

        with phase(counter, "annotate"):
            for edge, relation in query.bind(database).items():
                node = self.nodes[edge]
                for t in relation:
                    if node.admits(t):
                        node.table[t] = node.lift(t)
                if counter is not None:
                    counter.charge(tuples_scanned=len(relation))

        #: Group key -> annotation vector: the root's accumulators, set by
        #: :meth:`pass_messages`.
        self.groups: dict[tuple, list] = {}

    def pass_messages(self, counter: OperationCounter | None = None
                      ) -> Iterator[tuple[AnnotatedNode, AnnTable]]:
        """Run the bottom-up message pass, then set :attr:`groups`.

        Yields each node (children before parents, the root last) with
        its table ⊗ its children's messages, right before that table's
        ``⊕``-projection; the yielded tables are read-only and the tree
        holds none of them afterwards.
        """
        still_needed = set(self.group)
        for sel in self.residual:
            still_needed |= sel.variables
        acc: dict[str, AnnTable] = {
            edge: (node.schema, node.table)
            for edge, node in self.nodes.items()
        }
        with phase(counter, "messages"):
            for edge in self.tree.order:
                node = self.nodes[edge]
                if node.parent is not None:
                    parent_vars = set(self.nodes[node.parent].schema)
                    node.sep = tuple(v for v in node.schema
                                     if v in parent_vars)
                table = acc.pop(edge)
                yield node, table
                if node.parent is None:
                    break  # the root is last
                node.keep = tuple(v for v in table[0]
                                  if v in node.sep or v in still_needed)
                message_schema, rows = ann_project(
                    table, node.keep, self.semirings, counter)
                node.message = (message_schema,
                                dict(rows) if rows is node.table else rows)
                acc[node.parent] = ann_join(acc[node.parent], node.message,
                                            self.semirings, counter)
        self.groups = dict(self.project_groups(table, counter)[1])

    def project_groups(self, joined: AnnTable,
                       counter: OperationCounter | None) -> AnnTable:
        """Filter a root join by the residual selections, then project it
        onto the group columns."""
        schema, rows = joined
        if self.residual:
            filtered: dict[tuple, list] = {}
            for row, ann in rows.items():
                binding = dict(zip(schema, row))
                if all(sel.evaluate(binding) for sel in self.residual):
                    filtered[row] = ann
            if counter is not None:
                counter.charge(tuples_scanned=len(rows))
            rows = filtered
        return ann_project((schema, rows), self.group, self.semirings,
                           counter)

    def rows(self) -> list[tuple]:
        """The output rows (group keys + finalized aggregates)."""
        aggregate_srs = self.semirings[1:]
        out = [
            key + tuple(sr.finish(a)
                        for sr, a in zip(aggregate_srs, ann[1:]))
            for key, ann in self.groups.items()
        ]
        if not self.groups and not self.group and aggregate_srs:
            # SQL-style group-free aggregate of an empty join.
            out.append(tuple(sr.finish(sr.zero) for sr in aggregate_srs))
        return out


def yannakakis_aggregate_stream(query: ConjunctiveQuery, database: Database,
                                group: Sequence[str],
                                aggregates: Sequence[Aggregate],
                                selections: Sequence[Comparison] = (),
                                counter: OperationCounter | None = None,
                                ) -> Iterator[tuple]:
    """Aggregate an alpha-acyclic query *inside* the join-tree pass.

    Yields finalized rows ``group values + aggregate values`` of one
    :class:`AnnotatedJoinTree` build, without ever materializing the join.
    ``selections`` may be any comparisons over the query variables:
    single-atom ones filter the scans, the rest filter the root.
    Plus-only monoids raise :class:`QueryError`; the engine runs them in
    its stream-fold mode instead.
    """
    semirings, lifts = aggregate_lifts(query, aggregates)
    tree = AnnotatedJoinTree(query, database, group, semirings, lifts,
                             selections, counter)
    for _node, _table in tree.pass_messages(counter):
        pass
    rows = tree.rows()
    if counter is not None:
        counter.charge(tuples_emitted=len(rows))
    yield from rows


# ----------------------------------------------------------------------
# Any-k ranked enumeration over the annotated join tree (Lawler/REA).
# ----------------------------------------------------------------------


def yannakakis_ranked_stream(query: ConjunctiveQuery, database: Database,
                             head: Sequence[str],
                             order_by: Sequence[tuple[str, bool]],
                             selections: Sequence[Comparison] = (),
                             counter: OperationCounter | None = None,
                             ) -> Iterator[tuple]:
    """Enumerate an alpha-acyclic query's head rows in exact sort order.

    The any-k counterpart of :func:`yannakakis_aggregate_stream`: instead
    of materializing the join and heap-selecting, the join tree itself is
    annotated in the ordering semiring and enumerated best-first.

    1. *Annotate*: one :class:`AnnotatedJoinTree` pass in ``RANKING``.
       Every sort-key column is owned by its designated atom, whose lift
       holds the tuple's own key components; each node's table ⊗ its
       children's messages annotates a tuple with the lexicographically
       best sort-key contribution its whole subtree can achieve (the
       join-tree analogue of the WCOJ per-separator best-suffix bounds)
       and drops every tuple with no complete subtree.  Those tables,
       grouped by the parent separator and sorted by annotation, are the
       candidate lists.  No semijoin reduction runs: the root-down
       expansion only ever looks up candidates matching a chosen parent.
    2. *Enumerate* (Lawler/REA successor expansion): states assign tuples
       to a root-down prefix of the tree nodes; a state's priority is the
       exact best full key among its completions — chosen tuples
       contribute their actual components, unassigned subtrees their
       annotations.  Popping a state pushes its first extension (next
       node's best matching tuple, same priority) and its last-choice
       successor (the next tuple in that node's annotation-sorted
       candidate list), so every assignment is reached exactly once and
       pops are monotone in the sort order.  Complete assignments are
       buffered per key class and emitted in the drain tie-break order
       (ascending head row), making the stream prefix bit-identical to
       sort-and-drain.

    ``selections`` are the engine's cross-atom residue: predicates a
    single node's schema covers filter that node's table; genuinely
    cross-node predicates are checked on complete assignments (their
    pruning is invisible to the bounds, which stay admissible, so rank
    order is unaffected).

    Raises :class:`QueryError` when the query is not alpha-acyclic.
    """
    keys = [(variable, bool(descending)) for variable, descending in order_by]
    if not keys:
        raise QueryError("ranked enumeration needs at least one ORDER BY key")
    head = tuple(head)
    variables = set(query.variables)
    unknown = sorted({v for v, _d in keys if v not in variables}
                     | {h for h in head if h not in variables})
    if unknown:
        raise QueryError(
            f"ranked head/ORDER BY variables {unknown} are not query "
            f"variables {query.variables}"
        )

    def lift_of(owned: dict[int, int]) -> Lift:
        plan = [(p, i, keys[p][1]) for p, i in sorted(owned.items())]

        def lift(row: tuple) -> list:
            return [tuple((p, rank_component(row[i], d)) for p, i, d in plan)]

        return lift

    _per_atom, residual = split_selections(query, selections)
    owners = _designated(query, [variable for variable, _d in keys])
    annotated = AnnotatedJoinTree(
        query, database, (), [RANKING],
        {edge: lift_of(owned) for edge, owned in owners.items()},
        [sel for sel in selections if sel not in residual], counter)
    # Each node's table ⊗ its children's messages, grouped by the parent
    # separator and sorted by annotation: its candidate lists.
    candidates: dict[str, dict[tuple, list[tuple]]] = {}
    for node, (_schema, rows) in annotated.pass_messages(counter):
        positions = [node.schema.index(v) for v in node.sep]
        grouped: dict[tuple, list[tuple]] = {}
        for row, ann in rows.items():
            grouped.setdefault(tuple(row[p] for p in positions),
                               []).append((ann[1], row))
        if counter is not None:
            counter.charge(hash_inserts=len(rows))
        for group_rows in grouped.values():
            group_rows.sort(key=lambda pair: tuple(c for _p, c in pair[0]))
        candidates[node.edge] = grouped

    # Root-down node sequence (parents before children, the root first);
    # per depth, the node's candidate lists and where its parent's
    # separator value sits in the state (the root's list is keyed ()).
    sequence = [annotated.nodes[edge]
                for edge in reversed(annotated.tree.order)]
    depth_of = {node.edge: depth for depth, node in enumerate(sequence)}
    lookups = [(candidates[node.edge], depth_of.get(node.parent, 0),
                [annotated.nodes[node.parent].schema.index(v)
                 for v in node.sep])
               for node in sequence]

    root_groups = lookups[0][0]
    if not root_groups:
        return

    def candidate_list(state_rows: tuple, depth: int) -> list[tuple]:
        grouped, parent_depth, positions = lookups[depth]
        parent_row = state_rows[parent_depth]
        return grouped[tuple(parent_row[p] for p in positions)]

    def dense(priority: tuple, ann: tuple) -> tuple:
        """Replace an annotation's positions inside a dense priority."""
        components = list(priority)
        for p, component in ann:
            components[p] = component
        return tuple(components)

    initial_ann, initial_row = root_groups[()][0]
    heap: list = [(dense((None,) * len(keys), initial_ann),
                   0, (0,), (initial_row,))]
    tick = itertools.count(1)

    # Tie-class buffer: rows of one key class are collected and emitted in
    # ascending row order (the drain tie-break) once the frontier proves no
    # more rows of that class remain (heap minimum strictly larger).
    buffer_key: tuple | None = None
    buffer_rows: set[tuple] = set()

    def complete_row(rows: tuple) -> tuple | None:
        binding = {}
        for node, row in zip(sequence, rows):  # lint: disable=counter-honesty -- one row per join-tree node (query-sized), not relation tuples; each completion is charged as a frontier pop
            binding.update(zip(node.schema, row))
        if residual and not all(sel.evaluate(binding) for sel in residual):
            return None
        return tuple(binding[h] for h in head)

    with phase(counter, "frontier"):
        while heap:
            priority, _tick, indices, rows = heapq.heappop(heap)
            if counter is not None:
                counter.charge(search_nodes=1)
            if buffer_rows and priority > buffer_key:
                for row in sorted(buffer_rows):
                    if counter is not None:
                        counter.charge(tuples_emitted=1)
                    yield row
                buffer_key, buffer_rows = None, set()
            depth = len(indices) - 1
            # Successor: the next candidate at the last assigned node.
            successor_list = candidate_list(rows, depth)
            nxt = indices[depth] + 1
            if nxt < len(successor_list):
                ann, row = successor_list[nxt]
                heapq.heappush(heap, (
                    dense(priority, ann), next(tick),
                    indices[:depth] + (nxt,), rows[:depth] + (row,),
                ))
            if depth + 1 < len(sequence):
                # Extension: the next node's best matching tuple.  Its
                # subtree bound is already in the priority (the message
                # minimum equals the sorted candidate list's head), so the
                # priority is unchanged.
                extension_list = candidate_list(rows, depth + 1)
                _ann, row = extension_list[0]
                heapq.heappush(heap, (
                    priority, next(tick), indices + (0,), rows + (row,),
                ))
            else:
                row = complete_row(rows)
                if row is not None:
                    if buffer_key is None:
                        buffer_key = priority
                    buffer_rows.add(row)
        for row in sorted(buffer_rows):
            if counter is not None:
                counter.charge(tuples_emitted=1)
            yield row
