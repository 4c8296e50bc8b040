"""Yannakakis' algorithm for alpha-acyclic queries.

The classical counterpoint to WCOJ algorithms: when the query hypergraph is
alpha-acyclic, a full semijoin reduction along a join tree followed by joins
in reverse order evaluates the query in O(|D| + |output|) — no pairwise plan
pathology, no need for multiway intersection.  The paper's separation results
are precisely about the *cyclic* queries where this classical route is
unavailable; having Yannakakis in the library lets the optimizer (and the
experiments) treat the acyclic case with the right tool and makes the
"cyclic is where WCOJ matters" story executable.

Beyond the plain join, the module holds the join tree's two annotated
passes:

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
  :func:`yannakakis_aggregate_stream` builds one and yields its rows;
* :func:`yannakakis_ranked_stream` is the any-k instance of the same
  annotated-message machinery: tuples are annotated in the **ordering
  semiring** (:func:`repro.query.semiring.ranking_semiring`) with the best
  sort-key contribution of their join-tree subtree, and a Lawler/REA-style
  priority frontier expands root-down tuple assignments in exact bound
  order — ``ORDER BY ... LIMIT k`` emits k rows after the reduction plus
  the bottom-up DP, never materializing the join.
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
        if counter is not None:
            counter.charge(tuples_scanned=1, hash_probes=1)
        key = tuple(row[p] for p in left_common)
        for other, other_ann in table.get(key, ()):
            joined = row + tuple(other[p] for p in right_extra)
            out[joined] = [sr.times(a, b) for sr, a, b
                           in zip(semirings, ann, other_ann)]
            if counter is not None:
                counter.charge(tuples_emitted=1)
    return left_schema + tuple(extra), out


class AnnotatedNode:
    """One join-tree node of an :class:`AnnotatedJoinTree`."""

    __slots__ = ("edge", "relation", "schema", "parent", "children", "sep",
                 "keep", "lift", "selections", "table", "message")

    def __init__(self, edge: str, relation: str, schema: tuple[str, ...],
                 parent: str | None, children: tuple[str, ...],
                 lift: Callable[[tuple], list],
                 selections: Sequence[Comparison]):
        self.edge = edge
        self.relation = relation
        self.schema = schema
        self.parent = parent
        self.children = children
        #: Separator columns with the parent (child-schema order).
        self.sep: tuple[str, ...] = ()
        #: Message columns (separator ∪ group ∪ residual-selection vars).
        self.keep: tuple[str, ...] = ()
        #: Row -> annotation vector (support first) for a base tuple.
        self.lift = lift
        #: The single-atom selections this node's atom covers.
        self.selections = tuple(selections)
        #: The annotated base table: row -> annotation vector.
        self.table: dict[tuple, list] = {}
        #: The ``⊕``-projected message to the parent (non-root nodes
        #: only); it owns its rows, never sharing ``table``'s dict.
        self.message: AnnTable = ((), {})

    def admits(self, row: tuple) -> bool:
        """Whether a base tuple passes the node's single-atom selections."""
        if not self.selections:
            return True
        binding = dict(zip(self.schema, row))
        return all(sel.evaluate(binding) for sel in self.selections)


class AnnotatedJoinTree:
    """An acyclic aggregate query as annotated ⊕/⊗ join-tree messages.

    Built in one pass over the database:

    * each aggregate's *designated* atom — the first body atom holding its
      input variable — lifts that variable; every other atom lifts the
      semiring's ``one``;
    * every annotation vector starts with a hidden **support** coordinate
      (the COUNT ring): the number of join assignments behind a message
      entry or group, so a repair can tell "cancelled to zero" from "no
      longer derivable";
    * single-atom selections filter each covering node's base table;
    * bottom-up, each node's table (⊗-joined with its children's messages)
      is ``⊕``-projected onto its separator plus the group-by and
      residual-selection columns and joined into its parent;
    * the cross-atom residue filters the root's join, which is then
      projected onto the group columns: the group accumulators.

    Distributivity is what makes the early ``⊕`` sound, so every aggregate
    needs a product semiring (``times``/``one``).  No semijoin reduction
    runs: the message joins drop dangling tuples by themselves, and a
    reduced state is one a later delta would invalidate.  The tree keeps
    every node's table and message, which is what
    :class:`repro.ivm.view.ViewState` repairs.

    Raises :class:`QueryError` when the query is cyclic, an aggregate's
    semiring has no product, or a selection mentions a variable the query
    does not bind.
    """

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 group: Sequence[str], aggregates: Sequence[Aggregate],
                 selections: Sequence[Comparison] = (),
                 counter: OperationCounter | None = None):
        self.tree = join_tree_of(query)  # raises QueryError when cyclic
        self.group = tuple(group)
        self.aggregates = tuple(aggregates)
        self.semirings: list[Semiring] = [_SUPPORT]
        for agg in self.aggregates:
            sr = agg.semiring()
            if not sr.has_product:
                raise QueryError(
                    f"aggregate {agg} uses the plus-only semiring {sr.name!r}; "
                    "in-pass aggregation needs a product semiring (times/one)"
                )
            self.semirings.append(sr)

        per_atom, residual = split_selections(query, selections)
        variables = set(query.variables)
        raise_if_pending([sel for sel in residual
                          if not sel.variables <= variables], query)
        self.residual = tuple(residual)
        still_needed = set(self.group)
        for sel in residual:
            still_needed |= sel.variables

        designated: dict[int, str] = {}
        for i, agg in enumerate(self.aggregates):
            if agg.var is None:
                continue
            for j, atom in enumerate(query.atoms):
                if agg.var in atom.variable_set:
                    designated[i] = query.edge_key(j)
                    break
            else:
                raise QueryError(
                    f"aggregate {agg} reads {agg.var!r}, which no atom binds"
                )

        self.nodes: dict[str, AnnotatedNode] = {}
        for j, atom in enumerate(query.atoms):
            edge = query.edge_key(j)
            schema = tuple(atom.variables)
            self.nodes[edge] = AnnotatedNode(
                edge, atom.relation, schema, self.tree.parent[edge],
                self.tree.children[edge],
                self._make_lift(edge, schema, designated), per_atom[j])

        with phase(counter, "annotate"):
            for edge, relation in query.bind(database).items():
                node = self.nodes[edge]
                for t in relation:
                    if node.admits(t):
                        node.table[t] = node.lift(t)
                if counter is not None:
                    counter.charge(tuples_scanned=len(relation))

        acc: dict[str, AnnTable] = {
            edge: (node.schema, node.table)
            for edge, node in self.nodes.items()
        }
        with phase(counter, "messages"):
            for edge in self.tree.order:
                node = self.nodes[edge]
                if node.parent is None:
                    continue
                parent_vars = set(self.nodes[node.parent].schema)
                node.sep = tuple(v for v in node.schema if v in parent_vars)
                table = acc.pop(edge)
                node.keep = tuple(v for v in table[0]
                                  if v in node.sep or v in still_needed)
                message_schema, rows = ann_project(
                    table, node.keep, self.semirings, counter)
                node.message = (message_schema,
                                dict(rows) if rows is node.table else rows)
                acc[node.parent] = ann_join(acc[node.parent], node.message,
                                            self.semirings, counter)

        _schema, groups = self.project_groups(acc[self.tree.root], counter)
        #: Group key -> annotation vector: the root's accumulators.
        self.groups: dict[tuple, list] = dict(groups)

    def _make_lift(self, edge: str, schema: tuple[str, ...],
                   designated: dict[int, str]) -> Callable[[tuple], list]:
        plan: list[tuple[Semiring, int | None]] = []
        for i, agg in enumerate(self.aggregates):
            position = (schema.index(agg.var) if designated.get(i) == edge
                        else None)
            plan.append((self.semirings[i + 1], position))

        def lift(row: tuple) -> list:
            ann: list = [1]  # support: one assignment per base tuple
            for sr, pos in plan:
                ann.append(sr.lift(row[pos]) if pos is not None else sr.one)
            return ann

        return lift

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
        if not self.groups and not self.group and self.aggregates:
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
    rows = AnnotatedJoinTree(query, database, group, aggregates,
                             selections, counter).rows()
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

    1. *Reduce*: the full (bottom-up + top-down) semijoin reduction, after
       which every surviving tuple participates in at least one result —
       the frontier never expands a dead branch.
    2. *Annotate* (bottom-up DP): every sort-key column is owned by the
       tree node closest to the root whose schema contains it; each
       tuple's annotation is the ``⊗``-merge of its own key components
       with, per child, the ``⊕``-minimum annotation among the child
       tuples matching it on the separator — i.e. the lexicographically
       best sort-key contribution its whole subtree can achieve (the
       join-tree analogue of the WCOJ per-separator best-suffix bounds).
    3. *Enumerate* (Lawler/REA successor expansion): states assign tuples
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
    single node's schema covers are filtered into the scans before the
    reduction; genuinely cross-node predicates are checked on complete
    assignments (their pruning is invisible to the bounds, which stay
    admissible, so rank order is unaffected).

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
    tree = join_tree_of(query)
    parent, children, root = tree.parent, tree.children, tree.root
    relations = dict(query.bind(database))
    pending = list(selections)
    if pending:
        relations = {key: apply_covered_selections(rel, pending, counter)
                     for key, rel in relations.items()}
    residual = pending  # cross-node predicates: checked on completions
    _semijoin_passes(relations, tree, counter)

    # Root-down node sequence (parents before children, the root first)
    # and, per node, the schema, the separator with the parent, and the
    # owned key positions.
    sequence = list(reversed(tree.order))
    node_index = {node: i for i, node in enumerate(sequence)}
    schemas = {node: tuple(relations[node].attributes) for node in sequence}
    owner: dict[int, str] = {}
    for p, (variable, _descending) in enumerate(keys):
        owner[p] = min((node for node in sequence
                        if variable in schemas[node]),
                       key=lambda node: node_index[node])
    owned: dict[str, list[int]] = {node: [] for node in sequence}
    for p, node in owner.items():
        owned[node].append(p)
    separators = {
        node: tuple(sorted(set(schemas[node]) & set(schemas[parent[node]])))
        for node in sequence if parent.get(node) is not None
    }
    # Separator columns as precomputed positions on both sides, so the
    # per-tuple DP loops and per-pop candidate lookups index directly.
    child_sep_positions = {
        node: tuple(schemas[node].index(v) for v in separator)
        for node, separator in separators.items()
    }
    parent_sep_positions = {
        node: tuple(schemas[parent[node]].index(v) for v in separator)
        for node, separator in separators.items()
    }

    def pick(row: tuple, positions: tuple[int, ...]) -> tuple:
        return tuple(row[p] for p in positions)

    # Bottom-up DP: annotate every tuple with its subtree's best key
    # contribution; per node, candidate lists sorted by annotation.
    annotations: dict[str, dict[tuple, tuple]] = {}
    candidates: dict[str, dict[tuple, list[tuple]]] = {}
    with phase(counter, "annotate"):
        for node in reversed(sequence):  # children before parents
            schema = schemas[node]
            positions = [(p, schema.index(keys[p][0]), keys[p][1])
                         for p in sorted(owned[node])]
            messages = []
            for child in children[node]:
                best: dict[tuple, tuple] = {}
                child_positions = child_sep_positions[child]
                for row, ann in annotations[child].items():
                    key = pick(row, child_positions)
                    best[key] = RANKING.plus(best.get(key), ann)
                messages.append((parent_sep_positions[child], best))
            table: dict[tuple, tuple] = {}
            for row in relations[node]:
                ann = tuple((p, rank_component(row[i], d))
                            for p, i, d in positions)
                for own_positions, best in messages:
                    child_best = best.get(pick(row, own_positions))
                    if child_best is None:  # subtree died under selections
                        ann = None
                        break
                    ann = RANKING.times(ann, child_best)
                if ann is not None:
                    table[row] = ann
            if counter is not None:
                counter.charge(tuples_scanned=len(relations[node]))
            annotations[node] = table
            if parent.get(node) is not None:
                grouped: dict[tuple, list[tuple]] = {}
                for row, ann in table.items():
                    key = pick(row, child_sep_positions[node])
                    grouped.setdefault(key, []).append((ann, row))
                for group_rows in grouped.values():
                    group_rows.sort(
                        key=lambda pair: tuple(c for _p, c in pair[0]))
                candidates[node] = grouped

    root_list = sorted(((ann, row) for row, ann in annotations[root].items()),
                       key=lambda pair: tuple(c for _p, c in pair[0]))
    if not root_list:
        return

    def dense(priority: tuple, ann: tuple) -> tuple:
        """Replace an annotation's positions inside a dense priority."""
        components = list(priority)
        for p, component in ann:
            components[p] = component
        return tuple(components)

    def candidate_list(state_rows: tuple, depth: int) -> list[tuple]:
        node = sequence[depth]
        if depth == 0:
            return root_list
        parent_row = state_rows[node_index[parent[node]]]
        return candidates[node][pick(parent_row, parent_sep_positions[node])]

    initial_ann, initial_row = root_list[0]
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
            binding.update(zip(schemas[node], row))
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
                # subtree bound is already in the priority (the DP minimum
                # equals the sorted candidate list's head), so the priority
                # is unchanged.
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
