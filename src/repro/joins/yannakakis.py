"""Yannakakis' algorithm for alpha-acyclic queries.

The classical counterpoint to WCOJ algorithms: when the query hypergraph is
alpha-acyclic, a join tree evaluates it in O(|D| + |output|) — the paper's
separation results are about the *cyclic* queries where it cannot.

Every mode is one :class:`AnnotatedJoinTree` — input tuples annotated with
semiring values, one bottom-up pass of ``⊕``-projected messages
``⊗``-joined into their parents (AJAR-style early aggregation) — read one
of three ways, none of which materializes the join:

* :func:`yannakakis_stream` (plain): the pass in the support ring alone
  drops every tuple with no complete subtree, so its tables, bucketed by
  parent separator (:func:`candidate_lists`), are walked depth-first
  root-down without a dead end — the unranked case of any-k: constant
  delay after one linear pass unless a cross-node predicate prunes.
  :func:`yannakakis` collects it into a :class:`Relation`;
  :func:`semijoin_reduce` is the classical full reducer, kept as a
  reference;
* :func:`yannakakis_aggregate_stream`: group-by columns survive to the
  root, whose accumulators are the FAQ aggregate.  The tree is also the
  state incremental view maintenance (:mod:`repro.ivm`) repairs with
  :func:`ann_project` and :func:`ann_join`;
* :func:`yannakakis_ranked_stream` (any-k): the tree in the **ordering
  semiring** bounds each tuple's best subtree sort key, and its
  annotation-sorted candidate lists are the stages of the shared
  Lawler/REA frontier (:func:`repro.joins.anyk.anyk`), expanded in exact
  order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.joins.anyk import anyk
from repro.joins.instrumentation import OperationCounter, phase
from repro.joins.plan import raise_if_pending, split_selections
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
from repro.relational.operators import semijoin
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


def yannakakis(query: ConjunctiveQuery, database: Database,
               counter: OperationCounter | None = None,
               selections: Sequence[Comparison] = ()) -> Relation:
    """Evaluate an alpha-acyclic conjunctive query with Yannakakis'
    algorithm: :func:`yannakakis_stream` under ``selections`` (it raises
    :class:`QueryError` on a cyclic query), projected onto the head."""
    positions = [query.variables.index(h) for h in query.head]
    return Relation(query.name, query.head, (
        tuple(t[p] for p in positions)
        for t in yannakakis_stream(query, database, selections, counter)))


def semijoin_reduce(query: ConjunctiveQuery, database: Database,
                    counter: OperationCounter | None = None) -> dict[str, Relation]:
    """The classical full reducer, per edge key: a bottom-up then a
    top-down semijoin pass, after which every tuple joins into some output
    tuple.  No executor runs it (the annotated pass drops dangling tuples
    by itself); the tests hold the annotated modes to it."""
    tree = join_tree_of(query)
    relations = dict(query.bind(database))
    with phase(counter, "semijoin.bottom_up"):
        for node in tree.order:
            par = tree.parent[node]
            if par is not None:
                relations[par] = semijoin(relations[par], relations[node],
                                          counter=counter)
    with phase(counter, "semijoin.top_down"):
        for node in reversed(tree.order):
            for child in tree.children[node]:
                relations[child] = semijoin(relations[child], relations[node],
                                            counter=counter)
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
      sort keys; :func:`yannakakis_stream` lifts none);
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
# Root-down enumeration over the annotated join tree: plain depth-first
# and any-k ranked (Lawler/REA).
# ----------------------------------------------------------------------

#: Per depth of a root-down walk: the node's ``(annotation, row)``
#: candidates bucketed by parent separator value, the parent's depth, and
#: the separator's positions in the parent's row.
Lookup = tuple[dict[tuple, list[tuple[list, tuple]]], int, list[int]]


def _tree_selections(query: ConjunctiveQuery,
                     selections: Sequence[Comparison]
                     ) -> tuple[list[Comparison], list[Comparison]]:
    """(single-atom selections, cross-node residue) of an enumerated tree,
    rejecting a selection over a variable the query does not bind."""
    _per_atom, residual = split_selections(query, selections)
    raise_if_pending([sel for sel in residual
                      if not sel.variables <= set(query.variables)], query)
    return [sel for sel in selections if sel not in residual], residual


def candidate_lists(tree: AnnotatedJoinTree,
                    counter: OperationCounter | None = None,
                    rank: Callable[[list], Any] | None = None,
                    ) -> tuple[list[AnnotatedNode], list[Lookup]]:
    """Drain a group- and residual-free tree's message pass into the
    root-down node sequence and a :data:`Lookup` per depth.

    Each yielded table holds exactly the tuples with a complete subtree
    below, so its bucket (one hash insert per row) under a parent tuple
    that survived the pass is never empty.  With ``rank``, each bucket is
    sorted by ``rank(annotation)``.  The root's one bucket is keyed ``()``.
    """
    buckets: dict[str, dict[tuple, list[tuple[list, tuple]]]] = {}
    for node, (_schema, rows) in tree.pass_messages(counter):
        positions = [node.schema.index(v) for v in node.sep]
        grouped: dict[tuple, list[tuple[list, tuple]]] = {}
        for row, ann in rows.items():
            grouped.setdefault(tuple(row[p] for p in positions),
                               []).append((ann, row))
        if counter is not None:
            counter.charge(hash_inserts=len(rows))
        if rank is not None:
            for group_rows in grouped.values():
                group_rows.sort(key=lambda pair: rank(pair[0]))
        buckets[node.edge] = grouped
    sequence = [tree.nodes[edge] for edge in reversed(tree.tree.order)]
    depth_of = {node.edge: depth for depth, node in enumerate(sequence)}
    lookups = [(buckets[node.edge], depth_of.get(node.parent, 0),
                [tree.nodes[node.parent].schema.index(v) for v in node.sep])
               for node in sequence]
    return sequence, lookups


def _candidates(lookup: Lookup, rows: Sequence[tuple]
                ) -> list[tuple[list, tuple]]:
    """A depth's candidates under the rows chosen above it."""
    grouped, parent_depth, positions = lookup
    return grouped.get(tuple(rows[parent_depth][p] for p in positions), [])


def _bound_at(sequence: Sequence[AnnotatedNode]) -> dict[str, tuple[int, int]]:
    """(depth, column) where a root-down walk first binds each variable."""
    bound: dict[str, tuple[int, int]] = {}
    for depth, node in enumerate(sequence):
        for column, variable in enumerate(node.schema):
            bound.setdefault(variable, (depth, column))
    return bound


def _holds(checks: Sequence[tuple[Comparison, list]],
           rows: Sequence[tuple]) -> bool:
    """Whether each ``(predicate, [(variable, depth, column)])`` holds."""
    return all(sel.evaluate({v: rows[d][c] for v, d, c in reads})
               for sel, reads in checks)


def yannakakis_stream(query: ConjunctiveQuery, database: Database,
                      selections: Sequence[Comparison] = (),
                      counter: OperationCounter | None = None,
                      ) -> Iterator[tuple]:
    """Enumerate an alpha-acyclic query's tuples over ``query.variables``
    (duplicate-free: one per assignment) after one linear pass.

    The :class:`AnnotatedJoinTree` in the support ring alone (single-atom
    selections filter its scans) is bucketed by :func:`candidate_lists`
    and walked depth-first root-down.  A cross-node predicate fires at the
    first depth binding all its variables: a candidate it rejects is a
    scanned tuple, every other visited one a search node.  The pass
    dropped every dangling tuple, so the walk never dead-ends: without
    such predicates the first tuple costs one search node per atom.

    Raises :class:`QueryError` when the query is not alpha-acyclic or a
    selection mentions a variable outside the query's.
    """
    covered, residual = _tree_selections(query, selections)
    edges = [query.edge_key(j) for j in range(len(query.atoms))]
    tree = AnnotatedJoinTree(query, database, (), [], dict.fromkeys(
        edges, lambda _row: []), covered, counter)
    sequence, lookups = candidate_lists(tree, counter)
    bound_at = _bound_at(sequence)
    emit = [bound_at[v] for v in query.variables]
    checks: list[list] = [[] for _ in sequence]
    for sel in residual:
        reads = [(v, *bound_at[v]) for v in sel.variables]
        checks[max(depth for _v, depth, _c in reads)].append((sel, reads))

    last = len(sequence) - 1
    chosen: list[tuple] = [()] * len(sequence)
    stack = [iter(_candidates(lookups[0], chosen))]
    with phase(counter, "enumerate"):
        while stack:
            depth = len(stack) - 1
            for _ann, row in stack[depth]:
                chosen[depth] = row
                if checks[depth] and not _holds(checks[depth], chosen):
                    if counter is not None:
                        counter.charge(tuples_scanned=1)
                    continue
                if counter is not None:
                    counter.charge(search_nodes=1)
                if depth < last:
                    stack.append(iter(_candidates(lookups[depth + 1],
                                                  chosen)))
                    break
                if counter is not None:
                    counter.charge(tuples_emitted=1)
                yield tuple(chosen[d][c] for d, c in emit)
            else:
                stack.pop()


def yannakakis_ranked_stream(query: ConjunctiveQuery, database: Database,
                             head: Sequence[str],
                             order_by: Sequence[tuple[str, bool]],
                             selections: Sequence[Comparison] = (),
                             counter: OperationCounter | None = None,
                             ) -> Iterator[tuple]:
    """Enumerate an alpha-acyclic query's head rows in exact sort order.

    The ranked counterpart of :func:`yannakakis_stream`:

    1. *Annotate*: one :class:`AnnotatedJoinTree` pass in ``RANKING``.
       Every sort-key column is owned by its designated atom, whose lift
       holds the tuple's own key components, so each node's table ⊗ its
       children's messages annotates a tuple with the best sort-key
       contribution its whole subtree can achieve (the join-tree analogue
       of the WCOJ best-suffix bounds); :func:`candidate_lists` sorts each
       bucket by it.
    2. *Enumerate*: the root-down nodes are the stages of the shared
       any-k frontier (:func:`repro.joins.anyk.anyk`).  A stage's choices
       are the node's bucket under its parent's tuple, already in
       priority order, so they enter one sibling at a time; a choice's
       priority is its parent's with the choice's annotation in place,
       the exact best full key among its completions.  Each pop charges
       one search node; a complete assignment passing the cross-node
       checks yields its head row, and the frontier emits each key class
       in ascending order (the drain tie-break): the prefix is
       bit-identical to sort-and-drain.

    Single-atom ``selections`` filter the scans; cross-node ones are
    checked on complete assignments (the bounds stay admissible).

    Raises :class:`QueryError` when the query is not alpha-acyclic, or
    when a key or head variable is not a query variable or a key is not
    a head variable (a row's sort key must be a function of the row).
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
    stray = sorted({v for v, _d in keys} - set(head))
    if stray:
        raise QueryError(
            f"ORDER BY variables {stray} are not head variables; "
            "a row's sort key must be a function of the row"
        )

    def lift_of(owned: dict[int, int]) -> Lift:
        plan = [(p, i, keys[p][1]) for p, i in sorted(owned.items())]

        def lift(row: tuple) -> list:
            return [tuple((p, rank_component(row[i], d)) for p, i, d in plan)]

        return lift

    covered, residual = _tree_selections(query, selections)
    owners = _designated(query, [variable for variable, _d in keys])
    annotated = AnnotatedJoinTree(
        query, database, (), [RANKING],
        {edge: lift_of(owned) for edge, owned in owners.items()},
        covered, counter)
    sequence, lookups = candidate_lists(
        annotated, counter, rank=lambda ann: tuple(c for _p, c in ann[1]))
    bound_at = _bound_at(sequence)
    emit = [bound_at[h] for h in head]
    checks = [(sel, [(v, *bound_at[v]) for v in sel.variables])
              for sel in residual]

    def candidates(depth: int, prefix: tuple) -> list[tuple[list, tuple]]:
        return _candidates(lookups[depth], [row for _ann, row in prefix])

    def priority(_depth: int, base: tuple | None,
                 candidate: tuple[list, tuple]) -> tuple:
        """``base`` with the candidate's subtree components in place: a
        sibling covers the same key positions, and a node's first
        candidate is the minimum already folded into its parent's."""
        components = list(base or (None,) * len(keys))
        for p, component in candidate[0][1]:
            components[p] = component
        return tuple(components)

    def restore(_prefix: tuple) -> None:
        if counter is not None:
            counter.charge(search_nodes=1)

    def complete(prefix: tuple) -> tuple[tuple, ...]:
        rows = [row for _ann, row in prefix]
        if not _holds(checks, rows):
            return ()
        return (tuple(rows[d][c] for d, c in emit),)

    with phase(counter, "frontier"):
        yield from anyk(len(sequence), candidates, priority,
                        [1] * len(sequence), restore, complete, counter)
