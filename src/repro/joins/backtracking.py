"""Algorithm 3: backtracking search for acyclic degree constraints.

Given a query Q, an *acyclic* degree constraint set DC and a variable order
compatible with DC, the algorithm computes, one variable at a time, the
values consistent with every constraint whose free set contains the current
variable — by intersecting projections of the guard relations.  Theorem 5.1
shows the search tree has at most

    prod_{(X,Y,N) in DC} N^{delta_{Y|X}}

nodes, where delta is an optimal dual solution of the modular LP (57); i.e.
the algorithm is worst-case optimal for acyclic DC, with no hidden factors
beyond n * |DC| * log |D|.

Because the constraints may only *project* the guards (the guards need not be
materialized on all their variables), the raw search result can be a superset
of the query output; :func:`backtracking_join` filters it against every atom,
which is the "semijoin-reduce against the guards" step the paper mentions.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.constraints.degree import DegreeConstraint, DegreeConstraintSet
from repro.constraints.dependency_graph import (
    compatible_variable_order,
    order_is_compatible,
)
from repro.errors import ConstraintError
from repro.joins.generic_join import hash_probe_intersect
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.index import TrieIndex
from repro.relational.relation import Relation


def _resolve_guard(query: ConjunctiveQuery, bound_relations: dict[str, Relation],
                   constraint: DegreeConstraint) -> Relation:
    """Find the (variable-renamed) relation guarding a constraint."""
    guard = constraint.guard
    if guard is None:
        raise ConstraintError(f"constraint {constraint} has no guard")
    if guard in bound_relations:
        relation = bound_relations[guard]
    else:
        # The guard may be given as a relation name rather than an edge key.
        matches = [
            key for i, atom in enumerate(query.atoms)
            if atom.relation == guard
            for key in [query.edge_key(i)]
        ]
        if not matches:
            raise ConstraintError(
                f"guard {guard!r} of constraint {constraint} is not an atom of the query"
            )
        relation = bound_relations[matches[0]]
    missing = constraint.y - set(relation.schema.attributes)
    if missing:
        raise ConstraintError(
            f"guard relation for {constraint} does not contain variables {sorted(missing)}"
        )
    return relation


def backtracking_search(query: ConjunctiveQuery, database: Database,
                        dc: DegreeConstraintSet,
                        order: Sequence[str] | None = None,
                        counter: OperationCounter | None = None) -> Relation:
    """Run Algorithm 3 and return the set of bindings consistent with every
    constraint projection (a superset of the query output in general).

    Parameters
    ----------
    query, database:
        The query and its input relations (guards are resolved among the
        query atoms).
    dc:
        Acyclic degree constraints; every query variable must lie in the free
        set of at least one constraint.
    order:
        A variable order compatible with DC; computed automatically when
        omitted.
    counter:
        Operation counter (intersection steps and search nodes).

    Raises
    ------
    ConstraintError
        If DC is cyclic, the order is incompatible, or some variable is not
        covered by any constraint.
    """
    if not dc.is_acyclic():
        raise ConstraintError("Algorithm 3 requires acyclic degree constraints")
    if order is None:
        order = compatible_variable_order(dc, prefer=query.variables)
    elif not order_is_compatible(dc, order):
        raise ConstraintError(f"variable order {order} is not compatible with the constraints")
    order = tuple(order)
    if set(order) != set(query.variables):
        raise ConstraintError("the variable order must cover exactly the query variables")

    bound_relations = query.bind(database)

    # Preprocessing: project every guard onto its constraint's Y variables and
    # build a trie whose levels follow the global order restricted to Y.
    constraint_tries: list[tuple[DegreeConstraint, TrieIndex, tuple[str, ...]]] = []
    for constraint in dc:
        guard_relation = _resolve_guard(query, bound_relations, constraint)
        y_order = tuple(v for v in order if v in constraint.y)
        projection = guard_relation.project(y_order, name=f"pi_{guard_relation.name}")
        if counter is not None:
            counter.charge(tuples_scanned=len(guard_relation))
        constraint_tries.append((constraint, TrieIndex(projection, y_order), y_order))

    # Which constraints bound each variable (i in Y - X).
    bounding: dict[str, list[tuple[TrieIndex, tuple[str, ...]]]] = {v: [] for v in order}
    for constraint, trie, y_order in constraint_tries:
        for variable in constraint.free_variables:
            bounding[variable].append((trie, y_order))
    uncovered = [v for v in order if not bounding[v]]
    if uncovered:
        raise ConstraintError(
            f"variables {uncovered} are not bounded by any constraint; the search "
            "space would be infinite"
        )

    results: list[tuple] = []
    binding: dict[str, Any] = {}

    def candidates_for(variable: str) -> list[Any]:
        nodes = []
        for trie, y_order in bounding[variable]:
            level = y_order.index(variable)
            node = trie.node(tuple(binding[v] for v in y_order[:level]))
            if node is None:  # X was bound by other constraints' guards
                return []
            nodes.append(node)
        return hash_probe_intersect(nodes, counter)

    def search(depth: int) -> None:
        if depth == len(order):
            results.append(tuple(binding[v] for v in order))
            if counter is not None:
                counter.charge(tuples_emitted=1)
            return
        variable = order[depth]
        if counter is not None:
            counter.charge(search_nodes=1)
        for value in candidates_for(variable):
            binding[variable] = value
            search(depth + 1)
            del binding[variable]

    search(0)
    return Relation(f"{query.name}_search", order, results)


def backtracking_join(query: ConjunctiveQuery, database: Database,
                      dc: DegreeConstraintSet,
                      order: Sequence[str] | None = None,
                      counter: OperationCounter | None = None) -> Relation:
    """Algorithm 3 followed by semijoin-reduction against every query atom,
    yielding the exact query output."""
    candidates = backtracking_search(query, database, dc, order=order, counter=counter)
    bound_relations = query.bind(database)
    variables = query.variables
    candidate_order = candidates.attributes

    memberships = []
    for i, atom in enumerate(query.atoms):
        relation = bound_relations[query.edge_key(i)]
        positions = tuple(candidate_order.index(v) for v in atom.variables)
        atom_tuples = relation.columns(atom.variables)
        memberships.append((positions, atom_tuples))
        if counter is not None:
            counter.charge(hash_inserts=len(relation))

    kept = []
    for tup in candidates:
        if counter is not None:
            counter.charge(hash_probes=len(memberships))
        if all(tuple(tup[p] for p in positions) in atom_tuples
               for positions, atom_tuples in memberships):
            kept.append(tup)
    output = Relation(query.name, candidate_order, kept)
    ordered = output.reorder(variables, name=query.name)
    if tuple(query.head) != tuple(variables):
        ordered = ordered.project(query.head, name=query.name)
    return ordered
