"""Binary join plan trees and their executor.

Traditional query plans evaluate one (pairwise) join at a time, materializing
every intermediate result.  The plan tree here supports exactly that
paradigm.  Its executor, :func:`plan_rows`, is one row pipeline: each join
below the root becomes a row list whose size it records, the quantity the
WCOJ lower-bound arguments are about (a pairwise plan for the triangle query
must materialize an Omega(N^2) intermediate on the hard instances even though
the output is O(N^{3/2})); the root join streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Sequence, Union

from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Comparison
from repro.relational.database import Database
from repro.relational.operators import join_rows, project, row_picker
from repro.relational.relation import Relation


@dataclass(frozen=True)
class PlanLeaf:
    """A plan leaf: scan of the relation bound to one query atom."""

    edge_key: str

    def atoms(self) -> tuple[str, ...]:
        """Edge keys of the atoms under this subtree."""
        return (self.edge_key,)

    def __str__(self) -> str:
        return self.edge_key


@dataclass(frozen=True)
class PlanJoin:
    """An inner plan node: the natural join of two sub-plans.

    ``project_to`` optionally projects the join result onto a subset of
    variables, enabling the *join-project* plans of Grohe–Marx / Atserias et
    al. (Section 1.2) in addition to join-only plans.
    """

    left: "JoinPlan"
    right: "JoinPlan"
    project_to: tuple[str, ...] | None = None

    def atoms(self) -> tuple[str, ...]:
        """Edge keys of the atoms under this subtree."""
        return self.left.atoms() + self.right.atoms()

    def __str__(self) -> str:
        inner = f"({self.left} JOIN {self.right})"
        if self.project_to is not None:
            return f"pi[{','.join(self.project_to)}]{inner}"
        return inner


JoinPlan = Union[PlanLeaf, PlanJoin]


@dataclass
class PlanExecution:
    """The outcome of executing a plan: the ``result`` relation, the
    ``intermediate_sizes`` of the joins below the root in execution order,
    and the ``counter`` the run charged."""

    result: Relation
    intermediate_sizes: list[int] = field(default_factory=list)
    counter: OperationCounter = field(default_factory=OperationCounter)

    @property
    def max_intermediate(self) -> int:
        """The largest intermediate relation size (0 if none)."""
        return max(self.intermediate_sizes, default=0)

    @property
    def total_intermediate(self) -> int:
        """Total tuples across all intermediates."""
        return sum(self.intermediate_sizes)


def split_selections(core: ConjunctiveQuery, selections: Sequence[Comparison]
                     ) -> tuple[list[list[Comparison]], list[Comparison]]:
    """Partition selections into per-atom pushable lists and a residual.

    A selection is pushable into *every* atom containing all its variables
    (applying a conjunctive filter at each covering scan is sound and
    prunes most); only predicates spanning atoms (``A < B`` with A and B
    in different relations) stay residual.
    """
    per_atom: list[list[Comparison]] = [[] for _ in core.atoms]
    residual: list[Comparison] = []
    for sel in selections:
        covering = [i for i, atom in enumerate(core.atoms)
                    if sel.variables <= atom.variable_set]
        for i in covering:
            per_atom[i].append(sel)
        if not covering:
            residual.append(sel)
    return per_atom, residual


def apply_covered_selections(attributes: Sequence[str], rows: Iterable[tuple],
                             pending: list, counter: OperationCounter | None
                             ) -> Iterable[tuple]:
    """Filter rows over ``attributes`` by (and consume from ``pending``)
    every comparison predicate those attributes cover.

    Cross-atom selection pushdown in binary plans: called on base scans
    and on every pairwise join's rows, so each predicate fires exactly
    once, at the first node binding all its variables.  The rows are
    filtered lazily, one scanned tuple charged per row read.
    """
    covered = [sel for sel in pending if sel.variables <= set(attributes)]
    if not covered:
        return rows
    for sel in covered:
        pending.remove(sel)

    def keep(row: tuple) -> bool:
        if counter is not None:
            counter.charge(tuples_scanned=1)
        binding = dict(zip(attributes, row))
        return all(sel.evaluate(binding) for sel in covered)

    return filter(keep, rows)


def raise_if_pending(pending: list, query: ConjunctiveQuery) -> None:
    """Reject selections no relation ever covered, saying why.

    Either the selection mentions variables the query does not have, or a
    join-project plan projected a needed variable away before the first
    node whose schema covered the whole predicate.
    """
    if not pending:
        return
    variables = set(query.variables)
    unknown = [s for s in pending if not (s.variables <= variables)]
    if unknown:
        raise QueryError(
            f"selections {[str(s) for s in unknown]} mention variables "
            f"outside the query variables {query.variables}"
        )
    raise QueryError(
        f"selections {[str(s) for s in pending]} never fired: a projection "
        "removed their variables before any node's schema covered them"
    )


def _validate_plan(plan: JoinPlan, query: ConjunctiveQuery) -> None:
    edge_keys = {query.edge_key(i) for i in range(len(query.atoms))}
    used = plan.atoms()
    if sorted(used) != sorted(edge_keys):
        raise QueryError(
            f"plan covers atoms {sorted(used)} but the query has {sorted(edge_keys)}"
        )


def plan_rows(plan: JoinPlan, query: ConjunctiveQuery, database: Database,
              counter: OperationCounter | None, selections: Sequence,
              sizes: list[int]) -> Iterator[tuple]:
    """Stream a binary join plan's rows over ``query.variables``.

    Each join below the root becomes a row list, its size appended to
    ``sizes`` and charged as ``intermediate_tuples``; the root join's rows
    stream, so abandoning the iterator abandons the last join.  Joins
    assemble rows in ``query.variables`` order, only ``project_to`` nodes
    deduplicate (:func:`~repro.relational.operators.project`), and
    ``selections`` fire below any projection.
    """
    _validate_plan(plan, query)
    bound_relations = query.bind(database)
    pending = list(selections)
    variables = query.variables

    def run(node: JoinPlan, root: bool = False) -> tuple[tuple, Iterable]:
        """A node's attributes and rows: lazy at the root, a list below."""
        if isinstance(node, PlanLeaf):
            relation = bound_relations[node.edge_key]
            rows = apply_covered_selections(relation.attributes,
                                            relation.tuples, pending, counter)
            return relation.attributes, (
                rows if root or isinstance(rows, Collection) else list(rows))
        left_attributes, left = run(node.left)
        right_attributes, right = run(node.right)
        attributes = tuple(v for v in variables
                           if v in left_attributes or v in right_attributes)
        rows = apply_covered_selections(
            attributes, join_rows(left_attributes, left, right_attributes,
                                  right, attributes, counter),
            pending, counter)
        if node.project_to is not None:
            projected = project(Relation(str(node), attributes, rows),
                                node.project_to, counter)
            attributes, rows = projected.attributes, projected.tuples
        if not root:
            rows = list(rows)
            sizes.append(len(rows))
            if counter is not None:
                counter.charge(intermediate_tuples=len(rows))
        return attributes, rows

    attributes, rows = run(plan, root=True)
    raise_if_pending(pending, query)
    missing = [v for v in variables if v not in attributes]
    if missing:
        raise QueryError(
            f"plan result is missing variables {missing}; a projection removed them"
        )
    if attributes != variables:  # a root ``project_to`` keeps its own order
        rows = map(row_picker([attributes.index(v) for v in variables]), rows)
    yield from rows


def execute_plan(plan: JoinPlan, query: ConjunctiveQuery, database: Database,
                 counter: OperationCounter | None = None,
                 selections: Sequence = ()) -> PlanExecution:
    """Execute a binary join plan: :func:`plan_rows` drained into the
    result relation, projected onto the query's head."""
    counter = counter or OperationCounter()
    sizes: list[int] = []
    result = Relation(query.name, query.variables, plan_rows(
        plan, query, database, counter, selections, sizes))
    if tuple(query.head) != query.variables:
        result = result.project(query.head, name=query.name)
    return PlanExecution(result, sizes, counter)


def left_deep_plan(edge_keys: Sequence[str]) -> JoinPlan:
    """Build the left-deep plan ((k1 JOIN k2) JOIN k3) ... for the given atom
    order."""
    if not edge_keys:
        raise QueryError("cannot build a plan over zero atoms")
    plan: JoinPlan = PlanLeaf(edge_keys[0])
    for key in edge_keys[1:]:
        plan = PlanJoin(plan, PlanLeaf(key))
    return plan
