"""Binary join plan trees and their executor.

Traditional query plans evaluate one (pairwise) join at a time, materializing
every intermediate result.  The plan tree here supports exactly that
paradigm; the executor records the size of every intermediate relation, which
is the quantity the WCOJ lower-bound arguments are about (a pairwise plan for
the triangle query must materialize an Omega(N^2) intermediate on the hard
instances even though the output is O(N^{3/2})).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Comparison
from repro.relational.database import Database
from repro.relational.operators import natural_join, project
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
    """The outcome of executing a plan.

    Attributes
    ----------
    result:
        The final relation.
    intermediate_sizes:
        Sizes of every materialized intermediate (inner node), in execution
        order.
    counter:
        The operation counter used during execution.
    """

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


def apply_covered_selections(relation: Relation, pending: list,
                             counter: OperationCounter | None) -> Relation:
    """Filter by (and consume from ``pending``) every comparison predicate
    the relation's schema covers.

    Cross-atom selection pushdown in binary plans: called on base scans
    and on every pairwise join result, so each predicate fires exactly
    once, at the first relation binding all its variables.
    """
    covered = [sel for sel in pending
               if sel.variables <= set(relation.schema)]
    if not covered:
        return relation
    for sel in covered:
        pending.remove(sel)
    if counter is not None:
        counter.charge(tuples_scanned=len(relation))
    return relation.filter(
        lambda row: all(sel.evaluate(row) for sel in covered),
        name=relation.name,
    )


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


def execute_plan(plan: JoinPlan, query: ConjunctiveQuery, database: Database,
                 counter: OperationCounter | None = None,
                 selections: Sequence = ()) -> PlanExecution:
    """Execute a binary join plan bottom-up, materializing intermediates.

    The result is reordered to the query's head variables.  Every inner
    node's output size is recorded and also charged to the counter as
    ``intermediate_tuples``.

    ``selections`` (comparison predicates over the query variables) fire at
    the lowest plan node whose schema covers all their variables — a leaf
    scan for single-atom predicates, the first pairwise join binding both
    sides for cross-atom ones — and are applied *before* any join-project
    projection, so predicates prune intermediates instead of filtering the
    finished output.
    """
    _validate_plan(plan, query)
    execution = PlanExecution(result=None, counter=counter or OperationCounter())  # type: ignore[arg-type]
    bound_relations = query.bind(database)
    pending = list(selections)

    def run(node: JoinPlan) -> Relation:
        if isinstance(node, PlanLeaf):
            return apply_covered_selections(bound_relations[node.edge_key],
                                            pending, execution.counter)
        left = run(node.left)
        right = run(node.right)
        joined = natural_join(left, right, counter=execution.counter)
        if pending:
            joined = apply_covered_selections(joined, pending,
                                              execution.counter)
        if node.project_to is not None:
            joined = project(joined, node.project_to, counter=execution.counter)
        execution.intermediate_sizes.append(len(joined))
        execution.counter.charge(intermediate_tuples=len(joined))
        return joined

    result = run(plan)
    raise_if_pending(pending, query)
    # The final node is the query output, not an intermediate.
    if execution.intermediate_sizes:
        final_size = execution.intermediate_sizes.pop()
        execution.counter.charge(intermediate_tuples=-final_size)

    variables = query.variables
    missing = [v for v in variables if v not in result.schema]
    if missing:
        raise QueryError(
            f"plan result is missing variables {missing}; a projection removed them"
        )
    ordered = result.reorder(tuple(v for v in variables if v in result.schema),
                             name=query.name)
    if tuple(query.head) != tuple(ordered.attributes):
        ordered = ordered.project(query.head, name=query.name)
    execution.result = ordered
    return execution


def left_deep_plan(edge_keys: Sequence[str]) -> JoinPlan:
    """Build the left-deep plan ((k1 JOIN k2) JOIN k3) ... for the given atom
    order."""
    if not edge_keys:
        raise QueryError("cannot build a plan over zero atoms")
    plan: JoinPlan = PlanLeaf(edge_keys[0])
    for key in edge_keys[1:]:
        plan = PlanJoin(plan, PlanLeaf(key))
    return plan
