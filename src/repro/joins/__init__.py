"""Join algorithms: WCOJ engines, the paper's pseudo-code algorithms, and
traditional binary-join baselines."""

from repro.joins.instrumentation import OperationCounter
from repro.joins.naive import nested_loop_join
from repro.joins.generic_join import generic_join
from repro.joins.leapfrog import leapfrog_triejoin, leapfrog_intersect
from repro.joins.triangle import (
    triangle_algorithm1,
    triangle_algorithm2,
    triangle_binary_plan,
)
from repro.joins.backtracking import backtracking_search, backtracking_join
from repro.joins.plan import JoinPlan, PlanLeaf, PlanJoin, execute_plan, PlanExecution
from repro.joins.binary_plans import (
    greedy_atom_order,
    greedy_left_deep_plan,
    all_left_deep_plans,
    best_left_deep_execution,
)
from repro.joins.heavy_light import heavy_light_partition
from repro.joins.hybrid import (HybridPartition, partition_instance,
                                residual_query)
from repro.joins.yannakakis import yannakakis, semijoin_reduce
from repro.joins.counting import count_join, group_count, sum_product

__all__ = [
    "OperationCounter",
    "nested_loop_join",
    "generic_join",
    "leapfrog_triejoin",
    "leapfrog_intersect",
    "triangle_algorithm1",
    "triangle_algorithm2",
    "triangle_binary_plan",
    "backtracking_search",
    "backtracking_join",
    "JoinPlan",
    "PlanLeaf",
    "PlanJoin",
    "execute_plan",
    "PlanExecution",
    "greedy_atom_order",
    "greedy_left_deep_plan",
    "all_left_deep_plans",
    "best_left_deep_execution",
    "heavy_light_partition",
    "HybridPartition",
    "partition_instance",
    "residual_query",
    "yannakakis",
    "semijoin_reduce",
    "count_join",
    "group_count",
    "sum_product",
]
