"""Cross-atom comparison pushdown in the materializing executors.

Predicates spanning atoms (``A < D`` with A and D in different relations)
used to be applied to the finished join output; binary plans fire them at
the first pairwise join that binds both sides, shrinking every later
intermediate, and Yannakakis at the first depth of its root-down walk
that binds both.  These tests pin both the semantics (identical results
to post-hoc filtering) and the work reduction (strictly smaller
intermediates or fewer search nodes on instances where the predicate is
selective).
"""

import pytest

from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter
from repro.joins.naive import nested_loop_stream
from repro.joins.plan import execute_plan, left_deep_plan
from repro.joins.yannakakis import yannakakis
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.terms import comparison
from repro.relational.database import Database
from repro.relational.relation import Relation


def path_instance():
    R = Relation("R", ("a", "b"), [(a, b) for a in range(12)
                                   for b in range(4)])
    S = Relation("S", ("b", "c"), [(b, c) for b in range(4)
                                   for c in range(12)])
    query = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
    return query, Database([R, S])


def reference(query, database, selections):
    return sorted(nested_loop_stream(query, database, selections=selections))


class TestExecutePlan:
    def test_cross_atom_predicate_applied_mid_plan(self):
        query, database = path_instance()
        sels = [comparison("A", "<", "C")]
        plan = left_deep_plan([query.edge_key(0), query.edge_key(1)])
        execution = execute_plan(plan, query, database, selections=sels)
        assert (sorted(execution.result.tuples)
                == reference(query, database, sels))

    def test_single_atom_predicate_filters_the_leaf(self):
        query, database = path_instance()
        sels = [comparison("A", "==", 3)]
        plan = left_deep_plan([query.edge_key(0), query.edge_key(1)])
        with_sel = execute_plan(plan, query, database, selections=sels)
        without = execute_plan(plan, query, database)
        assert (sorted(with_sel.result.tuples)
                == reference(query, database, sels))
        # The leaf filter shrinks the join work (the plan's only join is
        # the final result, so compare emitted tuples, not intermediates).
        assert (with_sel.counter.tuples_emitted
                < without.counter.tuples_emitted / 4)

    def test_selective_cross_atom_predicate_shrinks_intermediates(self):
        # Three-atom chain: A < C fires at the first join, before U joins.
        R = Relation("R", ("a", "b"), [(a, b) for a in range(10)
                                       for b in range(3)])
        S = Relation("S", ("b", "c"), [(b, 0) for b in range(3)])
        U = Relation("U", ("c", "d"), [(0, d) for d in range(10)])
        query = ConjunctiveQuery([Atom("R", ("A", "B")),
                                  Atom("S", ("B", "C")),
                                  Atom("U", ("C", "D"))])
        database = Database([R, S, U])
        sels = [comparison("A", "<", "C")]  # only A == 0 < ... never: C == 0
        plan = left_deep_plan([query.edge_key(i) for i in range(3)])
        pushed = execute_plan(plan, query, database, selections=sels)
        baseline = execute_plan(plan, query, database)
        assert sorted(pushed.result.tuples) == reference(query, database, sels)
        assert pushed.total_intermediate < baseline.total_intermediate

    def test_unknown_selection_variable_raises(self):
        query, database = path_instance()
        plan = left_deep_plan([query.edge_key(0), query.edge_key(1)])
        with pytest.raises(QueryError, match="outside the query variables"):
            execute_plan(plan, query, database,
                         selections=[comparison("A", "<", "Z")])


class TestYannakakis:
    def test_cross_atom_predicate_applied_during_the_walk(self):
        query, database = path_instance()
        sels = [comparison("A", "<", "C")]
        result = yannakakis(query, database, selections=sels)
        assert sorted(result.tuples) == reference(query, database, sels)

    def test_predicate_prunes_join_work(self):
        query, database = path_instance()
        sels = [comparison("A", ">", 100)]  # unsatisfiable: prunes all
        counter = OperationCounter()
        result = yannakakis(query, database, counter=counter, selections=sels)
        baseline = OperationCounter()
        yannakakis(query, database, counter=baseline)
        assert result.is_empty()
        assert counter.total() < baseline.total()

    def test_cross_node_predicate_prunes_search_nodes(self):
        # A and D sit in the two end atoms, so A < D fires at the last
        # depth of the walk: each candidate it rejects is scanned, never
        # a search node.
        R = Relation("R", ("a", "b"), [(a, b) for a in range(12)
                                       for b in range(3)])
        S = Relation("S", ("b", "c"), [(b, c) for b in range(3)
                                       for c in range(3)])
        U = Relation("U", ("c", "d"), [(c, d) for c in range(3)
                                       for d in range(12)])
        query = ConjunctiveQuery([Atom("R", ("A", "B")),
                                  Atom("S", ("B", "C")),
                                  Atom("U", ("C", "D"))])
        database = Database([R, S, U])
        sels = [comparison("A", "<", "D")]
        counter = OperationCounter()
        result = yannakakis(query, database, counter=counter, selections=sels)
        baseline = OperationCounter()
        yannakakis(query, database, counter=baseline)
        assert sorted(result.tuples) == reference(query, database, sels)
        assert counter.search_nodes < baseline.search_nodes

    def test_unknown_selection_variable_raises(self):
        query, database = path_instance()
        with pytest.raises(QueryError, match="outside the query variables"):
            yannakakis(query, database,
                       selections=[comparison("A", "<", "Z")])
