"""Tests for the Engine session: dispatch, caches, streaming, mutation."""

import pytest

from repro.datagen.graphs import erdos_renyi_graph
from repro.datagen.worstcase import triangle_from_graph, triangle_skew_instance
from repro.engine import Engine, dispatch
from repro.engine.cost import MODES, STRATEGIES
from repro.errors import QueryError
from repro.joins.generic_join import generic_join
from repro.joins.instrumentation import OperationCounter
from repro.joins.naive import nested_loop_join
from repro.query.atoms import path_query, triangle_query
from repro.relational.database import Database
from repro.relational.relation import Relation


def triangle_engine(n=30, m=110, seed=5):
    _, database = triangle_from_graph(erdos_renyi_graph(n, m, seed=seed))
    return Engine(database=database)


def path_database(k=3, seed=9):
    query = path_query(k)
    return query, Database([
        Relation(atom.relation, ("A", "B"),
                 erdos_renyi_graph(15, 45, seed=seed + i).tuples)
        for i, atom in enumerate(query.atoms)
    ])


class TestExecuteCorrectness:
    def test_matches_generic_join(self):
        engine = triangle_engine()
        query = triangle_query()
        assert engine.execute(query) == generic_join(query, engine.database)

    def test_every_mode_agrees_on_cyclic_query(self):
        engine = triangle_engine()
        query = triangle_query()
        expected = nested_loop_join(query, engine.database)
        for mode in ("auto", "naive", "binary", "generic", "leapfrog"):
            assert engine.execute(query, mode=mode) == expected, mode

    def test_every_mode_agrees_on_acyclic_query(self):
        query, database = path_database()
        engine = Engine(database=database)
        expected = nested_loop_join(query, database)
        for mode in MODES:
            assert engine.execute(query, mode=mode) == expected, mode

    def test_string_queries_are_parsed(self):
        engine = triangle_engine()
        result = engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
        assert result == generic_join(triangle_query(), engine.database)

    def test_projecting_head_deduplicates(self):
        engine = triangle_engine()
        result = engine.execute("Q(A) :- R(A,B), S(B,C), T(A,C)")
        full = generic_join(triangle_query(), engine.database)
        assert result == full.project(("A",))

    def test_permuted_full_head_reorders_columns(self):
        engine = triangle_engine()
        result = engine.execute("Q(C,B,A) :- R(A,B), S(B,C), T(A,C)",
                                mode="generic")
        full = generic_join(triangle_query(), engine.database)
        assert result.attributes == ("C", "B", "A")
        assert result.tuples == {(c, b, a) for a, b, c in full.tuples}

    def test_yannakakis_on_cyclic_query_raises(self):
        engine = triangle_engine()
        with pytest.raises(QueryError):
            engine.execute(triangle_query(), mode="yannakakis")

    def test_unknown_mode_raises(self):
        engine = triangle_engine()
        with pytest.raises(QueryError):
            engine.execute(triangle_query(), mode="quantum")

    def test_constructor_rejects_database_and_relations(self):
        with pytest.raises(QueryError):
            Engine(database=Database(),
                   relations=[Relation("R", ("A",), [(1,)])])


class TestPlanCache:
    def test_repeat_is_a_plan_hit(self):
        engine = triangle_engine()
        engine.execute(triangle_query())
        assert engine.stats.plan_misses == 1
        engine.execute(triangle_query())
        assert engine.stats.plan_hits == 1

    def test_isomorphic_query_is_a_plan_hit(self):
        engine = triangle_engine()
        engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
        engine.execute("P(X,Y,Z) :- T(X,Z), R(X,Y), S(Y,Z)")
        assert engine.stats.plan_hits == 1
        assert engine.stats.plan_misses == 1

    def test_isomorphic_results_agree_up_to_renaming(self):
        engine = triangle_engine()
        first = engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
        second = engine.execute("P(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)")
        assert second.attributes == ("X", "Y", "Z")
        assert second.tuples == first.tuples

    def test_different_modes_cached_separately(self):
        engine = triangle_engine()
        engine.execute(triangle_query(), mode="generic")
        engine.execute(triangle_query(), mode="leapfrog")
        assert engine.stats.plan_misses == 2

    def test_size_regime_change_replans(self):
        engine = triangle_engine()
        engine.execute(triangle_query())
        # Quadruple R: the size bucket moves, so the plan key changes.
        extra = [(1000 + i, 2000 + i) for i in range(3 * len(engine.database["R"]))]
        engine.insert("R", extra)
        engine.execute(triangle_query())
        assert engine.stats.plan_misses == 2


class TestResultCacheAndInvalidation:
    def test_repeat_serves_cached_result(self):
        engine = triangle_engine()
        first = engine.execute(triangle_query())
        second = engine.execute(triangle_query())
        assert second is first  # the identical cached object
        assert engine.stats.result_hits == 1

    def test_insert_invalidates_results_and_indexes(self):
        engine = triangle_engine()
        query = triangle_query()
        engine.execute(query, mode="generic")
        builds = engine.stats.index_builds
        assert builds > 0
        grown = engine.insert("R", [(0, 1), (1, 2)])
        assert grown >= 0
        engine.execute(query, mode="generic")
        assert engine.stats.result_hits == 0
        assert engine.stats.index_builds > builds
        assert engine.execute(query, mode="naive") == \
            nested_loop_join(query, engine.database)

    def test_insert_returns_new_tuple_count(self):
        engine = Engine(relations=[Relation("R", ("A", "B"), [(1, 2)])])
        assert engine.insert("R", [(1, 2), (3, 4)]) == 1

    def test_noop_insert_keeps_caches_warm(self):
        engine = triangle_engine()
        query = triangle_query()
        engine.execute(query, mode="generic")
        version = engine.database.version("R")
        assert engine.insert("R", list(engine.database["R"].tuples)[:2]) == 0
        assert engine.database.version("R") == version
        engine.execute(query, mode="generic")
        assert engine.stats.result_hits == 1

    def test_atom_permuted_isomorphic_query_is_a_result_hit(self):
        engine = triangle_engine()
        first = engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
        second = engine.execute("P(X,Y,Z) :- T(X,Z), S(Y,Z), R(X,Y)")
        assert engine.stats.result_hits == 1
        assert second.tuples == first.tuples
        assert second.attributes == ("X", "Y", "Z")

    def test_replace_relation_swaps_contents(self):
        engine = triangle_engine()
        query = triangle_query()
        engine.execute(query)
        empty = Relation("R", ("A", "B"), [])
        engine.replace_relation(empty)
        assert engine.execute(query).is_empty()

    def test_mutation_evicts_dead_result_entries(self):
        engine = triangle_engine()
        engine.execute(triangle_query())
        assert len(engine._results) == 1
        engine.insert("R", [(700, 701)])
        assert len(engine._results) == 0  # eager, not capacity, eviction

    def test_warm_indexes_survive_unrelated_mutation(self):
        engine = triangle_engine()
        engine.execute(triangle_query(), mode="generic")
        engine.insert("S", [(500, 501)])
        assert engine.registry.is_warm(
            "R", ("A", "B")) or engine.registry.is_warm("R", ("B", "A"))

    def test_caches_can_be_disabled(self):
        _, database = triangle_from_graph(erdos_renyi_graph(20, 70, seed=6))
        engine = Engine(database=database, cache_results=False)
        first = engine.execute(triangle_query())
        second = engine.execute(triangle_query())
        assert first == second
        assert second is not first
        assert engine.stats.result_hits == 0


class TestStreamingAndLimit:
    def test_stream_yields_full_result(self):
        engine = triangle_engine()
        query = triangle_query()
        streamed = set(engine.stream(query, mode="generic"))
        assert streamed == set(generic_join(query, engine.database).tuples)

    def test_limit_truncates(self):
        engine = triangle_engine()
        result = engine.execute(triangle_query(), mode="generic", limit=4)
        assert len(result) == 4

    def test_limit_pushdown_does_less_work(self):
        query, database = triangle_skew_instance(400)
        engine = Engine(database=database, cache_results=False)
        full = OperationCounter()
        engine.execute(query, mode="generic", counter=full)
        limited = OperationCounter()
        engine.execute(query, mode="generic", limit=1, counter=limited)
        assert limited.search_nodes < full.search_nodes / 10

    def test_limit_is_deterministic_regardless_of_cache_warmth(self):
        # Limited queries bypass the result cache, so the identical call
        # must return the same prefix on a warm engine as on a cold one.
        warm = triangle_engine()
        query = triangle_query()
        full = warm.execute(query)  # warm the result cache
        warm_limited = warm.execute(query, limit=3)
        cold_limited = triangle_engine().execute(query, limit=3)
        assert warm_limited == cold_limited
        assert warm_limited.tuples <= full.tuples
        assert warm.stats.result_hits == 0  # the limited call never hit

    def test_limit_larger_than_result_is_complete(self):
        engine = triangle_engine()
        full = engine.execute(triangle_query())
        assert engine.execute(triangle_query(), limit=10**6) == full

    def test_negative_limit_raises_query_error(self):
        engine = triangle_engine()
        for call in (engine.execute, engine.stream):
            with pytest.raises(QueryError):
                call(triangle_query(), limit=-1)
        with pytest.raises(QueryError):
            engine.execute_many([triangle_query()], limit=-1)


class TestYannakakisDelay:
    # Plain Yannakakis streams its first row after one annotated pass, one
    # bucketing of the pass's tables and one root-down descent: the
    # in-pass COUNT(*) of the same query, plus one hash insert per input
    # tuple, plus one search node per atom — never the whole join.
    BODIES = {"path": ("RSU", "R(A,B), S(B,C), U(C,D)"),
              "star": ("RTV", "R(A,B), T(A,C), V(D,A)")}

    @staticmethod
    def engine() -> Engine:
        return Engine(relations=[
            erdos_renyi_graph(60, 200, seed=seed, name=name, attributes=attrs)
            for seed, (name, attrs) in enumerate(
                (("R", ("a", "b")), ("S", ("b", "c")), ("T", ("a", "c")),
                 ("U", ("c", "d")), ("V", ("d", "a"))))],
            cache_results=False)

    @pytest.mark.parametrize("shape", sorted(BODIES))
    def test_first_row_costs_one_pass_not_the_join(self, shape):
        engine = self.engine()
        relations, body = self.BODIES[shape]
        inputs = sum(len(engine.database.get(name)) for name in relations)
        count = OperationCounter()
        engine.execute(f"Q(COUNT(*) AS n) :- {body}", mode="yannakakis",
                       aggregate_mode="recursion", counter=count)
        first = OperationCounter()
        stream = engine.stream(f"Q(A,B,C,D) :- {body}", mode="yannakakis",
                               counter=first)
        assert next(stream, None) is not None
        stream.close()
        assert first.total() <= count.total() + inputs + len(relations)


class TestBinaryDelay:
    # A binary plan materializes only the intermediates below its root;
    # the root join streams, so a first row or a LIMIT stops it early.
    QUERY = "Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D)"

    def test_first_row_does_not_drain_the_root_join(self):
        engine = TestYannakakisDelay.engine()
        drained = OperationCounter()
        rows = list(engine.stream(self.QUERY, mode="binary", counter=drained))
        assert len(rows) > 1
        first = OperationCounter()
        stream = engine.stream(self.QUERY, mode="binary", counter=first)
        assert next(stream, None) is not None
        stream.close()
        assert first.total() < drained.total()

    def test_limit_stops_the_root_join(self):
        engine = TestYannakakisDelay.engine()
        drained = OperationCounter()
        engine.execute(self.QUERY, mode="binary", counter=drained)
        limited = OperationCounter()
        assert len(list(engine.stream(self.QUERY, mode="binary", limit=1,
                                      counter=limited))) == 1
        # The intermediate below the root is paid in full either way.
        assert limited.intermediate_tuples == drained.intermediate_tuples > 0
        assert limited.tuples_emitted < drained.tuples_emitted
        # The root join is charged one emitted row: the one it produced.
        assert limited.tuples_emitted == limited.intermediate_tuples + 1


class TestExecuteMany:
    def test_batch_matches_individual_execution(self):
        engine = triangle_engine()
        queries = [
            "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "P(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)",
        ]
        batch = engine.execute_many(queries, mode="generic")
        assert batch[0].tuples == batch[1].tuples
        assert batch[0] == generic_join(triangle_query(), engine.database)

    def test_batch_shares_index_builds(self):
        engine = triangle_engine()
        queries = ["Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"] * 5
        engine.execute_many(queries, mode="leapfrog")
        # 3 tries built once; the 4 repeats are result-cache hits.
        assert engine.stats.index_builds == 3
        assert engine.stats.result_hits == 4


class TestExplain:
    def test_explain_reports_dispatch_evidence(self):
        query, database = triangle_skew_instance(200)
        engine = Engine(database=database)
        explanation = engine.explain(query)
        assert explanation.strategy in STRATEGIES
        assert not explanation.acyclic
        assert explanation.costs["yannakakis"] == float("inf")
        assert explanation.agm_bound > 0
        assert explanation.plan_cache == "miss"
        rendered = explanation.render()
        assert "strategy" in rendered and "AGM bound" in rendered

    def test_explain_warms_the_plan_cache(self):
        engine = triangle_engine()
        query = triangle_query()
        assert engine.explain(query).plan_cache == "miss"
        assert engine.explain(query).plan_cache == "hit"

    def test_explain_tracks_result_cache(self):
        engine = triangle_engine()
        query = triangle_query()
        assert not engine.explain(query).result_cached
        engine.execute(query)
        assert engine.explain(query).result_cached

    def test_skew_dispatch_prefers_wcoj_over_binary(self):
        # The point of this instance is that pairwise plans pay the
        # hub-times-hub blowup: any skew-safe strategy (a WCOJ engine,
        # or the heavy/light hybrid whose per-key residual sub-plans
        # bind the hub before any pairwise work) may win, binary never.
        query, database = triangle_skew_instance(300)
        decision = dispatch(query, database)
        assert decision.strategy in ("generic", "leapfrog", "hybrid")
        assert decision.costs["binary"] > decision.costs["generic"]

    def test_acyclic_dispatch_is_feasible_for_yannakakis(self):
        query, database = path_database()
        decision = dispatch(query, database)
        assert decision.acyclic
        assert decision.costs["yannakakis"] < float("inf")
