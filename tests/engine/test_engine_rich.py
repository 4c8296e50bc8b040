"""Engine behaviour on the rich query surface.

Selections pushed below the join, early-deduplicating projection, semiring
aggregates, ordered/top-k results, and the cache semantics of all of the
above.
"""

import pytest

from repro.datagen.graphs import erdos_renyi_graph
from repro.datagen.worstcase import triangle_from_graph, triangle_skew_instance
from repro.engine import Engine
from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter
from repro.joins.naive import nested_loop_join
from repro.query.builder import Q, Query
from repro.query.semiring import count, max_, min_, sum_
from repro.relational.relation import Relation

ACCEPTANCE = "Q(A) :- R(A,B), S(B,5), A < B"


def triangle_engine(n=30, m=110, seed=5):
    _, database = triangle_from_graph(erdos_renyi_graph(n, m, seed=seed))
    return Engine(database=database)


def reference_rows(query, database):
    """Brute-force evaluation of a rich query (no engine involved)."""
    spec = Query.coerce(query)
    core = spec.core
    full = nested_loop_join(core, database)
    variables = core.variables
    rows = [
        t for t in full.tuples
        if all(sel.evaluate(dict(zip(variables, t)))
               for sel in spec.all_selections)
    ]
    if spec.aggregates:
        from repro.query.semiring import fold_aggregates

        return sorted(fold_aggregates(rows, variables, spec.head_vars,
                                      spec.aggregates))
    positions = [variables.index(h) for h in spec.head_vars]
    return sorted({tuple(t[p] for p in positions) for t in rows})


class TestAcceptanceQuery:
    def test_parses_plans_and_executes_identically_everywhere(self):
        engine = triangle_engine()
        expected = reference_rows(ACCEPTANCE, engine.database)
        assert expected  # the instance must actually exercise the filters
        for mode in ("naive", "generic", "leapfrog", "binary", "auto"):
            result = engine.execute(ACCEPTANCE, mode=mode)
            assert result.attributes == ("A",)
            assert sorted(result.tuples) == expected, mode

    def test_explain_shows_selection_pushed_below_the_join(self):
        engine = triangle_engine()
        explanation = engine.explain(ACCEPTANCE, mode="generic")
        rendered = explanation.render()
        assert "pushed below join" in rendered
        assert explanation.pushed_selections
        # The constant-pinned variable is bound at the very top of the
        # recursion — strictly below (before) any joining happens.
        assert any("depth 0" in line for line in explanation.pushed_selections)

    def test_isomorphic_projected_queries_share_one_plan_entry(self):
        engine = triangle_engine()
        engine.execute(ACCEPTANCE)
        engine.execute("P(X) :- R(X,Y), S(Y,5), X < Y")
        assert engine.stats.plan_misses == 1
        assert engine.stats.plan_hits == 1

    def test_different_constants_do_not_share_results(self):
        engine = triangle_engine()
        five = engine.execute("Q(A) :- R(A,B), S(B,5)")
        six = engine.execute("Q(A) :- R(A,B), S(B,6)")
        assert engine.stats.result_hits == 0
        assert sorted(five.tuples) == reference_rows(
            "Q(A) :- R(A,B), S(B,5)", engine.database)
        assert sorted(six.tuples) == reference_rows(
            "Q(A) :- R(A,B), S(B,6)", engine.database)


class TestPushdownEfficiency:
    def test_constant_selection_prunes_the_search(self):
        query, database = triangle_skew_instance(300)
        engine = Engine(database=database, cache_results=False)
        unselective = OperationCounter()
        engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
                       mode="generic", counter=unselective)
        selective = OperationCounter()
        engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C), A == 1",
                       mode="generic", counter=selective)
        assert selective.search_nodes < unselective.search_nodes / 2

    def test_projection_deduplicates_early(self):
        # Q(A) over the skewed triangle: each A value has many (B, C)
        # witnesses; the existential tail must stop at the first one.
        query, database = triangle_skew_instance(300)
        engine = Engine(database=database, cache_results=False)
        full = OperationCounter()
        engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
                       mode="generic", counter=full)
        projected = OperationCounter()
        result = engine.execute("Q(A) :- R(A,B), S(B,C), T(A,C)",
                                mode="generic", counter=projected)
        assert projected.search_nodes < full.search_nodes
        expected = nested_loop_join(query, database).project(("A",))
        assert result == expected


class TestAggregates:
    @pytest.mark.parametrize("mode", ["naive", "generic", "leapfrog",
                                      "binary", "auto"])
    def test_group_by_aggregates_match_brute_force(self, mode):
        engine = triangle_engine()
        text = ("Q(A, COUNT(*), SUM(C) AS total, MIN(B), MAX(C)) :- "
                "R(A,B), S(B,C), T(A,C)")
        result = engine.execute(text, mode=mode)
        assert result.attributes == ("A", "count", "total", "min_B", "max_C")
        assert sorted(result.tuples) == reference_rows(text, engine.database)

    def test_builder_aggregates(self):
        engine = triangle_engine()
        q = (Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
             .select("A", count(), sum_("C", "total"), min_("B"), max_("C"))
             .group_by("A"))
        text = ("Q(A, COUNT(*), SUM(C) AS total, MIN(B), MAX(C)) :- "
                "R(A,B), S(B,C), T(A,C)")
        assert sorted(engine.execute(q).tuples) == reference_rows(
            text, engine.database)

    def test_group_free_count_over_empty_join_is_zero(self):
        engine = Engine(relations=[Relation("R", ("A", "B"), [])])
        result = engine.execute("Q(COUNT(*)) :- R(A,B)")
        assert sorted(result.tuples) == [(0,)]

    def test_aggregate_result_is_cached_and_invalidated(self):
        engine = triangle_engine()
        text = "Q(A, COUNT(*)) :- R(A,B), S(B,C), T(A,C)"
        first = engine.execute(text)
        second = engine.execute(text)
        assert engine.stats.result_hits == 1
        assert second == first
        engine.insert("R", [(10**6, 10**6 + 1)])
        engine.execute(text)
        assert engine.stats.result_hits == 1  # no stale serve after mutation


class TestOrderAndLimit:
    def test_order_by_streams_sorted_rows(self):
        engine = triangle_engine()
        rows = list(engine.stream(
            Q.from_("R", "A", "B").from_("S", "B", "C")
            .from_("T", "A", "C").order_by("-A", "B")))
        assert rows
        assert rows == sorted(rows, key=lambda r: (-r[0],) + r[1:])

    def test_top_k_is_the_prefix_of_the_full_order(self):
        engine = triangle_engine()
        base = (Q.from_("R", "A", "B").from_("S", "B", "C")
                .from_("T", "A", "C").select("A", "B").order_by("-B", "A"))
        full = list(engine.stream(base))
        top = engine.execute(
            Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
            .select("A", "B").order_by("-B", "A").limit(4))
        assert sorted(top.tuples) == sorted(full[:4])

    def test_query_limit_combines_with_call_limit(self):
        engine = triangle_engine()
        q = (Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
             .limit(5))
        assert len(engine.execute(q, limit=3)) == 3
        assert len(engine.execute(q, limit=9)) == 5

    def test_query_level_top_k_is_result_cached(self):
        # A LIMIT carried by the query is part of the canonical form, so
        # repeated top-k queries are served from the result cache; only a
        # per-call limit (absent from the key) bypasses it.
        engine = triangle_engine()
        q = (Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
             .select("A", "B").order_by("-B").limit(4))
        first = engine.execute(q)
        second = engine.execute(q)
        assert second is first
        assert engine.stats.result_hits == 1
        engine.execute(q, limit=2)  # per-call limit: never cache-served
        assert engine.stats.result_hits == 1

    def test_ordered_aggregates(self):
        engine = triangle_engine()
        q = (Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
             .select("A", count()).group_by("A").order_by("-count").limit(3))
        rows = list(engine.stream(q))
        reference = reference_rows(
            "Q(A, COUNT(*)) :- R(A,B), S(B,C), T(A,C)", engine.database)
        expected = sorted(reference, key=lambda r: (-r[1], r))[:3]
        assert rows == expected


class TestExplainAndStats:
    def test_explain_reports_output_and_session_stats(self):
        engine = triangle_engine()
        engine.execute(ACCEPTANCE)
        explanation = engine.explain(ACCEPTANCE)
        rendered = explanation.render()
        assert "output:         (A)" in rendered
        assert "session stats:" in rendered
        assert explanation.session_stats["plan_hits"] >= 1
        assert explanation.session_stats["result_misses"] == 1

    def test_explain_counts_plan_and_index_hits(self):
        engine = triangle_engine()
        engine.execute(ACCEPTANCE, mode="generic")
        engine.execute(ACCEPTANCE, mode="generic", limit=1)  # reruns executor
        explanation = engine.explain(ACCEPTANCE, mode="generic")
        stats = explanation.session_stats
        assert stats["plan_hits"] == 2
        assert stats["index_builds"] >= 1
        assert stats["index_reuses"] >= 1
        assert "reused" in engine.stats.summary()

    def test_explain_renders_order_limit_and_aggregates(self):
        engine = triangle_engine()
        q = (Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
             .select("A", count()).group_by("A").order_by("-count").limit(3))
        rendered = engine.explain(q).render()
        assert "aggregates:     COUNT(*) AS count" in rendered
        assert "ORDER BY count DESC" in rendered
        assert "LIMIT 3" in rendered

    def test_cross_atom_selection_pushed_into_pairwise_joins(self):
        engine = triangle_engine()
        # A != 17 lives in a single atom: filtered into that scan.
        explanation = engine.explain(
            "Q(A,B,C) :- R(A,B), S(B,C), A != 17", mode="binary")
        assert any("filtered into the scan" in entry
                   for entry in explanation.pushed_selections)
        # A < C spans two atoms: applied during the pairwise joins, at the
        # first join binding both sides — never post-join.
        path = engine.explain("Q(A,C) :- R(A,B), S(B,C), A < C", mode="binary")
        assert any("during the pairwise joins" in entry
                   for entry in path.pushed_selections)

    @pytest.mark.parametrize("query, axes, where", [
        ("Q(A,C) :- R(A,B), S(B,C), A < C", {},
         "fired during the join-tree walk, at the first depth binding all "
         "its variables"),
        ("Q(A,C) :- R(A,B), S(B,C), A < C ORDER BY A LIMIT 3",
         {"ranked_mode": "anyk"},
         "checked on each complete assignment of the ranked walk"),
        ("Q(A,COUNT(*)) :- R(A,B), S(B,C), A < C",
         {"aggregate_mode": "recursion"},
         "applied to the root's join in the pass, before grouping"),
    ])
    def test_cross_atom_selection_placed_by_the_yannakakis_plan(
            self, query, axes, where):
        engine = triangle_engine()
        path = engine.explain(query, mode="yannakakis", **axes)
        assert path.pushed_selections == (f"A < C — {where}",)

    def test_forced_yannakakis_on_selected_acyclic_query(self):
        engine = triangle_engine()
        result = engine.execute("Q(A,C) :- R(A,B), S(B,C), A < C",
                                mode="yannakakis")
        assert sorted(result.tuples) == reference_rows(
            "Q(A,C) :- R(A,B), S(B,C), A < C", engine.database)

    def test_unsatisfiable_constant_yields_empty_not_error(self):
        engine = triangle_engine()
        result = engine.execute("Q(A) :- R(A,B), S(B, 999999)")
        assert result.is_empty()

    def test_mixed_type_constant_never_matches(self):
        engine = triangle_engine()
        result = engine.execute("Q(A) :- R(A,B), S(B, 'text')")
        assert result.is_empty()


class TestValidation:
    def test_unknown_selection_variable_raises(self):
        engine = triangle_engine()
        with pytest.raises(QueryError):
            engine.execute("Q(A) :- R(A,B), A < Z")

    def test_builder_accepted_directly(self):
        engine = triangle_engine()
        builder = Q.from_("R", "A", "B").select("A")
        result = engine.execute(builder)
        assert result.attributes == ("A",)
