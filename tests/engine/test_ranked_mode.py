"""The any-k ranked execution mode through the engine surface.

Covers the dispatcher's ranked-mode pricing and resolution, the ranked
variable order (sort-key prefix + width-minimizing tail), cross-engine
agreement of the any-k prefix with drain-and-heap on randomized acyclic
and cyclic queries, the node-count separation for small k (the delay
shape any-k exists for), ``explain()``'s ranked-mode report, plan-cache
behaviour across modes, the per-call-limit / query-ORDER-BY interaction
(ordering must never be skipped by a truncating limit), ``close()`` on
every branch of the engine's row pipeline, and the error surface of
forced modes.
"""

import math
import random

import pytest

from repro.datagen.graphs import erdos_renyi_graph
from repro.engine import Engine
from repro.engine.cost import dispatch
from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import Q, sort_rows
from repro.query.semiring import count
from repro.query.variable_order import ranked_order
from repro.query.widths import decomposition_from_elimination_order
from repro.relational.database import Database
from repro.relational.relation import Relation

ALL_MODES = ("generic", "leapfrog", "yannakakis", "binary", "naive")
ANYK_MODES = ("generic", "leapfrog", "yannakakis")


def random_chain_engine(seed: int, n: int = 20, rows: int = 90) -> Engine:
    rng = random.Random(seed)
    r = {(rng.randrange(n), rng.randrange(n)) for _ in range(rows)}
    s = {(rng.randrange(n), rng.randrange(n)) for _ in range(rows)}
    return Engine(relations=[Relation("R", ("a", "b"), r),
                             Relation("S", ("b", "c"), s)],
                  cache_results=False)


def random_triangle_engine(seed: int, n: int = 15, rows: int = 70) -> Engine:
    rng = random.Random(seed)
    rel = lambda name, cols: Relation(name, cols, {
        (rng.randrange(n), rng.randrange(n)) for _ in range(rows)
    })
    return Engine(relations=[rel("R", ("a", "b")), rel("S", ("b", "c")),
                             rel("T", ("a", "c"))],
                  cache_results=False)


def skewed_engine(groups: int = 60, hubs: int = 40,
                  hub_fanout: int = 250) -> Engine:
    """Every A sees every B; hub B=0 carries almost all of S's fan-out.

    A full-head ranked query on this instance separates the two ranked
    modes on search nodes: drain enumerates every (B, A) join prefix
    (groups × hubs internal nodes) before the heap sees a row, while
    any-k pays one saturating existence check per candidate sort key
    plus the popped tie classes.
    """
    r = Relation("R", ("a", "b"),
                 [(a, b) for a in range(groups) for b in range(hubs)])
    s_rows = [(0, c) for c in range(hub_fanout)]
    s_rows += [(b, c) for b in range(1, hubs) for c in range(2)]
    s = Relation("S", ("b", "c"), s_rows)
    return Engine(relations=[r, s], cache_results=False)


#: The star of the end-to-end benchmark's ``star_top``, at any LIMIT.
STAR_TOP = "Q(A,B,C,D) :- R(A,B), T(A,C), V(D,A) ORDER BY B DESC, A LIMIT {k}"


def star_top_engine() -> Engine:
    return Engine(relations=[
        erdos_renyi_graph(200, 600, seed=seed, name=name, attributes=attrs)
        for seed, (name, attrs) in enumerate(
            (("R", ("a", "b")), ("T", ("a", "c")), ("V", ("d", "a"))))],
        cache_results=False)


class TestRankedPlanner:
    def test_keys_prefix_then_head_then_width_minimizing_tail(self):
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        order = ranked_order(q, ["B"], head=("A", "B"))
        assert order[0] == "B"
        assert set(order[:2]) == {"A", "B"}
        assert decomposition_from_elimination_order(
            q.hypergraph(), tuple(reversed(order))).width() == 1

    def test_keys_follow_order_by_sequence_not_degree(self):
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        order = ranked_order(q, ["A", "B"], head=("A", "B"))
        assert order[:2] == ("A", "B")
        order = ranked_order(q, ["B", "A"], head=("A", "B"))
        assert order[:2] == ("B", "A")

    def test_pinned_variables_precede_keys(self):
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        order = ranked_order(q, ["A"], fixed=("C",), head=("A",))
        assert order[0] == "C" and order[1] == "A"


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_acyclic_full_head(self, seed):
        engine = random_chain_engine(seed)
        q = "Q(A,B,C) :- R(A,B), S(B,C) ORDER BY B DESC, A LIMIT 9"
        expected = list(engine.stream(q, mode="naive", ranked_mode="drain"))
        for mode in ALL_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="drain")) == expected
        for mode in ANYK_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="anyk")) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_acyclic_projected_head(self, seed):
        engine = random_chain_engine(seed)
        q = "Q(A, C) :- R(A,B), S(B,C) ORDER BY C, A DESC LIMIT 8"
        expected = list(engine.stream(q, mode="naive", ranked_mode="drain"))
        for mode in ANYK_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="anyk")) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cyclic_triangle(self, seed):
        engine = random_triangle_engine(seed)
        q = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C) ORDER BY C DESC, B LIMIT 6"
        expected = list(engine.stream(q, mode="naive", ranked_mode="drain"))
        for mode in ("generic", "leapfrog"):
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="anyk")) == expected
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="drain")) == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_with_selections_and_constants(self, seed):
        engine = random_chain_engine(seed)
        q = "Q(A, B) :- R(A,B), S(B,C), A < C, B != 3 ORDER BY A DESC LIMIT 5"
        expected = list(engine.stream(q, mode="naive", ranked_mode="drain"))
        for mode in ANYK_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="anyk")) == expected

    def test_full_enumeration_without_limit_is_the_whole_sorted_result(self):
        engine = random_chain_engine(7)
        q = "Q(A,B,C) :- R(A,B), S(B,C) ORDER BY A, B DESC, C"
        expected = list(engine.stream(q, ranked_mode="drain"))
        for mode in ANYK_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="anyk")) == expected

    def test_string_sort_keys(self):
        names = Relation("N", ("a", "name"),
                         [(1, "zoe"), (2, "amy"), (3, "bob"), (4, "amy")])
        edges = Relation("E", ("a", "b"), [(1, 2), (2, 3), (3, 4), (4, 1)])
        engine = Engine(relations=[names, edges], cache_results=False)
        q = "Q(X, B) :- N(A, X), E(A, B) ORDER BY X, B DESC LIMIT 3"
        expected = list(engine.stream(q, ranked_mode="drain"))
        for mode in ANYK_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="anyk")) == expected


class TestDelayShape:
    # Full-head queries: with a projected head, drain already collapses
    # the tail through the existential eliminator, so the node-count
    # separation any-k buys shows on the full enumeration — the "top-k
    # of the join by a score column" workload.
    QUERY = "Q(A, B, C) :- R(A,B), S(B,C) ORDER BY A"

    def test_anyk_touches_far_fewer_nodes_for_k1(self):
        engine = skewed_engine()
        anyk, drain = OperationCounter(), OperationCounter()
        r1 = engine.execute(self.QUERY + " LIMIT 1", mode="generic",
                            ranked_mode="anyk", counter=anyk)
        r2 = engine.execute(self.QUERY + " LIMIT 1", mode="generic",
                            ranked_mode="drain", counter=drain)
        assert sorted(r1.tuples) == sorted(r2.tuples)
        assert drain.search_nodes >= 10 * anyk.search_nodes

    def test_node_count_grows_with_k_not_with_the_join(self):
        engine = skewed_engine()
        counters = {}
        for k in (1, 10):
            counter = OperationCounter()
            rows = []
            for row in engine.stream(self.QUERY, mode="generic",
                                     ranked_mode="anyk", counter=counter):
                rows.append(row)
                if len(rows) == k:
                    break
            counters[k] = counter.search_nodes
        drain = OperationCounter()
        list(engine.stream(self.QUERY, mode="generic", ranked_mode="drain",
                           counter=drain))
        assert counters[1] <= counters[10] < drain.search_nodes

    def test_abandoning_the_anyk_stream_abandons_the_frontier(self):
        engine = skewed_engine()
        counter = OperationCounter()
        stream = engine.stream(self.QUERY, mode="generic",
                               ranked_mode="anyk", counter=counter)
        next(stream)
        stream.close()
        drain = OperationCounter()
        list(engine.stream(self.QUERY, mode="generic", ranked_mode="drain",
                           counter=drain))
        assert counter.search_nodes < drain.search_nodes / 10

    @pytest.mark.parametrize("mode", ["generic", "leapfrog", "yannakakis"])
    def test_first_row_work_does_not_depend_on_k(self, mode):
        # A frontier stage pushes one sibling at a time, so the first row
        # costs the pops down the key levels (or join-tree nodes), not a
        # best-suffix bound for every root candidate B.
        engine = star_top_engine()
        roots = len({b for _a, b in engine.database.get("R")})
        first_rows = {}
        for k in (1, 10, 100):
            query = STAR_TOP.format(k=k)
            list(engine.stream(query, mode=mode, ranked_mode="anyk"))
            counter = OperationCounter()
            stream = engine.stream(query, mode=mode, ranked_mode="anyk",
                                   counter=counter)
            first = next(stream)
            first_rows[k] = (first, counter.as_dict())
            assert counter.search_nodes < roots
        assert first_rows[1] == first_rows[10] == first_rows[100]


class TestStreamClose:
    """``Engine.stream(...).close()`` ends the stream on every branch of
    the row pipeline and releases the executor's stream with it."""

    QUERY = "Q(A,B,C) :- R(A,B), S(B,C)"
    TOP = QUERY + " ORDER BY C DESC, A LIMIT 3"

    @pytest.mark.parametrize("query, options", [
        (TOP, {"mode": "generic", "ranked_mode": "anyk"}),
        (TOP, {"mode": "yannakakis", "ranked_mode": "anyk"}),
        (QUERY + " ORDER BY C DESC, A", {"ranked_mode": "drain"}),
        (QUERY, {"mode": "generic"}),
        (QUERY, {"mode": "generic", "backend": "columnar"}),
    ], ids=["anyk-limit", "yannakakis-anyk-limit", "drain-sorted", "plain",
            "columnar"])
    def test_close_ends_the_stream(self, query, options):
        if options.get("backend") == "columnar":
            pytest.importorskip("numpy")
        engine = random_chain_engine(0)
        stream = engine.stream(query, **options)
        next(stream)
        stream.close()
        with pytest.raises(StopIteration):
            next(stream)

    def test_close_releases_the_frontier(self):
        # The frontier's phase writes its breakdown when its generator
        # exits: on close, not when the engine's stream is collected.
        engine = random_chain_engine(0)
        counter = OperationCounter(detail=True)
        stream = engine.stream(self.TOP, mode="yannakakis",
                               ranked_mode="anyk", counter=counter)
        next(stream)
        assert "frontier.search_nodes" not in counter.breakdown
        stream.close()
        assert counter.breakdown["frontier.search_nodes"] >= 1


class TestLimitOrderByInteraction:
    """Per-call ``limit`` + query-carried ORDER BY: ordering always wins.

    The min-wins merge of the per-call limit with the query's own LIMIT
    must truncate the *ordered* stream — never the raw join enumeration —
    in every ranked mode and on every API (stream/execute/execute_many).
    """

    QUERY = "Q(A, B) :- R(A,B), S(B,C) ORDER BY B DESC, A"

    def expected_prefix(self, engine, k):
        full = list(engine.stream(self.QUERY, mode="naive",
                                  ranked_mode="drain"))
        return full[:k]

    @pytest.mark.parametrize("ranked_mode", ["auto", "anyk", "drain"])
    def test_stream_per_call_limit_truncates_after_ordering(self, ranked_mode):
        engine = random_chain_engine(11)
        want = self.expected_prefix(engine, 4)
        got = list(engine.stream(self.QUERY, limit=4,
                                 ranked_mode=ranked_mode))
        assert got == want

    @pytest.mark.parametrize("ranked_mode", ["auto", "anyk", "drain"])
    def test_execute_per_call_limit_returns_the_ranked_prefix(self,
                                                              ranked_mode):
        engine = random_chain_engine(12)
        want = set(self.expected_prefix(engine, 5))
        got = engine.execute(self.QUERY, limit=5, ranked_mode=ranked_mode)
        assert set(got.tuples) == want

    def test_min_wins_against_the_query_limit(self):
        engine = random_chain_engine(13)
        carried = self.QUERY + " LIMIT 6"
        want = self.expected_prefix(engine, 6)
        # Per-call smaller: truncates the ordered stream further.
        assert list(engine.stream(carried, limit=2)) == want[:2]
        # Per-call larger: the query's own LIMIT wins.
        assert list(engine.stream(carried, limit=50)) == want
        for mode in ANYK_MODES:
            assert list(engine.stream(carried, limit=2, mode=mode,
                                      ranked_mode="anyk")) == want[:2]

    def test_execute_many_applies_the_merge_per_query(self):
        engine = random_chain_engine(14)
        carried = self.QUERY + " LIMIT 6"
        want = self.expected_prefix(engine, 6)
        results = engine.execute_many([carried, self.QUERY], limit=3)
        assert set(results[0].tuples) == set(want[:3])
        assert set(results[1].tuples) == set(want[:3])

    def test_warm_result_cache_does_not_leak_into_limited_calls(self):
        engine = Engine(relations=[
            Relation("R", ("a", "b"), [(i, 10 - i) for i in range(10)]),
            Relation("S", ("b", "c"), [(10 - i, i) for i in range(10)]),
        ])
        carried = self.QUERY + " LIMIT 6"
        full = engine.execute(carried)  # populates the result cache
        assert len(full) == 6
        want = self.expected_prefix(engine, 2)
        got = engine.execute(carried, limit=2)
        assert set(got.tuples) == set(want)

    def test_limit_zero_is_empty_not_unordered(self):
        engine = random_chain_engine(15)
        assert list(engine.stream(self.QUERY, limit=0)) == []
        assert len(engine.execute(self.QUERY, limit=0)) == 0


class TestDispatchAndExplain:
    def test_auto_resolves_anyk_under_a_small_limit(self):
        engine = skewed_engine()
        exp = engine.explain("Q(A,B) :- R(A,B), S(B,C) ORDER BY A LIMIT 1")
        assert exp.ranked_mode == "anyk"
        assert exp.strategy in ANYK_MODES
        assert exp.costs["ranked[anyk]"] < exp.costs["ranked[drain]"]
        assert "ranked mode:" in exp.render()

    def test_auto_resolves_drain_without_a_limit(self):
        engine = random_chain_engine(20)
        exp = engine.explain("Q(A,B) :- R(A,B), S(B,C) ORDER BY A")
        assert exp.ranked_mode == "drain"

    def test_unordered_queries_report_no_ranked_mode(self):
        engine = random_chain_engine(21)
        exp = engine.explain("Q(A,B) :- R(A,B), S(B,C)")
        assert exp.ranked_mode is None
        assert "ranked mode" not in exp.render()

    def test_forced_anyk_is_reported(self):
        engine = random_chain_engine(22)
        exp = engine.explain("Q(A,B) :- R(A,B), S(B,C) ORDER BY A",
                             ranked_mode="anyk")
        assert exp.ranked_mode == "anyk"

    def test_ordered_aggregate_queries_resolve_to_drain(self):
        engine = random_chain_engine(23)
        q = (Q.from_("R", "A", "B").from_("S", "B", "C")
              .select("A", count()).group_by("A")
              .order_by("-count").limit(3))
        exp = engine.explain(q)
        assert exp.ranked_mode == "drain"
        result = engine.execute(q)
        assert len(result) <= 3

    def test_dispatch_decision_carries_the_ranked_mode(self):
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        db = Database([
            Relation("R", ("a", "b"), [(1, 2)]),
            Relation("S", ("b", "c"), [(2, 3)]),
        ])
        decision = dispatch(q, db, order_by=(("A", False),), limit=1)
        assert decision.ranked_mode in ("anyk", "drain")
        decision = dispatch(q, db)
        assert decision.ranked_mode is None

    def test_columnar_request_runs_the_kernels_drain(self):
        # The kernel has no any-k: where python resolves Generic-Join to
        # any-k, a columnar request runs the same strategy's drain there
        # instead of falling back to python.
        engine = star_top_engine()
        query = STAR_TOP.format(k=10)
        python = engine.explain(query)
        assert (python.strategy, python.ranked_mode) == ("generic", "anyk")
        columnar = engine.explain(query, backend="columnar")
        assert (columnar.strategy, columnar.ranked_mode,
                columnar.backend) == ("generic", "drain", "columnar")
        assert columnar.costs["backend[columnar]"] < math.inf
        assert (engine.execute(query, backend="columnar").tuples
                == engine.execute(query).tuples)
        forced = engine.explain(query, backend="columnar", ranked_mode="anyk")
        assert forced.backend == "python"
        assert "any-k" in forced.backend_fallback

    def test_sparse_path_top_k_runs_ranked_yannakakis_on_python(self):
        # Every vertex has out- and in-degree 3, like the e2e benchmark's
        # uniform graphs: one annotated pass plus the frontier is priced
        # below binary's greedy join and drain.
        rng = random.Random(0)

        def dealt() -> list:
            cycle = list(range(30))
            rng.shuffle(cycle)
            return [(s, cycle[(3 * s + k) % 30])
                    for s in range(30) for k in range(3)]

        engine = Engine(relations=[Relation(name, ("x", "y"), dealt())
                                   for name in ("R", "S", "U")],
                        cache_results=False)
        query = ("Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D) "
                 "ORDER BY D DESC, A LIMIT 10")
        exp = engine.explain(query, backend="python")
        assert (exp.strategy, exp.ranked_mode) == ("yannakakis", "anyk")
        assert exp.costs["yannakakis"] < exp.costs["binary"]
        assert (engine.execute(query, backend="python").tuples
                == engine.execute(query, mode="binary").tuples)


class TestPlanCache:
    def test_ranked_mode_is_a_plan_axis(self):
        engine = random_chain_engine(30)
        q = "Q(A,B) :- R(A,B), S(B,C) ORDER BY A LIMIT 3"
        anyk = list(engine.stream(q, ranked_mode="anyk"))
        drain = list(engine.stream(q, ranked_mode="drain"))
        assert anyk == drain
        assert engine.stats.plan_misses == 2  # one plan per mode

    def test_isomorphic_ordered_queries_share_a_plan(self):
        engine = random_chain_engine(31)
        first = "Q(A,B) :- R(A,B), S(B,C) ORDER BY A LIMIT 3"
        second = "Q(X,Y) :- R(X,Y), S(Y,Z) ORDER BY X LIMIT 3"
        assert (list(engine.stream(first, ranked_mode="anyk"))
                == list(engine.stream(second, ranked_mode="anyk")))
        assert engine.stats.plan_hits == 1


class TestErrors:
    def test_unknown_ranked_mode(self):
        engine = random_chain_engine(40)
        with pytest.raises(QueryError, match="unknown ranked mode"):
            engine.execute("Q(A,B) :- R(A,B), S(B,C) ORDER BY A",
                           ranked_mode="bogus")

    def test_ranked_mode_needs_an_ordered_query(self):
        engine = random_chain_engine(41)
        with pytest.raises(QueryError, match="needs an ORDER BY"):
            engine.execute("Q(A,B) :- R(A,B), S(B,C)", ranked_mode="anyk")
        with pytest.raises(QueryError, match="needs an ORDER BY"):
            engine.execute("Q(A,B) :- R(A,B), S(B,C)", ranked_mode="drain")

    def test_anyk_rejects_aggregate_queries(self):
        engine = random_chain_engine(42)
        q = "Q(A, COUNT(*)) :- R(A,B), S(B,C) ORDER BY A LIMIT 2"
        with pytest.raises(QueryError, match="aggregate"):
            engine.execute(q, ranked_mode="anyk")

    def test_forced_materializing_strategy_cannot_anyk(self):
        engine = random_chain_engine(43)
        q = "Q(A,B) :- R(A,B), S(B,C) ORDER BY A LIMIT 2"
        for mode in ("binary", "naive"):
            with pytest.raises(QueryError, match="rank order"):
                engine.execute(q, mode=mode, ranked_mode="anyk")

    def test_drain_stays_available_everywhere(self):
        engine = random_chain_engine(44)
        q = "Q(A,B) :- R(A,B), S(B,C) ORDER BY A LIMIT 2"
        expected = list(engine.stream(q, mode="generic", ranked_mode="drain"))
        for mode in ALL_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="drain")) == expected


class TestTieBreakDeterminism:
    def test_equal_keys_emit_in_full_row_order(self):
        # Every row ties on the constant sort key column.
        r = Relation("R", ("a", "k"), [(i, 7) for i in range(10)])
        s = Relation("S", ("a", "b"), [(i, 9 - i) for i in range(10)])
        engine = Engine(relations=[r, s], cache_results=False)
        q = "Q(A, B, K) :- R(A,K), S(A,B) ORDER BY K LIMIT 4"
        rows = [(a, b, 7) for a, b in ((i, 9 - i) for i in range(10))]
        want = sort_rows(rows, ("A", "B", "K"), [("K", False)], limit=4)
        for mode in ANYK_MODES:
            assert list(engine.stream(q, mode=mode,
                                      ranked_mode="anyk")) == want
