"""The in-recursion aggregate execution mode through the engine surface.

Covers the dispatcher's mode pricing and resolution, the aggregate-aware
variable order (group prefix + width-minimizing elimination tail), the
node-count separation between in-recursion elimination and drain-and-fold,
``explain()``'s elimination-placement report, plan-cache behaviour across
isomorphic aggregate queries and across modes, and the error surface of
forced modes.
"""

import pytest

from repro.engine import Engine
from repro.engine.cost import dispatch
from repro.engine.fingerprint import payload_order
from repro.errors import QueryError
from repro.joins.generic_join import generic_join_stream
from repro.joins.instrumentation import OperationCounter
from repro.joins.yannakakis import yannakakis_aggregate_stream
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import Query
from repro.query.semiring import Aggregate, Semiring, register_semiring
from repro.query.variable_order import aggregate_elimination_order
from repro.query.widths import decomposition_from_elimination_order
from repro.relational.database import Database
from repro.relational.relation import Relation


def chain_engine(n_a=20, n_b=6, n_c=25) -> Engine:
    """A skewed acyclic chain R(A,B) ⋈ S(B,C): every A sees every B."""
    R = Relation("R", ("a", "b"), [(a, b) for a in range(n_a)
                                   for b in range(n_b)])
    S = Relation("S", ("b", "c"), [(b, c) for b in range(n_b)
                                   for c in range(n_c)])
    return Engine(relations=[R, S], cache_results=False)


GROUP_COUNT = "Q(A, COUNT(*)) :- R(A,B), S(B,C)"


def plus_only() -> str:
    """Register (once per session) and name a plus-only semiring: an
    aggregate without a product, which no eliminator can factorize."""
    name = "plusonly_monoid"

    def none_aware_max(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    try:
        register_semiring(Semiring(name, None, none_aware_max, lambda v: v))
    except QueryError:
        pass  # already registered by an earlier test in this session
    return name


class TestPlanner:
    def test_group_prefix_then_width_minimizing_tail(self):
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        order = aggregate_elimination_order(q, group=("A",))
        assert order == ("A", "B", "C")
        assert decomposition_from_elimination_order(
            q.hypergraph(), tuple(reversed(order))).width() == 1

    def test_fixed_variables_precede_group(self):
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        order = aggregate_elimination_order(q, group=("A",), fixed=("B",))
        assert order[0] == "B" and order[1] == "A"


class TestNodeCounts:
    def test_in_recursion_beats_fold_asymptotically(self):
        engine = chain_engine()
        rec, fold = OperationCounter(), OperationCounter()
        r1 = engine.execute(GROUP_COUNT, mode="generic",
                            aggregate_mode="recursion", counter=rec)
        r2 = engine.execute(GROUP_COUNT, mode="generic",
                            aggregate_mode="fold", counter=fold)
        assert r1 == r2
        # Fold enumerates the whole join (~n_a*n_b*n_c nodes); recursion
        # visits each distinct (A,B) once and each distinct B tail once.
        assert fold.search_nodes > 5 * rec.search_nodes

    def test_memoized_elimination_reuses_separator_subtrees(self):
        engine = chain_engine(n_a=30, n_b=4, n_c=30)
        counter = OperationCounter()
        engine.execute(GROUP_COUNT, mode="leapfrog",
                       aggregate_mode="recursion", counter=counter)
        # 1 root + n_a*n_b group-prefix nodes + n_b memoized C-subtrees.
        assert counter.search_nodes <= 1 + 30 * 4 + 4


class TestDispatch:
    def test_auto_mode_picks_recursion_when_variables_eliminated(self):
        engine = chain_engine()
        explanation = engine.explain(GROUP_COUNT)
        assert explanation.aggregate_mode == "recursion"
        assert "agg[recursion]" in explanation.costs
        assert "agg[fold]" in explanation.costs
        assert (explanation.costs["agg[recursion]"]
                < explanation.costs["agg[fold]"])

    def test_full_group_by_resolves_the_cheaper_mode(self):
        # Nothing is eliminated: both modes walk the same levels, and the
        # in-recursion fold skips the engine's fold over every row.
        engine = chain_engine()
        query = "Q(A, B, C, COUNT(*)) :- R(A,B), S(B,C)"
        explanation = engine.explain(query, mode="generic")
        costs = explanation.costs
        assert costs["agg[recursion]"] < costs["agg[fold]"]
        assert explanation.aggregate_mode == "recursion"
        assert not any("eliminated" in line
                       for line in explanation.elimination)
        assert (sorted(engine.execute(query, mode="generic").tuples)
                == sorted(engine.execute(query, mode="generic",
                                         aggregate_mode="fold").tuples))

    def test_dispatch_order_of_acyclic_group_by_induces_width_one(self):
        # Eliminating the chosen order innermost-first (the binding order
        # reversed) keeps every bag within one atom: width 1.
        engine = chain_engine()
        spec = Query.coerce(GROUP_COUNT)
        decision = dispatch(spec.core, engine.database,
                            aggregates=spec.aggregates,
                            group=spec.head_vars)
        assert decision.aggregate_mode == "recursion"
        assert decision.payload is not None
        order = payload_order(decision.payload)
        decomposition = decomposition_from_elimination_order(
            spec.core.hypergraph(), tuple(reversed(order)))
        assert decomposition.width() == 1

    def test_forced_recursion_on_materializing_strategy_raises(self):
        engine = chain_engine()
        with pytest.raises(QueryError, match="cannot aggregate in-recursion"):
            engine.execute(GROUP_COUNT, mode="binary",
                           aggregate_mode="recursion")

    def test_aggregate_mode_on_plain_query_raises(self):
        engine = chain_engine()
        with pytest.raises(QueryError, match="needs an aggregate query"):
            engine.execute("Q(A,B) :- R(A,B)", aggregate_mode="recursion")

    def test_unknown_aggregate_mode_raises(self):
        engine = chain_engine()
        with pytest.raises(QueryError, match="unknown aggregate mode"):
            engine.execute(GROUP_COUNT, aggregate_mode="sideways")


class TestExplain:
    def test_elimination_placement_reported(self):
        engine = chain_engine()
        explanation = engine.explain(GROUP_COUNT, mode="generic",
                                     aggregate_mode="recursion")
        rendered = explanation.render()
        assert explanation.aggregate_mode == "recursion"
        assert any("A — group-by prefix (depth 0)" in line
                   for line in explanation.elimination)
        assert any("C — eliminated in-recursion at depth 2" in line
                   for line in explanation.elimination)
        assert "elimination:" in rendered
        assert "[recursion]" in rendered

    def test_pinned_prefix_variables_labeled_distinctly(self):
        engine = chain_engine()
        explanation = engine.explain(
            "Q(A, COUNT(*)) :- R(A,B), S(B,C), B == 2", mode="generic",
            aggregate_mode="recursion")
        assert any("B — constant-pinned prefix (depth 0)" in line
                   for line in explanation.elimination)
        assert any("A — group-by prefix (depth 1)" in line
                   for line in explanation.elimination)

    def test_fold_placement_reported(self):
        engine = chain_engine()
        explanation = engine.explain(GROUP_COUNT, mode="generic",
                                     aggregate_mode="fold")
        assert explanation.aggregate_mode == "fold"
        assert any("stream-fold" in line for line in explanation.elimination)

    def test_yannakakis_in_pass_placement_reported(self):
        engine = chain_engine()
        explanation = engine.explain(GROUP_COUNT, mode="yannakakis",
                                     aggregate_mode="recursion")
        assert any("join-tree passes" in line
                   for line in explanation.elimination)

    def test_variable_order_keeps_group_prefix(self):
        engine = chain_engine()
        explanation = engine.explain(GROUP_COUNT, mode="generic")
        assert explanation.variable_order[0] == "A"

    @pytest.mark.parametrize("query, elimination, selections", [
        # A star tail splits into one component per arm.
        ("Q(A, COUNT(*)) :- R(A,B), S(A,C)", (
            "A — group-by prefix (depth 0)",
            "B — eliminated in-recursion at depth 1, folded into COUNT "
            "(component 1/2)",
            "C — eliminated in-recursion at depth 2, folded into COUNT "
            "(component 2/2)",
            "tail factorizes into 2 independent components ({B}; {C}); "
            "per-component memoized folds combine with the semiring "
            "product"), ()),
        # A selection glues the arms it reads into one component.
        ("Q(A, MIN(C) AS m) :- R(A,B), S(A,C), R(A,D), B < D", (
            "A — group-by prefix (depth 0)",
            "B — eliminated in-recursion at depth 1, folded into MIN "
            "(component 1/2)",
            "D — eliminated in-recursion at depth 2, folded into MIN "
            "(component 1/2)",
            "C — eliminated in-recursion at depth 3, folded into MIN "
            "(component 2/2)",
            "tail factorizes into 2 independent components ({B, D}; {C}); "
            "per-component memoized folds combine with the semiring "
            "product"),
         ("B < D — pruned at depth 2 (variable D) of the join recursion",)),
        ("Q(A, COUNT(*)) :- R(A,B), S(A,C), B < C", (
            "A — group-by prefix (depth 0)",
            "B — eliminated in-recursion at depth 1, folded into COUNT",
            "C — eliminated in-recursion at depth 2, folded into COUNT"),
         ("B < C — pruned at depth 2 (variable C) of the join recursion",)),
        # Group-free: the pinned variable is eliminated with the rest.
        ("Q(COUNT(*)) :- R(A,B), S(A,C), A == 3", (
            "A — eliminated in-recursion at depth 0, folded into COUNT",
            "B — eliminated in-recursion at depth 1, folded into COUNT",
            "C — eliminated in-recursion at depth 2, folded into COUNT"),
         ("A == 3 — pruned at depth 0 (variable A) of the join recursion",)),
        ("Q(A, COUNT(*)) :- R(A,B), S(B,C), B == 2", (
            "B — constant-pinned prefix (depth 0)",
            "A — group-by prefix (depth 1)",
            "C — eliminated in-recursion at depth 2, folded into COUNT"),
         ("B == 2 — pruned at depth 0 (variable B) of the join recursion",)),
        # A plus-only semiring cannot combine components: monolithic.
        (lambda: Query([Atom("R", ("A", "B")), Atom("S", ("A", "C"))],
                       head=("A",),
                       aggregates=[Aggregate(plus_only(), "C", "m")]), (
            "A — group-by prefix (depth 0)",
            "B — eliminated in-recursion at depth 1, folded into "
            "PLUSONLY_MONOID",
            "C — eliminated in-recursion at depth 2, folded into "
            "PLUSONLY_MONOID"), ()),
    ], ids=["star", "glued", "glued_whole", "group_free_pinned",
            "pinned_prefix", "product_less"])
    def test_recursion_lines_pinned(self, query, elimination, selections):
        explanation = chain_engine().explain(
            query() if callable(query) else query, mode="generic",
            aggregate_mode="recursion")
        assert explanation.elimination == elimination
        assert explanation.pushed_selections == selections


class TestPlanCache:
    def test_isomorphic_aggregate_queries_share_plans(self):
        engine = chain_engine()
        engine.execute(GROUP_COUNT)
        hits = engine.stats.plan_hits
        engine.execute("P(X, COUNT(*)) :- R(X,Y), S(Y,Z)")
        assert engine.stats.plan_hits == hits + 1

    def test_modes_do_not_share_plan_entries(self):
        engine = chain_engine()
        engine.execute(GROUP_COUNT, mode="generic",
                       aggregate_mode="recursion")
        misses = engine.stats.plan_misses
        engine.execute(GROUP_COUNT, mode="generic", aggregate_mode="fold")
        assert engine.stats.plan_misses == misses + 1
        # And replaying each mode hits its own entry.
        hits = engine.stats.plan_hits
        engine.execute(GROUP_COUNT, mode="generic",
                       aggregate_mode="recursion")
        engine.execute(GROUP_COUNT, mode="generic", aggregate_mode="fold")
        assert engine.stats.plan_hits == hits + 2


class TestJoinsLayer:
    def test_wcoj_stream_rejects_interleaved_group_order(self):
        R = Relation("R", ("a", "b"), [(1, 2)])
        S = Relation("S", ("b", "c"), [(2, 3)])
        db = Database([R, S])
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        with pytest.raises(QueryError, match="group as a prefix"):
            list(generic_join_stream(
                q, db, order=("B", "A", "C"), head=("A",),
                aggregates=[Aggregate("count", None, "n")]))

    def test_yannakakis_in_pass_requires_product_semiring(self):
        name = plus_only()
        R = Relation("R", ("a", "b"), [(1, 2)])
        S = Relation("S", ("b", "c"), [(2, 3)])
        db = Database([R, S])
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        with pytest.raises(QueryError, match="product semiring"):
            list(yannakakis_aggregate_stream(
                q, db, ("A",), [Aggregate(name, "C", "m")]))
        # The engine resolves such aggregates to the fold mode instead.
        engine = Engine(database=db, cache_results=False)
        spec = Query([Atom("R", ("A", "B")), Atom("S", ("B", "C"))],
                     head=("A",), aggregates=[Aggregate(name, "C", "m")])
        explanation = engine.explain(spec, mode="yannakakis")
        assert explanation.aggregate_mode == "fold"
        assert sorted(engine.execute(spec, mode="yannakakis").tuples) == [(1, 3)]
        with pytest.raises(QueryError, match="needs product semirings"):
            engine.execute(spec, mode="yannakakis",
                           aggregate_mode="recursion")


class TestAvgAggregate:
    def test_avg_through_every_surface(self):
        engine = chain_engine(n_a=3, n_b=2, n_c=4)
        result = engine.execute("Q(A, AVG(C) AS ac) :- R(A,B), S(B,C)",
                                mode="generic", aggregate_mode="recursion")
        # Every A joins to every (B, C); AVG(C) = mean of range(4) = 1.5.
        assert sorted(result.tuples) == [(0, 1.5), (1, 1.5), (2, 1.5)]

    def test_avg_parses_from_text(self):
        spec = Query.coerce("Q(A, AVG(C) AS m) :- R(A,B), S(B,C)")
        assert spec.aggregates[0].kind == "avg"
