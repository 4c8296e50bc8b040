"""Component-factorized elimination: exact FAQ bound on decomposable tails.

After the separator is bound, the residual tail of an eliminating WCOJ run
may split into connected components of the residual hypergraph —
conditionally-independent sub-problems.  The factorized eliminator folds
each component with its own memo and combines the values with the semiring
product; these tests pin that the results are *bit-identical* to the
monolithic fold (and to every other executor) while the search shrinks from
``N^{tail width}`` to ``N^{max component width}``.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import Engine
from repro.joins.generic_join import generic_join_stream
from repro.joins.instrumentation import OperationCounter
from repro.joins.leapfrog import leapfrog_stream
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import Query
from repro.query.semiring import Aggregate, Semiring, register_semiring
from repro.query.variable_order import aggregate_elimination_order
from repro.relational.database import Database
from repro.relational.relation import Relation

STREAMS = [generic_join_stream, leapfrog_stream]


def star_database(seed: int = 0, groups: int = 12, fanout: int = 8,
                  domain: int = 10) -> Database:
    """R1(A,B1), R2(A,B2), R3(A,B3): the tail factorizes per arm."""
    rng = random.Random(seed)
    rels = []
    for i, col in enumerate(("b", "c", "d")):
        rows = {(a, rng.randrange(domain))
                for a in range(groups) for _ in range(fanout)}
        rels.append(Relation(f"R{i + 1}", ("a", col), rows))
    return Database(rels)


def star_query() -> ConjunctiveQuery:
    return ConjunctiveQuery([Atom("R1", ("A", "B1")),
                             Atom("R2", ("A", "B2")),
                             Atom("R3", ("A", "B3"))])


def both_modes(stream, query, database, **kwargs):
    """(factorized rows, monolithic rows, factorized nodes, mono nodes)."""
    fact_counter, mono_counter = OperationCounter(), OperationCounter()
    fact = sorted(stream(query, database, counter=fact_counter, **kwargs))
    mono = sorted(stream(query, database, counter=mono_counter,
                         factorize=False, **kwargs))
    return fact, mono, fact_counter.search_nodes, mono_counter.search_nodes


class TestBitIdenticalResults:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("kind,var", [("count", None), ("sum", "B1"),
                                          ("min", "B2"), ("max", "B3"),
                                          ("avg", "B1")])
    def test_star_group_by_every_builtin_aggregate(self, stream, kind, var):
        db = star_database()
        aggs = [Aggregate(kind, var, "x")]
        order = ("A", "B1", "B2", "B3")
        fact, mono, _f, _m = both_modes(stream, star_query(), db,
                                        order=order, head=("A",),
                                        aggregates=aggs)
        assert fact == mono

    @pytest.mark.parametrize("stream", STREAMS)
    def test_multi_aggregate_heads_split_across_components(self, stream):
        db = star_database(seed=3)
        aggs = [Aggregate("sum", "B1", "s"), Aggregate("min", "B2", "m"),
                Aggregate("count", None, "n"), Aggregate("avg", "B3", "a")]
        fact, mono, fact_nodes, mono_nodes = both_modes(
            stream, star_query(), db, order=("A", "B1", "B2", "B3"),
            head=("A",), aggregates=aggs)
        assert fact == mono
        assert fact_nodes < mono_nodes

    @pytest.mark.parametrize("stream", STREAMS)
    def test_non_decomposable_tail_unchanged(self, stream):
        # Chain tail: B and C share the S atom, a single component — the
        # factorized path must fall through to the identical monolithic
        # fold, node counts included.
        rng = random.Random(5)
        db = Database([
            Relation("R", ("a", "b"),
                     {(rng.randrange(6), rng.randrange(6))
                      for _ in range(25)}),
            Relation("S", ("b", "c"),
                     {(rng.randrange(6), rng.randrange(6))
                      for _ in range(25)}),
        ])
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
        fact, mono, fact_nodes, mono_nodes = both_modes(
            stream, q, db, order=("A", "B", "C"), head=("A",),
            aggregates=[Aggregate("count", None, "n")])
        assert fact == mono
        assert fact_nodes == mono_nodes

    @pytest.mark.parametrize("stream", STREAMS)
    def test_projection_existential_tail_factorizes(self, stream):
        db = star_database(seed=7)
        fact, mono, _f, _m = both_modes(stream, star_query(), db,
                                        order=("A", "B1", "B2", "B3"),
                                        head=("A",))
        assert fact == mono

    @pytest.mark.parametrize("stream", STREAMS)
    def test_ranked_enumeration_with_decomposable_existential_tail(
            self, stream):
        # ORDER BY the group variable: the ranked frontier's existential
        # checks and best-suffix bounds run through the factorized
        # eliminators; prefixes must match the monolithic run exactly.
        db = star_database(seed=11, groups=8, fanout=4)
        q = star_query()
        kwargs = dict(order=("A", "B1", "B2", "B3"), head=("A",),
                      ranked=(("A", True),))
        fact = list(stream(q, db, **kwargs))
        mono = list(stream(q, db, factorize=False, **kwargs))
        assert fact == mono
        assert fact == sorted(fact, reverse=True)

    @pytest.mark.parametrize("stream", STREAMS)
    def test_ranked_keys_spanning_components(self, stream):
        # Sort keys live in *different* arms of a product-shaped join:
        # the per-component best-suffix vectors must recompose exactly.
        rng = random.Random(13)
        db = Database([
            Relation("R", ("a", "b"),
                     {(rng.randrange(4), rng.randrange(9))
                      for _ in range(14)}),
            Relation("S", ("a", "c"),
                     {(rng.randrange(4), rng.randrange(9))
                      for _ in range(14)}),
        ])
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("A", "C"))])
        kwargs = dict(order=("B", "C", "A"), head=("B", "C"),
                      ranked=(("B", False), ("C", True)))
        fact = list(stream(q, db, **kwargs))
        mono = list(stream(q, db, factorize=False, **kwargs))
        assert fact == mono

    @pytest.mark.parametrize("stream", STREAMS)
    def test_selection_glues_components_together(self, stream):
        # B1 < B2 couples the two arms: treating them as independent
        # would mis-count, so the splitter must merge them — and the
        # answers must stay identical to the monolithic fold.
        db = star_database(seed=17)
        sel = Query.coerce(
            "Q(A, COUNT(*)) :- R1(A,B1), R2(A,B2), R3(A,B3), B1 < B2")
        fact, mono, _f, _m = both_modes(
            stream, sel.core, db, order=("A", "B1", "B2", "B3"),
            head=("A",), aggregates=sel.aggregates,
            selections=sel.all_selections)
        assert fact == mono
        # Sanity: the result actually reflects the selection.
        plain = sorted(stream(sel.core, db, order=("A", "B1", "B2", "B3"),
                              head=("A",), aggregates=sel.aggregates))
        assert fact != plain

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_queries_agree_across_engines_and_modes(self, seed):
        """Random decomposable/non-decomposable instances: the engine's
        factorized answers match every executor and the monolithic
        stream, bit for bit."""
        rng = random.Random(seed)
        shapes = {
            "star": ([("R1", ("A", "B1")), ("R2", ("A", "B2")),
                      ("R3", ("A", "B3"))], ("A", "B1", "B2", "B3")),
            "chain": ([("R1", ("A", "B1")), ("R2", ("B1", "B2")),
                       ("R3", ("B2", "B3"))], ("A", "B1", "B2", "B3")),
            "forest": ([("R1", ("A", "B1")), ("R2", ("B1", "B2")),
                        ("R3", ("A", "B3"))], ("A", "B1", "B2", "B3")),
        }
        atoms_spec, _vars = shapes[rng.choice(sorted(shapes))]
        db = Database([
            Relation(name, tuple(v.lower() for v in vs),
                     {tuple(rng.randrange(7) for _ in vs)
                      for _ in range(30)})
            for name, vs in atoms_spec
        ])
        q = ConjunctiveQuery([Atom(n, vs) for n, vs in atoms_spec])
        aggs = (Aggregate("count", None, "n"), Aggregate("sum", "B1", "s"))
        order = aggregate_elimination_order(q, group=("A",))
        expected = sorted(generic_join_stream(
            q, db, order=order, head=("A",), aggregates=aggs,
            factorize=False))
        for stream in STREAMS:
            got = sorted(stream(q, db, order=order, head=("A",),
                                aggregates=aggs))
            assert got == expected, stream.__name__
        engine = Engine(database=db, cache_results=False)
        text = "Q(A, COUNT(*), SUM(B1) AS s) :- " + ", ".join(
            f"{n}({', '.join(vs)})" for n, vs in atoms_spec)
        for mode in ("generic", "leapfrog", "yannakakis", "binary", "naive"):
            result = engine.execute(text, mode=mode)
            assert sorted(result.tuples) == expected, mode


class TestAsymptotics:
    def test_star_sum_beats_monolithic_elimination(self):
        # SUM(B1) threads B1 through every later separator of the
        # monolithic fold (the memo key of each other arm grows by the
        # aggregated variable); per-component folds drop that factor.
        db = star_database(seed=1, groups=20, fanout=25, domain=30)
        aggs = [Aggregate("sum", "B1", "s")]
        fact, mono, fact_nodes, mono_nodes = both_modes(
            generic_join_stream, star_query(), db,
            order=("A", "B1", "B2", "B3"), head=("A",), aggregates=aggs)
        assert fact == mono
        assert mono_nodes >= 10 * fact_nodes

    def test_component_memo_is_shared_across_groups(self):
        # A product-shaped tail independent of the group variable: each
        # component's fold is computed once and memo-served to every
        # group.
        db = Database([
            Relation("R", ("a", "b"), [(a, b) for a in range(15)
                                       for b in range(3)]),
            Relation("S", ("c", "d"), [(c, d) for c in range(12)
                                       for d in range(2)]),
        ])
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("C", "D"))])
        counter = OperationCounter()
        rows = sorted(generic_join_stream(
            q, db, order=("A", "B", "C", "D"), head=("A",),
            aggregates=[Aggregate("count", None, "n")], counter=counter))
        assert rows == [(a, 3 * 24) for a in range(15)]
        # 1 root + 15 group nodes + one {B}-fold per group (separator A)
        # + a single shared {C,D} fold (1 + 12 nodes).
        assert counter.search_nodes <= 1 + 15 + 15 + 13


class TestFallbacks:
    def test_plus_only_semiring_falls_back_to_monolithic(self):
        # A registered aggregate without ``times`` cannot combine
        # component values; the eliminator must quietly keep the
        # monolithic fold and still be correct.
        from repro.query.semiring import SEMIRINGS

        name = "listagg_test"
        register_semiring(Semiring(
            name, zero=(), plus=lambda a, b: tuple(sorted(a + b)),
            lift=lambda v: (v,)))
        try:
            db = star_database(seed=19, groups=4, fanout=3, domain=4)
            aggs = [Aggregate(name, "B2", "xs")]
            got = sorted(generic_join_stream(
                star_query(), db, order=("A", "B1", "B2", "B3"),
                head=("A",), aggregates=aggs))
            # Distinct-assignment semantics: each distinct B2 of a
            # surviving group appears once per distinct (B1, B3) pair.
            arms = {col: {} for col in ("R1", "R2", "R3")}
            for rel in arms:
                for a, v in db.get(rel).tuples:
                    arms[rel].setdefault(a, set()).add(v)
            for a, xs in got:
                multiplicity = (len(arms["R1"][a]) * len(arms["R3"][a]))
                expected = tuple(sorted(
                    b2 for b2 in arms["R2"][a]
                    for _ in range(multiplicity)))
                assert tuple(xs) == expected
        finally:
            SEMIRINGS.pop(name, None)

    def test_factorize_flag_is_pure_ablation(self):
        db = star_database(seed=23)
        q = star_query()
        for head in (("A",), ("A", "B1")):
            fact = sorted(generic_join_stream(q, db,
                                              order=("A", "B1", "B2", "B3"),
                                              head=head))
            mono = sorted(generic_join_stream(q, db,
                                              order=("A", "B1", "B2", "B3"),
                                              head=head, factorize=False))
            assert fact == mono


class TestPlannerExecutorAgreement:
    """The planner, the executor, and explain() must split identically."""

    def test_selection_glue_is_shared_by_planner_and_executor(self):
        spec = Query.coerce("Q(A, COUNT(*)) :- R1(A,B), R2(A,C), B != C")
        hg = spec.core.hypergraph()
        couplings = [sel.variables for sel in spec.all_selections]
        glued = hg.residual_components(("A",), couplings=couplings)
        assert glued == (frozenset({"B", "C"}),)
        # Without the coupling the arms would (wrongly, for this query)
        # look independent.
        assert len(hg.residual_components(("A",))) == 2
        from repro.query.variable_order import aggregate_elimination_order
        order = aggregate_elimination_order(
            spec.core, group=("A",), selections=spec.all_selections)
        assert order[0] == "A"

    def test_explain_reports_no_split_for_plus_only_semirings(self):
        from repro.query.semiring import SEMIRINGS
        name = "firstagg_test"
        register_semiring(Semiring(
            name, None, lambda a, b: b if a is None else a,
            lambda v: v))
        try:
            db = star_database(seed=29, groups=4, fanout=3)
            engine = Engine(database=db, cache_results=False)
            text = (f"Q(A, {name.upper()}(B1) AS f) "
                    ":- R1(A,B1), R2(A,B2), R3(A,B3)")
            explanation = engine.explain(text, mode="generic",
                                         aggregate_mode="recursion")
            assert not any("factorizes" in line
                           for line in explanation.elimination)
        finally:
            SEMIRINGS.pop(name, None)

    def test_explain_reports_the_split_for_product_semirings(self):
        db = star_database(seed=31, groups=4, fanout=3)
        engine = Engine(database=db, cache_results=False)
        explanation = engine.explain(
            "Q(A, SUM(B1) AS s) :- R1(A,B1), R2(A,B2), R3(A,B3)",
            mode="generic", aggregate_mode="recursion")
        assert any("factorizes into 3 independent components" in line
                   for line in explanation.elimination)
