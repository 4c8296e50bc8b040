"""Tests for variable-ordering heuristics."""

import pytest

from repro.query.atoms import Atom, ConjunctiveQuery, path_query, triangle_query
from repro.query.variable_order import (
    min_degree_order,
    validate_order,
)
from repro.covers.hypertree import decomposition_fhtw
from repro.query.widths import decomposition_from_elimination_order
from repro.relational.relation import Relation


def induced_fhtw(query, order):
    """The fractional hypertree width of the decomposition ``order``
    induces when eliminated innermost-first (the binding order reversed)."""
    h = query.hypergraph()
    return decomposition_fhtw(decomposition_from_elimination_order(
        h, tuple(reversed(order))), h)


class TestOrders:
    def test_min_degree_order_prefers_shared_variables(self):
        # In Q :- R(A,B), S(B,C), U(B,D): B occurs in 3 atoms.
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C")),
                              Atom("U", ("B", "D"))])
        order = min_degree_order(q)
        assert order[0] == "B"

    def test_min_degree_order_is_permutation(self):
        q = path_query(4)
        assert sorted(min_degree_order(q)) == sorted(q.variables)

    def test_min_degree_order_breaks_ties_by_name(self):
        # All three variables occur in exactly one atom; occurrence order is
        # (Z, Y, X) but the tie-break must be the variable name.
        q = ConjunctiveQuery([Atom("R", ("Z", "Y")), Atom("S", ("X",))])
        assert min_degree_order(q) == ("X", "Y", "Z")

    def test_min_degree_order_is_stable_across_runs(self):
        q = triangle_query()
        orders = {min_degree_order(q) for _ in range(50)}
        assert orders == {("A", "B", "C")}

    def test_min_degree_order_ignores_atom_listing_order(self):
        # The same structure with atoms permuted must give the same order:
        # the engine's plan cache reuses orders across syntactic variants.
        base = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C")),
                                 Atom("T", ("A", "C"))])
        permuted = ConjunctiveQuery([Atom("T", ("A", "C")), Atom("S", ("B", "C")),
                                     Atom("R", ("A", "B"))])
        assert min_degree_order(base) == min_degree_order(permuted)

    def test_validate_order_accepts_permutation(self):
        q = triangle_query()
        assert validate_order(q, ("C", "A", "B")) == ("C", "A", "B")

    def test_validate_order_rejects_missing_variable(self):
        with pytest.raises(ValueError):
            validate_order(triangle_query(), ("A", "B"))

    def test_validate_order_rejects_extras(self):
        with pytest.raises(ValueError):
            validate_order(triangle_query(), ("A", "B", "C", "D"))


class TestComponentwiseTailScoring:
    def test_star_tail_width_is_the_max_component_width(self):
        from repro.query.variable_order import aggregate_elimination_order
        q = ConjunctiveQuery([Atom("R1", ("A", "B")), Atom("R2", ("A", "C")),
                              Atom("R3", ("A", "D"))])
        order = aggregate_elimination_order(q, group=("A",))
        assert order[0] == "A"
        assert sorted(order[1:]) == ["B", "C", "D"]
        # Each residual component {B}, {C}, {D} has width 1; the
        # monolithic tail has the same exponent here, but the component
        # split is what the factorized eliminator executes.
        assert induced_fhtw(q, order) == 1.0

    def test_product_tail_of_two_pairs(self):
        from repro.query.variable_order import aggregate_elimination_order
        q = ConjunctiveQuery([Atom("R", ("A", "B", "C")),
                              Atom("S", ("D", "E"))])
        order = aggregate_elimination_order(q, group=("A",))
        assert order[0] == "A"
        assert induced_fhtw(q, order) == 1.0
        # Components stay contiguous in the tail: {B, C} then {D, E}
        # (deterministic order by first tail occurrence).
        tail = order[1:]
        assert set(tail[:2]) == {"B", "C"}
        assert set(tail[2:]) == {"D", "E"}

    def test_large_components_fall_back_per_component(self):
        from repro.query.variable_order import aggregate_elimination_order
        # One oversized component (> max_exact_tail) next to a small one:
        # only the big one loses permutation search.
        atoms = [Atom("R", ("A", "B1", "B2", "B3", "B4", "B5", "B6")),
                 Atom("S", ("A", "C"))]
        q = ConjunctiveQuery(atoms)
        order = aggregate_elimination_order(q, group=("A",),
                                            max_exact_tail=3)
        assert order[0] == "A"
        assert induced_fhtw(q, order) >= 1.0

    def test_non_decomposable_scoring_is_unchanged(self):
        from repro.query.variable_order import aggregate_elimination_order
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C")),
                              Atom("T", ("A", "C"))])
        order = aggregate_elimination_order(q, group=("A",))
        assert induced_fhtw(q, order) == 1.5


class TestOrderMemoization:
    """The order heuristics are pure — repeated planning must not
    re-enumerate tail permutations (each scored via a tree
    decomposition), especially not when the engine's plan cache already
    holds the plan."""

    def _count_decompositions(self, monkeypatch):
        import repro.query.widths as widths
        calls = {"n": 0}
        original = widths.decomposition_from_elimination_order

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(widths, "decomposition_from_elimination_order",
                            counting)
        return calls

    def test_best_tail_order_memoizes_permutation_sweep(self, monkeypatch):
        import repro.query.variable_order as vo
        from repro.query.variable_order import aggregate_elimination_order
        vo._tail_order_memo.clear()
        calls = self._count_decompositions(monkeypatch)
        q = ConjunctiveQuery([Atom("R", ("A", "B", "C")),
                              Atom("S", ("C", "D")), Atom("T", ("A", "D"))])
        first = aggregate_elimination_order(q, group=("A",))
        assert calls["n"] > 0
        after_first = calls["n"]
        second = aggregate_elimination_order(q, group=("A",))
        assert second == first
        assert calls["n"] == after_first, "warm call re-enumerated the tail"

    def test_no_reenumeration_on_plan_cache_hits(self, monkeypatch):
        import repro.query.variable_order as vo
        from repro.engine.session import Engine
        vo._tail_order_memo.clear()
        calls = self._count_decompositions(monkeypatch)
        eng = Engine(relations=[
            Relation("R", ("X", "Y"), [(1, 2), (2, 3)]),
            Relation("S", ("X", "Y"), [(1, 2), (2, 3)]),
        ])
        q = "Q(A, COUNT(*) AS n) :- R(A,B), S(B,C)"
        expected = eng.execute(q)
        cold = calls["n"]
        assert cold > 0
        # Warm plan-cache lookup: no planning at all.
        assert list(eng.execute(q).tuples) == list(expected.tuples)
        assert calls["n"] == cold
        # Re-plan after cache invalidation: the memo serves the scored
        # order without re-running the permutation sweep.
        eng.clear_caches()
        assert list(eng.execute(q).tuples) == list(expected.tuples)
        assert calls["n"] == cold

    def test_memo_distinguishes_couplings_and_factorization(self):
        import repro.query.variable_order as vo
        from repro.query.variable_order import aggregate_elimination_order
        vo._tail_order_memo.clear()
        q = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("A", "C"))])
        factored = aggregate_elimination_order(q, group=("A",))
        monolithic = aggregate_elimination_order(q, group=("A",),
                                                 factorize=False)
        assert len(vo._tail_order_memo) == 2
        assert factored[0] == monolithic[0] == "A"

    def test_min_degree_order_memoizes(self):
        import repro.query.variable_order as vo
        vo._min_degree_memo.clear()
        q = path_query(4)
        order = min_degree_order(q)
        assert vo._min_degree_memo[q] == order
        assert min_degree_order(q) == order
