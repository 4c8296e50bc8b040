"""Product semirings and the component ``⊗``-combine helper.

Satellite regression of the component-factorization PR: a product
semiring built from factors where only *one* declares a ``plus``-absorbing
element must not advertise ``has_absorbing`` — ``(True, s)`` with the
boolean absorbing first coordinate does not absorb in the sum coordinate,
and an eliminator trusting it would stop a fold early and finalize a
half-folded value (the ``_avg_finalize`` confusion).  The combine helper
``times_fold`` is pinned for every built-in semiring, the ranking
semiring's disjoint-position merge included.
"""

import random

import pytest

from repro.errors import QueryError
from repro.query.semiring import (
    BOOLEAN,
    RANKING,
    SEMIRINGS,
    Descending,
    product_semiring,
    rank_component,
    times_fold,
)


class TestProductSemiring:
    def test_componentwise_operations(self):
        pair = product_semiring("pair", [SEMIRINGS["count"], SEMIRINGS["sum"]])
        assert pair.zero == (0, 0)
        assert pair.one == (1, 1)
        assert pair.lift(7) == (1, 7)
        assert pair.plus((1, 7), (1, 3)) == (2, 10)
        assert pair.times((2, 10), (3, 5)) == (6, 50)

    def test_semiring_laws_hold_on_samples(self):
        pair = product_semiring("pair", [SEMIRINGS["sum"], SEMIRINGS["min"]])
        rng = random.Random(0)
        values = [pair.lift(rng.randint(-9, 9)) for _ in range(6)]
        for a in values:
            for b in values:
                assert pair.plus(a, b) == pair.plus(b, a)
                for c in values:
                    assert (pair.times(a, pair.plus(b, c))
                            == pair.plus(pair.times(a, b), pair.times(a, c)))
                assert pair.plus(pair.zero, a) == a
                assert pair.times(pair.one, a) == a

    def test_single_absorbing_factor_must_not_advertise_absorbing(self):
        # The regression: BOOLEAN absorbs (True), sum does not; the
        # product must not pretend to saturate.
        mixed = product_semiring("mixed", [BOOLEAN, SEMIRINGS["sum"]])
        assert BOOLEAN.has_absorbing
        assert not SEMIRINGS["sum"].has_absorbing
        assert not mixed.has_absorbing

    def test_all_absorbing_factors_compose(self):
        both = product_semiring("both", [BOOLEAN, BOOLEAN])
        assert both.has_absorbing
        assert both.absorbing == (True, True)
        # The advertised element must actually absorb.
        for value in ((False, False), (True, False), (False, True)):
            assert both.plus(both.absorbing, value) == both.absorbing

    def test_avg_registration_never_gained_absorbing(self):
        # AVG's (sum, count) carrier folds both coordinates to the end;
        # were it absorbing, ``_avg_finalize`` would divide a saturated
        # sum by a truncated count.
        assert not SEMIRINGS["avg"].has_absorbing

    def test_times_only_when_every_factor_has_product(self):
        # ... and ``one`` with it: a product declares the two together.
        from repro.query.semiring import Semiring
        monoid = Semiring("monoid", 0, lambda a, b: a + b, lambda v: v)
        product = product_semiring("p", [SEMIRINGS["sum"], monoid])
        assert not product.has_product
        assert product.one is None

    def test_negate_only_when_every_factor_is_a_ring(self):
        mixed = product_semiring("mixed", [SEMIRINGS["sum"], SEMIRINGS["min"]])
        assert not mixed.has_inverse
        ring = product_semiring("ring", [SEMIRINGS["sum"], SEMIRINGS["count"]])
        assert ring.negate((5, 2)) == (-5, -2)

    def test_coordinatewise_finalize_default(self):
        avgish = product_semiring("fin", [SEMIRINGS["avg"], SEMIRINGS["sum"]])
        assert avgish.finish((((10, 4), 3))) == (2.5, 3)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(QueryError):
            product_semiring("empty", [])


class TestTimesFold:
    def test_counts_multiply_and_sums_cross_weight(self):
        assert times_fold(SEMIRINGS["count"], [3, 4, 5]) == 60
        # sum ⊗ count-as-one: the value-carrying factor is weighted by
        # the other components' multiplicities.
        assert times_fold(SEMIRINGS["sum"], [10, 4]) == 40

    def test_tropical_one_passes_through(self):
        one = SEMIRINGS["min"].one
        assert times_fold(SEMIRINGS["min"], [one, 7, one]) == 7
        assert times_fold(SEMIRINGS["max"], [one]) is one

    def test_empty_fold_is_one(self):
        assert times_fold(SEMIRINGS["count"], []) == 1
        assert times_fold(RANKING, []) == ()

    def test_boolean_zero_annihilates_but_absorbing_does_not(self):
        assert times_fold(BOOLEAN, [True, False, True]) is False
        # ``True`` is plus-absorbing yet must not short-circuit ⊗: a
        # later False (empty component) still zeroes the product.
        assert times_fold(BOOLEAN, [BOOLEAN.absorbing, False]) is False

    def test_ranking_vectors_merge_by_disjoint_positions(self):
        left = ((0, 3), (2, Descending(5)))
        right = ((1, 9),)
        merged = times_fold(RANKING, [left, right])
        assert merged == ((0, 3), (1, 9), (2, Descending(5)))
        # Empty sub-problem (the ranking zero) annihilates.
        assert times_fold(RANKING, [left, None]) is None

    def test_ranking_merge_equals_joint_minimum(self):
        # Exactness of per-component best-suffix bounds: the lex-min of
        # the product of independent blocks is the merge of the blocks'
        # lex-minima.
        rng = random.Random(1)
        xs = [rng.randrange(50) for _ in range(8)]
        ys = [rng.randrange(50) for _ in range(8)]
        joint = min(((0, rank_component(x, False)),
                     (1, rank_component(y, True)))
                    for x in xs for y in ys
                    )  # tuples compare lexicographically by (pos, comp)
        best_x = None
        for x in xs:
            best_x = RANKING.plus(best_x, ((0, rank_component(x, False)),))
        best_y = None
        for y in ys:
            best_y = RANKING.plus(best_y, ((1, rank_component(y, True)),))
        assert times_fold(RANKING, [best_x, best_y]) == joint

    def test_monoid_without_product_is_rejected(self):
        from repro.query.semiring import Semiring
        monoid = Semiring("monoid", 0, lambda a, b: a + b, lambda v: v)
        with pytest.raises(QueryError):
            times_fold(monoid, [1, 2])
