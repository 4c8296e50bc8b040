"""Tests for the pluggable semiring aggregate layer."""

import operator

import pytest

from repro.errors import QueryError
from repro.query.semiring import (
    SEMIRINGS,
    Aggregate,
    Semiring,
    count,
    fold_aggregates,
    max_,
    min_,
    register_semiring,
    sum_,
)


ROWS = [(1, 10), (1, 20), (2, 5), (3, 7), (3, 7)]  # (A, B); dup collapses
VARIABLES = ("A", "B")


class TestFold:
    def test_grouped_count_and_sum(self):
        rows = set(ROWS)  # streams are distinct full tuples
        out = sorted(fold_aggregates(rows, VARIABLES, ("A",),
                                     [count(), sum_("B")]))
        assert out == [(1, 2, 30), (2, 1, 5), (3, 1, 7)]

    def test_min_max(self):
        out = sorted(fold_aggregates(set(ROWS), VARIABLES, ("A",),
                                     [min_("B"), max_("B")]))
        assert out == [(1, 10, 20), (2, 5, 5), (3, 7, 7)]

    def test_group_free_aggregate(self):
        out = list(fold_aggregates(set(ROWS), VARIABLES, (), [count()]))
        assert out == [(4,)]

    def test_group_free_empty_stream_yields_identities(self):
        out = list(fold_aggregates([], VARIABLES, (),
                                   [count(), sum_("B"), min_("B")]))
        assert out == [(0, 0, None)]

    def test_grouped_empty_stream_yields_no_rows(self):
        assert list(fold_aggregates([], VARIABLES, ("A",), [count()])) == []


class TestProtocol:
    """A Semiring checks its own protocol when it is built."""

    def test_times_without_one_raises(self):
        with pytest.raises(QueryError, match="'times' without 'one'"):
            Semiring("t", 0, operator.add, int, times=operator.mul)

    def test_one_without_times_raises(self):
        with pytest.raises(QueryError, match="'one' without 'times'"):
            Semiring("o", 0, operator.add, int, one=1)

    def test_fold_monoid_is_required(self):
        with pytest.raises(TypeError):
            Semiring("m", zero=0, plus=operator.add)  # no lift

    def test_subclassing_raises(self):
        # A subclass's negate() method would be shadowed by the field,
        # leaving has_inverse False on a ring.
        with pytest.raises(TypeError, match="final"):
            class Lopsided(Semiring):
                def negate(self, value):
                    return -value


class TestRegistry:
    def test_builtins_registered(self):
        assert {"count", "sum", "min", "max"} <= set(SEMIRINGS)

    def test_unknown_aggregate_kind_raises(self):
        with pytest.raises(QueryError):
            Aggregate("median", "B", "m").semiring()

    def test_register_custom_semiring(self):
        name = "test_product"
        if name not in SEMIRINGS:  # keep the test re-runnable in one session
            register_semiring(Semiring(name, 1, lambda a, b: a * b,
                                       lambda v: v))
        try:
            agg = Aggregate(name, "B", "prod")
            out = list(fold_aggregates({(1, 2), (1, 3)}, VARIABLES, ("A",),
                                       [agg]))
            assert out == [(1, 6)]
            with pytest.raises(QueryError):
                register_semiring(SEMIRINGS[name])
        finally:
            SEMIRINGS.pop(name, None)

    def test_register_rejects_a_non_semiring(self):
        with pytest.raises(QueryError, match="expects a Semiring"):
            register_semiring(object())

    def test_default_aliases(self):
        assert count().alias == "count"
        assert sum_("X").alias == "sum_X"
        assert min_("X", "lo").alias == "lo"
