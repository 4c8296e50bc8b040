"""Tests for operation counters."""

from repro.joins.instrumentation import OperationCounter, phase


class TestOperationCounter:
    def test_charge_known_counters(self):
        counter = OperationCounter()
        counter.charge(tuples_scanned=5, hash_probes=2)
        counter.charge(tuples_scanned=3)
        assert counter.tuples_scanned == 8
        assert counter.hash_probes == 2
        assert counter.total() == 10

    def test_charge_unknown_counter_goes_to_extra(self):
        counter = OperationCounter()
        counter.charge(partitions=4)
        assert counter.extra["partitions"] == 4
        assert counter.total() == 4

    def test_as_dict_includes_total(self):
        counter = OperationCounter()
        counter.charge(seeks=7)
        d = counter.as_dict()
        assert d["seeks"] == 7
        assert d["total"] == 7

    def test_reset(self):
        counter = OperationCounter()
        counter.charge(tuples_emitted=3, custom=2)
        counter.reset()
        assert counter.total() == 0
        assert counter.extra == {}

    def test_merge(self):
        a = OperationCounter()
        b = OperationCounter()
        a.charge(tuples_scanned=1, custom=2)
        b.charge(tuples_scanned=3, custom=4, seeks=5)
        a.merge(b)
        assert a.tuples_scanned == 4
        assert a.seeks == 5
        assert a.extra["custom"] == 6

    def test_negative_charge_allowed_for_corrections(self):
        counter = OperationCounter()
        counter.charge(intermediate_tuples=10)
        counter.charge(intermediate_tuples=-4)
        assert counter.intermediate_tuples == 6

    def test_str_mentions_nonzero_counters(self):
        counter = OperationCounter()
        counter.charge(search_nodes=2)
        assert "search_nodes=2" in str(counter)

    def test_merge_with_extra_counters_on_both_sides(self):
        a = OperationCounter()
        b = OperationCounter()
        a.charge(only_in_a=1, shared=2)
        b.charge(only_in_b=3, shared=4)
        a.merge(b)
        assert a.extra == {"only_in_a": 1, "shared": 6, "only_in_b": 3}
        assert a.total() == 10


class TestBreakdown:
    def test_attribute_accumulates_labels(self):
        counter = OperationCounter(detail=True)
        counter.attribute("search_nodes[A]")
        counter.attribute("search_nodes[A]", 2)
        counter.attribute("search_nodes[B]")
        assert counter.breakdown == {"search_nodes[A]": 3,
                                     "search_nodes[B]": 1}

    def test_breakdown_is_excluded_from_total_and_as_dict(self):
        # Breakdown re-slices already-charged work; counting it again
        # would double every attributed operation.
        counter = OperationCounter(detail=True)
        counter.charge(search_nodes=5)
        counter.attribute("search_nodes[A]", 5)
        assert counter.total() == 5
        assert "search_nodes[A]" not in counter.as_dict()

    def test_reset_clears_breakdown_but_keeps_detail(self):
        counter = OperationCounter(detail=True)
        counter.charge(seeks=1)
        counter.attribute("seeks[A]")
        counter.reset()
        assert counter.breakdown == {}
        assert counter.detail is True

    def test_merge_combines_breakdowns(self):
        a = OperationCounter(detail=True)
        b = OperationCounter(detail=True)
        a.attribute("search_nodes[A]", 1)
        b.attribute("search_nodes[A]", 2)
        b.attribute("search_nodes[B]", 3)
        a.merge(b)
        assert a.breakdown == {"search_nodes[A]": 3, "search_nodes[B]": 3}


class TestPhase:
    def test_phase_attributes_per_field_deltas(self):
        counter = OperationCounter(detail=True)
        counter.charge(tuples_scanned=10)
        with phase(counter, "semijoin.bottom_up"):
            counter.charge(tuples_scanned=4, hash_probes=2)
        assert counter.breakdown == {
            "semijoin.bottom_up.tuples_scanned": 4,
            "semijoin.bottom_up.hash_probes": 2,
        }
        assert counter.tuples_scanned == 14  # main tallies unchanged

    def test_phase_without_detail_is_a_noop(self):
        counter = OperationCounter()
        with phase(counter, "join"):
            counter.charge(tuples_scanned=3)
        assert counter.breakdown == {}

    def test_phase_with_none_counter_is_a_noop(self):
        with phase(None, "join"):
            pass

    def test_phase_records_even_when_the_body_raises(self):
        counter = OperationCounter(detail=True)
        try:
            with phase(counter, "frontier"):
                counter.charge(search_nodes=2)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert counter.breakdown == {"frontier.search_nodes": 2}

    def test_nested_phases_attribute_to_both_labels(self):
        counter = OperationCounter(detail=True)
        with phase(counter, "outer"):
            counter.charge(seeks=1)
            with phase(counter, "inner"):
                counter.charge(seeks=2)
        assert counter.breakdown == {"inner.seeks": 2, "outer.seeks": 3}


class TestPerVariableAttribution:
    def test_wcoj_breakdown_sums_to_search_nodes_total(
            self, small_triangle_instance):
        from repro.joins.generic_join import generic_join

        query, database, expected = small_triangle_instance
        counter = OperationCounter(detail=True)
        result = generic_join(query, database, counter=counter)
        assert set(result.tuples) == expected
        per_variable = {label: count
                        for label, count in counter.breakdown.items()
                        if label.startswith("search_nodes[")}
        assert set(per_variable) == {f"search_nodes[{v}]"
                                     for v in ("A", "B", "C")}
        assert sum(per_variable.values()) == counter.search_nodes

    def test_leapfrog_breakdown_matches_too(self, small_triangle_instance):
        from repro.joins.leapfrog import leapfrog_triejoin

        query, database, expected = small_triangle_instance
        counter = OperationCounter(detail=True)
        result = leapfrog_triejoin(query, database, counter=counter)
        assert set(result.tuples) == expected
        per_variable = [count for label, count in counter.breakdown.items()
                        if label.startswith("search_nodes[")]
        assert sum(per_variable) == counter.search_nodes

    def test_detail_off_leaves_breakdown_empty(self, small_triangle_instance):
        from repro.joins.generic_join import generic_join

        query, database, _expected = small_triangle_instance
        counter = OperationCounter()
        generic_join(query, database, counter=counter)
        assert counter.search_nodes > 0
        assert counter.breakdown == {}

    def test_yannakakis_phases_cover_the_pass_and_the_walk(self):
        from repro.joins.yannakakis import yannakakis
        from repro.query.parser import parse_query
        from repro.relational.database import Database
        from repro.relational.relation import Relation

        database = Database([
            Relation("R", ("A", "B"), [(1, 2), (2, 3), (3, 4)]),
            Relation("S", ("B", "C"), [(2, 5), (3, 6), (9, 9)]),
        ])
        query = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
        counter = OperationCounter(detail=True)
        result = yannakakis(query, database, counter=counter)
        assert set(result.tuples) == {(1, 2, 5), (2, 3, 6)}
        labels = set(counter.breakdown)
        for phase in ("annotate.", "messages.", "enumerate."):
            assert any(label.startswith(phase) for label in labels)
