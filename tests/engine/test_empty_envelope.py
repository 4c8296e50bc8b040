"""Empty-relation envelopes: zero, not ``log(0)`` crashes or pessimism.

Satellite regression of the component-factorization PR: an empty relation
(or one a selection filters out entirely) forces an empty join, so the
dispatcher's envelope must be exactly zero — previously a zero-bound
degree constraint reached the LP layer as a ``log2 0 = -inf`` coefficient
and the LP solver raised ``ValueError``.  Data-derived constraint
sets are cyclic (``dc.is_acyclic()`` false), which is why the envelope is
no longer asked of them: it is ``min(AGM, simulated levels of the
filtered instance)`` and must still respect the filter.
"""

import math

from repro.bounds.degree_aware import output_size_bound
from repro.bounds.modular import modular_bound, modular_bound_dual
from repro.bounds.polymatroid import polymatroid_bound
from repro.constraints.degree import (
    DegreeConstraint,
    DegreeConstraintSet,
    constraints_from_database,
)
from repro.engine import Engine
from repro.engine.cost import dispatch
from repro.query.builder import Query
from repro.relational.database import Database
from repro.relational.relation import Relation


def zero_bound_dc(extra=()):  # acyclic: a single one-directional constraint
    return DegreeConstraintSet(("A", "B"), [
        DegreeConstraint.cardinality(("A", "B"), 0, guard="R"),
        DegreeConstraint(x=frozenset({"A"}), y=frozenset({"A", "B"}),
                         bound=0, guard="R"),
        *extra,
    ])


class TestZeroBoundConstraints:
    def test_modular_bound_is_provably_empty_not_a_crash(self):
        result = modular_bound(zero_bound_dc())
        assert result.log2_bound == -math.inf
        assert result.bound == 0.0

    def test_modular_dual_matches(self):
        result = modular_bound_dual(zero_bound_dc())
        assert result.log2_bound == -math.inf

    def test_polymatroid_bound_is_provably_empty_not_a_crash(self):
        dc = DegreeConstraintSet(("A", "B", "C"), [
            DegreeConstraint.cardinality(("A", "B"), 0, guard="R"),
            DegreeConstraint(x=frozenset({"A"}), y=frozenset({"A", "B"}),
                             bound=2, guard="R"),
            DegreeConstraint(x=frozenset({"B"}), y=frozenset({"A", "B"}),
                             bound=2, guard="R"),
            DegreeConstraint.cardinality(("B", "C"), 4, guard="S"),
            DegreeConstraint.cardinality(("A", "C"), 4, guard="T"),
        ])
        assert not dc.is_acyclic()
        result = polymatroid_bound(dc)
        assert result.log2_bound == -math.inf
        assert result.bound == 0.0

    def test_output_size_bound_dispatch_handles_empties(self):
        assert output_size_bound(None, None, dc=zero_bound_dc()).bound == 0.0


def chain_query():
    return Query.coerce("Q(A,B,C) :- R(A,B), S(B,C), A == 99")


def chain_database(r_rows):
    return Database([
        Relation("R", ("a", "b"), r_rows),
        Relation("S", ("b", "c"), [(b, c) for b in range(4)
                                   for c in range(3)]),
    ])


class TestSelectionEnvelope:
    """Dispatch prices WCOJ over the scans with single-atom selections
    applied: an empty scan leaves a zero envelope, so only the root
    search node is priced."""

    def test_fully_filtered_scan_gives_zero_envelope(self):
        spec = chain_query()
        database = chain_database([(1, 2), (2, 3)])  # A == 99 empties R
        decision = dispatch(spec.core, database,
                            selections=spec.all_selections)
        assert decision.costs["ops[generic]"] == 1.0

    def test_empty_base_relation_gives_zero_envelope(self):
        spec = Query.coerce("Q(A,B,C) :- R(A,B), S(B,C)")
        decision = dispatch(spec.core, chain_database([]))
        assert decision.costs["ops[generic]"] == 1.0

    def test_dispatch_and_execute_survive_empty_scans(self):
        database = chain_database([(1, 2)])
        spec = chain_query()
        decision = dispatch(spec.core, database,
                            selections=spec.all_selections)
        assert all(math.isfinite(c) or c == math.inf
                   for c in decision.costs.values())
        engine = Engine(database=database)
        assert len(engine.execute(str(spec))) == 0

    def test_cyclic_fallback_still_returns_min_of_agm_and_filtered(self):
        # Binary atoms derive both conditioning directions, so the
        # data-derived constraint graph is cyclic (the degree-aware LP
        # never applied); the price simulated over the filtered scans
        # must still respect the filter.
        spec = Query.coerce("Q(A,B,C) :- R(A,B), S(B,C), A == 0")
        database = Database([
            Relation("R", ("a", "b"),
                     [(0, b) for b in range(2)]
                     + [(a, b) for a in range(1, 40) for b in range(4)]),
            Relation("S", ("b", "c"), [(b, c) for b in range(4)
                                       for c in range(5)]),
        ])
        dc = constraints_from_database(spec.core, database, max_key_size=1)
        assert not dc.is_acyclic()
        decision = dispatch(spec.core, database,
                            selections=spec.all_selections)
        # The filtered R has 2 tuples; the unfiltered AGM bound is far
        # above what the filtered instance can produce.
        assert 0.0 < decision.costs["ops[generic]"] < decision.agm.bound / 4
