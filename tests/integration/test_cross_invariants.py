"""Cross-module property tests over randomly shaped queries and data.

Hypothesis generates whole (query, database) pairs across several query
shapes (chain, star, cycle, triangle-with-apex) and checks the invariants
that tie the library together:

* every engine that applies computes the same output;
* the AGM bound dominates the output size;
* the fractional hypertree width never exceeds rho*;
* counting equals materialized size;
* the entropy function of the output satisfies every derived constraint.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.agm import agm_bound, rho_star
from repro.covers.hypertree import fractional_hypertree_width
from repro.constraints.degree import constraints_from_database
from repro.infotheory.entropy import entropy_function_of_relation
from repro.joins.counting import count_join
from repro.joins.generic_join import generic_join
from repro.joins.leapfrog import leapfrog_triejoin
from repro.joins.naive import nested_loop_join
from repro.joins.yannakakis import yannakakis
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.decomposition import is_alpha_acyclic
from repro.relational.database import Database
from repro.relational.relation import Relation

# ----------------------------------------------------------------------
# Query/database generation
# ----------------------------------------------------------------------
_SHAPES = {
    "chain": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
    "star": [("R", ("A", "B")), ("S", ("A", "C")), ("T", ("A", "D"))],
    "cycle": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D")), ("U", ("D", "A"))],
    "apex-triangle": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
                      ("U", ("C", "D"))],
}

_relation_tuples = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=10
)


@st.composite
def query_and_database(draw):
    shape_name = draw(st.sampled_from(sorted(_SHAPES)))
    shape = _SHAPES[shape_name]
    atoms = [Atom(name, variables) for name, variables in shape]
    query = ConjunctiveQuery(atoms, name=f"Q_{shape_name}")
    relations = []
    for name, variables in shape:
        tuples = draw(_relation_tuples)
        relations.append(Relation(name, variables, tuples))
    return query, Database(relations)


class TestCrossInvariants:
    @given(query_and_database())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree(self, qd):
        query, database = qd
        expected = nested_loop_join(query, database)
        assert generic_join(query, database) == expected
        assert leapfrog_triejoin(query, database) == expected
        if is_alpha_acyclic(query.hypergraph()):
            assert yannakakis(query, database) == expected

    @given(query_and_database())
    @settings(max_examples=60, deadline=None)
    def test_agm_dominates_and_count_matches(self, qd):
        query, database = qd
        output = generic_join(query, database)
        assert agm_bound(query, database).permits(len(output))
        assert count_join(query, database) == len(output)

    @given(query_and_database())
    @settings(max_examples=20, deadline=None)
    def test_width_below_rho_star(self, qd):
        query, _database = qd
        h = query.hypergraph()
        assert fractional_hypertree_width(h) <= rho_star(query) + 1e-9
        if is_alpha_acyclic(h):
            assert fractional_hypertree_width(h) == pytest.approx(1.0)

    @given(query_and_database())
    @settings(max_examples=30, deadline=None)
    def test_output_entropy_in_hdc(self, qd):
        query, database = qd
        output = generic_join(query, database)
        if len(output) == 0:
            return
        h = entropy_function_of_relation(output)
        assert h(query.variables) == pytest.approx(math.log2(len(output)))
        dc = constraints_from_database(query, database, max_key_size=1)
        for constraint in dc:
            assert h(constraint.y) - h(constraint.x) <= constraint.log_bound + 1e-9
