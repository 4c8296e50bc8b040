"""Tests for Yannakakis' algorithm and semijoin reduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.graphs import erdos_renyi_graph
from repro.engine import Engine
from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter
from repro.joins.naive import nested_loop_join
from repro.joins.yannakakis import (
    semijoin_reduce,
    yannakakis,
    yannakakis_aggregate_stream,
)
from repro.query.atoms import Atom, ConjunctiveQuery, path_query
from repro.query.builder import Query
from repro.query.semiring import Aggregate
from repro.query.terms import Comparison, Constant, comparison
from repro.relational.database import Database
from repro.relational.relation import Relation


@pytest.fixture
def star_query_db():
    query = ConjunctiveQuery([
        Atom("R", ("A", "B")), Atom("S", ("A", "C")), Atom("T", ("A", "D")),
    ])
    database = Database([
        Relation("R", ("A", "B"), [(1, 10), (2, 20), (3, 30)]),
        Relation("S", ("A", "C"), [(1, 100), (2, 200)]),
        Relation("T", ("A", "D"), [(1, 7), (4, 9)]),
    ])
    return query, database


class TestYannakakis:
    def test_star_query(self, star_query_db):
        query, database = star_query_db
        assert yannakakis(query, database) == nested_loop_join(query, database)

    def test_path_query_matches_naive(self):
        query = path_query(3)
        database = Database([
            Relation("E_1", ("A", "B"), erdos_renyi_graph(15, 40, seed=1).tuples),
            Relation("E_2", ("A", "B"), erdos_renyi_graph(15, 40, seed=2).tuples),
            Relation("E_3", ("A", "B"), erdos_renyi_graph(15, 40, seed=3).tuples),
        ])
        assert yannakakis(query, database) == nested_loop_join(query, database)

    def test_single_atom_query(self):
        query = ConjunctiveQuery([Atom("R", ("A", "B"))])
        database = Database([Relation("R", ("A", "B"), [(1, 2), (3, 4)])])
        assert yannakakis(query, database).tuples == frozenset({(1, 2), (3, 4)})

    def test_rejects_cyclic_query(self, tight_triangle_100):
        query, database = tight_triangle_100
        with pytest.raises(QueryError):
            yannakakis(query, database)

    def test_projection_head(self):
        query = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))],
                                 head=("A", "C"))
        database = Database([
            Relation("R", ("A", "B"), [(1, 2), (3, 2)]),
            Relation("S", ("B", "C"), [(2, 9)]),
        ])
        output = yannakakis(query, database)
        assert output.attributes == ("A", "C")
        assert output.tuples == frozenset({(1, 9), (3, 9)})

    def test_empty_input(self):
        query = path_query(2)
        database = Database([
            Relation("E_1", ("A", "B"), []),
            Relation("E_2", ("A", "B"), [(1, 2)]),
        ])
        assert yannakakis(query, database).is_empty()

    def test_counter_charged(self, star_query_db):
        query, database = star_query_db
        counter = OperationCounter()
        yannakakis(query, database, counter=counter)
        assert counter.total() > 0

    pairs = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=15)
    shapes = {"chain": (("A", "B"), ("B", "C"), ("C", "D")),
              "star": (("A", "B"), ("A", "C"), ("A", "D"))}

    @given(pairs, pairs, pairs, st.sampled_from(sorted(shapes)),
           st.sampled_from([("A", "B", "C", "D"), ("D", "A"), ("B",)]),
           st.sampled_from([None, ("A", "<", "D"), ("B", "!=", "D"),
                            ("C", ">=", "A")]))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_on_random_chains(self, e1, e2, e3, shape, head,
                                            predicate):
        atoms = [Atom(name, variables) for name, variables
                 in zip("RST", self.shapes[shape])]
        database = Database([
            Relation(name, ("x", "y"), rows)
            for name, rows in zip("RST", (e1, e2, e3))
        ])
        sels = [] if predicate is None else [comparison(*predicate)]
        full = nested_loop_join(ConjunctiveQuery(atoms), database)
        bindings = [dict(zip(full.attributes, t)) for t in full.tuples]
        expected = {tuple(b[h] for h in head) for b in bindings
                    if all(sel.evaluate(b) for sel in sels)}

        query = ConjunctiveQuery(atoms, head=head)
        result = yannakakis(query, database, selections=sels)
        assert result.attributes == head
        assert result.tuples == expected
        streamed = list(Engine(database=database).stream(
            Query(atoms, selections=sels, head=head), mode="yannakakis"))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == expected


class TestSemijoinReduce:
    def test_reduced_relations_are_globally_consistent(self, star_query_db):
        query, database = star_query_db
        reduced = semijoin_reduce(query, database)
        output = nested_loop_join(query, database)
        # After full reduction every remaining tuple joins into some output.
        for i, atom in enumerate(query.atoms):
            key = query.edge_key(i)
            projected = output.columns(atom.variables)
            assert reduced[key].columns(atom.variables) == projected

    def test_reduction_never_grows_relations(self, star_query_db):
        query, database = star_query_db
        reduced = semijoin_reduce(query, database)
        for i, atom in enumerate(query.atoms):
            key = query.edge_key(i)
            assert len(reduced[key]) <= len(database.get(atom.relation))

    def test_rejects_cyclic(self, tight_triangle_100):
        query, database = tight_triangle_100
        with pytest.raises(QueryError):
            semijoin_reduce(query, database)


class TestAggregateStream:
    def test_selection_only_the_root_covers(self):
        # A single atom is the root: no message ever carries B upward, so
        # the selection must filter the root's own table.
        query = ConjunctiveQuery([Atom("R", ("A", "B"))])
        database = Database([
            Relation("R", ("A", "B"), [(1, 1), (1, 2), (1, 3), (2, 1)]),
        ])
        rows = yannakakis_aggregate_stream(
            query, database, ("A",), [Aggregate("count", None, "n")],
            selections=[Comparison("B", ">", Constant(1))])
        assert sorted(rows) == [(1, 2)]
