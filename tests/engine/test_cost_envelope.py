"""The selectivity-aware WCOJ envelope (simulated over the filtered
instance).

The dispatcher used to price WCOJ strategies with the unfiltered AGM bound
even when a selective constant shrank every scan; ``dispatch`` now prices
them with the per-level simulation over the instance with single-atom
selections applied, so selective queries get honestly smaller WCOJ
estimates.
"""

from repro.engine import Engine
from repro.engine.cost import dispatch
from repro.query.builder import Query
from repro.relational.database import Database
from repro.relational.relation import Relation


def star_database() -> Database:
    # A heavy hub: value 0 dominates; selecting A == 7 is very selective.
    R = Relation("R", ("a", "b"),
                 [(0, b) for b in range(50)] + [(a, a) for a in range(1, 10)])
    S = Relation("S", ("b", "c"),
                 [(b, c) for b in range(50) for c in range(4)])
    return Database([R, S])


def test_envelope_shrinks_under_selective_constant():
    database = star_database()
    spec = Query.coerce("Q(A,B,C) :- R(A,B), S(B,C), A == 7")
    selected = dispatch(spec.core, database, selections=spec.all_selections)
    assert selected.costs["ops[generic]"] < selected.agm.bound / 10


def test_wcoj_estimates_price_the_filtered_envelope():
    database = star_database()
    spec = Query.coerce("Q(A,B,C) :- R(A,B), S(B,C), A == 7")
    plain = dispatch(Query.coerce("Q(A,B,C) :- R(A,B), S(B,C)").core,
                     database)
    selected = dispatch(spec.core, database, selections=spec.all_selections)
    assert selected.costs["generic"] < plain.costs["generic"] / 10
    assert selected.costs["leapfrog"] < plain.costs["leapfrog"] / 10


def test_explained_costs_reflect_selection():
    engine = Engine(database=star_database())
    selective = engine.explain("Q(A,B,C) :- R(A,B), S(B,C), A == 7")
    full = engine.explain("Q(A,B,C) :- R(A,B), S(B,C)")
    assert selective.costs["generic"] < full.costs["generic"]
