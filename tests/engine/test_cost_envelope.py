"""The selectivity-aware WCOJ envelope (simulated over the filtered
instance).

The dispatcher used to price WCOJ strategies with the unfiltered AGM bound
even when a selective constant shrank every scan; the envelope is the
per-level simulation over the instance with single-atom selections
applied, min'd with the unfiltered AGM bound — so selective queries get
honestly smaller WCOJ estimates and unselective ones never exceed AGM.
"""

from repro.bounds.agm import agm_bound
from repro.engine import Engine
from repro.engine.cost import dispatch, selection_envelope
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
    core = spec.core
    agm = agm_bound(core, database)
    sizes_plain, env_plain = selection_envelope(core, database, (), agm)
    sizes_sel, env_sel = selection_envelope(core, database,
                                            spec.all_selections, agm)
    assert env_plain == min(agm.bound, env_plain)
    assert env_sel < env_plain / 10
    assert sizes_sel[0] == 1  # R filtered to the single (7, 7) tuple
    assert sizes_plain[0] == len(database.get("R"))


def test_wcoj_estimates_price_the_filtered_envelope():
    database = star_database()
    spec = Query.coerce("Q(A,B,C) :- R(A,B), S(B,C), A == 7")
    plain = dispatch(Query.coerce("Q(A,B,C) :- R(A,B), S(B,C)").core,
                     database)
    selected = dispatch(spec.core, database, selections=spec.all_selections)
    assert selected.costs["generic"] < plain.costs["generic"] / 10
    assert selected.costs["leapfrog"] < plain.costs["leapfrog"] / 10


def test_unselective_queries_keep_the_agm_envelope():
    database = star_database()
    core = Query.coerce("Q(A,B,C) :- R(A,B), S(B,C)").core
    agm = agm_bound(core, database)
    _sizes, envelope = selection_envelope(core, database, (), agm)
    assert envelope == min(agm.bound, envelope)


def test_explained_costs_reflect_selection():
    engine = Engine(database=star_database())
    selective = engine.explain("Q(A,B,C) :- R(A,B), S(B,C), A == 7")
    full = engine.explain("Q(A,B,C) :- R(A,B), S(B,C)")
    assert selective.costs["generic"] < full.costs["generic"]
