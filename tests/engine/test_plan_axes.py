"""The dispatch axes as behaviour: what the deleted ``cache-key`` lint
rule policed in the source, asserted on the running engine.

Every field of :class:`repro.engine.cost.PlanAxes` must key the plan
cache, and every invalid request must be rejected with one text whichever
surface it enters by.  The tests are parametrised over the record's own
fields, so a fifth axis is exercised here the day it is added (``VALUES``
and ``RESOLVED`` must then say what it accepts and where ``explain()``
reports it, or ``test_every_axis_is_covered`` fails).
"""

import inspect
from dataclasses import fields

import pytest

from repro.engine import Engine
from repro.engine.cost import (
    AGGREGATE_MODES,
    BACKENDS,
    MODES,
    RANKED_MODES,
    PlanAxes,
    dispatch,
)
from repro.errors import QueryError
from repro.query.builder import Query
from repro.relational.relation import Relation

AXES = [field.name for field in fields(PlanAxes)]

#: The values each axis accepts.
VALUES = {"mode": MODES, "aggregate_mode": AGGREGATE_MODES,
          "ranked_mode": RANKED_MODES, "backend": BACKENDS}

#: The ``Explanation`` field reporting what each axis resolved to.
RESOLVED = {"mode": "strategy", "aggregate_mode": "aggregate_mode",
            "ranked_mode": "ranked_mode", "backend": "backend"}

#: Between them the two queries accept every value of every axis: an
#: ordered group-by takes any aggregate mode (but not ``anyk``), an
#: ordered plain query any ranked mode (but no forced aggregate mode).
GROUPED = "Q(A, COUNT(*) AS n) :- R(A,B), S(B,C) ORDER BY n DESC, A"
RANKED = "Q(A,B,C) :- R(A,B), S(B,C) ORDER BY C, A, B LIMIT 3"
PLAIN = "Q(A,B,C) :- R(A,B), S(B,C)"


def make_engine() -> Engine:
    return Engine(relations=[
        Relation("R", ("A", "B"), [(a, a % 3) for a in range(9)]),
        Relation("S", ("B", "C"), [(b % 3, b) for b in range(7)]),
    ])


def bare_dispatch(engine: Engine, query: str, **axes: str):
    spec = Query.coerce(query)
    return dispatch(spec.core, engine.database,
                    selections=spec.all_selections,
                    aggregates=spec.aggregates, group=spec.head_vars,
                    order_by=spec.order_by, limit=spec.limit, **axes)


#: Every way a plan request enters — the public ``Engine`` methods and
#: the dispatcher called directly — with the function whose signature
#: says which axes it takes.
SURFACES = {
    "execute": (Engine.execute, Engine.execute),
    "stream": (Engine.stream, Engine.stream),
    "execute_many": (lambda engine, query, **axes: engine.execute_many(
        [query], **axes), Engine.execute_many),
    "explain": (Engine.explain, Engine.explain),
    "profile": (Engine.profile, Engine.profile),
    "subscribe": (Engine.subscribe, Engine.subscribe),
    "dispatch": (bare_dispatch, dispatch),
}


def error_texts(query: str, **axes: str) -> dict[str, str]:
    """The QueryError text of the request from every surface taking it."""
    texts = {}
    for name, (surface, declared) in SURFACES.items():
        if not set(axes) <= set(inspect.signature(declared).parameters):
            continue  # profile and subscribe take no backend
        with pytest.raises(QueryError) as caught:
            surface(make_engine(), query, **axes)
        texts[name] = str(caught.value)
    return texts


def test_every_axis_is_covered():
    assert set(VALUES) == set(RESOLVED) == set(AXES)


@pytest.mark.parametrize("axis", AXES)
def test_requests_one_axis_apart_never_share_a_plan(axis):
    covered = set()
    for query in (GROUPED, RANKED):
        engine = make_engine()
        spec = Query.coerce(query)
        accepted = []
        for value in VALUES[axis]:
            try:
                PlanAxes(**{axis: value}).check(spec.aggregates,
                                                spec.order_by)
            except QueryError:
                continue
            accepted.append(value)
        covered.update(accepted)

        cold = {value: engine.explain(query, **{axis: value})
                for value in accepted}
        assert all(e.plan_cache == "miss" for e in cold.values())
        assert len(engine._plans) == len(accepted)
        for value, planned in cold.items():
            # A forced value is what runs (a backend alone may fall back).
            if value != "auto" and axis != "backend":
                assert getattr(planned, RESOLVED[axis]) == value
            # A hit replays the plan its own request resolved — strategy,
            # mode tags, backend and order — never a neighbour's.
            replayed = engine.explain(query, **{axis: value})
            assert replayed.plan_cache == "hit"
            for reported in (*RESOLVED.values(), "variable_order", "costs"):
                assert (getattr(replayed, reported)
                        == getattr(planned, reported))
        assert len(engine._plans) == len(accepted)
    assert covered == set(VALUES[axis])


@pytest.mark.parametrize("axis", AXES)
def test_unknown_value_has_one_text_on_every_surface(axis):
    texts = error_texts(PLAIN, **{axis: "bogus"})
    assert {"execute", "explain", "dispatch"} <= set(texts)
    assert len(set(texts.values())) == 1, texts
    text = texts["execute"]
    assert text.startswith("unknown ") and "'bogus'" in text
    assert text.endswith(f"expected one of {VALUES[axis]}")


@pytest.mark.parametrize("query, axes, text", [
    (PLAIN, {"aggregate_mode": "recursion"},
     "aggregate_mode='recursion' needs an aggregate query"),
    (PLAIN, {"ranked_mode": "drain"},
     "ranked_mode='drain' needs an ORDER BY query"),
    (GROUPED, {"ranked_mode": "anyk"},
     "ranked_mode='anyk' does not apply to aggregate queries; "
     "their ordered output is the folded group stream"),
])
def test_query_dependent_misuse_has_one_text_on_every_surface(query, axes,
                                                              text):
    texts = error_texts(query, **axes)
    assert set(texts) == set(SURFACES)
    assert set(texts.values()) == {text}
