"""A forced strategy is auto's candidate of that name.

``mode=S`` narrows dispatch to one candidate; it does not take another
path.  So for every query below, forcing the strategy auto picks must
report the plan auto reports — variable order, aggregate mode, ranked
mode, backend and ``ops[S]`` — on a uniform and a Zipf instance, under
the default and the priced backend.
"""

import pytest

from repro.datagen.graphs import erdos_renyi_graph, zipf_outdegree_graph
from repro.engine import Engine
from repro.errors import QueryError

SCHEMA = (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
          ("U", ("C", "D")), ("V", ("D", "A")))

BODIES = {
    "triangle": ("R(A,B), S(B,C), T(A,C)", "A,B,C"),
    "cycle4": ("R(A,B), S(B,C), U(C,D), V(D,A)", "A,B,C,D"),
    "path3": ("R(A,B), S(B,C), U(C,D)", "A,B,C,D"),
    "star": ("R(A,B), T(A,C), V(D,A)", "A,B,C,D"),
}

FORMS = {
    "plain": "Q({head}) :- {body}",
    "projected": "Q(C) :- {body}, A == 1",
    "count": "Q(A, COUNT(*) AS n) :- {body}",
    "min": "Q(A, MIN(C) AS m) :- {body}",
    "top": "Q({head}) :- {body} ORDER BY D DESC, A LIMIT 10",
}

QUERIES = {f"{shape}.{form}": template.format(head=head, body=body)
           for shape, (body, head) in BODIES.items()
           for form, template in FORMS.items()
           if not (form == "top" and "D" not in head)}
QUERIES["two_hop"] = "Q(C) :- R(5,B), S(B,C)"

PATH_TOP = QUERIES["path3.top"]


def relations(instance):
    if instance == "zipf":
        return [zipf_outdegree_graph(30, 30, 100, skew=1.2, seed=seed,
                                     name=name, attributes=attrs)
                for seed, (name, attrs) in enumerate(SCHEMA)]
    return [erdos_renyi_graph(30, 100, seed=seed, name=name,
                              attributes=attrs)
            for seed, (name, attrs) in enumerate(SCHEMA)]


@pytest.fixture(scope="module")
def engines():
    return {instance: Engine(relations=relations(instance),
                             cache_results=False)
            for instance in ("uniform", "zipf")}


@pytest.mark.parametrize("backend", ["python", "auto"])
@pytest.mark.parametrize("instance", ["uniform", "zipf"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_forcing_autos_pick_reports_autos_plan(engines, name, instance,
                                               backend):
    engine = engines[instance]
    auto = engine.explain(QUERIES[name], backend=backend)
    strategy = auto.strategy
    forced = engine.explain(QUERIES[name], mode=strategy, backend=backend)
    assert forced.strategy == strategy
    assert forced.variable_order == auto.variable_order
    assert forced.aggregate_mode == auto.aggregate_mode
    assert forced.ranked_mode == auto.ranked_mode
    assert forced.backend == auto.backend
    assert forced.costs[strategy] == auto.costs[strategy]
    assert forced.costs[f"ops[{strategy}]"] == auto.costs[f"ops[{strategy}]"]
    assert forced.hybrid_split == auto.hybrid_split


@pytest.mark.parametrize("query, axes, message", [
    (QUERIES["triangle.plain"], {"mode": "yannakakis"},
     "is infeasible for query"),
    (QUERIES["path3.count"], {"mode": "binary",
                              "aggregate_mode": "recursion"},
     "cannot aggregate in-recursion"),
    (PATH_TOP, {"mode": "hybrid", "ranked_mode": "anyk"},
     "cannot enumerate in rank"),
])
def test_only_an_incapable_request_raises(engines, query, axes, message):
    with pytest.raises(QueryError, match=message):
        engines["uniform"].execute(query, **axes)


@pytest.mark.parametrize("instance", ["uniform", "zipf"])
def test_forced_generic_path_top_runs_the_cheaper_ranked_mode(engines,
                                                              instance):
    # Any-k wins only when its k-bounded frontier is priced below the
    # drain; the lazy frontier pays for the few siblings it pushes, so
    # here any-k is cheaper and forcing generic runs it.
    engine = engines[instance]
    explanation = engine.explain(PATH_TOP, mode="generic")
    costs = explanation.costs
    assert costs["ranked[anyk]"] < costs["ranked[drain]"]
    assert explanation.ranked_mode == "anyk"
    assert (engine.execute(PATH_TOP, mode="generic").tuples
            == engine.execute(PATH_TOP, mode="naive").tuples)
