"""Parameterised plans: constants are slots in the plan key, seeks in the
index registry, and probes at pinned trie levels.

Three contracts are pinned here:

* **agreement** — every strategy x backend returns what the brute-force
  oracle returns on constant-bound queries, for present, absent, light
  and heavy constants, on a uniform and a Zipf instance;
* **caches** — one plan miss per (shape, bound-scan bucket set), result
  entries never shared across constants, the seek index rebuilt lazily
  after a delta;
* **constant-free** — a query without a ``== constant`` selection keeps
  the plan key, payload and ``explain()`` text it always had.
"""

import random

import pytest

from repro.engine import Engine
from repro.engine.cost import STRATEGIES
from repro.engine.fingerprint import canonical_query
from repro.errors import SchemaError
from repro.joins.instrumentation import OperationCounter
from repro.joins.naive import nested_loop_join
from repro.query.builder import Query, QueryAtom
from repro.query.decomposition import is_alpha_acyclic
from repro.query.semiring import fold_aggregates
from repro.query.terms import Comparison, Constant
from repro.relational.relation import Relation
from repro.relational.statistics import size_bucket, statistics_fingerprint

VERTICES = 24
ABSENT = 10 ** 6


def reference(query, database):
    """Sorted brute-force rows: nested-loop join, then filter/project/fold."""
    spec = Query.coerce(query)
    variables = spec.core.variables
    rows = [t for t in nested_loop_join(spec.core, database).tuples
            if all(sel.evaluate(dict(zip(variables, t)))
                   for sel in spec.all_selections)]
    if spec.aggregates:
        return sorted(fold_aggregates(rows, variables, spec.head_vars,
                                      spec.aggregates))
    positions = [variables.index(h) for h in spec.head_vars]
    return sorted({tuple(t[p] for p in positions) for t in rows})


def graph(seed, zipf):
    """Ru/Su/Tu over one vertex set.  Uniform: every out-degree is 4.
    Zipf: vertex i has out-degree ~ (i+1)^-1.2, so 0 is a hub and the
    high ids are light (or absent as sources)."""
    rng = random.Random(seed)
    relations = []
    for name, attrs in (("Ru", ("A", "B")), ("Su", ("B", "C")),
                        ("Tu", ("A", "C"))):
        edges = set()
        for source in range(VERTICES):
            degree = (max(0, round(18 * (source + 1) ** -1.2)) if zipf
                      else 4)
            edges.update((source, target) for target
                         in rng.sample(range(VERTICES), degree))
        relations.append(Relation(name, attrs, edges))
    return relations


INSTANCES = {"uniform": graph(5, zipf=False), "zipf": graph(9, zipf=True)}

#: ``{a}`` is the bound constant, ``{d}`` an inequality literal.
SHAPES = {
    "triangle_at": "Q(B,C) :- Ru({a},B), Su(B,C), Tu({a},C)",
    "two_hop": "Q(C) :- Ru({a},B), Su(B,C)",
    "degree": "Q(COUNT(*) AS n) :- Ru({a},B)",
    "self_join": "Q(B) :- Ru({a},B), Ru(B,{a})",
    "pinned_in_two_atoms": "Q(B,C) :- Ru(A,B), Tu(A,C), A == {a}",
    "mixed": "Q(A,B) :- Ru(A,B), Su(B,C), A == {a}, B < {d}",
}


def feasible_modes(text):
    acyclic = is_alpha_acyclic(Query.coerce(text).core.hypergraph())
    return ["auto"] + [s for s in STRATEGIES
                       if s != "yannakakis" or acyclic]


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_strategy_and_backend_agrees_with_the_oracle(instance, shape):
    engine = Engine(relations=INSTANCES[instance], cache_results=False)
    # Heavy (0 is the Zipf hub), mid, light, and absent constants; the
    # engine is shared, so a later constant in an already-priced bucket
    # replays the plan an earlier one left behind.
    for a in (0, 3, VERTICES - 1, ABSENT):
        text = SHAPES[shape].format(a=a, d=VERTICES // 2)
        expected = reference(text, engine.database)
        for mode in feasible_modes(text):
            for backend in ("python", "columnar"):
                result = engine.execute(text, mode=mode, backend=backend)
                assert sorted(result.tuples) == expected, (text, mode,
                                                           backend)


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_probed_levels_inside_the_eliminators_and_the_anyk_frontier(instance):
    """The pinned-level probe is shared by every walker of the recursion:
    the in-recursion ⊕-fold, the any-k frontier and its tie classes."""
    engine = Engine(relations=INSTANCES[instance], cache_results=False)
    for a in (0, 3, ABSENT):
        grouped = f"Q(B, COUNT(*) AS n, MIN(C) AS low) :- Ru({a},B), Su(B,C)"
        expected = reference(grouped, engine.database)
        for mode in ("generic", "leapfrog", "yannakakis"):
            for aggregate_mode in ("recursion", "fold"):
                rows = engine.execute(grouped, mode=mode,
                                      aggregate_mode=aggregate_mode).tuples
                assert sorted(rows) == expected, (grouped, mode,
                                                  aggregate_mode)
        body = f"Q(B,C) :- Ru({a},B), Su(B,C), Tu({a},C)"
        top = sorted(reference(body, engine.database),
                     key=lambda row: (-row[1], row))[:4]
        for mode in ("generic", "leapfrog", "yannakakis"):
            for ranked_mode in ("anyk", "drain"):
                rows = list(engine.stream(f"{body} ORDER BY C DESC LIMIT 4",
                                          mode=mode, ranked_mode=ranked_mode))
                assert rows == top, (body, mode, ranked_mode)


#: Strict projections, each with two orders to choose from: the guarded
#: one prices cheaper on the pinned paths, head-first on ``unpinned``.
PROJECTIONS = {
    "two_hop": "Q(C) :- Ru({a},B), Su(B,C)",
    "three_hop": "Q(D) :- Ru({a},B), Su(B,C), Tu(C,D)",
    "self_join_two_hop": "Q(C) :- Ru({a},B), Ru(B,C)",
    "unpinned": "Q(A) :- Ru(A,B), Su(B,C)",
}

#: Every backend under every mode that can run a projection's orders.
BACKENDS_BY_MODES = [(backend, mode) for backend in ("python", "columnar",
                                                     "auto")
                     for mode in ("auto", "generic", "leapfrog")]


class TestProjectionOrders:
    """Whichever order a strict projection runs — head-first with its
    existential tail, or guarded with a seen-set — it answers what the
    brute-force oracle answers, on every backend and mode."""

    @pytest.mark.parametrize("instance", sorted(INSTANCES))
    @pytest.mark.parametrize("shape", sorted(PROJECTIONS))
    def test_agrees_with_the_oracle(self, instance, shape):
        engine = Engine(relations=INSTANCES[instance], cache_results=False)
        for a in (0, 3, ABSENT):
            text = PROJECTIONS[shape].format(a=a)
            expected = reference(text, engine.database)
            for backend, mode in BACKENDS_BY_MODES:
                rows = engine.execute(text, mode=mode, backend=backend).tuples
                assert sorted(rows) == expected, (text, mode, backend)

    @pytest.mark.parametrize("instance", sorted(INSTANCES))
    def test_ordered_projection_under_drain(self, instance):
        engine = Engine(relations=INSTANCES[instance], cache_results=False)
        for a in (0, 3, ABSENT):
            body = PROJECTIONS["two_hop"].format(a=a)
            top = reference(body, engine.database)[:3]
            for backend, mode in BACKENDS_BY_MODES:
                rows = list(engine.stream(f"{body} ORDER BY C LIMIT 3",
                                          mode=mode, backend=backend,
                                          ranked_mode="drain"))
                assert rows == top, (body, mode, backend)

    def test_both_orders_are_exercised(self):
        engine = Engine(relations=INSTANCES["uniform"], cache_results=False)
        forms = {shape: engine.explain(text.format(a=3)).projection
                 for shape, text in PROJECTIONS.items()}
        assert forms == {"two_hop": "head deduplicated by a seen-set",
                         "three_hop": "head deduplicated by a seen-set",
                         "self_join_two_hop": "head deduplicated by a seen-set",
                         "unpinned": "existential tail after A"}


class TestValueFidelity:
    """A seek answers with the *stored* key, never the query literal."""

    @pytest.mark.parametrize("backend", ("python", "columnar"))
    @pytest.mark.parametrize("mode", ("auto",) + STRATEGIES)
    def test_hash_equal_constant_returns_the_stored_value(self, mode,
                                                          backend):
        engine = Engine(relations=[Relation("R", ("A", "B"), [(1.0, 2)])],
                        cache_results=False)
        for _plan in ("miss", "hit"):
            rows = engine.execute("Q(A,B) :- R(A,B), A == 1", mode=mode,
                                  backend=backend).tuples
            assert rows == {(1.0, 2)}
            assert [type(v) for v in next(iter(rows))] == [float, int]
        query = Query([QueryAtom("R", ("A", "B"))],
                      selections=[Comparison("A", "==", Constant(True))])
        rows = engine.execute(query, mode=mode, backend=backend).tuples
        assert [type(v) for v in next(iter(rows))] == [float, int]

    @pytest.mark.parametrize("backend", ("python", "columnar"))
    @pytest.mark.parametrize("mode", ("auto",) + STRATEGIES)
    def test_absent_constant_is_empty_with_a_zero_count(self, mode, backend):
        engine = Engine(relations=INSTANCES["uniform"], cache_results=False)
        options = {"mode": mode, "backend": backend}
        assert engine.execute(f"Q(B) :- Ru({ABSENT},B)", **options).tuples \
            == frozenset()
        assert engine.execute(f"Q(COUNT(*) AS n) :- Ru({ABSENT},B)",
                              **options).tuples == {(0,)}
        assert engine.execute("Q(B) :- Ru('x',B)", **options).tuples \
            == frozenset()           # unorderable against an int column
        for key in engine._plans._entries:
            assert key[1][-1] == size_bucket(0) == 0


def test_arity_mismatch_on_a_bound_atom_stays_a_schema_error():
    # The seek addresses columns by position; a malformed atom must fail
    # with the typed error it always did, not an IndexError from the seek.
    engine = Engine(relations=INSTANCES["uniform"])
    for mode in ("auto", "binary", "generic"):
        with pytest.raises(SchemaError, match="arity 3"):
            engine.execute("Q(B) :- Ru(1,B), Ru(B,C,5)", mode=mode)
    assert len(engine.registry) == 0


def regular_engine(**kwargs):
    """Every vertex has out-degree 4 in every relation: one bucket."""
    n = 40
    relations = [
        Relation(name, attrs, {(v, (v + step) % n) for v in range(n)
                               for step in steps})
        for name, attrs, steps in (("Ru", ("A", "B"), (1, 2, 3, 5)),
                                   ("Su", ("B", "C"), (1, 2, 4, 7)),
                                   ("Tu", ("A", "C"), (2, 3, 4, 6)))
    ]
    return Engine(relations=relations, **kwargs)


def skewed_engine(**kwargs):
    """Vertex 0 is a 64-edge hub, every other source has two edges."""
    edges = {(0, t) for t in range(1, 65)}
    edges |= {(v, v + 1) for v in range(1, 30)} | {(v, v + 2)
                                                   for v in range(1, 30)}
    return Engine(relations=[Relation("R", ("A", "B"), edges),
                             Relation("S", ("B", "C"), edges)], **kwargs)


class TestCaches:
    def test_one_plan_miss_per_shape_then_every_constant_hits(self):
        engine = regular_engine(cache_results=False)
        shapes = [SHAPES[name] for name in ("triangle_at", "two_hop",
                                            "degree")]
        for a in range(12):
            for template in shapes:
                text = template.format(a=a)
                assert sorted(engine.execute(text).tuples) \
                    == reference(text, engine.database)
        assert engine.stats.plan_misses == len(shapes)
        assert engine.stats.plan_hits == 11 * len(shapes)
        assert len(engine._plans) == len(shapes)

    def test_light_and_heavy_constants_land_in_different_entries(self):
        engine = skewed_engine(cache_results=False)
        for a in (0, 5, 6, 0):          # hub, light, light, hub again
            text = f"Q(C) :- R({a},B), S(B,C)"
            assert sorted(engine.execute(text).tuples) \
                == reference(text, engine.database)
        assert engine.stats.plan_misses == 2
        assert engine.stats.plan_hits == 2
        forms = {key[0] for key in engine._plans._entries}
        buckets = {key[1][-1] for key in engine._plans._entries}
        assert forms == {"R(v0,v1);S(v1,v2)=>v2|sel:v0==?"}
        assert buckets == {size_bucket(64), size_bucket(2)}

    def test_results_are_never_shared_across_constants(self):
        engine = regular_engine(cache_results=True)
        first = engine.execute("Q(B) :- Ru(1,B)")
        second = engine.execute("Q(B) :- Ru(2,B)")
        assert first.tuples == {(2,), (3,), (4,), (6,)}
        assert second.tuples == {(3,), (4,), (5,), (7,)}
        assert engine.stats.result_hits == 0
        assert engine.stats.plan_hits == 1      # ... but the plan is
        assert engine.execute("Q(B) :- Ru(1,B)") == first
        assert engine.stats.result_hits == 1

    def test_renamed_and_atom_permuted_query_shares_the_plan(self):
        engine = regular_engine(cache_results=False)
        engine.execute("Q(C) :- Ru(5,B), Su(B,C)")
        renamed = "P(Z) :- Su(Y,Z), Ru(7,Y)"
        assert engine.explain(renamed).plan_cache == "hit"
        assert sorted(engine.execute(renamed).tuples) \
            == reference(renamed, engine.database)
        assert engine.stats.plan_misses == 1
        user_written = "P(Z) :- Su(Y,Z), Ru(X,Y), X == 9"
        assert engine.explain(user_written).plan_cache == "hit"

    def test_seek_index_is_rebuilt_lazily_after_a_delta(self):
        engine = regular_engine(cache_results=False)
        text = "Q(B) :- Ru(3,B)"
        engine.execute(text, mode="binary")
        registry = engine.registry
        assert ("Ru", ("A",)) in registry._hashes
        builds = registry.builds
        engine.apply_delta("Ru", inserts=[(3, 99)], deletes=[(3, 4)])
        assert registry.builds == builds        # nothing built by the delta
        assert ("Ru", ("A",)) not in registry._hashes
        after = engine.execute(text, mode="binary")
        assert after.tuples == {(5,), (6,), (8,), (99,)}
        assert sorted(after.tuples) == reference(text, engine.database)
        assert registry.builds == builds + 1    # ... but by the next seek
        engine.execute("Q(B) :- Ru(4,B)", mode="binary")
        assert registry.builds == builds + 1


class TestProbeAccounting:
    def test_pinned_level_is_probed_not_enumerated(self):
        engine = regular_engine(cache_results=False)
        text = "Q(B,C) :- Ru(7,B), Su(B,C), Tu(7,C)"
        counter = OperationCounter()
        engine.execute(text, mode="generic", counter=counter)
        # Two pinned levels, one trie each: two probes charged, and
        # neither 40-value level was walked to find the constant.
        assert counter.seeks == 2
        assert counter.intersection_steps < 40
        leapfrog = OperationCounter()
        engine.execute(text, mode="leapfrog", counter=leapfrog)
        assert leapfrog.seeks >= 2

    def test_unpinned_query_charges_exactly_what_it_did(self):
        engine = regular_engine(cache_results=False)
        text = "Q(A,B,C) :- Ru(A,B), Su(B,C), Tu(A,C), A < 3"
        counter = OperationCounter()
        engine.execute(text, mode="generic", counter=counter)
        assert counter.seeks == 0


class TestExplain:
    def test_parameters_plan_form_and_index_seek(self):
        engine = regular_engine()
        explanation = engine.explain(
            "Q(C) :- Ru(13,B), Su(B,C), B < 20", mode="binary")
        assert explanation.parameters == ("13",)
        assert explanation.canonical_form \
            == "Ru(v0,v1);Su(v1,v2)=>v2|sel:v0==?;v1<20"
        rendered = explanation.render()
        assert "parameters:     ?0 = 13 (cost estimates are those priced " \
               "for the plan's bound-scan size bucket)" in rendered
        assert "plan cache:     miss [Ru(v0,v1);Su(v1,v2)=>v2" \
               "|sel:v0==?;v1<20]" in rendered
        assert "_k0 == 13 — index seek on Ru[A]" in rendered
        assert "B < 20 — filtered into the scan of Ru" in rendered
        assert "B < 20 — filtered into the scan of Su" in rendered


CONSTANT_FREE = (
    "Q(A,B,C) :- Ru(A,B), Su(B,C), Tu(A,C)",
    "Q(A) :- Ru(A,B), Su(B,C), A < 7, B != 3",
    "Q(A, COUNT(*) AS n) :- Ru(A,B), Su(B,C), A >= 2 ORDER BY n DESC LIMIT 3",
)


class TestConstantFreeContract:
    @pytest.mark.parametrize("text", CONSTANT_FREE)
    def test_plan_key_is_the_canonical_form_and_size_fingerprint(self, text):
        engine = regular_engine()
        query = Query.coerce(text)
        canon = canonical_query(query)
        assert canon.plan_form == canon.form
        assert canon.parameters == ()
        engine.execute(text)
        (key,) = engine._plans._entries
        assert key == (
            canon.form,
            statistics_fingerprint(
                engine.database,
                [query.core.atoms[i].relation for i in canon.atom_order]),
            "auto", "auto", "auto", "python")
        assert len(engine.registry._hashes) == 0
        rendered = engine.explain(text).render()
        assert "parameters:" not in rendered
        assert f"[{canon.form}]" in rendered

    def test_forms_differ_only_in_the_slots(self):
        one = canonical_query(Query.coerce("Q(B) :- Ru(1,B), B < 9"))
        two = canonical_query(Query.coerce("Q(Y) :- Ru(2,Y), Y < 9"))
        assert one.form != two.form
        assert one.plan_form == two.plan_form == "Ru(v0,v1)=>v1|sel:v0==?;v1<9"
        assert (one.parameters, two.parameters) == (("1",), ("2",))
        other = canonical_query(Query.coerce("Q(B) :- Ru(1,B), B < 8"))
        assert other.plan_form != one.plan_form   # inequalities keep literals
