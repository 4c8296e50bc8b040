"""The profile verdict as a gate: dispatch must not regret its choice.

``Engine.profile`` has always printed "dispatch picked X; Y did fewer
operations"; nothing failed on it.  These tests do, on operation counts
only (no clock): the dispatched strategy does at most 1.5x the operations
of the best priced one on the cyclic shapes the survey is about, the two
catastrophic flips a mispriced candidate used to allow stay impossible,
and every strategy's calibration (actual / predicted operations) stays
within a factor of 8 (``tools/calibrate_costs.py --check`` holds the same
bound over its full shape x form grid in CI).
"""

import math

import pytest

from repro.datagen.graphs import erdos_renyi_graph, zipf_outdegree_graph
from repro.datagen.loomis_whitney import loomis_whitney_random_instance
from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter

VERTICES, EDGES = 40, 120

GRAPH_SCHEMA = (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
                ("U", ("C", "D")), ("V", ("D", "A")))

SHAPES = {
    "triangle": "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
    "cycle4": "Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D), V(D,A)",
    "triangle_group": "Q(A, COUNT(*) AS n) :- R(A,B), S(B,C), T(A,C)",
    "lw4": "Q(A,B,C,D) :- R_1(B,C,D), R_2(A,C,D), R_3(A,B,D), R_4(A,B,C)",
}


def graph_engine(instance: str, vertices: int = VERTICES,
                 edges: int = EDGES) -> Engine:
    """The e2e degree shapes: uniform, or Zipf out-degrees over (roughly)
    level in-degrees, plus a random LW(4) instance."""
    relations = [
        zipf_outdegree_graph(vertices, vertices, edges, skew=1.2, seed=seed,
                             name=name, attributes=attrs)
        if instance == "zipf" else
        erdos_renyi_graph(vertices, edges, seed=seed, name=name,
                          attributes=attrs)
        for seed, (name, attrs) in enumerate(GRAPH_SCHEMA)]
    _query, lw = loomis_whitney_random_instance(4, 60, seed=7)
    return Engine(relations=relations + list(lw), cache_results=False)


@pytest.fixture(scope="module", params=["uniform", "zipf"])
def engine(request):
    return graph_engine(request.param), request.param


class TestProfileVerdict:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_dispatched_within_1_5x_of_the_best_priced(self, engine, shape):
        session, _instance = engine
        report = session.profile(SHAPES[shape])
        ran = report.profile_for(report.dispatched)
        best = min(profile.actual for profile in report.profiles)
        assert ran.actual <= 1.5 * best, report.render()

    @pytest.mark.parametrize("shape", ["triangle", "cycle4"])
    def test_uniform_cyclic_queries_never_go_to_binary(self, shape):
        explanation = graph_engine("uniform").explain(SHAPES[shape])
        assert explanation.strategy in ("generic", "leapfrog")
        assert explanation.costs[explanation.strategy] \
            < explanation.costs["binary"]


class TestCatastrophicFlips:
    PATH_TOP = ("Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D) "
                "ORDER BY D DESC, A LIMIT 10")
    STAR = "Q(A) :- R(A,B), T(A,C), V(D,A)"

    def test_far_apart_sort_keys_price_wcoj_anyk_by_its_pops(self):
        # Binding D then A first is a cross product.  An eager frontier
        # filled in the best-suffix DP under every root candidate (5-7 s
        # at e2e size against 17-64 ms for the rest); the lazy one pushes
        # one sibling at a time, and its price follows the pops it makes.
        session = graph_engine("uniform")
        explanation = session.explain(self.PATH_TOP)
        assert explanation.costs["ranked[anyk]"] \
            < explanation.costs["ranked[drain]"]

        def operations(**axes) -> int:
            counter = OperationCounter()
            session.execute(self.PATH_TOP, counter=counter, **axes)
            return counter.total()

        anyk = operations(mode="generic", ranked_mode="anyk")
        predicted = session.explain(self.PATH_TOP, mode="generic",
                                    ranked_mode="anyk").costs["ops[generic]"]
        assert max(anyk / predicted, predicted / anyk) <= 8
        forced = [operations(mode=mode, ranked_mode=ranked)
                  for mode, ranked in (("generic", "drain"),
                                       ("binary", "drain"),
                                       ("yannakakis", "drain"),
                                       ("yannakakis", "anyk"))]
        assert anyk < forced[0]
        assert operations() <= 2 * min(forced + [anyk])

    def test_zipf_star_projection_never_goes_to_binary(self):
        # The hubs' degrees multiply in R |x| T: the plan that was
        # OOM-killed at 5000 edges and is excluded from the e2e workloads.
        session = graph_engine("zipf", vertices=60, edges=400)
        explanation = session.explain(self.STAR)
        assert explanation.costs["binary"] == math.inf
        assert explanation.strategy != "binary"
        oracle = session.execute(self.STAR, mode="generic")
        assert session.execute(self.STAR).tuples == oracle.tuples

    def test_forced_binary_priced_inf_still_runs(self):
        # Refused by the envelope under auto, yet a forced request is a
        # request: it runs the greedy plan the simulation priced.
        session = graph_engine("zipf")
        explanation = session.explain(self.STAR, mode="binary")
        assert explanation.strategy == "binary"
        assert explanation.costs["binary"] == math.inf
        assert "ops[binary]" not in explanation.costs
        assert (sorted(session.execute(self.STAR, mode="binary").tuples)
                == sorted(session.execute(self.STAR, mode="naive").tuples))


class TestProjectionOrder:
    """A strict projection runs the cheaper of its two variable orders.

    Head-first binds the head before the existential variables; on a
    pinned path that puts ``C`` at a level nothing bound guards, so it
    walks every value of ``S``.  The guarded order binds ``B`` from the
    constant first and deduplicates the head by a seen-set."""

    PINNED = {
        "two_hop": "Q(C) :- R(1,B), S(B,C)",
        "three_hop": "Q(D) :- R(1,B), S(B,C), U(C,D)",
    }
    STAR = "Q(A) :- R(A,B), T(A,C), V(D,A)"

    @pytest.fixture(scope="class")
    def session(self):
        return graph_engine("uniform")

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_auto_runs_the_guarded_wcoj_order(self, session, shape):
        explanation = session.explain(self.PINNED[shape])
        assert explanation.strategy in ("generic", "leapfrog")
        order = explanation.variable_order
        assert order.index("B") < order.index("C")
        assert explanation.projection == "head deduplicated by a seen-set"
        assert explanation.costs["order[guarded]"] \
            < explanation.costs["order[head]"]

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_dispatched_within_1_5x_and_generic_calibrated(self, session,
                                                          shape):
        # Forced generic runs the order auto priced: measured on the
        # head-first walk, the 2-hop's guarded prediction reads 8.8x off.
        report = session.profile(self.PINNED[shape])
        best = min(profile.actual for profile in report.profiles)
        assert report.profile_for(report.dispatched).actual <= 1.5 * best, \
            report.render()
        generic = report.profile_for("generic")
        assert 1 / 8 <= generic.calibration <= 8, report.render()

    def test_star_projection_keeps_its_head_first_order(self, session):
        # The head is the star's centre: the guarded order is the same
        # order, so there is nothing to choose.
        explanation = session.explain(self.STAR)
        assert explanation.variable_order[0] == "A"
        assert explanation.projection == "existential tail after A"
        assert "order[guarded]" not in explanation.costs


class TestCalibration:
    TOLERANCE = 8.0
    SHAPES = {
        **SHAPES,
        "path3": "Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D)",
        "path3_group": "Q(A, COUNT(*) AS n) :- R(A,B), S(B,C), U(C,D)",
        "star": "Q(A,B,C,D) :- R(A,B), T(A,C), V(D,A)",
    }

    @pytest.mark.parametrize("instance", ["uniform", "zipf"])
    def test_every_priced_strategy_within_tolerance(self, instance):
        """``calibration = actual / predicted`` operations, on the
        instances ``calibrate_costs.py --quick`` runs: the simulation
        tracks what each executor does, not only how they rank."""
        session = graph_engine(instance, vertices=30, edges=100)
        for query in self.SHAPES.values():
            report = session.profile(query)
            assert len(report.profiles) >= 2
            for profile in report.profiles:
                assert profile.calibration is not None
                assert 1 / self.TOLERANCE <= profile.calibration \
                    <= self.TOLERANCE, report.render()
