"""The skew-workload harness: instance-level heavy/light partitions and
the randomized cross-engine agreement suite pinning the hybrid strategy
bit-identical to the generic-join oracle.

The partition half checks :func:`repro.joins.hybrid.partition_instance`
invariants (disjoint cover, value-level key agreement across relations,
the global distinct-key bound) on Zipf-skewed graphs across exponents and
seeds.  The agreement half runs every query shape the hybrid can dispatch
— cyclic and acyclic, projected and full heads, self-joins, selections,
group-by aggregates, ORDER BY, and post-delta states — through
``mode="hybrid"`` and ``mode="generic"`` and requires identical results:
same row multiset, same aggregate values, same ORDER BY order.
"""

import pytest

from repro.datagen.graphs import (erdos_renyi_graph, zipf_outdegree_graph,
                                  zipf_triangle_instance)
from repro.engine import Engine
from repro.joins.hybrid import partition_instance, residual_query
from repro.query.atoms import Atom, ConjunctiveQuery, triangle_query
from repro.query.builder import Q
from repro.query.variable_order import skew_split
from repro.relational.database import Database
from repro.relational.relation import Relation

SKEWS = (0.8, 1.2, 1.6)
SEEDS = (0, 1)


def zipf_db(skew: float, seed: int, edges: int = 150) -> Database:
    """Five Zipf-skewed edge relations over one shared vertex domain.

    Low vertex ids are heavy in several relations at once — the regime
    where promotion (a light tuple whose key is heavy *elsewhere*) is
    actually exercised, not just theoretically possible.
    """
    vertices = max(10, edges // 5)

    def rel(name, attributes, offset):
        return zipf_outdegree_graph(vertices, vertices, edges, skew=skew,
                                    seed=7 * seed + offset, name=name,
                                    attributes=attributes)

    return Database([
        rel("R", ("A", "B"), 1),
        rel("S", ("B", "C"), 2),
        rel("T", ("A", "C"), 3),
        rel("U", ("C", "D"), 4),
        rel("W", ("D", "A"), 5),
    ])


# ---------------------------------------------------------------------------
# Partition invariants
# ---------------------------------------------------------------------------
class TestPartitionInvariants:
    @pytest.mark.parametrize("skew", SKEWS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_verify_on_zipf_triangles(self, skew, seed):
        query, database = zipf_triangle_instance(150, skew=skew, seed=seed)
        variable, threshold, _ = skew_split(query, database)
        part = partition_instance(query, database, variable, threshold)
        assert part.verify(query, database)

    @pytest.mark.parametrize("threshold", (1.0, 3.0, 10.0))
    def test_verify_across_thresholds(self, threshold):
        query, database = zipf_triangle_instance(150, skew=1.4, seed=2)
        part = partition_instance(query, database, "A", threshold)
        assert part.verify(query, database)

    def test_sides_cover_exactly_and_share_untouched(self):
        query, database = zipf_triangle_instance(150, skew=1.4, seed=0)
        part = partition_instance(query, database, "A", 4.0)
        # R and T touch A, S does not: both sides reuse the original S.
        assert part.touched == (0, 2)
        assert part.heavy_db.get("S") is database.get("S")
        assert part.light_db.get("S") is database.get("S")
        for i in part.touched:
            atom = query.atoms[i]
            heavy = part.heavy_db.get(part.heavy_query.atoms[i].relation)
            light = part.light_db.get(part.light_query.atoms[i].relation)
            assert heavy.tuples | light.tuples == database.get(
                atom.relation).tuples
            assert not heavy.tuples & light.tuples

    def test_promotion_moves_keys_heavy_elsewhere(self):
        # A is heavy in R (degree 3 > threshold 2) but light in T; the
        # value-level rule promotes T's a0 tuples to the heavy side.
        r = [("a0", f"b{i}") for i in range(3)] + [("a1", "b0")]
        t = [("a0", "c0"), ("a1", "c1")]
        s = [(f"b{i}", f"c{j}") for i in range(3) for j in range(2)]
        database = Database([
            Relation("R", ("A", "B"), r), Relation("S", ("B", "C"), s),
            Relation("T", ("A", "C"), t),
        ])
        part = partition_instance(triangle_query(), database, "A", 2.0)
        assert part.heavy_keys == {"a0"}
        heavy_t = part.heavy_db.get(part.heavy_query.atoms[2].relation)
        assert heavy_t.tuples == {("a0", "c0")}
        assert part.verify(triangle_query(), database)

    def test_residual_structure(self):
        triangle = triangle_query()
        residual = residual_query(triangle, "A")
        assert [a.variables for a in residual.atoms] == [("B",), ("B", "C"),
                                                         ("C",)]
        gate_only = ConjunctiveQuery([Atom("R", ("A",))])
        assert residual_query(gate_only, "A") is None


# ---------------------------------------------------------------------------
# Cross-engine agreement
# ---------------------------------------------------------------------------
#: Unordered query shapes: hybrid and generic must return the same row
#: multiset (set semantics — rows are deduplicated head tuples).
SHAPES = [
    "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",          # full triangle
    "Q(A,B) :- R(A,B), S(B,C), T(A,C)",            # projected head
    "Q(B,C) :- R(A,B), S(B,C), T(A,C)",            # skew var projected away
    "Q(A,B,C) :- R(A,B), S(B,C)",                  # 2-path, full
    "Q(A,D) :- R(A,B), S(B,C), U(C,D)",            # 3-path, projected
    "Q(A,B,C) :- R(A,B), T(A,C)",                  # star-2 (disconnected
                                                   #   residual)
    "Q(B,C,D) :- R(A,B), T(A,C), W(D,A)",          # star-3, center dropped
    "Q(A,B,C) :- R(A,B), R(B,C)",                  # self-join path
    "Q(A,B,C) :- R(A,B), R(B,C), R(A,C)",          # self-join triangle
    "Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D), W(D,A)",  # 4-cycle
    "Q(A,B,C) :- R(A,B), S(B,C), T(A,C), A < B",   # cross-atom selection
    "Q(B) :- R(A,B), S(B,C), C < 12",              # constant selection
    "Q(A,B,C) :- R(A,B), S(B,C), T(A,C), A < 6",   # selection on skew var
    "Q(A, COUNT(*)) :- R(A,B), S(B,C), T(A,C)",    # group-by count
    "Q(B, SUM(C)) :- R(A,B), S(B,C), T(A,C)",      # group-by sum
    "Q(A, COUNT(*)) :- R(A,B), T(A,C)",            # count on the skew var
    # 4-clique: binding any variable leaves a triangle, so the residual is
    # cyclic and the heavy side runs one whole-side binary sub-plan.
    "Q(A,B,C,D) :- R(A,B), S(B,C), T(A,C), U(C,D), W(D,A), R(B,D)",
    "Q(A, COUNT(*)) :- R(A,B), S(B,C), T(A,C), U(C,D), W(D,A), R(B,D)",
]


class TestHybridAgreement:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("skew", SKEWS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_generic_oracle(self, shape, skew, seed):
        engine = Engine(zipf_db(skew, seed))
        oracle = sorted(engine.execute(shape, mode="generic").tuples)
        rows = sorted(engine.execute(shape, mode="hybrid").tuples)
        assert rows == oracle

    @pytest.mark.parametrize("skew", SKEWS)
    def test_order_by_is_order_identical(self, skew):
        engine = Engine(zipf_db(skew, 0))
        q = (Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
             .select("B", "A").order_by("-B", "A"))
        assert (list(engine.stream(q, mode="hybrid"))
                == list(engine.stream(q, mode="generic")))

    def test_order_by_limit_prefix(self, ):
        engine = Engine(zipf_db(1.6, 1))
        q = (Q.from_("R", "A", "B").from_("S", "B", "C").from_("T", "A", "C")
             .select("A", "C").order_by("-C", "A").limit(5))
        assert (list(engine.stream(q, mode="hybrid"))
                == list(engine.stream(q, mode="generic")))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agreement_survives_deltas(self, seed):
        shape = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
        hybrid = Engine(zipf_db(1.4, seed))
        generic = Engine(zipf_db(1.4, seed))
        for engine in (hybrid, generic):
            # grow one hub past the threshold and delete some light edges
            engine.apply_delta("R", inserts=[(0, 90 + i) for i in range(25)])
            engine.apply_delta("S", deletes=list(
                engine.database.get("S").tuples)[:10])
        assert (sorted(hybrid.execute(shape, mode="hybrid").tuples)
                == sorted(generic.execute(shape, mode="generic").tuples))

    def test_forced_hybrid_on_uniform_data_still_exact(self):
        # Dispatch would never choose hybrid here (no value beats the
        # threshold), but forcing it must still be exact: one side of the
        # partition is simply empty.
        database = Database([
            erdos_renyi_graph(40, 120, seed=1, name="R",
                              attributes=("A", "B")),
            erdos_renyi_graph(40, 120, seed=2, name="S",
                              attributes=("B", "C")),
            erdos_renyi_graph(40, 120, seed=3, name="T",
                              attributes=("A", "C")),
        ])
        engine = Engine(database)
        shape = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
        assert (sorted(engine.execute(shape, mode="hybrid").tuples)
                == sorted(engine.execute(shape, mode="generic").tuples))

    def test_single_atom_query(self):
        engine = Engine(zipf_db(1.6, 0))
        shape = "Q(B,A) :- R(A,B)"
        assert (sorted(engine.execute(shape, mode="hybrid").tuples)
                == sorted(engine.execute(shape, mode="generic").tuples))
