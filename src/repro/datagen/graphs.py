"""Random and structured graph generators.

Graphs are the paper's motivating workload (triangle counting and subgraph
queries on social networks); all generators return edge relations with schema
(src, dst) named to the caller's liking and are deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.query.atoms import triangle_query
from repro.relational.database import Database
from repro.relational.relation import Relation


def erdos_renyi_graph(num_vertices: int, num_edges: int, seed: int = 0,
                      name: str = "E", attributes: Sequence[str] = ("A", "B"),
                      allow_self_loops: bool = False) -> Relation:
    """A uniform random directed graph with (up to) ``num_edges`` distinct edges.

    Edges are sampled without replacement; if the requested number exceeds
    the number of possible edges the complete graph is returned.
    """
    rng = random.Random(seed)
    possible = num_vertices * (num_vertices - (0 if allow_self_loops else 1))
    target = min(num_edges, possible)
    edges: set[tuple[int, int]] = set()
    while len(edges) < target:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if not allow_self_loops and u == v:
            continue
        edges.add((u, v))
    return Relation(name, attributes, edges)


def zipf_graph(num_vertices: int, num_edges: int, skew: float = 1.0, seed: int = 0,
               name: str = "E", attributes: Sequence[str] = ("A", "B")) -> Relation:
    """A directed graph whose endpoints follow a Zipf-like distribution.

    Vertex i is chosen with probability proportional to 1 / (i + 1)^skew,
    producing the heavy-hitter degree skew that motivates the heavy/light
    algorithms (Algorithm 2, PANDA's partitioning steps).
    """
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** skew for i in range(num_vertices)]
    vertices = list(range(num_vertices))
    edges: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = 50 * num_edges + 100
    while len(edges) < num_edges and attempts < max_attempts:
        u = rng.choices(vertices, weights=weights, k=1)[0]
        v = rng.choices(vertices, weights=weights, k=1)[0]
        attempts += 1
        if u == v:
            continue
        edges.add((u, v))
    return Relation(name, attributes, edges)


def zipf_outdegree_graph(num_sources: int, num_targets: int, num_edges: int,
                         skew: float = 1.0, seed: int = 0, name: str = "E",
                         attributes: Sequence[str] = ("A", "B")) -> Relation:
    """A directed graph with an *exact* Zipf out-degree sequence.

    The source of rank i gets out-degree proportional to 1 / (i + 1)^skew
    (scaled so the total is ~``num_edges``, every source keeping at least
    one edge, capped at ``num_targets``); its targets are sampled
    uniformly without replacement.  Unlike :func:`zipf_graph`'s rejection
    sampling, the degree sequence here is deterministic given the
    parameters — rank 0 *is* the heavy hitter the heavy/light machinery
    partitions out — which is what the skew-workload harness needs to
    sweep exponents reproducibly.
    """
    rng = random.Random(seed)
    weights = [(i + 1) ** -skew for i in range(num_sources)]
    scale = num_edges / sum(weights)
    edges = []
    for i in range(num_sources):
        degree = min(num_targets, max(1, round(scale * weights[i])))
        for target in rng.sample(range(num_targets), degree):
            edges.append((i, target))
    return Relation(name, attributes, edges)


def zipf_triangle_instance(n: int, skew: float = 1.5, seed: int = 0):
    """A triangle query over three Zipf-skewed edge relations of ~n tuples.

    Each relation draws its own out-degree sequence (independent seeds
    derived from ``seed``) over a shared vertex domain of ``max(8, n // 4)``
    ids, so low ranks are heavy in *several* relations at once — the
    workload where the heavy/light hybrid beats both pure strategies.
    Returns ``(query, database)`` like the worst-case instance builders.
    """
    vertices = max(8, n // 4)
    r = zipf_outdegree_graph(vertices, vertices, n, skew=skew,
                             seed=3 * seed + 1, name="R",
                             attributes=("A", "B"))
    s = zipf_outdegree_graph(vertices, vertices, n, skew=skew,
                             seed=3 * seed + 2, name="S",
                             attributes=("B", "C"))
    t = zipf_outdegree_graph(vertices, vertices, n, skew=skew,
                             seed=3 * seed + 3, name="T",
                             attributes=("A", "C"))
    return triangle_query(), Database([r, s, t])


def skew_cycle_instance(exponent: float, seed: int = 0) -> Database:
    """A 4-cycle ``R(A,B), S(B,C), T(C,D), U(D,A)`` whose hubs never close.

    Twelve hub values of ``A``, their ``R``-degrees decaying as
    rank^-(exponent - 1) (clamped above the |R|^(1/2) threshold), are
    heavy in both relations that touch ``A``; every hub's
    ``R``-neighborhood fans through ``S`` into a small ``C``-pool, and
    the cycle never closes for a hub because ``T`` emits odd ``D`` values
    while the hubs' ``U``-tuples carry even ones — value-disjoint
    neighborhoods, which degree statistics alone cannot see.  Eighty
    light ``A`` values with genuine cycles keep the output non-empty.
    The WCOJ recursions grind out every hub's expansion for nothing; the
    heavy/light hybrid pays a few linear passes per hub
    (``benchmarks/bench_hybrid_skew.py`` gates the ratio).
    """
    n_hubs, top_degree, min_degree = 12, 100, 40
    s_fanout, t_degree, n_light = 10, 500, 80
    rng = random.Random(seed)
    bs = [f"b{i}" for i in range(100)]
    cs = [f"c{i}" for i in range(s_fanout)]
    even = [2 * i for i in range(t_degree + 50)]
    odd = [2 * i + 1 for i in range(t_degree + 50)]

    r, s, t, u = [], [], [], []
    for k in range(n_hubs):
        a = f"h{k}"
        degree = max(min_degree, int(top_degree * (k + 1) ** (1.0 - exponent)))
        for b in rng.sample(bs, degree):
            r.append((a, b))
        for d in rng.sample(even, t_degree):  # even D: never meets T's odd D
            u.append((d, a))
    for b in bs:
        for c in rng.sample(cs, s_fanout):
            s.append((b, c))
    for c in cs:
        for d in rng.sample(odd, t_degree):
            t.append((c, d))
    for i in range(n_light):  # light keys with odd D: some cycles close
        a = f"l{i}"
        b, c, d = rng.choice(bs), rng.choice(cs), rng.choice(odd)
        r.append((a, b))
        s.append((b, c))
        t.append((c, d))
        u.append((d if rng.random() < 0.5 else rng.choice(odd), a))
    return Database([
        Relation("R", ("A", "B"), r),
        Relation("S", ("B", "C"), s),
        Relation("T", ("C", "D"), t),
        Relation("U", ("D", "A"), u),
    ])


def social_graph(num_vertices: int, average_degree: float = 8.0, skew: float = 1.2,
                 seed: int = 0, name: str = "Follows",
                 attributes: Sequence[str] = ("A", "B")) -> Relation:
    """A small synthetic "social network": Zipf-skewed follower edges.

    This is the substitute for the real social-network traces the triangle
    literature uses ([15, 63, 64] in the paper): same shape (power-law-ish
    degree distribution), laptop scale.
    """
    num_edges = int(num_vertices * average_degree)
    return zipf_graph(num_vertices, num_edges, skew=skew, seed=seed, name=name,
                      attributes=attributes)


def undirected_closure(relation: Relation) -> Relation:
    """Add the reverse of every edge (making the edge set symmetric)."""
    edges = set(relation.tuples)
    edges |= {(b, a) for a, b in relation.tuples}
    return Relation(relation.name, relation.attributes, edges)
