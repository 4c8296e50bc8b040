"""repro — worst-case optimal join algorithms, bounds, and benchmarks.

A from-scratch reproduction of the systems described in

    Hung Q. Ngo, "Worst-Case Optimal Join Algorithms: Techniques, Results,
    and Open Problems", PODS 2018 (arXiv:1803.09930).

The package is organized bottom-up, in the order of the layer DAG
(``tools/analysis/layers.py``); a package imports only from those above
it in this list:

* :mod:`repro.obs`         — observability: query-lifecycle tracing, a
  metrics registry, EXPLAIN ANALYZE cost-model calibration;
* :mod:`repro.relational`  — relations, indexes, relational algebra;
* :mod:`repro.query`       — conjunctive queries, hypergraphs, tree
  decompositions, variable orders, parsing;
* :mod:`repro.covers`      — LPs, fractional edge covers, fractional
  hypertree width; with it :mod:`repro.bounds.agm`, the AGM bound;
* :mod:`repro.constraints` — degree constraints and acyclification;
* :mod:`repro.joins`       — Generic-Join, Leapfrog Triejoin, Algorithm 1-3,
  pairwise-plan baselines;
* :mod:`repro.columnar`    — the optional NumPy layouts and kernel;
* :mod:`repro.engine`      — the persistent query engine: plan cache, index
  registry, cost-based dispatch, streaming execution;
* :mod:`repro.ivm`         — standing queries maintained under deltas;
* the paper side, which the engine never imports:
  :mod:`repro.infotheory` (entropy, polymatroids, Shannon inequalities)
  and :mod:`repro.datagen` (synthetic workloads); :mod:`repro.bounds`
  (polymatroid, modular/acyclic, entropic); :mod:`repro.panda`
  (Shannon-flow inequalities, proof sequences, the PANDA interpreter) and
  :mod:`repro.experiments` (one module per table / figure / claim).

The most common entry points are re-exported here, each imported on first
access, so ``import repro`` loads none of the packages above.
"""

import importlib

__version__ = "1.0.0"

#: Re-exported name -> the module defining it.
_EXPORTS = {
    "Database": "repro.relational.database",
    "Relation": "repro.relational.relation",
    "ConjunctiveQuery": "repro.query.atoms",
    "Atom": "repro.query.atoms",
    "Q": "repro.query.builder",
    "Query": "repro.query.builder",
    "QueryBuilder": "repro.query.builder",
    "Aggregate": "repro.query.semiring",
    "Semiring": "repro.query.semiring",
    "count": "repro.query.semiring",
    "sum_": "repro.query.semiring",
    "min_": "repro.query.semiring",
    "max_": "repro.query.semiring",
    "avg_": "repro.query.semiring",
    "register_semiring": "repro.query.semiring",
    "Comparison": "repro.query.terms",
    "Constant": "repro.query.terms",
    "parse_query": "repro.query.parser",
    "triangle_query": "repro.query.atoms",
    "clique_query": "repro.query.atoms",
    "cycle_query": "repro.query.atoms",
    "path_query": "repro.query.atoms",
    "loomis_whitney_query": "repro.query.atoms",
    "DegreeConstraint": "repro.constraints.degree",
    "DegreeConstraintSet": "repro.constraints.degree",
    "agm_bound": "repro.bounds.agm",
    "polymatroid_bound": "repro.bounds.polymatroid",
    "modular_bound": "repro.bounds.modular",
    "output_size_bound": "repro.bounds.degree_aware",
    "generic_join": "repro.joins.generic_join",
    "leapfrog_triejoin": "repro.joins.leapfrog",
    "nested_loop_join": "repro.joins.naive",
    "backtracking_join": "repro.joins.backtracking",
    "OperationCounter": "repro.joins.instrumentation",
    "Engine": "repro.engine.session",
    "EngineStats": "repro.engine.session",
    "Explanation": "repro.engine.session",
    "MetricsRegistry": "repro.obs.metrics",
    "ProfileReport": "repro.obs.profile",
    "Tracer": "repro.obs.trace",
    "panda_evaluate": "repro.panda.interpreter",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import a re-exported name on first access (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
