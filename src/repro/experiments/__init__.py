"""Experiment harness: one module per table/figure/claim of the paper.

Each experiment module exposes a ``run_*`` function returning an
:class:`repro.experiments.runner.ExperimentTable`, which the benchmarks and
the EXPERIMENTS.md report are generated from.
"""
