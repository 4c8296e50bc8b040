"""Synthetic workload generators: graphs, AGM-tight instances, skewed
instances, Loomis–Whitney instances, and degree-constrained relations."""
