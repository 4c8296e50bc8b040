"""Worst-case output size bounds: AGM, polymatroid, modular/acyclic, entropic."""
