"""Degree constraints, their dependency graph, and acyclification."""
