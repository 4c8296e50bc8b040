"""Loaded only by an example."""
