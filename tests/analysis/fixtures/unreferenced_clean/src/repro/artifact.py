"""Loaded by nothing, but a paper-map row cites it."""
