"""Loaded by nothing, and no paper-map row cites it."""

"test_only"  # a bare string statement documents; it does not use
