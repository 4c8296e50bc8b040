"""Linear programming helpers, (fractional) edge covers, and fractional
hypertree width."""
