"""Join algorithms: WCOJ engines, the paper's pseudo-code algorithms, and
traditional binary-join baselines."""
