"""``acyclify`` picks the same weakening in every process.

The constraint dependency graph walks each constraint's X and Y - X, which
are frozensets: iterated directly, their order follows string hashing, so
the cycle the search meets first, and the constraint weakened on it, would
change with ``PYTHONHASHSEED``.  A seeded batch of cyclic constraint sets
is acyclified in two interpreters with different hash seeds and their
results compared as text.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import random
from repro.constraints.acyclify import acyclify, all_variables_bound
from repro.constraints.degree import DegreeConstraint, DegreeConstraintSet

rng = random.Random(20)
names = ("A", "B", "C", "D", "E", "F")
printed = 0
while printed < 150:
    variables = names[:rng.randint(3, len(names))]
    constraints = [DegreeConstraint.cardinality(
        rng.sample(variables, rng.randint(1, 2)), rng.randint(2, 64))]
    for _ in range(rng.randint(2, 6)):
        x = frozenset(rng.sample(variables, rng.randint(1, len(variables) - 1)))
        rest = [v for v in variables if v not in x]
        y = x | frozenset(rng.sample(rest, rng.randint(1, len(rest))))
        constraints.append(DegreeConstraint(x=x, y=y, bound=rng.randint(1, 16)))
    dc = DegreeConstraintSet(variables, constraints)
    if dc.is_acyclic() or not all_variables_bound(dc):
        continue
    print(acyclify(dc))
    printed += 1
"""


def _acyclified(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_acyclify_does_not_depend_on_the_hash_seed():
    first = _acyclified("0")
    assert first.count("\n") == 150
    assert _acyclified("1") == first
