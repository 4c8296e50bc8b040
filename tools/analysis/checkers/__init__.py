"""Checker registry: one module per rule, assembled for the driver."""

from __future__ import annotations

import os

from tools.analysis.checkers.counter_honesty import CounterHonestyChecker
from tools.analysis.checkers.layering import LayeringChecker
from tools.analysis.core import Checker
from tools.analysis.layers import load_layers

_HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS_TOML = os.path.join(_HERE, os.pardir, "layers.toml")


def default_checkers() -> list[Checker]:
    """The full rule set, configured for this repository."""
    return [
        LayeringChecker(load_layers(LAYERS_TOML)),
        CounterHonestyChecker(),
    ]


__all__ = [
    "CounterHonestyChecker",
    "LayeringChecker",
    "default_checkers",
    "LAYERS_TOML",
]
