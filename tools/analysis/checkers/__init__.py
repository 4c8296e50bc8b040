"""Checker registry: one module per rule, assembled for the driver."""

from __future__ import annotations

from tools.analysis.checkers.counter_honesty import CounterHonestyChecker
from tools.analysis.checkers.layering import LayeringChecker
from tools.analysis.core import Checker
from tools.analysis.layers import LAYERS


def default_checkers() -> list[Checker]:
    """The full rule set, configured for this repository."""
    return [LayeringChecker(LAYERS), CounterHonestyChecker()]
