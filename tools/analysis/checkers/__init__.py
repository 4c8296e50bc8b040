"""Checker registry: one module per rule, assembled for the driver."""

from __future__ import annotations

import os

from tools.analysis.checkers.counter_honesty import CounterHonestyChecker
from tools.analysis.checkers.layering import LayeringChecker
from tools.analysis.checkers.unreferenced import UnreferencedDefinitionChecker
from tools.analysis.core import Checker
from tools.analysis.layers import LAYERS

#: The repository the rules are configured for.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def default_checkers() -> list[Checker]:
    """The full rule set, configured for this repository."""
    return [LayeringChecker(LAYERS), CounterHonestyChecker(),
            UnreferencedDefinitionChecker(REPO_ROOT)]
