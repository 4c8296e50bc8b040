"""The layer DAG of src/repro, enforced by the ``import-layering`` rule.

Layers are listed lowest first; a module may import (at module level or
lazily) only from its own layer or layers listed above it.  Modules are
assigned to the *longest matching prefix*, so repro.joins.instrumentation
can sit in the foundation layer while the rest of repro.joins sits in the
joins layer, and repro.columnar.executor in the engine layer above the
rest of repro.columnar.  An upward import — even a lazy, inside-a-function
one — is a finding and needs an inline ``# lint: disable=import-layering
-- <why>``.

``numeric=True`` marks the only layers allowed to import numpy, scipy or
networkx; everywhere else the numeric stack is a finding on either axis
(the runtime half of this contract is tools/check_no_numpy_in_core.py,
which actually blocks the imports and runs a join).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Layer:
    name: str
    modules: tuple[str, ...]
    numeric: bool = False


class LayerConfig:
    """The ordered layer list plus prefix-based module assignment."""

    def __init__(self, *layers: Layer) -> None:
        self.layers = layers
        self._by_prefix = {prefix: layer for layer in layers
                           for prefix in layer.modules}

    def rank(self, layer: Layer) -> int:
        """Position of ``layer`` in the DAG, lowest first."""
        return self.layers.index(layer)

    def layer_of(self, module: str) -> Layer | None:
        """The layer owning ``module``, by longest matching prefix."""
        best: Layer | None = None
        best_len = -1
        for prefix, layer in self._by_prefix.items():
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
        return best


LAYERS = LayerConfig(
    Layer("foundation", ("repro.errors", "repro.joins.instrumentation")),
    # Observability imports nothing from the engine: the engine imports *it*.
    Layer("obs", ("repro.obs",)),
    Layer("relational", ("repro.relational",)),
    Layer("query", ("repro.query",)),
    # The edge-cover LPs and the one bound the dispatcher prices with: AGM,
    # one exact simplex solve.
    Layer("covers", ("repro.covers", "repro.bounds.agm")),
    Layer("constraints", ("repro.constraints",)),
    Layer("joins", ("repro.joins",)),
    Layer("columnar", ("repro.columnar",), numeric=True),
    # columnar.executor subclasses the engine's WCOJ executor, so it sits
    # in the engine's layer while the layout and the kernel sit below it.
    Layer("engine", ("repro.engine", "repro.columnar.executor")),
    Layer("ivm", ("repro.ivm",)),
    # The paper side: the proof machinery, the workloads and the paper's
    # artifacts sit above the engine, which needs none of them.
    Layer("theory", ("repro.infotheory", "repro.datagen")),
    Layer("bounds", ("repro.bounds",)),
    Layer("paper", ("repro.panda", "repro.experiments")),
    Layer("apps", ("repro", "repro.cli", "repro.__main__")),
)


def paper_side(modules: Iterable[str]) -> list[str]:
    """The modules of ``modules`` that the engine never needs.

    These are the modules of the layers above ``ivm`` and under ``apps``:
    the proof machinery, the workloads and the paper's artifacts.  A
    package counts only if it is not merely the parent of a listed
    module of a lower layer (``repro.bounds`` is loaded with
    ``repro.bounds.agm``, which sits in ``covers``).
    """
    ranks = {layer.name: LAYERS.rank(layer) for layer in LAYERS.layers}

    def above_the_engine(module: str) -> bool:
        layer = LAYERS.layer_of(module)
        return (layer is not None
                and ranks["ivm"] < LAYERS.rank(layer) < ranks["apps"])

    listed = sorted(set(modules))
    return [m for m in listed if above_the_engine(m)
            and not any(other.startswith(m + ".")
                        and not above_the_engine(other)
                        for other in listed)]
