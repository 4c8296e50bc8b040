"""The layer DAG of src/repro, enforced by the ``import-layering`` rule.

Layers are listed lowest first; a module may import (at module level or
lazily) only from its own layer or layers listed above it.  Modules are
assigned to the *longest matching prefix*, so repro.joins.instrumentation
can sit in the foundation layer while the rest of repro.joins sits in the
executor layer.  An upward import — even a lazy, inside-a-function one —
is a finding and needs an inline ``# lint: disable=import-layering --
<why>``.

``numeric=True`` marks the only layers allowed to import numpy/scipy;
everywhere else the numeric stack is a finding on either axis (the
runtime half of this contract is tools/check_no_numpy_in_core.py, which
actually blocks the imports and runs a join).
"""

from __future__ import annotations

from dataclasses import dataclass


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
    # repro.query and repro.covers are mutually recursive (widths needs the
    # edge-cover LP; the LP needs the hypergraph) — one layer, by design.
    Layer("querycore", ("repro.query", "repro.covers")),
    Layer("theory", ("repro.constraints", "repro.infotheory",
                     "repro.datagen")),
    Layer("bounds", ("repro.bounds",)),
    Layer("joins", ("repro.joins",)),
    # The engine imports repro.columnar for planning; columnar.executor
    # imports engine.executors for its fallback oracle — one layer.
    Layer("physical", ("repro.engine", "repro.columnar"), numeric=True),
    Layer("ivm", ("repro.ivm",)),
    Layer("apps", ("repro", "repro.cli", "repro.__main__", "repro.panda",
                   "repro.experiments")),
)
