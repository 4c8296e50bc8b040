"""Rule ``layering``: the import DAG of src/repro, on two axes.

**Internal axis** — a module may import only from its own layer or lower
ones (``LAYERS`` in ``tools/analysis/layers.py`` lists layers
lowest-first; longest module prefix wins).  Upward imports are findings
even when lazy (inside a function): a lazy upward edge is sometimes the
right call — the engine's
``subscribe`` pulls in :mod:`repro.ivm` lazily because subscriptions
re-enter ``execute`` — but each such edge must carry an inline
suppression with its reason, so the DAG's exceptions stay enumerable.

**Numeric axis** — only layers flagged ``numeric=True`` may import
numpy, scipy or networkx, on any line.  This is the static half of the
no-numpy-in-core contract; the runtime half
(``tools/check_no_numpy_in_core.py``) stays, because only it proves the
lazy imports are never *executed* on the core paths.

Imports under ``if TYPE_CHECKING:`` are exempt on both axes: they are
erased at runtime and exist for the type checker.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.analysis.core import Checker, FileContext, Finding
from tools.analysis.layers import LayerConfig

#: Top-level third-party packages the numeric axis polices.
NUMERIC_STACK = ("numpy", "scipy", "networkx")

#: The package whose internal imports the DAG orders.
INTERNAL_ROOT = "repro"


class LayeringChecker(Checker):
    rule = "import-layering"

    def __init__(self, config: LayerConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        source_layer = self.config.layer_of(ctx.module_name)
        if source_layer is None:
            return  # outside the DAG (tools, tests, fixtures)
        lazy_lines = ctx.lazy_import_lines()
        type_checking = _type_checking_lines(ctx.tree)

        for node, target in self._import_targets(ctx):
            if node.lineno in type_checking:
                continue
            lazy = node.lineno in lazy_lines
            tag = " (lazy)" if lazy else ""

            root = target.split(".", 1)[0]
            if root in NUMERIC_STACK:
                if not source_layer.numeric:
                    yield Finding(
                        rule=self.rule, path=ctx.relpath, line=node.lineno,
                        message=(f"layer '{source_layer.name}' imports "
                                 f"{target}{tag}; the numeric stack is "
                                 "allowed only in numeric layers"),
                    )
                continue
            if root != INTERNAL_ROOT:
                continue

            target_layer = self.config.layer_of(target)
            if target_layer is None:
                yield Finding(
                    rule=self.rule, path=ctx.relpath, line=node.lineno,
                    message=(f"imports {target}, which is assigned to no "
                             "layer in layers.py"),
                )
            elif (self.config.rank(target_layer)
                  > self.config.rank(source_layer)):
                yield Finding(
                    rule=self.rule, path=ctx.relpath, line=node.lineno,
                    message=(f"layer '{source_layer.name}' imports {target} "
                             f"from higher layer '{target_layer.name}'"
                             f"{tag}"),
                )

    def _import_targets(self, ctx: FileContext
                        ) -> Iterator[tuple[ast.stmt, str]]:
        """(node, dotted target module) for every import statement.

        ``from X import y`` refines to ``X.y`` when the config assigns
        ``X.y`` more specifically than ``X`` — that is what lets
        ``repro.joins.instrumentation`` live below ``repro.joins``.
        """
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(ctx, node)
                if base is None:
                    continue
                base_layer = self.config.layer_of(base)
                refined = False
                for alias in node.names:
                    candidate = f"{base}.{alias.name}"
                    cand_layer = self.config.layer_of(candidate)
                    if (cand_layer is not None
                            and cand_layer is not base_layer):
                        yield node, candidate
                        refined = True
                if not refined:
                    yield node, base

    def _resolve_from(self, ctx: FileContext,
                      node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # Relative import: climb from the importing module's package.
        parts = ctx.module_name.split(".")
        if not ctx.relpath.endswith("__init__.py"):
            parts = parts[:-1]
        climb = node.level - 1
        if climb:
            parts = parts[:-climb] if climb < len(parts) else []
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None


def _type_checking_lines(tree: ast.AST) -> set[int]:
    """Lines of imports guarded by ``if TYPE_CHECKING:``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_guard = (isinstance(test, ast.Name)
                    and test.id == "TYPE_CHECKING") or (
                        isinstance(test, ast.Attribute)
                        and test.attr == "TYPE_CHECKING")
        if not is_guard:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                lines.add(sub.lineno)
    return lines
