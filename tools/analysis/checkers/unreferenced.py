"""Rule ``unreferenced-definition``: ``src/repro`` holds what something uses.

**Definitions.**  A top-level function or class of a ``src/repro``
module is *live* when at least one of these reaches it:

1. an identifier or a string constant in another ``src/repro`` module
   (string dispatch — ``getattr(module, "name")``, the lazy
   ``repro.__all__`` table — is a use).  A use inside the same module
   counts from module-level code, or from a definition that is itself
   live, so a helper that only an orphan calls is an orphan too;
2. an identifier in ``benchmarks/``, ``tools/`` or ``examples/``.  CI
   runs those programs, and a benchmark is not edited to make a
   deletion pass;
3. membership in ``repro.__all__`` (its names are string constants of
   ``repro/__init__.py``, which rule 1 reads);
4. a backticked name in ``docs/paper-map.md``: the definition reproduces
   a statement of the survey, and the map says which.

Tests alone do not count, nor do names in docstrings or comments, nor a
module's own ``__all__`` (an export list is not a use).  Dunder names
(``__getattr__``, ``__dir__``: PEP 562 hooks) are never findings, and
methods are out of scope.  Names are matched as names, not resolved: a
use of any ``plan`` keeps every top-level ``plan`` alive.

**Modules.**  A ``src/repro`` module is live when the import closure of
``repro``, ``repro.__main__`` and ``examples/`` loads it, or
``docs/paper-map.md`` cites its path in backticks.  The closure follows
every absolute import statement (``src/repro`` has no relative ones),
lazy ones included, and string dispatch: a string constant that names a
module, or that completes the constant prefix of an f-string passed to
``import_module`` in the same module (how the CLI loads an experiment:
``_exp("triangle_bounds")``).

The verdict needs every file at once, so the constructor reads the
corpus under ``root`` once and :meth:`check_file` reports the findings
of the file it is handed; a file outside that ``src/repro`` tree is
outside the rule.
"""

from __future__ import annotations

import ast
import os
import re
from collections import defaultdict
from typing import Iterable, Iterator

from tools.analysis.core import Checker, FileContext, Finding, module_name_of

#: Trees whose identifiers count as uses (rule 2).
PROGRAM_DIRS = ("benchmarks", "tools", "examples")

#: The paper-to-code map (rule 4 and the module rule).
PAPER_MAP = "docs/paper-map.md"

#: The package the rule covers, and its entry points.
PACKAGE_DIR = "src/repro"
ENTRY_POINTS = ("repro", "repro.__main__")

_BACKTICKED = re.compile(r"`([^`\n]+)`")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class UnreferencedDefinitionChecker(Checker):
    rule = "unreferenced-definition"

    def __init__(self, root: str) -> None:
        modules = [_Module(relpath, tree)
                   for relpath, tree in _parse_tree(root, PACKAGE_DIR)]
        users: dict[str, set[str]] = defaultdict(set)
        for module in modules:
            for name in module.all_uses:
                users[name].add(module.name)
        program_names: set[str] = set()
        entry_points = set(ENTRY_POINTS)
        for top in PROGRAM_DIRS:
            for _relpath, tree in _parse_tree(root, top):
                read = _Reads(tree)
                program_names |= read.names
                if top == "examples":
                    entry_points |= read.imports
        cited_names, cited_paths = _paper_map(root)

        self._findings: dict[str, list[Finding]] = defaultdict(list)
        for module in modules:
            outside = {name for name in module.definitions
                       if name in program_names or name in cited_names
                       or users[name] - {module.name}}
            for name in module.dead(outside):
                self._report(module, module.definitions[name],
                             f"'{name}' is used by no other src/repro "
                             "module, benchmark, tool or example, and no "
                             "docs/paper-map.md row names it")

        loaded = _closure(entry_points, {m.name: m for m in modules})
        for module in modules:
            if module.name not in loaded and module.relpath not in cited_paths:
                self._report(module, 1,
                             f"module {module.name} is loaded by no repro "
                             "import closure, CLI command or example, and "
                             "no docs/paper-map.md row cites it")

    def _report(self, module: _Module, line: int, message: str) -> None:
        self._findings[module.relpath].append(Finding(
            rule=self.rule, path=module.relpath, line=line, message=message))

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return self._findings.get(ctx.relpath, ())


class _Module:
    """One ``src/repro`` module: its definitions, what each uses, and
    the modules it may load."""

    def __init__(self, relpath: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.name = module_name_of(relpath)
        #: Top-level definition -> its line, and what its body uses.
        self.definitions: dict[str, int] = {}
        self.uses_in: dict[str, set[str]] = {}
        #: Uses from module-level code; the module's own ``__all__`` apart.
        self.top_uses: set[str] = set()
        exports: set[str] = set()
        reads = []
        for stmt in tree.body:
            read = _Reads(stmt)
            reads.append(read)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.definitions[stmt.name] = stmt.lineno
                self.uses_in[stmt.name] = read.uses
            elif _is_export_list(stmt):
                exports |= read.uses
            else:
                self.top_uses |= read.uses
        self.all_uses = exports.union(self.top_uses, *self.uses_in.values())
        strings = set().union(*(read.strings for read in reads))
        self.loads = strings.union(*(read.imports for read in reads))
        self.loads.update(prefix + s for read in reads
                          for prefix in read.prefixes for s in strings)

    def dead(self, outside: set[str]) -> list[str]:
        """The definitions that neither ``outside`` nor this module's
        module-level code reaches, directly or through a live
        definition."""
        live = {name for name in self.definitions
                if name in outside or name in self.top_uses}
        frontier = list(live)
        while frontier:
            for name in self.uses_in[frontier.pop()] & self.definitions.keys():
                if name not in live:
                    live.add(name)
                    frontier.append(name)
        return [name for name in self.definitions
                if name not in live and not _is_dunder(name)]


class _Reads:
    """What one walk of ``node`` finds: identifiers (names, attribute
    names, imported names), string constants other than docstrings and
    other bare string statements, the dotted names its imports may load
    (``from a.b import c`` gives ``a.b`` and ``a.b.c``; the closure keeps
    only modules), and the constant prefixes of f-strings passed to
    ``import_module``."""

    def __init__(self, node: ast.AST) -> None:
        self.names: set[str] = set()
        self.strings: set[str] = set()
        self.imports: set[str] = set()
        self.prefixes: set[str] = set()
        bare: set[int] = set()
        for sub in ast.walk(node):  # breadth first: a statement before its value
            if isinstance(sub, ast.Name):
                self.names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                self.names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                self.names.update(sub.name.split("."))
            elif isinstance(sub, ast.Expr):
                bare.add(id(sub.value))
            elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                    and id(sub) not in bare):
                self.strings.add(sub.value)
            if isinstance(sub, ast.Import):
                self.imports.update(alias.name for alias in sub.names)
            elif isinstance(sub, ast.ImportFrom) and sub.module:
                self.imports.add(sub.module)
                self.imports.update(f"{sub.module}.{alias.name}"
                                    for alias in sub.names)
            elif isinstance(sub, ast.Call) and "import_module" in (
                    getattr(sub.func, "id", None),
                    getattr(sub.func, "attr", None)):
                head = sub.args[0] if sub.args else None
                if isinstance(head, ast.JoinedStr) and head.values and (
                        isinstance(head.values[0], ast.Constant)):
                    self.prefixes.add(str(head.values[0].value))

    @property
    def uses(self) -> set[str]:
        return self.names | self.strings


def _parse_tree(root: str, top: str) -> Iterator[tuple[str, ast.Module]]:
    """(repo-relative path, parsed tree) of every ``.py`` under ``top``."""
    for dirpath, dirs, names in os.walk(os.path.join(root, top)):
        dirs.sort()
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                yield relpath, ast.parse(handle.read(), filename=relpath)


def _is_export_list(stmt: ast.stmt) -> bool:
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign)
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _closure(entry_points: set[str], modules: dict[str, _Module]) -> set[str]:
    """The ``src/repro`` modules that loading ``entry_points`` loads."""
    loaded: set[str] = set()
    pending = list(entry_points)
    while pending:
        name = pending.pop()
        if name in loaded or name not in modules:
            continue
        loaded.add(name)
        for target in modules[name].loads:
            parts = target.split(".")
            # Loading a.b.c loads its packages a and a.b first.
            pending.extend(".".join(parts[:i])
                           for i in range(1, len(parts) + 1))
    return loaded


def _paper_map(root: str) -> tuple[set[str], set[str]]:
    """(backticked names, backticked ``src/repro/`` paths) of the map."""
    with open(os.path.join(root, PAPER_MAP), encoding="utf-8") as handle:
        spans = _BACKTICKED.findall(handle.read())
    names = {token for span in spans if "/" not in span
             for token in _IDENTIFIER.findall(span)}
    paths = {span for span in spans if span.startswith(PACKAGE_DIR + "/")}
    return names, paths
