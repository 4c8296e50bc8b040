"""Rule ``counter-honesty``: tuple loops in the measured packages charge.

The benchmark gates (`bench_hybrid_skew`, `bench_faq_factorization`,
`bench_ivm_delta`, ...) compare **operation counts**, the same series
Ngo's survey states its results in.  Those counts are only as honest as
the charging convention: every loop that walks relation tuples inside
``repro.joins``, ``repro.columnar`` and ``repro.relational.operators``
(the hash join binary plans run) must charge an
:class:`~repro.joins.instrumentation.OperationCounter` *on its path* —
one uncharged loop silently deflates a strategy's measured work and
inflates its gate ratio.

A ``for`` statement or comprehension is *tuple-iterating* when its
iterable reads a recognizable tuple source: a ``.tuples``/``.rows``
attribute, a name like ``rows``/``left_rows``/``relation``, a subscript
of a ``relations`` container, or such an expression behind ``sorted`` /
``enumerate``-style wrappers.  The loop satisfies the rule when

* a ``charge(...)`` call appears in the loop body, or
* the enclosing function charges in bulk, referencing the iterable
  (``counter.charge(tuples_scanned=len(rows))`` before/after the loop)
  or a collection the loop builds (``len(out)`` after an append loop).

``attribute(...)``/``phase(...)`` do **not** satisfy the rule: breakdown
entries re-slice work, they are excluded from ``total()``.

The columnar backend's folds are loops in disguise: a segment reduction
(``np.add.reduceat``, ``np.bincount``) walks every frontier row exactly
like the python eliminator's per-tuple ⊕ calls.  Calls to those fold
primitives are therefore held to the same rule — the enclosing function
must charge referencing one of the arrays the fold reads.

A materialising builtin is a loop too: ``set(x)`` / ``frozenset(x)`` /
``sorted(x)`` / ``list(x)`` / ``dict.fromkeys(x)`` walks all of ``x``
with no ``for`` in sight.  Inside ``repro.joins`` such a call on a
*per-node value source* — a trie node's ``sorted_keys`` or a
``.values(prefix)`` read — runs once per search node, so it is held to
the same rule (it is how an intersection that charged ``len(smallest)``
rebuilt a hash set of every *other* list at every node under a clean
lint).

Purely structural walks (building an index keyed by tuples already
charged elsewhere) that genuinely must not double-charge get an inline
``# lint: disable=counter-honesty -- <why>``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.analysis.core import Checker, FileContext, Finding

#: Attribute names that read tuple storage.
TUPLE_ATTRS = frozenset({"tuples"})

#: Variable names (exact, or as ``*_<name>`` suffix) holding tuple
#: sequences or Relation objects.
TUPLE_NAMES = frozenset({"tuples", "rows", "relation"})

#: Containers whose subscript yields a Relation / tuple sequence.
TUPLE_CONTAINERS = frozenset({"relations"})

#: Builtins that pass tuple-ness through to their arguments.
TRANSPARENT_WRAPPERS = frozenset({
    "sorted", "list", "tuple", "set", "enumerate", "reversed", "iter",
    "zip",
})

#: Vectorized segment-fold primitives: one call = one pass over tuples.
VECTORIZED_FOLDS = frozenset({"reduceat", "bincount"})

#: Calls that walk their whole argument to build a collection.
MATERIALIZERS = frozenset({"set", "frozenset", "sorted", "list", "fromkeys"})

#: The packages whose operation counts the benchmark gates compare, and
#: the relational operators module, whose hash-join loop binary plans run.
MEASURED_PACKAGES = ("repro.joins", "repro.columnar",
                     "repro.relational.operators")

#: Where the per-search-node value lists of the WCOJ kernels live, and
#: the one package whose functions run once per search node.
NODE_VALUE_PREFIX = "repro.joins"
NODE_VALUE_ATTRS = frozenset({"sorted_keys"})

_LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.GeneratorExp,
          ast.DictComp)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class CounterHonestyChecker(Checker):
    rule = "counter-honesty"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not any(ctx.module_name == p or ctx.module_name.startswith(p + ".")
                   for p in MEASURED_PACKAGES):
            return
        # Instrumentation defines the counters; it has no join loops.
        if ctx.module_name.endswith(".instrumentation"):
            return
        per_node = (ctx.module_name + ".").startswith(NODE_VALUE_PREFIX + ".")
        for func in self._functions(ctx.tree):
            charged_names = _names_charged_in(func)
            has_any_charge = _contains_charge(func)
            comp_targets = _comprehension_targets(func)
            for loop, iterable in self._tuple_loops(func):
                if _contains_charge(loop):
                    continue
                roots = _read_names(iterable)
                built = _built_collections(loop)
                built |= comp_targets.get(id(loop), set())
                if has_any_charge and (roots & charged_names
                                       or built & charged_names):
                    continue
                yield Finding(
                    rule=self.rule, path=ctx.relpath, line=loop.lineno,
                    message=(f"{func.name}: loop over relation tuples "
                             f"({ast.unparse(iterable)}) never charges an "
                             "OperationCounter on its path"),
                )
            for call, roots in (self._materialisations(func) if per_node
                                else ()):
                if has_any_charge and roots & charged_names:
                    continue
                yield Finding(
                    rule=self.rule, path=ctx.relpath, line=call.lineno,
                    message=(f"{func.name}: {ast.unparse(call)} walks a "
                             "per-node value list but never charges an "
                             "OperationCounter on its path"),
                )
            for call in self._vectorized_folds(func):
                reads = _read_names(call) - VECTORIZED_FOLDS - {"np", "numpy"}
                if has_any_charge and reads & charged_names:
                    continue
                yield Finding(
                    rule=self.rule, path=ctx.relpath, line=call.lineno,
                    message=(f"{func.name}: vectorized fold "
                             f"({ast.unparse(call.func)}) walks every "
                             "frontier row but never charges an "
                             "OperationCounter on its path"),
                )

    def _functions(self, tree: ast.AST):
        for node in ast.walk(tree):
            if isinstance(node, _FUNCS):
                yield node

    def _tuple_loops(self, func: ast.AST):
        """Tuple-iterating loops belonging directly to ``func`` (loops in
        nested functions are reported against the nested function)."""
        for node in _walk_same_function(func):
            if isinstance(node, ast.For):
                if _is_tuple_source(node.iter):
                    yield node, node.iter
            elif isinstance(node, _LOOPS):
                for gen in node.generators:
                    if _is_tuple_source(gen.iter):
                        yield node, gen.iter
                        break

    def _materialisations(self, func: ast.AST):
        """``(call, names a bulk charge may reference)`` for materialising
        calls on per-node value sources directly inside ``func``."""
        for node in _walk_same_function(func):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name in MATERIALIZERS and _is_node_values(node.args[0]):
                yield node, _read_names(node.args[0])

    def _vectorized_folds(self, func: ast.AST):
        for node in _walk_same_function(func):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in VECTORIZED_FOLDS:
                yield node


def _walk_same_function(func: ast.AST):
    """Walk ``func``'s body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCS):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_tuple_source(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Attribute):
        return (expr.attr in TUPLE_ATTRS
                or _name_is_tuple_like(expr.attr))
    if isinstance(expr, ast.Name):
        return _name_is_tuple_like(expr.id)
    if isinstance(expr, ast.Subscript):
        value = expr.value
        if isinstance(value, ast.Name) and value.id in TUPLE_CONTAINERS:
            return True
        if isinstance(value, ast.Attribute) and value.attr in TUPLE_CONTAINERS:
            return True
        return False
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in TRANSPARENT_WRAPPERS:
            return any(_is_tuple_source(a) for a in expr.args)
        return False
    if isinstance(expr, ast.IfExp):
        return _is_tuple_source(expr.body) or _is_tuple_source(expr.orelse)
    if isinstance(expr, ast.BoolOp):
        return any(_is_tuple_source(v) for v in expr.values)
    return False


def _is_node_values(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Attribute):
        return expr.attr in NODE_VALUE_ATTRS
    if isinstance(expr, ast.Call):  # trie.values(prefix); not dict.values()
        f = expr.func
        return (isinstance(f, ast.Attribute) and f.attr == "values"
                and bool(expr.args))
    return False


def _name_is_tuple_like(name: str) -> bool:
    if name in TUPLE_NAMES:
        return True
    return any(name.endswith("_" + t) for t in TUPLE_NAMES)


def _contains_charge(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr == "charge":
                return True
            if isinstance(func, ast.Name) and func.id == "charge":
                return True
    return False


def _names_charged_in(func: ast.AST) -> set[str]:
    """Names referenced inside the arguments of charge calls in ``func``."""
    names: set[str] = set()
    for sub in _walk_same_function(func):
        if not isinstance(sub, ast.Call):
            continue
        f = sub.func
        is_charge = (isinstance(f, ast.Attribute) and f.attr == "charge") or \
                    (isinstance(f, ast.Name) and f.id == "charge")
        if not is_charge:
            continue
        for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
            names |= _read_names(arg)
    return names


def _read_names(expr: ast.AST) -> set[str]:
    """All terminal identifiers read by an expression (attr chains bottom
    out at their root name; ``len(rows)`` contributes ``rows``)."""
    names: set[str] = set()
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    names -= TRANSPARENT_WRAPPERS | {"len"}
    return names


def _comprehension_targets(func: ast.AST) -> dict[int, set[str]]:
    """Map comprehension node ids to the names their results are bound to
    (``out = [... for t in rows]`` makes a later ``len(out)`` charge count
    for that comprehension)."""
    targets: dict[int, set[str]] = {}
    for sub in _walk_same_function(func):
        if not isinstance(sub, ast.Assign):
            continue
        names = {t.id for t in sub.targets if isinstance(t, ast.Name)}
        if not names:
            continue
        for comp in ast.walk(sub.value):
            if isinstance(comp, _LOOPS):
                targets.setdefault(id(comp), set()).update(names)
    return targets


def _built_collections(loop: ast.AST) -> set[str]:
    """Names of collections a loop visibly builds (append/add/update or
    subscript assignment) — a bulk charge on those counts as the loop's
    charge."""
    built: set[str] = set()
    for sub in ast.walk(loop):
        if isinstance(sub, ast.Call):
            f = sub.func
            if isinstance(f, ast.Attribute) and f.attr in ("append", "add",
                                                           "update",
                                                           "extend"):
                built |= _read_names(f.value)
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            for tgt in targets:
                if isinstance(tgt, ast.Subscript):
                    built |= _read_names(tgt.value)
    return built
