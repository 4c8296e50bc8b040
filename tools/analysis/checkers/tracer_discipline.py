"""Rule ``tracer-discipline``: the tracer is a null object, not an option.

The observability layer's overhead gate (``bench_trace_overhead``, CI
bound: disabled tracing costs <5%) holds because an untraced session
carries :data:`repro.obs.trace.NULL_TRACER`: every site is written once
as ``with tracer.span(...)``, the null span is a shared no-op, and only
attribute construction is guarded (``if tracer.enabled:``).  Identity
tests (``tracer is None``) or type tests (``isinstance(tracer, Tracer)``)
reintroduce the optional-tracer style: they invite ``None`` back into
the field, fork the guard idiom across call sites, and make the
overhead bound depend on which guard a site happened to use.

The single allowed seam is ``__init__``, where a constructor maps the
user-facing ``tracer=None`` default onto the null object.  The tracer's
own module is exempt: it defines the null object.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.analysis.core import Checker, FileContext, Finding


def _tracer_like(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Name):
        return "tracer" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "tracer" in expr.attr.lower()
    return False


class TracerDisciplineChecker(Checker):
    rule = "tracer-discipline"
    contract = ("the tracer is a null object: sites guard costly span "
                "attributes with tracer.enabled, never is-None or "
                "isinstance branches")

    def __init__(self, prefixes: tuple[str, ...] = ("repro",),
                 exempt_modules: tuple[str, ...] = ("repro.obs.trace",)
                 ) -> None:
        self.prefixes = prefixes
        self.exempt_modules = exempt_modules

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not any(ctx.module_name == p or ctx.module_name.startswith(p + ".")
                   for p in self.prefixes):
            return
        if ctx.module_name in self.exempt_modules:
            return
        init_spans = _init_line_spans(ctx.tree)
        for node in ast.walk(ctx.tree):
            line = getattr(node, "lineno", None)
            if line is not None and any(a <= line <= b
                                        for a, b in init_spans):
                continue
            if isinstance(node, ast.Compare):
                if any(isinstance(op, (ast.Is, ast.IsNot))
                       for op in node.ops):
                    operands = [node.left] + list(node.comparators)
                    if any(_tracer_like(o) for o in operands):
                        yield Finding(
                            rule=self.rule, path=ctx.relpath,
                            line=node.lineno,
                            message=("identity test on a tracer outside "
                                     "__init__; guard with tracer.enabled "
                                     "(null-object discipline)"),
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "isinstance" \
                        and node.args and (_tracer_like(node.args[0])
                                           or _mentions_tracer_type(node)):
                    yield Finding(
                        rule=self.rule, path=ctx.relpath, line=node.lineno,
                        message=("isinstance test on a tracer outside "
                                 "__init__; guard with tracer.enabled "
                                 "(null-object discipline)"),
                    )


def _mentions_tracer_type(call: ast.Call) -> bool:
    if len(call.args) < 2:
        return False
    for sub in ast.walk(call.args[1]):
        if isinstance(sub, ast.Name) and "tracer" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "tracer" in sub.attr.lower():
            return True
    return False


def _init_line_spans(tree: ast.AST) -> list[tuple[int, int]]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name == "__init__":
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans
