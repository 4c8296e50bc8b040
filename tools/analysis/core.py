"""The analysis framework: file model, checker plugins, suppressions.

Design constraints, in order:

* **One parse per file.**  Every checker sees the same ``ast`` tree (and
  tokenized comment map); adding a checker never adds a parse.
* **Checkers are plugins.**  A checker subclasses :class:`Checker`,
  declares a rule id, and implements :meth:`Checker.check_file`.
* **Suppressions carry a reason and a finding.**  ``# lint:
  disable=<rule> -- <why>`` on the offending line (or the statement's
  first line) silences that rule there, and is the only way to exempt a
  finding.  A disable *without* a reason, or one that silences nothing,
  is itself reported under the ``suppression`` pseudo-rule, so
  exemptions stay auditable and never outlive their finding.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable

#: Matches one suppression comment.  Reason is everything after ``--``.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Suppression:
    """One parsed ``# lint: disable=...`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str | None
    used: set[str] = field(default_factory=set)


class FileContext:
    """Everything a checker may want about one source file.

    Parsed exactly once by the driver; checkers must not re-read or
    re-parse.  ``relpath`` is repo-root-relative with forward slashes so
    findings are machine-independent.
    """

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.tree = ast.parse(source, filename=relpath)
        self.module_name = module_name_of(relpath)
        self.suppressions = _collect_suppressions(source)

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        """The suppression covering ``rule`` at ``line``, if any."""
        for sup in self.suppressions:
            if sup.line == line and rule in sup.rules:
                return sup
        return None

    def lazy_import_lines(self) -> set[int]:
        """Line numbers of imports nested inside function bodies."""
        lazy: set[int] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        lazy.add(sub.lineno)
        return lazy


def module_name_of(relpath: str) -> str:
    """Dotted module name for a repo-relative path (src-layout aware)."""
    path = relpath.replace(os.sep, "/")
    if path.startswith("src/"):
        path = path[len("src/"):]
    if path.endswith("/__init__.py"):
        path = path[: -len("/__init__.py")]
    elif path.endswith(".py"):
        path = path[: -len(".py")]
    return path.replace("/", ".")


def _collect_suppressions(source: str) -> list[Suppression]:
    """Parse suppression comments with the tokenizer (no false hits in
    strings)."""
    result: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            rules = tuple(
                r.strip() for r in match.group("rules").split(",") if r.strip()
            )
            result.append(
                Suppression(line=tok.start[0], rules=rules,
                            reason=match.group("reason"))
            )
    except tokenize.TokenError:
        pass
    return result


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`rule`, the id used in suppressions and output.
    """

    rule: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Per-file pass; yield findings for this file only."""
        return ()


@dataclass
class AnalysisResult:
    findings: list[Finding]
    suppressed: list[tuple[Finding, str | None]]
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


class AnalysisDriver:
    """Parse once, run every checker, apply suppressions."""

    def __init__(self, checkers: Iterable[Checker]) -> None:
        self.checkers = list(checkers)

    def run(self, root: str, paths: Iterable[str]) -> AnalysisResult:
        files = []
        for path in sorted(set(paths)):
            relpath = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                files.append(FileContext(relpath, handle.read()))

        findings: list[Finding] = []
        suppressed: list[tuple[Finding, str | None]] = []
        for ctx in files:
            for checker in self.checkers:
                for finding in checker.check_file(ctx):
                    sup = ctx.suppression_for(finding.rule, finding.line)
                    if sup is None:
                        findings.append(finding)
                        continue
                    sup.used.add(finding.rule)
                    suppressed.append((finding, sup.reason))
                    if not sup.reason:
                        findings.append(Finding(
                            rule="suppression", path=ctx.relpath,
                            line=sup.line,
                            message=(f"suppression of '{finding.rule}' has "
                                     "no reason; write '# lint: disable="
                                     f"{finding.rule} -- <why>'"),
                        ))
            # A rule this driver did not run counts as unused too: the
            # CLI always runs every rule, so that is a stale rule id.
            for sup in ctx.suppressions:
                findings.extend(
                    Finding(rule="suppression", path=ctx.relpath,
                            line=sup.line,
                            message=(f"suppression of '{rule}' silences no "
                                     "finding; delete it"))
                    for rule in sup.rules if rule not in sup.used)

        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return AnalysisResult(findings=findings, suppressed=suppressed,
                              files_checked=len(files))
