"""The analysis framework: file model, checker plugins, suppressions.

Design constraints, in order:

* **One parse per file.**  Every checker sees the same ``ast`` tree (and
  tokenized comment map); adding a checker never adds a parse.
* **Checkers are plugins.**  A checker subclasses :class:`Checker`,
  declares a rule id, and implements :meth:`Checker.check_file`.
* **Suppressions carry a reason.**  ``# lint: disable=<rule> -- <why>``
  on the offending line (or the statement's first line) silences that
  rule there; a disable *without* a reason is itself reported under the
  ``suppression`` pseudo-rule, so exemptions stay auditable.
* **Baseline, not amnesty.**  ``baseline.json`` holds fingerprints of
  findings that predate a rule; baselined findings are reported as
  suppressed counts, never as failures.  The acceptance bar for the
  benchmark-bearing packages (``repro.joins``, ``repro.columnar``) is a
  baseline with zero entries — see ``tools/analysis/__main__.py``.

Exit codes (stable, for CI): 0 = clean, 1 = unsuppressed findings,
2 = usage or internal error.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable, Iterator

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

    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file.

        Baselines must survive unrelated edits above the finding, so the
        fingerprint is (rule, path, message) — messages name the symbol
        they anchor to, which keeps collisions rare in practice.
        """
        return f"{self.rule}::{self.path}::{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class Suppression:
    """One parsed ``# lint: disable=...`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str | None
    used: bool = False


class FileContext:
    """Everything a checker may want about one source file.

    Parsed exactly once by the driver; checkers must not re-read or
    re-parse.  ``relpath`` is repo-root-relative with forward slashes so
    findings and baselines are machine-independent.
    """

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.source = source
        self.tree = ast.parse(source, filename=relpath)
        self.lines = source.splitlines()
        self.module_name = _module_name(relpath)
        self.suppressions = _collect_suppressions(source)
        self._suppressed_lines: dict[int, list[Suppression]] = {}
        for sup in self.suppressions:
            self._suppressed_lines.setdefault(sup.line, []).append(sup)

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        """The suppression covering ``rule`` at ``line``, if any."""
        for sup in self._suppressed_lines.get(line, ()):
            if rule in sup.rules:
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


def _module_name(relpath: str) -> str:
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

    Subclasses set :attr:`rule` (the id used in suppressions, output,
    and the baseline) and :attr:`contract` (one sentence: the invariant
    this rule enforces — surfaced by ``--list-rules`` and the docs).
    """

    rule: str = ""
    contract: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Per-file pass; yield findings for this file only."""
        return ()


@dataclass
class AnalysisResult:
    findings: list[Finding]
    suppressed: list[tuple[Finding, str | None]]
    baselined: list[Finding]
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


class AnalysisDriver:
    """Parse once, run every checker, apply suppressions and baseline."""

    def __init__(self, checkers: Iterable[Checker],
                 baseline: set[str] | None = None) -> None:
        self.checkers = list(checkers)
        self.baseline = baseline or set()

    def run(self, root: str, paths: Iterable[str]) -> AnalysisResult:
        files = []
        for path in sorted(set(paths)):
            relpath = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            files.append(FileContext(relpath, source))
        by_path = {ctx.relpath: ctx for ctx in files}

        raw: list[Finding] = []
        for checker in self.checkers:
            for ctx in files:
                raw.extend(checker.check_file(ctx))

        findings: list[Finding] = []
        suppressed: list[tuple[Finding, str | None]] = []
        baselined: list[Finding] = []
        for finding in raw:
            ctx = by_path.get(finding.path)
            sup = (ctx.suppression_for(finding.rule, finding.line)
                   if ctx is not None else None)
            if sup is not None:
                sup.used = True
                suppressed.append((finding, sup.reason))
                if not sup.reason:
                    findings.append(Finding(
                        rule="suppression",
                        path=finding.path,
                        line=sup.line,
                        message=(f"suppression of '{finding.rule}' has no "
                                 "reason; write '# lint: disable="
                                 f"{finding.rule} -- <why>'"),
                    ))
                continue
            if finding.fingerprint() in self.baseline:
                baselined.append(finding)
                continue
            findings.append(finding)

        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return AnalysisResult(findings=findings, suppressed=suppressed,
                              baselined=baselined,
                              files_checked=len(files))


def load_baseline(path: str) -> set[str]:
    """Load baseline fingerprints; a missing file is an empty baseline."""
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list) or not all(isinstance(e, str) for e in data):
        raise ValueError(
            f"baseline {path!r} must be a JSON list of fingerprint strings"
        )
    return set(data)


def write_baseline(path: str, findings: Iterable[Finding]) -> int:
    """Write the findings' fingerprints as the new baseline; returns the
    entry count."""
    entries = sorted({f.fingerprint() for f in findings})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=2)
        handle.write("\n")
    return len(entries)


def iter_python_files(root: str, subdirs: Iterable[str]) -> Iterator[str]:
    """Yield every ``.py`` file under the given repo-relative subdirs."""
    for sub in subdirs:
        base = os.path.join(root, sub)
        if os.path.isfile(base) and base.endswith(".py"):
            yield base
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames
                           if d not in ("__pycache__", ".git")]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)
