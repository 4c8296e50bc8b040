"""Terms and comparison selections for the rich query surface.

The paper's conjunctive queries mention only variables, but the unified
:class:`repro.query.builder.Query` surface also allows *constants* in atom
positions (``R(A, 5)``) and *comparison selections* between terms
(``A < B``, ``A != 3``).  This module defines the term vocabulary shared by
the parser, the builder, and the engine's pushdown machinery:

* a term is either a variable (a plain ``str`` matching the identifier
  grammar) or a :class:`Constant` wrapping an arbitrary value;
* a :class:`Comparison` is a selection predicate ``lhs op rhs`` whose left
  side is always a variable (constant-vs-constant predicates are folded away
  at construction, and constant-vs-variable ones are mirrored).

Comparisons know how to evaluate themselves against a partial variable
binding and how to render themselves in canonical vocabulary, which is what
lets the plan cache share entries between isomorphic selected queries.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Union

from repro.errors import QueryError

#: The identifier grammar shared with the parser.
VARIABLE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Constant:
    """A constant value appearing in an atom position or a comparison."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


#: A term: a variable name or a constant.
Term = Union[str, Constant]


def make_term(value: Any) -> Term:
    """Coerce a Python value into a term.

    Identifier strings become variables; quoted strings (``"'x'"``) become
    string constants; every non-string value (and any :class:`Constant`)
    becomes / stays a constant.  A non-identifier, non-quoted string is
    rejected rather than guessed at.
    """
    if isinstance(value, Constant):
        return value
    if isinstance(value, str):
        if VARIABLE_RE.match(value):
            return value
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            return Constant(value[1:-1])
        raise QueryError(
            f"string term {value!r} is neither a variable name nor a quoted "
            "constant; write 'text' (quoted) for a string constant"
        )
    return Constant(value)


#: Comparison operators and their evaluation functions.
COMPARISON_OPS: dict[str, Any] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The mirror image of each operator (for flipping operand order).
_MIRROR = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Comparison:
    """A selection predicate ``lhs op rhs``.

    ``lhs`` is always a variable; ``rhs`` is a variable or a
    :class:`Constant`.  Use :func:`comparison` to build one from raw
    operands (it normalizes ``=`` to ``==`` and mirrors constant-first
    predicates).
    """

    lhs: str
    op: str
    rhs: Term

    @property
    def variables(self) -> frozenset[str]:
        """The variables this predicate reads."""
        if isinstance(self.rhs, Constant):
            return frozenset((self.lhs,))
        return frozenset((self.lhs, self.rhs))

    @property
    def is_constant_equality(self) -> bool:
        """True for ``var == constant`` — the strongest pushdown shape."""
        return self.op == "==" and isinstance(self.rhs, Constant)

    def evaluate(self, binding: Mapping[str, Any]) -> bool:
        """Whether the predicate holds under ``binding`` (all vars bound).

        Incomparable value types (e.g. ``1 < "x"``) evaluate to False
        rather than raising — mixed-type columns simply never match, the
        same convention the join algorithms follow.
        """
        left = binding[self.lhs]
        right = self.rhs.value if isinstance(self.rhs, Constant) else binding[self.rhs]
        try:
            return bool(COMPARISON_OPS[self.op](left, right))
        except TypeError:
            return False

    def canonical_str(self, rename: Mapping[str, str]) -> str:
        """Render in canonical variable names, normalized for symmetry.

        ``==``/``!=`` operands are sorted and ``>``/``>=`` are flipped to
        ``<``/``<=`` so that e.g. ``A > B`` and ``B < A`` render identically
        — equal renderings mean equal predicates up to renaming.
        """
        left = rename[self.lhs]
        right = str(self.rhs) if isinstance(self.rhs, Constant) else rename[self.rhs]
        op = self.op
        if op in (">", ">="):
            left, right, op = right, left, _MIRROR[op]
        elif op in ("==", "!=") and not isinstance(self.rhs, Constant):
            left, right = sorted((left, right))
        return f"{left}{op}{right}"

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


def pinned_constants(selections: Iterable[Comparison]) -> dict[str, Any]:
    """Variable -> constant for the ``var == constant`` selections: the
    variables a query pins to one value, with the value pinning each."""
    return {sel.lhs: sel.rhs.value for sel in selections
            if sel.op == "==" and isinstance(sel.rhs, Constant)}


def comparison(lhs: Any, op: str, rhs: Any) -> Comparison:
    """Build a normalized :class:`Comparison` from raw operands.

    Accepts ``=`` as a synonym of ``==``; mirrors the predicate when only
    the right side is a variable; rejects constant-vs-constant predicates
    (they belong in the caller's hands, not the query body).
    """
    if op == "=":
        op = "=="
    if op not in COMPARISON_OPS:
        raise QueryError(
            f"unknown comparison operator {op!r}; "
            f"expected one of {sorted(COMPARISON_OPS)}"
        )
    left, right = make_term(lhs), make_term(rhs)
    if isinstance(left, Constant) and isinstance(right, Constant):
        raise QueryError(
            f"comparison {left} {op} {right} mentions no variables"
        )
    if isinstance(left, Constant):
        left, right, op = right, left, _MIRROR[op]
    assert isinstance(left, str)
    return Comparison(left, op, right)
