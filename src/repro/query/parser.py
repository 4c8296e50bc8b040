"""A datalog-style parser for the unified query surface.

The accepted grammar is a single rule::

    query      := [ head ( ":-" | "<-" ) ] body [ order ] [ limit ] [ "." ]
    head       := IDENT "(" [ headterm { "," headterm } ] ")"
    headterm   := IDENT | AGG "(" ( "*" | IDENT ) ")" [ "AS" IDENT ]
    body       := item { "," item }
    item       := atom | comparison
    atom       := IDENT "(" term { "," term } ")"
    term       := IDENT | INT | STRING
    comparison := ( IDENT | INT | STRING ) CMPOP ( IDENT | INT | STRING )
    order      := "ORDER" "BY" key { "," key }
    key        := IDENT [ "ASC" | "DESC" ]
    limit      := "LIMIT" INT

so plain full conjunctive queries (``R(A,B), S(B,C)``), projections
(``Q(A) :- R(A,B)``), constants (``S(B, 5)``, ``T(A, 'x')``), comparison
selections (``A < B``, ``A != 3``; ``=`` is a synonym of ``==``),
aggregate heads (``Q(A, COUNT(*))``, ``Q(A, SUM(X) AS total)``) and
ordered / top-k trailers (``... ORDER BY B DESC, A LIMIT 10``) all parse.
``AGG`` is any registered semiring aggregate, case-insensitive; the
``ORDER BY`` / ``LIMIT`` / ``ASC`` / ``DESC`` keywords are recognized
case-insensitively in trailer position only (a body atom or variable may
still be named ``limit``).

:func:`parse_query` returns a plain
:class:`~repro.query.atoms.ConjunctiveQuery` whenever the text stays inside
the classical fragment (variables only, no selections/aggregates), and a
rich :class:`~repro.query.builder.Query` otherwise — both are accepted
everywhere the engine takes a query.

Errors are :class:`~repro.errors.ParseError` with the 1-based line and
column of the offending token, and dangling text after the rule (including
a trailing comma) is always rejected.

No decision of the parser reads a literal's value, which is what the
engine's shape cache rests on: :func:`text_shape` reduces a text to its
token sequence with the literals lifted out, and :func:`parse_template`
parses a text once into a :class:`QueryTemplate` that binds the literals
of any text of the same shape.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple, Union

from repro.errors import ParseError
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import Query, QueryAtom
from repro.query.semiring import SEMIRINGS, Aggregate
from repro.query.terms import Comparison, Constant, comparison

_CMP_OPS = ("<=", ">=", "==", "!=", "=", "<", ">")
_ARROWS = (":-", "<-")

#: The tokenizer: one alternation, tried in order at each position.
#: ``\s``, ``\w`` and ``\d`` accept what ``str.isspace``,
#: ``str.isalnum`` (or ``_``) and ``str.isdecimal`` accept.  A ``<``
#: directly before a negative number is a comparison, never the ``<-``
#: arrow (relation names cannot start with a digit), as in ``B<-3``.  An
#: identifier starts with a letter or ``_``; :func:`_tokenize` rejects a
#: numeric non-letter (``½``) the pattern lets through.  ``bad`` is any
#: other character, an unterminated quote included.
_TOKEN_RE = re.compile(r"""
    \s+
  | (?P<ident> [^\W\d]\w* )
  | (?P<int> -?\d+ )
  | (?P<string> '[^'\n]*' | "[^"\n]*" )
  | (?P<op> <(?=-\d) | :- | <- | <= | >= | == | != | [=<>(),.*] )
  | (?P<bad> . )
""", re.VERBOSE)


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | an operator literal | "end"
    value: Any
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind is None:  # whitespace
            breaks = value.count("\n")
            if breaks:
                line += breaks
                line_start = match.start() + value.rindex("\n") + 1
            continue
        column = match.start() - line_start + 1
        if kind == "int":
            value = int(value)
        elif kind == "string":
            value = value[1:-1]
        elif kind == "op":
            kind = value
        elif kind == "bad" or not (value[0].isalpha() or value[0] == "_"):
            # A stray character, or an identifier that does not start
            # with a letter or ``_``.
            char = value[0]
            if char in "'\"":
                raise ParseError(f"unterminated string starting with {char}",
                                 line, column)
            raise ParseError(f"unexpected character {char!r}", line, column)
        tokens.append(_Token(kind, value, line, column))
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------
    def peek(self, ahead: int = 0) -> _Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def advance(self) -> _Token:
        token = self.peek()
        if token.kind != "end":
            self._pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            self.fail(f"expected {what}, found {self._describe(token)}", token)
        return self.advance()

    @staticmethod
    def _describe(token: _Token) -> str:
        if token.kind == "end":
            return "end of input"
        if token.kind in ("ident", "int", "string"):
            return f"{token.kind} {token.value!r}"
        return repr(token.kind)

    def fail(self, message: str, token: _Token | None = None) -> None:
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    # -- grammar --------------------------------------------------------
    def parse_operand(self) -> Any:
        token = self.peek()
        if token.kind == "ident":
            return self.advance().value
        if token.kind == "int":
            return Constant(self.advance().value)
        if token.kind == "string":
            return Constant(self.advance().value)
        self.fail(f"expected a variable or constant, found "
                  f"{self._describe(token)}", token)

    def parse_comparison(self) -> Comparison:
        lhs = self.parse_operand()
        op_token = self.peek()
        if op_token.kind not in _CMP_OPS:
            self.fail(f"expected a comparison operator after {lhs}, found "
                      f"{self._describe(op_token)}", op_token)
        self.advance()
        rhs = self.parse_operand()
        return comparison(lhs, op_token.kind, rhs)

    def parse_atom(self) -> QueryAtom:
        name = self.expect("ident", "a relation name")
        self.expect("(", "'('")
        if self.peek().kind == ")":
            self.fail(f"atom {name.value!r} has no terms")
        terms = [self.parse_operand()]
        while self.peek().kind == ",":
            self.advance()
            terms.append(self.parse_operand())
        self.expect(")", "')' closing the atom")
        return QueryAtom(name.value, terms)

    def parse_body(self) -> tuple[list[QueryAtom], list[Comparison]]:
        atoms: list[QueryAtom] = []
        selections: list[Comparison] = []
        while True:
            token = self.peek()
            if token.kind == "ident" and self.peek(1).kind == "(":
                atoms.append(self.parse_atom())
            else:
                selections.append(self.parse_comparison())
            if self.peek().kind != ",":
                break
            self.advance()
        if not atoms:
            self.fail("the query body has no atoms, only comparisons")
        return atoms, selections

    def parse_head_term(self) -> Union[str, Aggregate]:
        name = self.expect("ident", "a head variable or aggregate")
        if self.peek().kind != "(":
            return name.value
        kind = name.value.lower()
        if kind not in SEMIRINGS:
            self.fail(f"unknown aggregate {name.value!r}; expected one of "
                      f"{sorted(s.upper() for s in SEMIRINGS)}", name)
        self.advance()  # '('
        token = self.peek()
        var: str | None
        if token.kind == "*":
            self.advance()
            var = None
        elif token.kind == "ident":
            var = self.advance().value
        elif token.kind == ")" and not SEMIRINGS[kind].needs_variable:
            var = None
        else:
            self.fail(f"expected a variable or '*' inside {name.value}(...), "
                      f"found {self._describe(token)}", token)
        self.expect(")", f"')' closing {name.value}(...)")
        if SEMIRINGS[kind].needs_variable and var is None:
            self.fail(f"aggregate {name.value} needs a variable argument", name)
        alias = f"{kind}_{var}" if var is not None else kind
        if (self.peek().kind == "ident"
                and str(self.peek().value).lower() == "as"):
            self.advance()
            alias = self.expect("ident", "an alias after AS").value
        return Aggregate(kind, var, alias)

    def parse_head(self) -> tuple[str, list[str], list[Aggregate]]:
        name = self.expect("ident", "the query name")
        self.expect("(", "'(' after the query name")
        head_vars: list[str] = []
        aggregates: list[Aggregate] = []
        if self.peek().kind != ")":
            while True:
                term_token = self.peek()
                term = self.parse_head_term()
                if isinstance(term, Aggregate):
                    aggregates.append(term)
                else:
                    if aggregates:
                        # Output columns are always head variables then
                        # aggregate aliases; accepting an interleaved head
                        # would silently reorder what the user wrote.
                        self.fail(
                            f"head variable {term!r} follows an aggregate; "
                            "write plain head variables before aggregates",
                            term_token)
                    head_vars.append(term)
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect(")", "')' closing the head")
        return name.value, head_vars, aggregates

    def _keyword(self, word: str, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return (token.kind == "ident"
                and str(token.value).lower() == word)

    def parse_trailer(self) -> tuple[list[tuple[str, bool]], int | None]:
        """The optional ``ORDER BY ... LIMIT n`` trailer after the body.

        Errors inside the trailer point at the offending token: a
        dangling comma swallowing the ``LIMIT`` keyword as a column name
        would otherwise surface as a confusing "dangling text: int"
        error at the limit *count*, one token too late.
        """
        order_by: list[tuple[str, bool]] = []
        if self._keyword("order") and self._keyword("by", 1):
            self.advance()
            self.advance()
            while True:
                token = self.peek()
                if self._keyword("limit") and self.peek(1).kind == "int":
                    # ``ORDER BY A, LIMIT 3``: the LIMIT clause cannot
                    # double as a sort column.  (A genuine column named
                    # ``limit`` is still fine — it is only rejected when
                    # directly followed by a count, where the user
                    # plainly meant the clause.)
                    self.fail(
                        "expected an ORDER BY column, found the LIMIT "
                        "clause (dangling comma in ORDER BY?)", token)
                column = self.expect("ident", "an ORDER BY column").value
                descending = False
                if self._keyword("asc"):
                    self.advance()
                elif self._keyword("desc"):
                    self.advance()
                    descending = True
                order_by.append((column, descending))
                if self.peek().kind != ",":
                    break
                self.advance()
        limit: int | None = None
        if self._keyword("limit"):
            self.advance()
            token = self.expect("int", "a LIMIT count")
            if token.value < 0:
                self.fail(f"LIMIT must be non-negative, got {token.value}",
                          token)
            limit = token.value
        return order_by, limit

    def expect_end(self) -> None:
        if self.peek().kind == ".":
            self.advance()
        token = self.peek()
        if token.kind != "end":
            self.fail(f"dangling text after the query: "
                      f"{self._describe(token)}", token)


def _has_arrow(tokens: list[_Token]) -> bool:
    return any(t.kind in _ARROWS for t in tokens)


def parse_query(text: str) -> ConjunctiveQuery | Query:
    """Parse a datalog-style rule.

    Returns a classical :class:`ConjunctiveQuery` for texts inside the
    variables-only fragment, and a rich :class:`Query` when constants,
    selections, or aggregates appear.

    Examples
    --------
    >>> q = parse_query("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).")
    >>> q.variables
    ('A', 'B', 'C')
    >>> rich = parse_query("Q(A) :- R(A,B), S(B,5), A < B")
    >>> rich.output_columns
    ('A',)
    >>> top = parse_query("Q(A,B) :- R(A,B) ORDER BY B DESC, A LIMIT 3")
    >>> top.order_by, top.limit
    ((('B', True), ('A', False)), 3)
    """
    if not text.strip():
        raise ParseError("empty query text")
    return _parse(_tokenize(text))


def _parse(tokens: list[_Token]) -> ConjunctiveQuery | Query:
    parser = _Parser(tokens)
    name = "Q"
    head_vars: list[str] = []
    aggregates: list[Aggregate] = []
    explicit_head = False
    if _has_arrow(parser._tokens):
        name, head_vars, aggregates = parser.parse_head()
        token = parser.peek()
        if token.kind not in _ARROWS:
            parser.fail(f"expected ':-' after the query head, found "
                        f"{parser._describe(token)}", token)
        parser.advance()
        explicit_head = bool(head_vars or aggregates)
    atoms, selections = parser.parse_body()
    order_by, limit = parser.parse_trailer()
    parser.expect_end()

    plain = (not selections and not aggregates
             and not order_by and limit is None
             and all(isinstance(t, str) for atom in atoms for t in atom.terms)
             and all(len(set(atom.terms)) == len(atom.terms) for atom in atoms))
    if plain:
        return ConjunctiveQuery(
            [Atom(a.relation, a.variables) for a in atoms],
            head=head_vars if explicit_head else None,
            name=name,
        )
    return Query(
        atoms,
        selections=selections,
        head=head_vars if explicit_head else None,
        aggregates=aggregates,
        order_by=order_by,
        limit=limit,
        name=name,
    )


class _Slot:
    """The value of the ``index``-th literal of a query text, unbound."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"?{self.index}"


def text_shape(text: str) -> tuple[tuple, list]:
    """The shape of a query text and its literal values, in one scan.

    The shape is the token sequence with every literal replaced by its
    type (``int`` or ``str``, the types themselves, so no token can
    collide with them); whitespace is not a token.  The parser's every
    decision reads token kinds, never a literal's value, so texts of one
    shape parse alike and differ only in their constants.  The one
    exception is the ``LIMIT`` count (a negative one is an error): it
    stays in the shape as written, so each count is its own shape.

    A text the parser rejects gets a shape too; it never equals the shape
    of a text the parser accepts.

    >>> text_shape("Q(C) :- R(5, B), S(B, 'x')")[1]
    [5, 'x']
    >>> text_shape("Q(C) :- R(5, B)")[0] == text_shape("Q(C):-R(7,B)")[0]
    True
    """
    shape: list = []
    literals: list = []
    for ident, number, string, op, bad in _TOKEN_RE.findall(text):
        token = ident or op or bad
        if token:
            shape.append(token)
        elif number:
            previous = shape[-1] if shape else None
            if isinstance(previous, str) and previous.lower() == "limit":
                shape.append(number)
            else:
                shape.append(int)
                literals.append(int(number))
        elif string:
            shape.append(str)
            literals.append(string[1:-1])
    return tuple(shape), literals


class QueryTemplate:
    """A parsed query whose literals are numbered slots.

    :meth:`bind` fills the slots with one text's literal values (as
    :func:`text_shape` lists them).  Only the fields that hold a constant
    are rebuilt: the atoms with a constant term, and the selections
    comparing against one, lowered ``== constant`` selections included.
    Everything else — the lowered core, the head, aggregates, ORDER BY,
    LIMIT, the name — reads no literal value, so the bound query shares
    it with the template, and every check of ``Query.__init__`` (none
    reads a value) holds for the bound query as it did for the template.
    """

    __slots__ = ("query", "_atoms", "_selections")

    def __init__(self, query: Query):
        self.query = query
        self._atoms = tuple(
            i for i, atom in enumerate(query.atoms)
            if any(isinstance(t, Constant) for t in atom.terms))
        self._selections = tuple(
            i for i, sel in enumerate(query.all_selections)
            if isinstance(sel.rhs, Constant))

    def bind(self, literals: list) -> Query:
        """The query the template's text parses to with ``literals``."""
        template = self.query
        if not self._atoms and not self._selections:
            return template
        atoms = list(template.atoms)
        for i in self._atoms:
            atom = atoms[i]
            atoms[i] = QueryAtom(atom.relation, [
                Constant(literals[t.value.index])
                if isinstance(t, Constant) else t for t in atom.terms])
        selections = list(template.all_selections)
        for i in self._selections:
            sel = selections[i]
            selections[i] = Comparison(
                sel.lhs, sel.op, Constant(literals[sel.rhs.value.index]))
        query = Query.__new__(Query)
        query.__dict__.update(template.__dict__)
        query.atoms = tuple(atoms)
        query.all_selections = tuple(selections)
        query.selections = query.all_selections[:len(template.selections)]
        return query


def parse_template(text: str) -> QueryTemplate:
    """The :class:`QueryTemplate` of a query text.

    The text's tokens are parsed with each literal that
    :func:`text_shape` lifts replaced by a :class:`_Slot`.  No parser
    decision reads a literal's value, so the parse takes the path
    :func:`parse_query` takes on the text, and binding the text's own
    literals gives the query :func:`parse_query` returns (as a
    :class:`Query`).  It fails where :func:`parse_query` fails, but its
    error may show a slot (``?0``) where the text has a literal: take
    the error from :func:`parse_query`.
    """
    tokens = _tokenize(text)
    shape, _literals = text_shape(text)
    slots = 0
    for position, kind in enumerate(shape):
        if kind is int or kind is str:
            tokens[position] = tokens[position]._replace(value=_Slot(slots))
            slots += 1
    return QueryTemplate(Query.coerce(_parse(tokens)))


def parse_condition(text: str) -> Comparison:
    """Parse a single comparison like ``"A < B"`` or ``"A != 3"``."""
    if not text.strip():
        raise ParseError("empty condition text")
    parser = _Parser(_tokenize(text))
    result = parser.parse_comparison()
    token = parser.peek()
    if token.kind != "end":
        parser.fail(f"dangling text after the condition: "
                    f"{parser._describe(token)}", token)
    return result
