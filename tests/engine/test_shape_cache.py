"""The engine's shape cache: a fresh constant binds a template, it is not
parsed or canonicalized again.

Two contracts are pinned here:

* **agreement** — over every query text of the parser's own tests plus
  generated literal variants, a template bound with a text's literals
  equals ``Query.coerce(text)`` field by field and its canonical form
  equals ``canonical_query``; texts of one shape are all accepted or all
  rejected, and every error the engine raises is the parser's, message
  and position included;
* **count guard** — on the ``point_lookups`` templates, fresh constants
  make no ``parse_query`` and no canonicalization call, and plan the same
  as with the shape cache emptied before every op.
"""

import ast
import random
from pathlib import Path

from repro.engine import Engine
from repro.engine import session as session_module
from repro.engine.cost import PlanAxes
from repro.engine.fingerprint import canonical_query, canonical_shape
from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.query import parser as parser_module
from repro.query.builder import Query
from repro.query.parser import _TOKEN_RE, parse_template, text_shape
from repro.relational.relation import Relation

PARSER_TESTS = ("test_parser.py", "test_parser_ordered.py")

#: Shapes the parser's tests do not cover: repeated and mixed constants,
#: two equalities on one variable (their parameters sort by value), a
#: constant-vs-constant comparison, a literal in the head, and the three
#: ``point_lookups`` templates.
EXTRA = (
    "R(5, 5)",
    "Q(A) :- R(A,B), A = 3, A = 4",
    "Q(A) :- R(A,B), S(B,'x'), A >= -2, B != 'y'",
    "Q(A) :- R(A,B), 3 < 5",
    "Q(5) :- R(A,B)",
    "Q(B,C) :- Ru(7,B), Su(B,C), Tu(7,C)",
    "Q(C) :- Ru(7,B), Su(B,C)",
    "Q(COUNT(*) AS n) :- Ru(7,B)",
)

FIELDS = ("atoms", "selections", "all_selections", "core", "head_vars",
          "aggregates", "order_by", "limit", "name", "fixed_variables",
          "visible_variables", "output_columns")


def corpus() -> list[str]:
    """Every string literal the parser's tests hand to ``parse_query``."""
    texts = []
    for name in PARSER_TESTS:
        path = Path(__file__).parent.parent / "query" / name
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called in ("parse_query", "position_of"):
                texts.append(node.args[0].value)
    return list(dict.fromkeys(texts + list(EXTRA)))


def variant(text: str, rng: random.Random) -> str:
    """``text`` with every literal redrawn, its type and quote kept."""
    pieces, at = [], 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind not in ("int", "string"):
            continue
        if kind == "int":
            new = str(rng.randint(-40, 40))
        else:
            quote = match.group()[0]
            new = quote + "".join(rng.choice("ab z|;=?09")
                                  for _ in range(rng.randint(0, 4))) + quote
        pieces += [text[at:match.start()], new]
        at = match.end()
    return "".join(pieces) + text[at:]


def outcome(call):
    """A call's result, or its error as (type, message, line, column)."""
    try:
        return call()
    except ReproError as error:
        return (type(error), str(error), getattr(error, "line", None),
                getattr(error, "column", None))


def texts_by_shape() -> dict[tuple, list[str]]:
    rng = random.Random(42)
    texts = corpus()
    texts += [variant(text, rng) for text in texts for _ in range(4)]
    groups: dict[tuple, list[str]] = {}
    for text in dict.fromkeys(texts):
        groups.setdefault(text_shape(text)[0], []).append(text)
    return groups


GROUPS = texts_by_shape()


def accepted(text: str) -> bool:
    return not isinstance(outcome(lambda: Query.coerce(text)), tuple)


class TestAgreement:
    def test_the_corpus_covers_shared_and_rejected_shapes(self):
        assert len(corpus()) > 60
        assert any(len(texts) > 1 and accepted(texts[0])
                   for texts in GROUPS.values())
        assert any(not accepted(texts[0]) for texts in GROUPS.values())

    def test_bound_templates_equal_the_parse(self):
        for texts in GROUPS.values():
            verdicts = {accepted(text) for text in texts}
            assert len(verdicts) == 1, texts  # a shape parses alike
            if verdicts == {True}:
                self.check_shape(texts)

    @staticmethod
    def check_shape(texts: list[str]) -> None:
        template = parse_template(texts[0])
        canonical = canonical_shape(template.query)
        for text in texts:
            parsed = Query.coerce(text)
            bound = template.bind(text_shape(text)[1])
            for field in FIELDS:
                assert getattr(bound, field) == getattr(parsed, field), (
                    text, field)
            assert bound == parsed
            assert canonical.bind(bound.all_selections) == \
                canonical_query(parsed), text

    def test_bound_forms_render_as_before(self):
        # Selections sort by their rendering, constants included, so a
        # bound form must re-sort: here 4 then 3, and 10 then 9.
        pinned = {
            "Q(A) :- R(A,B), A = 4, A = 3": (
                "R(v0,v1)=>v0|sel:v0==3;v0==4",
                "R(v0,v1)=>v0|sel:v0==?;v0==?", ("3", "4")),
            "Q(C) :- R(5,B), S(B,C), B < 10, C > 9": (
                "R(v0,v1);S(v1,v2)=>v2|sel:9<v2;v0==5;v1<10",
                "R(v0,v1);S(v1,v2)=>v2|sel:9<v2;v0==?;v1<10", ("5",)),
            "Q(A, COUNT(*)) :- R(A,B), S(B,5), A != 2 ORDER BY A LIMIT 3": (
                "R(v0,v1);S(v1,v2)=>v0|sel:v0!=2;v2==5|agg:count(*)|ord:v0"
                "|lim:3",
                "R(v0,v1);S(v1,v2)=>v0|sel:v0!=2;v2==?|agg:count(*)|ord:v0"
                "|lim:3", ("5",)),
        }
        for text, expected in pinned.items():
            template = parse_template(text.replace("4", "1").replace(
                "10", "0").replace("5", "6"))
            bound = template.bind(text_shape(text)[1])
            canon = canonical_shape(template.query).bind(bound.all_selections)
            assert (canon.form, canon.plan_form, canon.parameters) == expected

    def test_literal_values_leave_the_shape_and_types_stay(self):
        shape, literals = text_shape("Q(C) :- R(5, B), S(B, 'x'), B < -3")
        assert literals == [5, "x", -3]
        assert text_shape("Q(C):-R(6,B),S(B,\"y\"),B<-9")[0] == shape
        assert text_shape("Q(C) :- R('5', B), S(B, 'x'), B < -3")[0] != shape
        # A LIMIT count is part of the shape: it decides acceptance.
        assert text_shape("R(A,B) LIMIT 2")[0] != \
            text_shape("R(A,B) LIMIT 3")[0]
        assert text_shape("R(A,B) LIMIT 2")[1] == []

    def test_engine_errors_are_the_parsers(self):
        engine = Engine(relations=[
            Relation(name, ("x", "y"), [(1, 2), (2, 3)])
            for name in ("R", "S", "T", "LIMIT", "rel_1")])
        texts = [text for group in GROUPS.values() for text in group]
        random.Random(7).shuffle(texts)
        rejected = 0
        for text in texts:
            expected = outcome(lambda: Query.coerce(text))
            if isinstance(expected, tuple):
                rejected += 1
                assert outcome(lambda: engine.explain(text)) == expected
            else:
                outcome(lambda: engine.explain(text))  # warms the shape
        assert rejected > 20
        assert 0 < len(engine._shapes) <= 256


def point_lookups_engine(**options) -> Engine:
    rng = random.Random(3)
    relations = [Relation(name, attrs, {(rng.randrange(40), rng.randrange(40))
                                        for _ in range(160)})
                 for name, attrs in (("Ru", ("A", "B")), ("Su", ("B", "C")),
                                     ("Tu", ("A", "C")))]
    return Engine(relations=relations, cache_results=False, **options)


TEMPLATES = ("Q(B,C) :- Ru({a},B), Su(B,C), Tu({a},C)",
             "Q(C) :- Ru({a},B), Su(B,C)",
             "Q(COUNT(*) AS n) :- Ru({a},B)")


class TestCountGuard:
    def test_fresh_constants_meet_neither_parser_nor_canonicalizer(
            self, monkeypatch):
        # ``_parse`` is the grammar behind both ``parse_query`` and
        # ``parse_template``: a new shape is parsed once, into its
        # template.
        calls = dict.fromkeys(("parse_query", "_parse", "canonical_query",
                               "canonical_shape"), 0)

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(parser_module, "parse_query")
        counted(parser_module, "_parse")
        counted(session_module, "canonical_query")
        counted(session_module, "canonical_shape")
        engine = point_lookups_engine()
        for template in TEMPLATES:
            engine.execute(template.format(a=0))
        warm = {"parse_query": 0, "_parse": 3, "canonical_query": 0,
                "canonical_shape": 3}
        assert calls == warm
        hits = engine.stats.plan_hits
        for a in range(1, 9):
            for template in TEMPLATES:
                engine.execute(template.format(a=a))
        assert calls == warm
        assert engine.stats.plan_hits > hits
        assert len(engine._shapes) == 3

    def test_plans_and_explain_match_the_parser_path(self):
        warm, cold = point_lookups_engine(), point_lookups_engine()
        axes = PlanAxes("auto", "auto", "auto", "python")
        for a in range(12):
            for template in TEMPLATES:
                text = template.format(a=a)
                cold._shapes.clear()  # every op meets the parser
                assert warm.explain(text).render() == \
                    cold.explain(text).render()
                cold._shapes.clear()
                shaped, parsed = warm._prepare(text, axes), \
                    cold._prepare(text, axes)
                reference = Query.coerce(text)
                assert shaped.query == parsed.query == reference
                assert shaped.canon == parsed.canon == \
                    canonical_query(reference)
                assert (shaped.plan, shaped.payload) == \
                    (parsed.plan, parsed.payload)
                assert sorted(warm.execute(text).tuples) == \
                    sorted(cold.execute(text).tuples)
        assert list(warm._plans._entries) == list(cold._plans._entries)
        assert len(warm._shapes) == 3

    def test_the_cache_is_bounded_and_cleared(self):
        engine = point_lookups_engine(plan_cache_size=2)
        texts = [template.format(a=1) for template in TEMPLATES]
        texts += ["Q(A) :- Ru(A,B)", "Q(B) :- Ru(A,B), Su(B,'x')"]
        for text in texts:
            engine.execute(text)
            assert len(engine._shapes) <= 2
        engine.clear_caches()
        assert len(engine._shapes) == 0

    def test_the_parse_span_says_hit_or_miss(self):
        tracer = Tracer()
        engine = point_lookups_engine(tracer=tracer)
        engine.execute(TEMPLATES[1].format(a=1))
        engine.execute(TEMPLATES[1].format(a=2))
        engine.execute(Query.coerce(TEMPLATES[1].format(a=3)))
        parses = [span.attributes for span in tracer.spans
                  if span.name == "parse"]
        assert [p.get("shape") for p in parses] == ["miss", "hit", None]
        assert [p["from_text"] for p in parses] == [True, True, False]
