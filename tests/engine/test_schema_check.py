"""One schema check per op, with the errors it always raised, and a query
path that loads no scipy."""

import os
import subprocess
import sys

import pytest

import repro
from repro.engine import Engine
from repro.errors import SchemaError
from repro.joins.generic_join import generic_join_stream
from repro.query.atoms import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.index import TrieIndex
from repro.relational.relation import Relation

ROWS = [(i, (3 * i + 1) % 20) for i in range(40)]


def relations():
    return [Relation(name, attrs, ROWS) for name, attrs in
            (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")))]


@pytest.fixture
def checks(monkeypatch):
    calls = []
    original = ConjunctiveQuery.validate_against

    def counting(self, database):
        calls.append(str(self))
        return original(self, database)

    monkeypatch.setattr(ConjunctiveQuery, "validate_against", counting)
    return calls


@pytest.mark.parametrize("mode", ["auto", "generic", "leapfrog", "binary",
                                  "naive"])
@pytest.mark.parametrize("text", ["Q(C) :- R({k},B), S(B,C)",
                                  "Q(A,C) :- R(A,B), S(B,C), T(A,C)"])
def test_a_warm_op_checks_its_core_once(checks, mode, text):
    # A fresh constant, or the same text with results uncached: a plan hit.
    engine = Engine(relations=relations(), cache_results=False)
    engine.execute(text.format(k=1), mode=mode)
    for k in range(2, 6):
        del checks[:]
        engine.execute(text.format(k=k), mode=mode)
        assert len(checks) == 1, checks


BAD = {
    "Q(A,B,C) :- R(A,B), U(B,C)": "no relation named 'U' in database",
    "Q(A,B,C) :- R(A,B), S(B,C,A)":
        "atom S(B, C, A) has arity 3 but relation 'S' has arity 2",
}


@pytest.mark.parametrize("text", sorted(BAD))
def test_bad_relation_and_arity_keep_type_and_message(text):
    engine = Engine(relations=relations())
    for mode in ("auto", "generic", "binary"):
        with pytest.raises(SchemaError) as through_engine:
            engine.execute(text, mode=mode)
        assert str(through_engine.value) == BAD[text]
    with pytest.raises(SchemaError) as direct:
        list(generic_join_stream(parse_query(text), Database(relations())))
    assert str(direct.value) == BAD[text]


def test_a_partly_given_trie_map_still_checks_the_query():
    query = parse_query("Q(A,B,C) :- R(A,B), S(B,C,A)")
    database = Database(relations())
    tries = {"R": TrieIndex(database.get("R"), ("A", "B"))}
    with pytest.raises(SchemaError, match="arity 3"):
        list(generic_join_stream(query, database, order=("A", "B", "C"),
                                 tries=tries))


def test_a_plan_hit_after_an_arity_change_is_a_schema_error():
    # Same name, same size bucket, one column fewer: the cached plan's
    # index layout would address a column that no longer exists.
    engine = Engine(relations=relations())
    text = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
    engine.execute(text)
    engine.replace_relation(Relation("R", ("A",), [(i,) for i in range(40)]))
    with pytest.raises(SchemaError,
                       match="has arity 2 but relation 'R' has arity 1"):
        engine.execute(text)


def test_engine_queries_load_no_scipy():
    # The AGM bound of every plan miss is one exact simplex solve; one stray
    # LP call would import scipy.optimize, the largest import and memory
    # cost of a cold session, on its first dispatch.
    script = """
import sys
from repro.engine import Engine
from repro.relational.relation import Relation
rows = [(0, 1), (1, 2), (2, 0), (0, 2)]
engine = Engine(relations=[Relation(n, ("X", "Y"), rows) for n in "RST"])
engine.execute("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
engine.execute("Q(A, COUNT(*) AS n) :- R(A,B), S(B,C), T(C,D)")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
