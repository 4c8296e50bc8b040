"""Atoms and full conjunctive queries.

A full conjunctive query (eq. 25 in the paper) is

    Q(A_[n]) <- AND_{F in E} R_F(A_F)

associated with a multi-hypergraph H = ([n], E).  An :class:`Atom` pairs a
relation name with the tuple of variables it mentions; a
:class:`ConjunctiveQuery` is a list of atoms plus (optionally) an explicit
head variable list.  Queries are *full*: the head contains every variable,
which is the setting all the bounds and algorithms in the paper address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import QueryError, SchemaError
from repro.query.hypergraph import Hypergraph
from repro.relational.database import Database
from repro.relational.relation import Relation


@dataclass(frozen=True)
class Atom:
    """A query atom ``R(X1, ..., Xk)``.

    Attributes
    ----------
    relation:
        Name of the relation symbol.
    variables:
        The variables the atom mentions, in the relation's column order.
        Repeated variables within one atom are not supported (they can be
        simulated with a selection before the join).
    """

    relation: str
    variables: tuple[str, ...]

    def __init__(self, relation: str, variables: Sequence[str]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variables", tuple(variables))
        if len(set(self.variables)) != len(self.variables):
            raise QueryError(
                f"atom {relation}({', '.join(variables)}) repeats a variable; "
                "apply a selection first"
            )
        if not self.variables:
            raise QueryError(f"atom {relation}() has no variables")

    @property
    def variable_set(self) -> frozenset[str]:
        """The set of variables of this atom."""
        return frozenset(self.variables)

    def relation_in(self, database: Database) -> Relation:
        """This atom's relation in ``database``, checked to match its arity.

        Raises
        ------
        SchemaError
            If the relation is missing or its arity differs from the atom's.
        """
        relation = database.get(self.relation)
        if relation.arity != len(self.variables):
            raise SchemaError(
                f"atom {self} has arity {len(self.variables)} but relation "
                f"{self.relation!r} has arity {relation.arity}"
            )
        return relation

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


class ConjunctiveQuery:
    """A full conjunctive query over a set of atoms.

    Parameters
    ----------
    atoms:
        The query body.  The same relation name may appear in several atoms
        (self-joins); each occurrence is a distinct hyperedge.
    head:
        Head variables.  Defaults to all body variables (a *full* CQ).  A
        head that omits body variables turns the query into a
        project-at-the-end CQ; the bounds in this library always refer to the
        full join, as in the paper.
    name:
        Optional query name used in reports.
    """

    def __init__(self, atoms: Iterable[Atom], head: Sequence[str] | None = None,
                 name: str = "Q"):
        self._atoms = tuple(atoms)
        if not self._atoms:
            raise QueryError("a conjunctive query needs at least one atom")
        seen: list[str] = []
        for atom in self._atoms:
            for v in atom.variables:
                if v not in seen:
                    seen.append(v)
        self._variables = tuple(seen)
        if head is None:
            self._head = self._variables
        else:
            head = tuple(head)
            unknown = [v for v in head if v not in self._variables]
            if unknown:
                raise QueryError(f"head variables {unknown} do not occur in the body")
            self._head = head
        self._name = name

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The query name."""
        return self._name

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The body atoms."""
        return self._atoms

    @property
    def variables(self) -> tuple[str, ...]:
        """All body variables, in order of first occurrence."""
        return self._variables

    @property
    def head(self) -> tuple[str, ...]:
        """The head variables."""
        return self._head

    @property
    def is_full(self) -> bool:
        """True when the head mentions every body variable."""
        return set(self._head) == set(self._variables)

    def atoms_containing(self, variable: str) -> tuple[Atom, ...]:
        """Atoms whose variable set contains ``variable`` (the set ∂(v))."""
        return tuple(a for a in self._atoms if variable in a.variable_set)

    def relation_names(self) -> tuple[str, ...]:
        """Names of relations referenced (with repetitions for self-joins)."""
        return tuple(a.relation for a in self._atoms)

    def hypergraph(self) -> Hypergraph:
        """The query's multi-hypergraph: one edge per atom."""
        edges = {self.edge_key(i): frozenset(a.variables)
                 for i, a in enumerate(self._atoms)}
        return Hypergraph(self._variables, edges)

    def edge_key(self, atom_index: int) -> str:
        """The hyperedge key used for the atom at ``atom_index``.

        Keys are the relation name when unambiguous and ``name#i`` when the
        same relation appears multiple times, so that a multi-hypergraph with
        repeated edges is represented faithfully.
        """
        atom = self._atoms[atom_index]
        occurrences = [i for i, a in enumerate(self._atoms) if a.relation == atom.relation]
        if len(occurrences) == 1:
            return atom.relation
        return f"{atom.relation}#{occurrences.index(atom_index)}"

    def atom_for_edge(self, edge_key: str) -> Atom:
        """Inverse of :meth:`edge_key`."""
        for i, atom in enumerate(self._atoms):
            if self.edge_key(i) == edge_key:
                return atom
        raise QueryError(f"no atom with edge key {edge_key!r}")

    # ------------------------------------------------------------------
    # Validation and evaluation support
    # ------------------------------------------------------------------
    def validate_against(self, database: Database) -> None:
        """Check that every atom's relation exists and has matching arity.

        Raises
        ------
        SchemaError
            If a relation is missing or its arity differs from the atom's.
        """
        for atom in self._atoms:
            atom.relation_in(database)

    def bind(self, database: Database) -> dict[str, Relation]:
        """Map each atom's edge key to its relation *renamed to the query's
        variables*, ready for joining.

        Self-joins produce several entries over the same physical tuples but
        with the per-atom variable names.  Each atom is checked as
        :meth:`validate_against` checks it, in the same pass.
        """
        bound = {}
        for i, atom in enumerate(self._atoms):
            relation = atom.relation_in(database)
            mapping = dict(zip(relation.attributes, atom.variables))
            bound[self.edge_key(i)] = relation.rename(mapping, name=self.edge_key(i))
        return bound

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self._atoms)
        return f"{self._name}({', '.join(self._head)}) :- {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._atoms == other._atoms and self._head == other._head

    def __hash__(self) -> int:
        return hash((self._atoms, self._head))


def triangle_query(r_name: str = "R", s_name: str = "S", t_name: str = "T"
                   ) -> ConjunctiveQuery:
    """The paper's triangle query (eq. 2):
    ``Q(A,B,C) :- R(A,B), S(B,C), T(A,C)``."""
    return ConjunctiveQuery(
        [Atom(r_name, ("A", "B")), Atom(s_name, ("B", "C")), Atom(t_name, ("A", "C"))],
        name="Q_triangle",
    )


def clique_query(k: int, relation_prefix: str = "E") -> ConjunctiveQuery:
    """The k-clique query: one binary atom per pair of the k variables.

    Variables are ``X1 .. Xk`` and the atom over pair (i, j), i < j, is
    ``E_i_j(Xi, Xj)``.
    """
    if k < 2:
        raise QueryError("clique query needs k >= 2")
    variables = [f"X{i}" for i in range(1, k + 1)]
    atoms = []
    for i in range(k):
        for j in range(i + 1, k):
            atoms.append(Atom(f"{relation_prefix}_{i + 1}_{j + 1}",
                              (variables[i], variables[j])))
    return ConjunctiveQuery(atoms, name=f"Q_clique{k}")


def cycle_query(k: int, relation_prefix: str = "E") -> ConjunctiveQuery:
    """The k-cycle query ``Q :- E_1(X1,X2), E_2(X2,X3), ..., E_k(Xk,X1)``."""
    if k < 3:
        raise QueryError("cycle query needs k >= 3")
    variables = [f"X{i}" for i in range(1, k + 1)]
    atoms = []
    for i in range(k):
        atoms.append(Atom(f"{relation_prefix}_{i + 1}",
                          (variables[i], variables[(i + 1) % k])))
    return ConjunctiveQuery(atoms, name=f"Q_cycle{k}")


def path_query(k: int, relation_prefix: str = "E") -> ConjunctiveQuery:
    """The length-k path query ``Q :- E_1(X1,X2), ..., E_k(Xk,Xk+1)``."""
    if k < 1:
        raise QueryError("path query needs k >= 1")
    variables = [f"X{i}" for i in range(1, k + 2)]
    atoms = [
        Atom(f"{relation_prefix}_{i + 1}", (variables[i], variables[i + 1]))
        for i in range(k)
    ]
    return ConjunctiveQuery(atoms, name=f"Q_path{k}")


def loomis_whitney_query(k: int, relation_prefix: str = "R") -> ConjunctiveQuery:
    """The Loomis–Whitney query LW(k): every atom contains all but one of the
    k variables (Section 1.2 of the paper).

    For k = 3 this is exactly the triangle query shape.
    """
    if k < 3:
        raise QueryError("Loomis-Whitney query needs k >= 3")
    variables = [f"X{i}" for i in range(1, k + 1)]
    atoms = []
    for omitted in range(k):
        atom_vars = tuple(v for i, v in enumerate(variables) if i != omitted)
        atoms.append(Atom(f"{relation_prefix}_{omitted + 1}", atom_vars))
    return ConjunctiveQuery(atoms, name=f"Q_LW{k}")
