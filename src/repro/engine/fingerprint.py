"""Canonical query forms: the plan-cache key.

Two queries that differ only in variable names (and atom listing order)
describe the same join problem, so a long-lived engine should plan them
once.  This module computes a *canonical form* for a conjunctive query — a
string that is identical for queries isomorphic up to variable renaming —
together with the variable/atom correspondence needed to translate a cached
plan (expressed over canonical names) back into the vocabulary of the query
at hand.

Canonicalization is a greedy refinement: atoms are emitted in sorted order
by (relation name, arity, canonical indices of already-named variables), and
variables receive canonical names ``v0, v1, ...`` in order of first
appearance in that emission.  The scheme is deterministic and *sound*: equal
forms imply the queries are identical after renaming each query's variables
to its canonical names (the form spells out the full atom structure and
head).  It is not a perfect graph canonization — pathologically symmetric
self-joins may canonicalize differently from a permuted copy — but an
imperfect match only costs a cache miss, never a wrong plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.query.atoms import ConjunctiveQuery
from repro.query.builder import Query
from repro.query.terms import Comparison


@dataclass(frozen=True)
class CanonicalQuery:
    """A query's canonical form plus the translation tables.

    Attributes
    ----------
    form:
        The canonical string; equal forms mean "same query up to renaming".
        Constants included: this is the *result*-cache key.
    to_canonical:
        Mapping from the query's variable names to canonical names.
    from_canonical:
        The inverse mapping (canonical name -> this query's variable).
    atom_order:
        Original atom indices in canonical emission order: entry ``p`` is
        the index (into ``query.atoms``) of the atom at canonical position
        ``p``.
    plan_form:
        ``form`` with every ``var == constant`` selection rendered as a
        slot (``v0==?``): the *plan*-cache key.  A plan depends on which
        variables are pinned, never on the values pinning them.
    parameters:
        The constants filling the slots, rendered, in slot order.
    """

    form: str
    to_canonical: Mapping[str, str]
    from_canonical: Mapping[str, str]
    atom_order: tuple[int, ...]
    plan_form: str
    parameters: tuple[str, ...] = ()

    def translate_variables(self, canonical_names: tuple[str, ...]
                            ) -> tuple[str, ...]:
        """Map a tuple of canonical variable names back to query variables."""
        return tuple(self.from_canonical[c] for c in canonical_names)

    def canonicalize_variables(self, variables: tuple[str, ...]
                               ) -> tuple[str, ...]:
        """Map a tuple of this query's variables to canonical names."""
        return tuple(self.to_canonical[v] for v in variables)

    def atom_index_at(self, canonical_position: int) -> int:
        """The original atom index sitting at a canonical position."""
        return self.atom_order[canonical_position]

    def canonical_position_of(self, atom_index: int) -> int:
        """The canonical position of an original atom index."""
        return self.atom_order.index(atom_index)


# WCOJ plan payloads are either a plain variable order (enumeration plans)
# or a (mode tag, variable order) pair once aggregates or ranked
# enumeration are planned — "recursion" for in-recursion semiring
# elimination, "fold" for drain-and-fold over the streamed join, "anyk"
# for any-k ranked enumeration (drain-and-heap ordered plans stay
# untagged: they run the plain enumeration payload and sort above it).
# A "recursion"-tagged payload always runs the component-factorized
# eliminator: the component split is recomputed from the (translated)
# order and the query structure at run time, so the tag needs no extra
# cached state and replays correctly for every isomorphic query.

#: The aggregate-mode tags a structured WCOJ/Yannakakis payload may carry.
AGGREGATE_MODE_TAGS = ("recursion", "fold")

#: The ranked-execution tags ("drain" plans carry no tag).
RANKED_MODE_TAGS = ("anyk",)

_MODE_TAGS = AGGREGATE_MODE_TAGS + RANKED_MODE_TAGS


def _is_mode_tagged(payload) -> bool:
    return (isinstance(payload, tuple) and len(payload) == 2
            and payload[0] in _MODE_TAGS
            and isinstance(payload[1], tuple))


def payload_order(payload: tuple) -> tuple[str, ...]:
    """The variable order inside a (possibly mode-tagged) WCOJ payload."""
    if _is_mode_tagged(payload):
        return payload[1]
    return payload


def payload_aggregate_mode(payload) -> str | None:
    """The aggregate-mode tag of a plan payload (None when untagged)."""
    if _is_mode_tagged(payload) and payload[0] in AGGREGATE_MODE_TAGS:
        return payload[0]
    return None


def payload_ranked_mode(payload) -> str | None:
    """The ranked-execution tag of a plan payload (None when untagged)."""
    if _is_mode_tagged(payload) and payload[0] in RANKED_MODE_TAGS:
        return payload[0]
    return None


def canonicalize_wcoj_payload(payload: tuple, canon: CanonicalQuery) -> tuple:
    """Render a WCOJ plan payload in canonical variable names.

    Plan-cache entries must be expressed over canonical vocabulary so
    isomorphic queries can share them; aggregate-mode and ranked plans
    carry a ``(mode, order)`` pair whose mode tag is name-free and whose
    order translates like a plain payload — keeping the tag inside the
    cached payload is what makes an in-recursion plan replay as an
    in-recursion plan (and an any-k plan as an any-k plan) for every
    isomorphic query.
    """
    if _is_mode_tagged(payload):
        mode, order = payload
        return (mode, canon.canonicalize_variables(order))
    return canon.canonicalize_variables(payload)


def translate_wcoj_payload(payload: tuple, canon: CanonicalQuery) -> tuple:
    """Map a canonical WCOJ plan payload back to a query's vocabulary."""
    if _is_mode_tagged(payload):
        mode, order = payload
        return (mode, canon.translate_variables(order))
    return canon.translate_variables(payload)


def fingerprint_drift(current: tuple[int, ...],
                      planned: tuple[int, ...]) -> int:
    """How far a statistics fingerprint has drifted from plan time.

    Fingerprints are per-canonical-atom power-of-two size buckets
    (:func:`repro.relational.statistics.statistics_fingerprint`); the
    drift is the largest per-atom bucket distance, i.e. the number of
    doublings/halvings the most-changed input relation has gone through.
    Standing queries compare this against their re-plan threshold: a
    drift of 1 already means some input left the size regime its plan
    was priced for.
    """
    if len(current) != len(planned):
        raise ValueError(
            f"fingerprints differ in arity: {len(current)} vs {len(planned)}"
        )
    if not current:
        return 0
    return max(abs(a - b) for a, b in zip(current, planned))


@dataclass(frozen=True)
class CanonicalShape:
    """What of a query's canonical form no constant's value changes.

    The variable and atom correspondence of :class:`CanonicalQuery`, and
    the form around its ``sel:`` part: ``prefix`` renders the body and
    head, ``suffix`` the aggregate, ORDER BY and LIMIT parts.  Queries
    that differ only in the values of their constants share one shape;
    :meth:`bind` renders the selections of one of them.
    """

    to_canonical: Mapping[str, str]
    from_canonical: Mapping[str, str]
    atom_order: tuple[int, ...]
    prefix: str
    suffix: str

    def bind(self, selections: Sequence[Comparison] = ()) -> CanonicalQuery:
        """The canonical form of the query of this shape with these
        selections (a rich query's ``all_selections``).

        Selections sort by their rendering, constants included, so the
        whole ``sel:`` part is rendered anew; a ``plan_form`` differs from
        ``form`` only when some ``var == constant`` selection is a slot.
        """
        form = plan_form = self.prefix + self.suffix
        parameters: tuple[str, ...] = ()
        if selections:
            rename = self.to_canonical
            rendered = ";".join(sorted(sel.canonical_str(rename)
                                       for sel in selections))
            form = plan_form = f"{self.prefix}|sel:{rendered}{self.suffix}"
            slots = sorted((f"{rename[sel.lhs]}==?", str(sel.rhs))
                           for sel in selections if sel.is_constant_equality)
            if slots:
                rendered = ";".join(sorted(
                    [slot for slot, _value in slots]
                    + [sel.canonical_str(rename) for sel in selections
                       if not sel.is_constant_equality]))
                plan_form = f"{self.prefix}|sel:{rendered}{self.suffix}"
                parameters = tuple(value for _slot, value in slots)
        return CanonicalQuery(form, self.to_canonical, self.from_canonical,
                              self.atom_order, plan_form, parameters)


def canonical_query(query: ConjunctiveQuery | Query) -> CanonicalQuery:
    """Compute the canonical form of a (possibly rich) query.

    For a plain :class:`ConjunctiveQuery` the form covers atom structure
    and head — unchanged from the original scheme.  For a rich
    :class:`~repro.query.builder.Query` the form is computed over the
    lowered full-CQ core and extended with canonical renderings of the
    selections (constant values included — two queries selecting different
    constants must not share result-cache entries), the aggregate heads
    (aliases excluded: results translate positionally), the ORDER BY keys,
    and the LIMIT.  Isomorphic projected/selected/aggregated queries
    therefore share one plan-cache entry — and so do queries differing
    only in the constants they pin (``plan_form``): a constant is a
    singleton relation, so the plan priced for one is valid for the next.
    """
    shape = canonical_shape(query)
    if isinstance(query, Query):
        return shape.bind(query.all_selections)
    return shape.bind()


def canonical_shape(query: ConjunctiveQuery | Query) -> CanonicalShape:
    """The :class:`CanonicalShape` of a query: its canonical form with
    the selections left to :meth:`CanonicalShape.bind`."""
    rich = query if isinstance(query, Query) else None
    core = rich.core if rich is not None else query
    atoms = core.atoms
    unnamed = len(core.variables)  # sorts after every assigned index
    assigned: dict[str, int] = {}
    order: list[int] = []
    remaining = set(range(len(atoms)))

    def sort_key(i: int) -> tuple:
        atom = atoms[i]
        return (
            atom.relation,
            len(atom.variables),
            tuple(assigned.get(v, unnamed) for v in atom.variables),
            i,
        )

    while remaining:
        chosen = min(remaining, key=sort_key)
        remaining.remove(chosen)
        order.append(chosen)
        for v in atoms[chosen].variables:
            if v not in assigned:
                assigned[v] = len(assigned)

    to_canonical = {v: f"v{idx}" for v, idx in assigned.items()}
    from_canonical = {c: v for v, c in to_canonical.items()}

    body = ";".join(
        f"{atoms[i].relation}({','.join(to_canonical[v] for v in atoms[i].variables)})"
        for i in order
    )
    parts = []
    if rich is None:
        head = core.head
    else:
        head = rich.head_vars
        if rich.aggregates:
            parts.append("agg:" + ";".join(
                f"{a.kind}({to_canonical[a.var] if a.var is not None else '*'})"
                for a in rich.aggregates
            ))
        if rich.order_by:
            # Output columns canonicalize to the head variable's canonical
            # name or to the positional tag of the aggregate column.
            tags = {col: to_canonical[col] for col in rich.head_vars}
            tags.update({a.alias: f"agg{i}"
                         for i, a in enumerate(rich.aggregates)})
            parts.append("ord:" + ",".join(
                ("-" if descending else "") + tags[column]
                for column, descending in rich.order_by
            ))
        if rich.limit is not None:
            parts.append(f"lim:{rich.limit}")
    return CanonicalShape(
        to_canonical=MappingProxyType(to_canonical),
        from_canonical=MappingProxyType(from_canonical),
        atom_order=tuple(order),
        prefix=f"{body}=>{','.join(to_canonical[v] for v in head)}",
        suffix="".join("|" + p for p in parts),
    )
