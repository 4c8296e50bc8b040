"""Semiring aggregates: ``COUNT`` / ``SUM`` / ``MIN`` / ``MAX`` / ``AVG`` heads.

The FAQ / AJAR line of work (and the paper's aggregation discussion in its
open problems) observes that the variable-elimination machinery behind WCOJ
algorithms evaluates *functional aggregate queries* over any commutative
semiring, not just the boolean "does a tuple exist" semiring.  This module
supplies the pluggable semiring layer for the unified query surface:

* a :class:`Semiring` bundles the aggregation monoid (``zero`` / ``plus`` /
  per-tuple ``lift``) with, for true semirings, the product structure
  (``one`` / ``times``) that lets aggregates be pushed *inside* joins: the
  distributive law ``a ⊗ (b ⊕ c) = a ⊗ b ⊕ a ⊗ c`` is exactly what licenses
  aggregating a subtree away before joining it (Yannakakis-style in-pass
  aggregation, and component factorization in FAQ);
* an :class:`Aggregate` names one aggregate head term (``SUM(X) AS total``);
* :func:`fold_aggregates` folds a stream of full join tuples into grouped
  aggregate rows *tuple-at-a-time* — the drain-and-fold execution mode the
  engine falls back to when in-recursion aggregation does not apply;
* :func:`times_fold` is the ``⊗``-combine of component-factorized
  elimination (per-component fold values of conditionally-independent
  tail components compose with the product), and
  :func:`product_semiring` builds componentwise product semirings — with
  an absorbing element only when *every* factor declares one, since a
  single absorbing coordinate does not absorb the tuple;
* the **ring protocol**: a semiring may declare ``negate``, the additive
  inverse (``a ⊕ negate(a) = zero``), making it a commutative ring.  This
  is what incremental view maintenance needs for *deletes*: removing a
  tuple is ``⊕``-ing the negated annotation of every join assignment it
  participated in, so SUM/COUNT/AVG views repair in place while MIN/MAX
  (tropical, no inverse: ``min(a, x) = +inf`` has no solution) and the
  ordering semiring force a recomputation.  :func:`negate_value` is the
  checked entry point delete paths must use.

Aggregation semantics follow the package's set-semantics relations: the
aggregates range over the **distinct** full-join assignments, grouped by
the plain head variables.  Custom semirings can be plugged in with
:func:`register_semiring`; ``AVG`` below is itself registered through that
path, as the (sum, count) *product semiring* with a non-trivial lift and
finalizer.

Beyond the user-facing aggregates, two internal semirings drive the
executors' elimination machinery: :data:`BOOLEAN` (existential tails — the
projection special case) and the **ordering semiring family**
(:func:`ranking_semiring`), the tropical-style algebra behind any-k ranked
enumeration.  Its elements are sparse sort-key vectors — ``(position,
component)`` pairs over the ORDER BY columns, components wrapped with
:class:`Descending` for descending keys — ``⊕`` is the lexicographic
minimum (so a folded subtree annotation is the *best suffix* any
completion of that subtree can achieve) and ``⊗`` merges vectors over
disjoint key positions (so annotations of independent join-tree branches
compose into a bound on the full sort key).  Both the memoized WCOJ
elimination and Yannakakis' annotated join-tree messages fold with this
semiring to obtain the per-separator best-suffix bounds that any-k's
priority frontier expands against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import QueryError

#: Sentinel distinguishing "no absorbing element" from an absorbing ``None``.
_NO_ABSORBING = object()


@dataclass(frozen=True)
class Semiring:
    """One aggregate's algebra: the fold monoid plus an optional product.

    Attributes
    ----------
    name:
        The aggregate keyword (``count``, ``sum``, ...).
    zero:
        The ``plus`` identity (also the value reported for an empty,
        group-free aggregate, SQL-style: ``COUNT`` of nothing is 0).
    plus:
        The commutative, associative combine operation (``⊕``).
    lift:
        Maps one aggregated column value into the semiring (``COUNT``
        lifts everything to 1; ``SUM`` lifts to the value itself).
    needs_variable:
        Whether the aggregate reads a column (``COUNT`` does not).
    one:
        The ``times`` identity — the annotation of a tuple that carries no
        information for this aggregate (e.g. a tuple of an atom that does
        not hold the summed variable).
    times:
        The product operation (``⊗``) combining annotations of tuples
        joined together.  ``None`` for plus-only monoids; when present,
        ``(zero, plus, one, times)`` must satisfy the semiring laws
        (checked by the law tests for every registered semiring), which is
        what allows Yannakakis' algorithm to aggregate during its join
        passes instead of over the join output.
    finalize:
        Optional map from the folded semiring value to the reported output
        value (``AVG`` divides its (sum, count) pair; plain aggregates
        report the fold unchanged).
    absorbing:
        Optional absorbing element of ``plus`` (``a ⊕ absorbing =
        absorbing``).  When every aggregate of a query has one, the
        in-recursion fold can stop a subtree as soon as its accumulator
        saturates — for the boolean semiring this is exactly the classical
        one-witness existential search.
    negate:
        Optional additive inverse (``a ⊕ negate(a) = zero``), upgrading
        the semiring to a commutative **ring**.  Rings are what make
        *deletes* incremental: removing a tuple ``⊕``-s the negation of
        every annotation it contributed, so the fold never has to be
        recomputed from scratch.  When ``times`` is also declared, the
        inverse must be compatible with the product
        (``negate(a) ⊗ b = negate(a ⊗ b)``) so a negated delta tuple can
        be joined against unchanged annotations.  ``None`` declares the
        semiring non-invertible (MIN/MAX, boolean, ranking): delete paths
        must refuse it via :func:`negate_value`.

    The class is final and checks its own protocol when built: ``one``
    and ``times`` are declared together or not at all (``None`` means
    undeclared), so the in-recursion folds, Yannakakis' in-pass
    aggregation and IVM's deletes can trust whatever algebra reaches
    them, however it was assembled.
    """

    name: str
    zero: Any
    plus: Callable[[Any, Any], Any]
    lift: Callable[[Any], Any]
    needs_variable: bool = True
    one: Any = None
    times: Callable[[Any, Any], Any] | None = None
    finalize: Callable[[Any], Any] | None = None
    absorbing: Any = _NO_ABSORBING
    negate: Callable[[Any], Any] | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # A subclass method named like a field (``negate``) is shadowed by
        # the instance's field value, so ``has_inverse`` would disagree.
        raise TypeError("Semiring is final; build one with Semiring(...) "
                        "or product_semiring(...)")

    def __post_init__(self) -> None:
        if (self.one is None) != (self.times is None):
            declared, missing = (("times", "one") if self.one is None
                                 else ("one", "times"))
            raise QueryError(
                f"semiring {self.name!r} declares {declared!r} without "
                f"{missing!r}; the product structure is declared whole")

    @property
    def has_product(self) -> bool:
        """True when the algebra is a full semiring (``times`` defined)."""
        return self.times is not None

    @property
    def has_inverse(self) -> bool:
        """True when the algebra is a ring (``negate`` defined)."""
        return self.negate is not None

    @property
    def has_absorbing(self) -> bool:
        """True when ``plus`` has an absorbing element."""
        return self.absorbing is not _NO_ABSORBING

    def finish(self, value: Any) -> Any:
        """Apply the finalizer (identity when none is declared)."""
        if self.finalize is None:
            return value
        return self.finalize(value)


def _min_plus(a: Any, b: Any) -> Any:
    # ``None`` is the fold identity; the tropical product identity (the
    # annotation of value-free tuples) folds away the same way — a message
    # projection may merge several value-free annotations (ONE ⊕ ONE).
    if a is None or a is _TROPICAL_ONE:
        return b
    if b is None or b is _TROPICAL_ONE:
        return a
    return b if b < a else a


def _max_plus(a: Any, b: Any) -> Any:
    if a is None or a is _TROPICAL_ONE:
        return b
    if b is None or b is _TROPICAL_ONE:
        return a
    return b if b > a else a


def _mul(a: Any, b: Any) -> Any:
    return a * b


class _TropicalOne:
    """The ``times`` identity of the MIN/MAX semirings.

    A sentinel rather than the numeric 0 of the classical tropical
    semiring: the annotation of a tuple carrying no value for the
    aggregate must combine with *any* lifted column value — strings and
    other non-numeric orderables included — so the product treats it as
    "pass the other side through" instead of doing arithmetic.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<tropical one>"


_TROPICAL_ONE = _TropicalOne()


def _tropical_add(a: Any, b: Any) -> Any:
    # ``None`` is the tropical zero (±infinity): it annihilates products,
    # as the semiring laws require (a ⊗ 0 = 0).  The engine multiplies at
    # most one lifted value per product chain (one designated atom per
    # aggregate), so the numeric ``a + b`` leg only matters for the
    # semiring laws over numbers.
    if a is None or b is None:
        return None
    if a is _TROPICAL_ONE:
        return b
    if b is _TROPICAL_ONE:
        return a
    return a + b


def _numeric_negate(value: Any) -> Any:
    return -value


#: Built-in semirings, keyed by aggregate keyword.  ``MIN``/``MAX`` use
#: ``None`` as the fold identity (reported for an empty, group-free
#: aggregate) and live in the tropical semirings (min, +) / (max, +);
#: ``COUNT``/``SUM`` live in the numeric sum-product semiring (+, ×),
#: which is in fact a ring — its ``negate`` is what lets incremental view
#: maintenance handle deletes.  The tropical semirings declare no
#: ``negate``: ``min(a, x) = +∞`` has no solution, so a deleted minimum
#: cannot be "subtracted out" and delete paths must recompute.
SEMIRINGS: dict[str, Semiring] = {
    "count": Semiring("count", 0, lambda a, b: a + b, lambda _v: 1,
                      needs_variable=False, one=1, times=_mul,
                      negate=_numeric_negate),
    "sum": Semiring("sum", 0, lambda a, b: a + b, lambda v: v,
                    one=1, times=_mul, negate=_numeric_negate),
    "min": Semiring("min", None, _min_plus, lambda v: v,
                    one=_TROPICAL_ONE, times=_tropical_add),
    "max": Semiring("max", None, _max_plus, lambda v: v,
                    one=_TROPICAL_ONE, times=_tropical_add),
}

#: The boolean (exists) semiring.  Not a user-facing aggregate — it is what
#: the WCOJ recursion folds existential tail variables into when a
#: projection discards them, making "find one witness and stop" the
#: ``absorbing``-element special case of in-recursion aggregation.
BOOLEAN = Semiring("bool", False, lambda a, b: a or b, lambda _v: True,
                   needs_variable=False, one=True,
                   times=lambda a, b: a and b, absorbing=True)


class Descending:
    """Sort-key component wrapper inverting comparisons.

    Wrapping the components of descending ORDER BY columns lets every
    consumer — ``sort_rows``'s drain-and-heap, the any-k priority
    frontier, and the ranking semiring's lexicographic minimum — compare
    whole key tuples with the ordinary ``<``, regardless of per-column
    direction.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Descending) and other.value == self.value

    def __repr__(self) -> str:
        return f"Descending({self.value!r})"


def rank_component(value: Any, descending: bool) -> Any:
    """One sort-key component, direction-adjusted for plain ``<``."""
    return Descending(value) if descending else value


def _rank_components(vector: tuple) -> tuple:
    return tuple(component for _position, component in vector)


def _rank_plus(a: Any, b: Any) -> Any:
    # ``None`` is the ordering zero (no completion exists): the ⊕ identity
    # and the ⊗ annihilator, exactly like the tropical ±infinity.
    if a is None:
        return b
    if b is None:
        return a
    return b if _rank_components(b) < _rank_components(a) else a


def _rank_times(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    return tuple(sorted(a + b, key=lambda pc: pc[0]))


#: The ordering semiring: the member of the family below with the
#: position/direction parameterization left to the lift sites.
RANKING = Semiring("rank", None, _rank_plus, lambda v: v,
                   needs_variable=False, one=(), times=_rank_times)


def ranking_semiring() -> Semiring:
    """The ordering (min-lexicographic) semiring of any-k ranked enumeration.

    Elements are ``None`` (zero: the annotation of an empty subtree — no
    completion exists) or sparse sort-key vectors: tuples of ``(position,
    component)`` pairs, sorted by position, where ``position`` indexes an
    ORDER BY column and ``component`` is the column's value wrapped by
    :func:`rank_component` for its direction.  ``plus`` keeps the
    lexicographically smaller vector (operands always share a support set
    in the executors, so componentwise comparison is total) and ``times``
    merges vectors over disjoint position sets — the annotations of
    conditionally independent subproblems compose positionwise because
    the lexicographic minimum of an interleaving of independent blocks is
    the interleaving of the blocks' lexicographic minima.

    This is a *family* in the FAQ sense: each query instantiates it over
    its own ORDER BY positions and directions through the lift closures
    the executors build (:func:`repro.joins.generic_join.wcoj_stream`'s
    ranked mode, :func:`repro.joins.yannakakis.yannakakis_ranked_stream`);
    the carrier and operations are shared.  Like :data:`BOOLEAN` it is not
    a user-facing aggregate and is not listed in :data:`SEMIRINGS`.
    """
    return RANKING


def register_semiring(semiring: Semiring) -> None:
    """Register a custom aggregate semiring under ``semiring.name``."""
    if not isinstance(semiring, Semiring):
        raise QueryError(
            f"register_semiring expects a Semiring, got {semiring!r}")
    if semiring.name in SEMIRINGS:
        raise QueryError(f"semiring {semiring.name!r} is already registered")
    SEMIRINGS[semiring.name] = semiring


def times_fold(semiring: Semiring, values: Iterable[Any]) -> Any:
    """The ``⊗``-product of several semiring values (``one`` when empty).

    This is the combine step of component-factorized elimination: when the
    residual tail of a query splits into conditionally-independent
    components, each component folds to one value and the values compose
    with the semiring product — counts multiply, sums cross-weight
    (distributivity), tropical MIN/MAX annotations pass through their
    ``one``, and ranking-semiring sort-key vectors over *disjoint* key
    positions merge positionwise, which is exactly why a per-component
    best-suffix bound stays admissible (indeed exact) for any-k.

    Note the deliberate asymmetry with the ``⊕``-fold: an *absorbing*
    element of ``plus`` (e.g. the boolean ``True``) is **not** a
    short-circuit for ``times`` — only the semiring zero annihilates a
    product, and callers that track empty sub-problems as ``None`` should
    short-circuit on those *before* folding.

    Raises
    ------
    QueryError
        If the semiring declares no product (``times`` is None).
    """
    if semiring.times is None:
        raise QueryError(
            f"semiring {semiring.name!r} has no product; "
            "component values cannot be combined"
        )
    total = semiring.one
    for value in values:
        total = semiring.times(total, value)
    return total


def negate_value(semiring: Semiring, value: Any) -> Any:
    """The additive inverse of ``value``, or a clear refusal.

    This is the checked entry point every delete path must go through:
    incremental deletion ``⊕``-s negated annotations into maintained
    state, which is only sound when the semiring is a ring.

    Raises
    ------
    QueryError
        If the semiring declares no additive inverse (MIN/MAX, boolean,
        ranking): callers must fall back to recomputation for deletes.
    """
    if semiring.negate is None:
        raise QueryError(
            f"semiring {semiring.name!r} has no additive inverse; "
            "deletes need a ring semiring (SUM/COUNT/AVG) — "
            "recompute the aggregate instead"
        )
    return semiring.negate(value)


def product_semiring(name: str, factors: Sequence[Semiring],
                     finalize: Callable[[Any], Any] | None = None) -> Semiring:
    """The componentwise product of several semirings.

    Elements are tuples with one coordinate per factor; ``zero``/``one``
    are the tuples of the factors' identities and ``plus``/``times``/
    ``lift`` apply coordinatewise (every factor lifts the *same* column
    value, so a product aggregate can observe one variable through
    several algebras at once).  ``one`` and ``times`` are only defined
    when every factor has a product, and ``finalize`` defaults to the
    coordinatewise finalizers whenever any factor declares one.

    **Absorbing elements do not survive the product unless every factor
    has one.**  ``(a₁, x)`` with ``a₁`` absorbing for the first factor
    does not absorb in the second coordinate, so a product advertising
    ``has_absorbing`` from a single factor would let an eliminator stop a
    fold early and silently drop the other coordinates' remaining
    contributions (the ``_avg_finalize`` confusion: a saturated boolean
    paired with a half-folded (sum, count) finalizes to a wrong average).
    The product therefore carries an absorbing element exactly when *all*
    factors declare one.

    Note ``AVG`` is *not* this construction: its (sum, count) carrier
    uses a cross-weighting product (see ``_avg_times``), not the
    coordinatewise one, because the sum of a join factor is weighted by
    the other factor's multiplicity.
    """
    factors = tuple(factors)
    if not factors:
        raise QueryError("a product semiring needs at least one factor")

    def plus(a: tuple, b: tuple) -> tuple:
        return tuple(f.plus(x, y) for f, x, y in zip(factors, a, b))

    def lift(v: Any) -> tuple:
        return tuple(f.lift(v) for f in factors)

    one = None
    times = None
    if all(f.has_product for f in factors):
        one = tuple(f.one for f in factors)

        def times(a: tuple, b: tuple) -> tuple:
            return tuple(f.times(x, y) for f, x, y in zip(factors, a, b))

    if finalize is None and any(f.finalize is not None for f in factors):
        def finalize(value: tuple) -> tuple:
            return tuple(f.finish(v) for f, v in zip(factors, value))

    # The product is a ring exactly when every factor is: the inverse is
    # coordinatewise, and a single non-invertible coordinate (say a MIN)
    # poisons the whole tuple for deletes.
    negate = None
    if all(f.has_inverse for f in factors):
        def negate(value: tuple) -> tuple:
            return tuple(f.negate(v) for f, v in zip(factors, value))

    absorbing = (tuple(f.absorbing for f in factors)
                 if all(f.has_absorbing for f in factors) else _NO_ABSORBING)
    return Semiring(
        name,
        zero=tuple(f.zero for f in factors),
        plus=plus,
        lift=lift,
        needs_variable=any(f.needs_variable for f in factors),
        one=one,
        times=times,
        finalize=finalize,
        absorbing=absorbing,
        negate=negate,
    )


def _avg_plus(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1])


def _avg_times(a: tuple, b: tuple) -> tuple:
    # The product of (sum, count) annotations over independent factors:
    # the combined sum weights each side's sum by the other side's
    # multiplicity, the combined count multiplies.
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _avg_finalize(value: tuple) -> Any:
    total, count = value
    if count == 0:
        return None
    return total / count


def _avg_negate(value: tuple) -> tuple:
    # Negating both coordinates is compatible with the cross-weighting
    # product: (−s₁, −c₁) ⊗ (s₂, c₂) = (−(s₁c₂ + s₂c₁), −c₁c₂).
    return (-value[0], -value[1])


# ``AVG`` is deliberately registered through the public pluggable-semiring
# path: it is the (sum, count) product semiring with a non-identity lift
# and a finalizer, exercising every extension hook a custom semiring has.
register_semiring(Semiring(
    "avg",
    zero=(0, 0),
    plus=_avg_plus,
    lift=lambda v: (v, 1),
    one=(0, 1),
    times=_avg_times,
    finalize=_avg_finalize,
    negate=_avg_negate,
))


@dataclass(frozen=True)
class Aggregate:
    """One aggregate head term: ``kind(var) AS alias``.

    ``var`` is None exactly for variable-free aggregates (``COUNT``).
    """

    kind: str
    var: str | None
    alias: str

    def semiring(self) -> Semiring:
        """The semiring implementing this aggregate."""
        try:
            return SEMIRINGS[self.kind]
        except KeyError:
            raise QueryError(
                f"unknown aggregate {self.kind!r}; "
                f"expected one of {sorted(SEMIRINGS)}"
            ) from None

    def __str__(self) -> str:
        arg = self.var if self.var is not None else "*"
        return f"{self.kind.upper()}({arg})"


def count(alias: str = "count") -> Aggregate:
    """A ``COUNT(*)`` head term."""
    return Aggregate("count", None, alias)


def sum_(var: str, alias: str | None = None) -> Aggregate:
    """A ``SUM(var)`` head term."""
    return Aggregate("sum", var, alias or f"sum_{var}")


def min_(var: str, alias: str | None = None) -> Aggregate:
    """A ``MIN(var)`` head term."""
    return Aggregate("min", var, alias or f"min_{var}")


def max_(var: str, alias: str | None = None) -> Aggregate:
    """A ``MAX(var)`` head term."""
    return Aggregate("max", var, alias or f"max_{var}")


def avg_(var: str, alias: str | None = None) -> Aggregate:
    """An ``AVG(var)`` head term (the (sum, count) product semiring)."""
    return Aggregate("avg", var, alias or f"avg_{var}")


def fold_aggregates(stream: Iterable[tuple], variables: Sequence[str],
                    group_vars: Sequence[str],
                    aggregates: Sequence[Aggregate]) -> Iterator[tuple]:
    """Fold a stream of distinct full-join tuples into grouped rows.

    ``variables`` names the stream's columns; each output row is the group
    key (values of ``group_vars``) followed by one folded, finalized value
    per aggregate.  The stream is consumed one tuple at a time — nothing is
    materialized beyond one accumulator per live group — so anything the
    executors pushed below the join stays below the aggregation as well.

    This is the *stream-fold* execution mode: join-linear, since every full
    join tuple is observed.  The in-recursion mode (see
    :func:`repro.joins.generic_join.wcoj_stream`) folds eliminated
    variables inside the join recursion instead and never enumerates the
    full join.

    A group-free aggregation over an empty stream yields the single
    all-identities row (``COUNT`` of nothing is 0), matching SQL.
    """
    positions = {v: i for i, v in enumerate(variables)}
    group_pos = [positions[v] for v in group_vars]
    semirings = [agg.semiring() for agg in aggregates]
    value_pos = [positions[agg.var] if agg.var is not None else None
                 for agg in aggregates]
    groups: dict[tuple, list[Any]] = {}
    for row in stream:
        key = tuple(row[p] for p in group_pos)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [sr.zero for sr in semirings]
            groups[key] = accumulators
        for i, sr in enumerate(semirings):
            pos = value_pos[i]
            lifted = sr.lift(row[pos] if pos is not None else None)
            accumulators[i] = sr.plus(accumulators[i], lifted)
    if not groups and not group_pos:
        yield tuple(sr.finish(sr.zero) for sr in semirings)
        return
    for key, accumulators in groups.items():
        yield key + tuple(sr.finish(acc)
                          for sr, acc in zip(semirings, accumulators))
