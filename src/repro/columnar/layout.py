"""Dictionary-encoded, lexicographically sorted columnar relation layouts.

A :class:`ColumnarStore` owns one *global* sorted dictionary mapping every
value that appears in any registered relation to a dense ``int64`` code.
Because the dictionary is sorted, code order equals value order, so (a)
binary search over code columns is binary search over values, and (b)
enumerating codes in ascending order enumerates values in exactly the
order the pure-Python oracle's sorted tries produce — the property that
makes cross-backend output order bit-identical.

A :class:`ColumnarLayout` is one relation materialized under one column
order (the per-atom variable order a WCOJ plan needs), encoded and sorted
lexicographically: the trie node for a bound prefix is simply the
half-open row range whose columns match the prefix.  Each level also keeps
a composite key, the dense rank of a row's prefix times the dictionary
size plus the row's code, which is globally sorted; seeking a value inside
one trie node is then a single ``np.searchsorted`` over that key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: SUM folds run in int64; values beyond this magnitude (or non-integers)
#: force the oracle path so exactness can never silently degrade.
_SUM_SAFE_MAGNITUDE = 2**31

#: Composite keys are ``< n * |dictionary|``; a layout whose keys could
#: exceed int64 gets none, and the join kernel degrades to the oracle.
_KEY_LIMIT = 2**63


class ColumnarStore:
    """Global sorted dictionary shared by every columnar layout.

    Registration is transactional: the merged dictionary is computed (and
    may raise ``TypeError`` for un-orderable mixed domains) *before* any
    state changes, so a failed registration leaves the store untouched.
    Every successful registration that actually adds values bumps
    ``epoch``, invalidating all layouts encoded under older dictionaries.
    So every layout of one epoch was built against one dictionary size,
    which is what makes their composite keys (see :class:`ColumnarLayout`)
    comparable with any code of that epoch.
    """

    def __init__(self) -> None:
        self.values: list = []
        self.codes: dict = {}
        self.epoch: int = 0
        self._int_domain: tuple[int, np.ndarray | None] | None = None

    def __len__(self) -> int:
        return len(self.values)

    def register(self, values: Iterable) -> None:
        """Add ``values`` to the dictionary (one epoch bump at most)."""
        codes = self.codes
        fresh = {v for v in values if v not in codes}
        if not fresh:
            return
        try:
            merged = sorted(set(self.values) | fresh)
        except TypeError as exc:
            raise TypeError(
                "columnar dictionary encoding requires a totally ordered "
                f"value domain; cannot sort mixed values: {exc}"
            ) from exc
        self.values = merged
        self.codes = {v: i for i, v in enumerate(merged)}
        self.epoch += 1

    def encode(self, value) -> int:
        return self.codes[value]

    def decode(self, code: int):
        return self.values[code]

    def decode_column(self, codes: np.ndarray) -> list:
        """Decode a code column back to the exact registered objects."""
        values = self.values
        return [values[c] for c in codes.tolist()]

    def int_domain(self) -> np.ndarray | None:
        """The dictionary as an exact ``int64`` array, or ``None``.

        ``None`` means the domain contains non-integers or integers too
        large for exact int64 SUM folds; callers must degrade to the
        python oracle for SUM.  Cached per epoch.
        """
        cached = self._int_domain
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        domain: np.ndarray | None
        if all(
            isinstance(v, int) and abs(v) <= _SUM_SAFE_MAGNITUDE
            for v in self.values
        ):
            domain = np.asarray(self.values, dtype=np.int64)
        else:
            domain = None
        self._int_domain = (self.epoch, domain)
        return domain


@dataclass(frozen=True)
class ColumnarLayout:
    """One relation, one column order, sorted and dictionary-encoded.

    ``keys[L]`` is ``prefix_rank[L] * D + columns[L]``, where
    ``prefix_rank[L]`` is the dense rank of a row's first ``L`` columns and
    ``D`` the dictionary size at the layout's epoch.  Because the rows are
    lexsorted, ``keys[L]`` is globally sorted, and a trie node at level
    ``L`` (one prefix group) is a contiguous run of it.  ``keys`` is
    ``None`` when some key could overflow int64.
    """

    relation: str
    attributes: tuple[str, ...]
    columns: tuple = field(repr=False)  # tuple of int64 arrays, lex-sorted
    epoch: int = 0
    n: int = 0
    keys: tuple | None = field(default=None, repr=False)

    def seek(self, level: int, lo: np.ndarray, values: np.ndarray):
        """Leapfrog's ``seek``, batched over a frontier.

        ``lo[i]`` starts row ``i``'s window, a trie node at ``level``;
        returns ``(left, right)`` such that ``columns[level][left[i]:
        right[i]]`` is the run of ``values[i]`` inside that window (empty
        when absent).  The window's prefix base, ``keys - columns`` at its
        first row, plus the value is the composite key to search for.
        """
        if not self.n:
            return lo, lo
        keys = self.keys[level]
        targets = keys[lo] - self.columns[level][lo] + values
        return (np.searchsorted(keys, targets, side="left"),
                np.searchsorted(keys, targets, side="right"))


def _composite_keys(columns: list, n: int, size: int) -> tuple | None:
    """Per level, ``prefix_rank * size + column`` (``None`` on overflow)."""
    if n * size > _KEY_LIMIT:
        return None
    keys = columns[:1]  # level 0: every row has the empty prefix, rank 0
    new_prefix = np.zeros(n, dtype=bool)
    for previous, column in zip(columns, columns[1:]):
        new_prefix[1:] |= previous[1:] != previous[:-1]
        keys.append(np.cumsum(new_prefix) * size + column)
    return tuple(keys)


def build_layout(relation, attributes: Sequence[str],
                 store: ColumnarStore) -> ColumnarLayout:
    """Encode + lexicographically sort ``relation`` under ``attributes``.

    Every value must already be registered in ``store`` (the registry
    registers whole relations before building layouts, so one epoch covers
    a whole batch of layouts).
    """
    attributes = tuple(attributes)
    positions = [relation.attributes.index(a) for a in attributes]
    rows = relation.tuples
    n = len(rows)
    codes = store.codes
    columns = [
        np.fromiter((codes[t[p]] for t in rows), dtype=np.int64, count=n)  # lint: disable=counter-honesty -- layout builds are registry-amortized (tracked by the layout_builds metric), symmetric with the python backend's uncharged trie builds
        for p in positions
    ]
    if n and len(columns) > 1:
        order = np.lexsort(tuple(reversed(columns)))
        columns = [column[order] for column in columns]
    elif n and columns:
        columns = [np.sort(columns[0], kind="stable")]
    return ColumnarLayout(relation.name, attributes, tuple(columns),
                          store.epoch, n,
                          _composite_keys(columns, n, len(store)))
