"""Batched columnar WCOJ execution over sorted, dictionary-encoded columns.

The pure-Python cores expand one search-tree node at a time; this module
expands one *level* at a time over a frontier of partial bindings held in
NumPy arrays.  Per level it plays exactly the Generic-Join / Leapfrog
move: pick the atom with the smallest total candidate span as the probe,
enumerate its distinct (parent, value) runs, and intersect against every
other relevant atom by seeking each value in that atom's trie node —
Veldhuizen's ``seek``/``next`` iterator idiom, batched: one
``np.searchsorted`` per side over the layout's composite key (see
:meth:`ColumnarLayout.seek`).  Because the frontier stays
lexicographically sorted by code (and codes are value-sorted by
construction of the dictionary), the breadth-first emission order equals
the oracle's depth-first order, which keeps streams bit-identical.

Three emission modes mirror ``generic_join_stream``:

* plain / full-prefix projection — descend every level, decode rows (a
  guarded order's projection keeps each head tuple's first occurrence,
  the oracle's seen-set);
* early-distinct projection — descend the head prefix, then decide each
  prefix's survival with a *component-factorized* boolean existential
  tail (one batched fold per residual component, exactly the
  factorization the oracle uses);
* in-recursion aggregation — descend the group prefix, then fold each
  residual component with segment reductions (``np.add.reduceat`` over
  runs of equal origins) and combine components per surviving prefix with
  exact Python-int arithmetic.

Both folds memoize like the oracle's eliminator, on the separators the
pricer's :func:`repro.engine.cost.simulate_levels` credits: at a
component position whose separator is proper and held by one atom, only
the first frontier row of each distinct separator binding descends, and
the folded columns are spread back through ``np.unique``'s inverse index
(:class:`_ComponentFold`).  An acyclic group-by is output-linear here
too, not join-linear.

The two enumerating modes rank an ``ORDER BY`` in code space before
decoding: code order is value order, so one ``np.lexsort`` over the
direction-adjusted key columns and the full row is ``sort_rows``' order,
and only its first ``LIMIT`` rows become Python tuples.

Anything outside this subset raises :class:`ColumnarFallback`, which the
executor converts into a transparent rerun on the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.columnar import ColumnarFallback
from repro.query.terms import pinned_constants
from repro.query.variable_order import level_layout

#: Component folds beyond this many rows could overflow exact int64 SUMs
#: (|value| <= 2**31 and 2**28 rows keep |sum| < 2**59); degrade instead.
_SUM_SAFE_ROWS = 1 << 28

#: A memo key over several variables is one int64 per row, the codes in
#: base ``|dictionary|``; a wider key leaves its position unmemoized.
_KEY_LIMIT = np.iinfo(np.int64).max

#: A memoized fold's counts and SUMs multiply through the levels instead
#: of counting rows; a total past this magnitude degrades to the oracle.
_EXACT_LIMIT = float(1 << 62)


# ----------------------------------------------------------------------
# Vectorized primitives
# ----------------------------------------------------------------------

def _expand(column: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Enumerate the distinct-value runs of every row's ``[lo, hi)`` span.

    Returns ``(parents, values, run_lo, run_hi)``: for each maximal run of
    one value inside one parent's span, the parent's frontier index, the
    code, and the run's row range in ``column`` (the child trie node).
    Runs appear in (parent, value) order, preserving the frontier's
    lexicographic invariant.
    """
    counts = hi - lo
    total = int(counts.sum())
    empty = np.zeros(0, dtype=np.int64)
    if total == 0:
        return empty, empty, empty, empty
    parents = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    starts = np.zeros(len(lo), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    rows = np.arange(total, dtype=np.int64) - starts[parents] + lo[parents]
    values = column[rows]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    np.not_equal(values[1:], values[:-1], out=boundary[1:])
    boundary[1:] |= parents[1:] != parents[:-1]
    run_lo_idx = np.flatnonzero(boundary)
    run_end_idx = np.append(run_lo_idx[1:], total)
    return (parents[run_lo_idx], values[run_lo_idx], rows[run_lo_idx],
            rows[run_lo_idx] + (run_end_idx - run_lo_idx))


# ----------------------------------------------------------------------
# Batched descent
# ----------------------------------------------------------------------

class _Descent:
    """Shared machinery of one batched join: atoms, masks, level steps.

    A *state* is a dict describing one frontier of partial bindings:
    ``size`` (frontier length), ``origins`` (int64 map back to the row of
    the frontier the descent segment started from), ``ranges`` (per
    edge-key pair of int64 arrays — each frontier row's trie node as a
    half-open row range in that atom's layout) and ``values`` (tracked
    variable → int64 code array aligned with the frontier).
    """

    def __init__(self, plan, layouts, store, counter):
        self.plan = plan  # the LevelLayout: order, stop, selection depths
        self.order = plan.order
        self.layouts = layouts
        self.store = store
        self.counter = counter
        if any(layout.keys is None for layout in layouts.values()):
            raise ColumnarFallback(
                "composite seek keys would overflow int64")
        core = plan.query
        self.atom_vars: dict[str, tuple[str, ...]] = {}
        for i, atom in enumerate(core.atoms):
            edge_key = core.edge_key(i)
            present = set(atom.variables)
            self.atom_vars[edge_key] = tuple(
                v for v in self.order if v in present)
        # Selections become boolean masks over dictionary codes, applied
        # the moment their variable binds — identical placement (and
        # per-value TypeError → False semantics) to the oracle's checks.
        domain = store.values
        masks: list[np.ndarray | None] = [None] * len(self.order)
        for sel, depth in zip(plan.selections, plan.fires_at):
            if len(sel.variables) > 1:
                raise ColumnarFallback(
                    "multi-variable comparison selections are not vectorized")
            variable = sel.lhs
            mask = np.fromiter(
                (bool(sel.evaluate({variable: value})) for value in domain),
                dtype=bool, count=len(domain))
            masks[depth] = mask if masks[depth] is None else masks[depth] & mask
        self.masks = masks
        # A pinned level (``var == constant``) is a seek of the one code
        # its mask admits, as in the python recursion: no scan of the
        # level filtered afterwards.
        pinned = pinned_constants(plan.selections)
        self.pinned = [np.flatnonzero(mask) if variable in pinned else None
                       for variable, mask in zip(self.order, masks)]

    def initial_state(self) -> dict:
        ranges = {
            edge_key: (np.zeros(1, dtype=np.int64),
                       np.full(1, self.layouts[edge_key].n, dtype=np.int64))
            for edge_key in self.atom_vars
        }
        return {"size": 1, "origins": np.zeros(1, dtype=np.int64),
                "ranges": ranges, "values": {}}

    def component_state(self, state: dict, depths, carry=()) -> dict:
        """Restrict ``state`` to the atoms touching the variables at the
        order positions ``depths`` (one residual component), keeping the
        codes of the bound variables ``carry``."""
        component = {self.order[d] for d in depths}
        ranges = {
            edge_key: pair for edge_key, pair in state["ranges"].items()
            if component.intersection(self.atom_vars[edge_key])
        }
        return {"size": state["size"],
                "origins": np.arange(state["size"], dtype=np.int64),
                "ranges": ranges,
                "values": {v: state["values"][v] for v in carry}}

    def memo_keys(self, depths) -> list:
        """Per position of one residual component below the plan's stop,
        the key its fold is memoized on, or ``None`` where it descends
        flat.

        The key is the position's separator, as the pricer's scopes read
        it (:meth:`LevelLayout.separators`).  The selections the kernel
        runs read one variable, bound where they fire, so they add none;
        a variable an aggregate folds adds none either
        (:class:`_ComponentFold` weights it where it binds).  A position
        is memoized where its separator is a proper subset of what is
        bound and one atom holds it, which is where
        :func:`repro.engine.cost.simulate_levels` credits a memo; a key
        no atom holds would sort a frontier of mostly distinct bindings
        for nothing.  Nor is a key whose codes overflow one int64.
        """
        stop = self.plan.stop
        held = [set(variables) for variables in self.atom_vars.values()]
        width = len(self.store.values)
        return [key if (len(key) < stop + j
                        and any(set(key) <= variables for variables in held)
                        and width ** len(key) <= _KEY_LIMIT) else None
                for j, key in enumerate(self.plan.separators(depths, stop))]

    def step(self, state: dict, depth: int, track_value: bool) -> dict:
        """Bind ``order[depth]`` across the whole frontier at once.

        The probe atom is chosen *per frontier row* (the atom whose
        candidate span is smallest for that row — Generic-Join's
        O(min size) intersection discipline; a single global probe would
        do quadratic work on skewed instances).  The frontier is
        partitioned by best atom, each partition expands against the
        others, and the children merge back into (parent, value) order so
        the lexicographic invariant survives.
        """
        variable = self.order[depth]
        ranges = state["ranges"]
        relevant = [edge_key for edge_key in ranges
                    if variable in self.atom_vars[edge_key]]
        if not relevant:
            raise ColumnarFallback(
                f"variable {variable!r} is covered by no atom in this scope")
        size = state["size"]
        counter = self.counter
        if counter is not None:
            counter.charge(search_nodes=size)
        if self.pinned[depth] is not None:
            return self._seek_constant(state, depth, relevant, track_value)
        spans = np.stack([ranges[edge_key][1] - ranges[edge_key][0]
                          for edge_key in relevant])
        if len(relevant) == 1:
            best = np.zeros(size, dtype=np.int64)
        else:
            best = np.argmin(spans, axis=0)
        if counter is not None and size:
            counter.charge(intersection_steps=int(
                spans[best, np.arange(size)].sum()))
        mask = self.masks[depth]
        parts = []
        for k, probe in enumerate(relevant):
            rows_idx = np.flatnonzero(best == k)
            if not len(rows_idx):
                continue
            level = self.atom_vars[probe].index(variable)
            column = self.layouts[probe].columns[level]
            lo, hi = ranges[probe]
            local_parents, values, run_lo, run_hi = _expand(
                column, lo[rows_idx], hi[rows_idx])
            parents = rows_idx[local_parents]
            keep = np.ones(len(values), dtype=bool)
            probed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for edge_key in relevant:
                if edge_key == probe:
                    continue
                other_level = self.atom_vars[edge_key].index(variable)
                # Every frontier window is one trie node (the initial
                # [0, n), a probe's run or a seek's [left, right)), which
                # is the one window shape ``seek`` answers for.
                left, right = self.layouts[edge_key].seek(
                    other_level, ranges[edge_key][0][parents], values)
                if counter is not None:
                    counter.charge(seeks=len(values))
                keep &= left < right
                probed[edge_key] = (left, right)
            if mask is not None:
                keep &= mask[values]
            kept = np.flatnonzero(keep)
            parents_kept = parents[kept]
            child_ranges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for edge_key in ranges:
                if edge_key == probe:
                    child_ranges[edge_key] = (run_lo[kept], run_hi[kept])
                elif edge_key in probed:
                    left, right = probed[edge_key]
                    child_ranges[edge_key] = (left[kept], right[kept])
                else:
                    other_lo, other_hi = ranges[edge_key]
                    child_ranges[edge_key] = (other_lo[parents_kept],
                                              other_hi[parents_kept])
            parts.append((parents_kept, values[kept], child_ranges))
        if not parts:
            empty = np.zeros(0, dtype=np.int64)
            return self._child_state(
                state, empty, {}, {variable: empty} if track_value else {})
        if len(parts) == 1:
            parents_all, values_all, ranges_all = parts[0]
        else:
            parents_all = np.concatenate([p[0] for p in parts])
            values_all = np.concatenate([p[1] for p in parts])
            merge = np.lexsort((values_all, parents_all))
            parents_all = parents_all[merge]
            values_all = values_all[merge]
            ranges_all = {}
            for edge_key in ranges:
                lo_all = np.concatenate([p[2][edge_key][0] for p in parts])
                hi_all = np.concatenate([p[2][edge_key][1] for p in parts])
                ranges_all[edge_key] = (lo_all[merge], hi_all[merge])
        next_values = {v: column_codes[parents_all]
                       for v, column_codes in state["values"].items()}
        if track_value:
            next_values[variable] = values_all
        return {"size": int(len(values_all)),
                "origins": state["origins"][parents_all],
                "ranges": ranges_all, "values": next_values}

    def _seek_constant(self, state: dict, depth: int, relevant: list,
                       track_value: bool) -> dict:
        """Bind a pinned ``order[depth]``: every frontier row seeks the
        constant's code in every relevant atom, one seek per atom."""
        variable = self.order[depth]
        codes = self.pinned[depth]  # the code the constant has, if any
        size = state["size"] if len(codes) else 0
        values = np.full(size, codes[0] if size else 0, dtype=np.int64)
        keep = np.ones(size, dtype=bool)
        probed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for edge_key in relevant if size else ():
            left, right = self.layouts[edge_key].seek(
                self.atom_vars[edge_key].index(variable),
                state["ranges"][edge_key][0], values)
            if self.counter is not None:
                self.counter.charge(seeks=size)
            keep &= left < right
            probed[edge_key] = (left, right)
        kept = np.flatnonzero(keep)
        bound = {variable: values[kept]} if track_value else {}
        return self._child_state(state, kept, probed, bound)

    @staticmethod
    def _child_state(state: dict, kept: np.ndarray, probed: dict,
                     bound: dict) -> dict:
        """The frontier rows ``kept`` of ``state``: the atoms in ``probed``
        narrowed to their seeks' windows, the codes ``bound`` added."""
        ranges = {}
        for edge_key, (lo, hi) in state["ranges"].items():
            lo, hi = probed.get(edge_key, (lo, hi))
            ranges[edge_key] = (lo[kept], hi[kept])
        values = {v: column[kept] for v, column in state["values"].items()}
        values.update(bound)
        return {"size": len(kept), "origins": state["origins"][kept],
                "ranges": ranges, "values": values}


# ----------------------------------------------------------------------
# Emission modes
# ----------------------------------------------------------------------

def columnar_rows(core, order, layouts, store, selections=(), head=None,
                  aggregates=None, counter=None, order_by=(),
                  limit=None) -> list[tuple]:
    """Run one query columnar and return its rows in oracle stream order.

    Mirrors ``generic_join_stream``'s mode selection: ``aggregates`` not
    ``None`` selects in-recursion aggregation grouped by ``head``;
    otherwise ``head`` ``None`` emits full bindings over
    ``core.variables`` and a head tuple selects projection.  Where the
    descent stops and the tail is folded or checked is the
    :func:`repro.query.variable_order.level_layout` the oracle reads, so
    an order the oracle rejects raises its ``ValueError`` here too.
    Raises :class:`ColumnarFallback` when the plan or the data leaves the
    vectorized subset.

    ``order_by`` (``(column, descending)`` keys over the emitted columns;
    not with ``aggregates``) returns the rows in ``sort_rows`` order
    instead, cut to the first ``limit``: they are ranked in code space
    (:func:`_ranked`) and only the survivors are decoded.
    """
    plan = level_layout(core, order, selections, head,
                        aggregate=aggregates is not None)
    descent = _Descent(plan, layouts, store, counter)
    if aggregates is not None:
        return _aggregate_rows(descent, store, tuple(head or ()),
                               tuple(aggregates), counter)
    ranking = (order_by, limit)
    if head is None:
        return _full_rows(descent, core.variables, store, counter, ranking)
    head = tuple(head)
    if plan.stop == len(plan.order):
        # Full descent: nothing is existential below the head, or (a
        # guarded order) each head tuple is kept at its first occurrence.
        return _full_rows(descent, head, store, counter, ranking,
                          plan.seen_set)
    folds = [_ComponentFold(descent, depths, boolean=True)
             for depths in plan.components(plan.stop)]
    # The prefix keeps the codes of the head and of the memo keys.
    tracked = set(head).union(*(fold.needs for fold in folds))
    state = descent.initial_state()
    for depth in range(plan.stop):
        state = descent.step(state, depth,
                             track_value=plan.order[depth] in tracked)
        if state["size"] == 0:
            return []
    alive = _existential_alive(state, folds)
    kept = np.flatnonzero(alive)
    if not head:  # boolean query: one empty row iff the join is non-empty
        rows = [()] if len(kept) else []
        if counter is not None and rows:
            counter.charge(tuples_emitted=1)
        return rows
    if counter is not None:
        counter.charge(tuples_emitted=len(kept))
    codes = _ranked([state["values"][h][kept] for h in head], head, ranking)
    return list(zip(*(store.decode_column(column) for column in codes)))


def _full_rows(descent: _Descent, emit_vars, store, counter, ranking,
               distinct: bool = False) -> list[tuple]:
    """Descend every level and decode the frontier as full bindings —
    with ``distinct``, only the first occurrence of each ``emit_vars``
    tuple.  The frontier is in the python recursion's value order, so
    first occurrences in frontier order are its seen-set's output."""
    state = descent.initial_state()
    for depth in range(len(descent.order)):
        state = descent.step(state, depth, track_value=True)
        if state["size"] == 0:
            return []
    if not emit_vars:
        if counter is not None:
            counter.charge(tuples_emitted=1)
        return [()]
    codes = [state["values"][v] for v in emit_vars]
    if distinct:
        _unique, first = np.unique(np.stack(codes, axis=1), axis=0,
                                   return_index=True)
        first.sort()
        codes = [column[first] for column in codes]
    if counter is not None:
        counter.charge(tuples_emitted=len(codes[0]))
    codes = _ranked(codes, emit_vars, ranking)
    return list(zip(*(store.decode_column(column) for column in codes)))


def _ranked(codes: list, columns, ranking) -> list:
    """The code columns of the rows ``sort_rows`` would return, in its
    order: without ORDER BY keys, ``codes`` unchanged.

    Code order is value order, so one ``np.lexsort`` over the
    direction-adjusted key columns (a DESC key's codes negated), then
    every column ascending, is ``sort_rows``' ``(keys, full row)``
    comparison; the first ``limit`` rows of it are the top-k.
    """
    order_by, limit = ranking
    if not order_by:
        return codes
    position = {column: i for i, column in enumerate(columns)}
    keys = [-codes[position[column]] if descending
            else codes[position[column]]
            for column, descending in order_by]
    # np.lexsort's last key is its primary one.
    winners = np.lexsort((*reversed(codes), *reversed(keys)))[:limit]
    return [column[winners] for column in codes]


class _ComponentFold:
    """The fold of one residual component below the plan's stop.

    Called on the prefix frontier, it returns per row the number of
    completions of the component (with ``boolean``, only its sign is
    meaningful) and, per ``(kind, variable)`` of ``specs``, the SUM of the
    variable's integer values, or the MIN / MAX of its codes, over those
    completions — meaningful where the count is positive.

    Where the component's position ``j`` has a memo key
    (:meth:`_Descent.memo_keys`), only the first frontier row of each
    distinct binding of it descends, and its fold is spread back to the
    rows sharing that binding through the inverse index: the python
    eliminator's memo, one ``np.unique`` per level instead of one dict
    probe per row.  A variable bound above such a level needs no place in
    its key: below the level only the count is folded, and the variable's
    value is weighted by that count where it was bound.
    """

    def __init__(self, descent: _Descent, depths, specs=(), int_domain=None,
                 boolean: bool = False):
        self.descent = descent
        self.depths = depths
        self.specs = tuple(specs)
        self.int_domain = int_domain
        self.boolean = boolean
        self.keys = descent.memo_keys(depths)
        self.position = {descent.order[d]: j for j, d in enumerate(depths)}
        #: The variables whose codes the fold reads: keys and specs.
        self.needs = {variable for _kind, variable in self.specs}.union(
            *filter(None, self.keys))

    def __call__(self, state: dict) -> tuple:
        sub = self.descent.component_state(
            state, self.depths, self.needs & state["values"].keys())
        return self._fold(sub, 0, self.specs)

    def _fold(self, sub: dict, j: int, specs) -> tuple:
        """The fold of ``depths[j:]`` below every row of ``sub``, a
        frontier about to bind ``order[depths[j]]``."""
        key = self.keys[j]
        if key is None:
            return self._descend(sub, j, specs)
        codes = np.zeros(sub["size"], dtype=np.int64)
        width = len(self.descent.store.values)
        for u in key:  # the key's codes, as digits of one int64
            codes = codes * width + sub["values"][u]
        if self.descent.counter is not None:
            self.descent.counter.charge(intersection_steps=len(codes))
        _unique, first, inverse = np.unique(codes, return_index=True,
                                            return_inverse=True)
        counts, values = self._descend(
            self.descent._child_state(sub, first, {}, {}), j, specs)
        return counts[inverse], [value[inverse] for value in values]

    def _descend(self, sub: dict, j: int, specs) -> tuple:
        """:meth:`_fold` without a memo at ``j``: bind ``depths[j:]`` flat
        down to the next memoized position (or the component's end), fold
        there, and reduce the children into their parents by origin."""
        descent, depths, keys = self.descent, self.depths, self.keys
        counter = descent.counter
        size = sub["size"]
        sub = dict(sub, origins=np.arange(size, dtype=np.int64))
        m = j
        while True:
            variable = descent.order[depths[m]]
            sub = descent.step(sub, depths[m],
                               track_value=variable in self.needs)
            m += 1
            if sub["size"] == 0:
                empty = np.zeros(size, dtype=np.int64)
                return empty, [empty] * len(specs)
            if m == len(depths) or keys[m] is not None:
                break
        origins = sub["origins"]
        if m == len(depths):
            # The COUNT fold: one pass over the component's frontier rows
            # — the vectorized face of the python eliminator's per-tuple ⊕.
            if counter is not None:
                counter.charge(intersection_steps=len(origins))
            counts = np.bincount(origins, minlength=size)
            children = []
            for kind, variable in specs:
                codes = sub["values"][variable]
                if kind == "sum":
                    if len(codes) > _SUM_SAFE_ROWS:
                        raise ColumnarFallback(
                            "SUM fold too large for exact int64 arithmetic")
                    codes = self.int_domain[codes]
                children.append(codes)
        else:
            deeper = [spec for spec in specs if self.position[spec[1]] >= m]
            below, values = self._fold(sub, m, deeper)
            # Dead children (no completion) carry no value: drop them.
            live = np.flatnonzero(below > 0)
            origins = origins[live]
            below = below[live]
            folded = dict(zip(deeper, values))
            children = []
            for spec in specs:
                if spec in folded:
                    value = folded[spec][live]
                    if spec[0] == "sum":
                        value = _exact(value)
                else:  # bound on this stretch: once per completion below
                    value = sub["values"][spec[1]][live]
                    if spec[0] == "sum":
                        value = _exact(self.int_domain[value], below)
                children.append(value)
            if self.boolean:
                if counter is not None:
                    counter.charge(intersection_steps=len(origins))
                counts = np.bincount(origins, minlength=size)
            else:
                counts = _segments(_exact(below), origins, size, np.add,
                                   counter)
        return counts, [
            _segments(value, origins, size, _REDUCERS[kind], counter)
            for (kind, _variable), value in zip(specs, children)]


def _exact(values: np.ndarray, weights: np.ndarray | None = None):
    """``values`` (times ``weights``) as int64, checked first in floating
    point: a memoized fold multiplies counts through its levels, so any
    sum of the result must stay inside int64, or the run degrades to the
    oracle's exact integers."""
    magnitude = np.abs(values.astype(np.float64))
    if weights is not None:
        magnitude *= weights
    if magnitude.sum() >= _EXACT_LIMIT:
        raise ColumnarFallback("memoized fold too large for exact int64")
    return values if weights is None else values * weights


def _existential_alive(state: dict, folds: list) -> np.ndarray:
    """Which frontier rows have at least one completion of the tail?

    One boolean :class:`_ComponentFold` per residual component below the
    plan's stop — the same factorization and separator memo
    ``generic_join_stream`` applies, so a star projection costs the sum
    of its arms, not their product, and an arm keyed on a pinned
    variable is searched once.
    """
    alive = np.ones(state["size"], dtype=bool)
    for fold in folds:
        witnessed = fold(state)[0] > 0
        if not witnessed.any():
            return witnessed
        alive &= witnessed
    return alive


#: The ufunc whose ``reduceat`` folds an aggregate kind over a segment —
#: on codes for MIN / MAX, since code order is value order.
_REDUCERS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def _segments(values: np.ndarray, origins: np.ndarray, size: int,
              ufunc, counter) -> np.ndarray:
    """``ufunc`` over each run of equal ``origins`` (they arrive grouped:
    the descent keeps its frontier in parent order), scattered into a
    zeroed array of ``size`` parents: one pass over ``values``."""
    if counter is not None:
        counter.charge(intersection_steps=len(values))
    out = np.zeros(size, dtype=np.int64)
    if len(origins):
        change = np.empty(len(origins), dtype=bool)
        change[0] = True
        np.not_equal(origins[1:], origins[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        out[origins[starts]] = ufunc.reduceat(values, starts)
    return out


def _aggregate_rows(descent: _Descent, store, group, aggregates,
                    counter) -> list[tuple]:
    """In-recursion semiring aggregation, component-factorized.

    Matches the oracle's grouped elimination: descend the group prefix,
    fold every residual component independently, then combine folds per
    surviving prefix with the semiring ⊗ — evaluated here in exact Python
    ints so cross-component COUNT/SUM products can never overflow int64.
    """
    order = descent.order
    stop = descent.plan.stop
    semirings = []
    for agg in aggregates:
        if agg.kind not in ("count", "sum", "min", "max"):
            raise ColumnarFallback(
                f"no vectorized fold for aggregate kind {agg.kind!r}")
        semirings.append(agg.semiring())
    needs_sum = any(agg.kind == "sum" for agg in aggregates)
    int_domain = store.int_domain() if needs_sum else None
    if needs_sum and int_domain is None:
        raise ColumnarFallback(
            "SUM over a non-integer (or overflow-prone) value domain")

    state = descent.initial_state()
    for depth in range(stop):
        state = descent.step(state, depth, track_value=True)
        if state["size"] == 0:
            break
    size = state["size"]
    if size == 0:
        if group:
            return []
        row = tuple(sr.finish(sr.zero) for sr in semirings)
        if counter is not None:
            counter.charge(tuples_emitted=1)
        return [row]

    alive = np.ones(size, dtype=bool)
    counts_by_component: list[np.ndarray] = []
    component_of: dict[int, int] = {}   # aggregate idx -> component idx
    folds: dict[int, np.ndarray] = {}   # aggregate idx -> its fold
    for ci, depths in enumerate(descent.plan.components(stop)):
        spec = [ai for ai, agg in enumerate(aggregates)
                if agg.kind != "count" and order.index(agg.var) in depths]
        counts, values = _ComponentFold(
            descent, depths, [(aggregates[ai].kind, aggregates[ai].var)
                              for ai in spec], int_domain)(state)
        counts_by_component.append(counts)
        alive &= counts > 0
        for ai, value in zip(spec, values):
            component_of[ai] = ci
            folds[ai] = value

    kept = np.flatnonzero(alive)
    rows: list[tuple] = []
    if len(kept):
        decoded_prefix = {
            v: store.decode_column(state["values"][v][kept])
            for v in state["values"]
        }
        kept_counts = [counts[kept].tolist() for counts in counts_by_component]
        plans = []  # per aggregate: (tag, component idx or None, data)
        for ai, agg in enumerate(aggregates):
            if agg.kind == "count":
                plans.append(("count", None, None))
            elif ai in folds:
                plans.append((agg.kind, component_of[ai],
                              folds[ai][kept].tolist()))
            else:  # aggregate over a group/pinned prefix variable
                plans.append((agg.kind + "@prefix", None,
                              decoded_prefix[agg.var]))
        group_columns = [decoded_prefix[g] for g in group]
        dictionary = store.values
        for r in range(len(kept)):
            total = 1
            for counts in kept_counts:
                total *= int(counts[r])
            outputs = []
            for tag, ci, data in plans:
                if tag == "count":
                    value = total
                elif tag == "sum":
                    value = int(data[r]) * (total // int(kept_counts[ci][r]))
                elif tag in ("min", "max"):
                    value = dictionary[data[r]]
                elif tag == "sum@prefix":
                    value = data[r] * total
                else:  # min@prefix / max@prefix: the value itself
                    value = data[r]
                outputs.append(value)
            rows.append(tuple(column[r] for column in group_columns)
                        + tuple(sr.finish(v)
                                for sr, v in zip(semirings, outputs)))
    if not rows and not group:
        rows.append(tuple(sr.finish(sr.zero) for sr in semirings))
    if counter is not None:
        counter.charge(tuples_emitted=len(rows))
    return rows
