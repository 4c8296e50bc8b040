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
  tail (one batched descent per residual component, exactly the
  factorization the oracle uses);
* in-recursion aggregation — descend the group prefix, then fold each
  residual component with segment reductions (``np.add.reduceat`` over
  runs of equal origins) and combine components per surviving prefix with
  exact Python-int arithmetic.

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
from repro.query.variable_order import level_layout

#: Component folds beyond this many rows could overflow exact int64 SUMs
#: (|value| <= 2**31 and 2**28 rows keep |sum| < 2**59); degrade instead.
_SUM_SAFE_ROWS = 1 << 28


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

    def initial_state(self) -> dict:
        ranges = {
            edge_key: (np.zeros(1, dtype=np.int64),
                       np.full(1, self.layouts[edge_key].n, dtype=np.int64))
            for edge_key in self.atom_vars
        }
        return {"size": 1, "origins": np.zeros(1, dtype=np.int64),
                "ranges": ranges, "values": {}}

    def component_state(self, state: dict, depths) -> dict:
        """Restrict ``state`` to the atoms touching the variables at the
        order positions ``depths`` (one residual component)."""
        component = {self.order[d] for d in depths}
        ranges = {
            edge_key: pair for edge_key, pair in state["ranges"].items()
            if component.intersection(self.atom_vars[edge_key])
        }
        return {"size": state["size"],
                "origins": np.arange(state["size"], dtype=np.int64),
                "ranges": ranges, "values": {}}

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
            next_values = {v: empty for v in state["values"]}
            if track_value:
                next_values[variable] = empty
            return {"size": 0, "origins": empty,
                    "ranges": {edge_key: (empty, empty) for edge_key in ranges},
                    "values": next_values}
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
    head_set = set(head)
    state = descent.initial_state()
    for depth in range(plan.stop):
        state = descent.step(state, depth,
                             track_value=plan.order[depth] in head_set)
        if state["size"] == 0:
            return []
    alive = _existential_alive(descent, state)
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


def _existential_alive(descent: _Descent, state: dict) -> np.ndarray:
    """Which frontier rows have at least one completion of the tail?

    One batched boolean descent per residual component below the plan's
    stop — the same factorization ``generic_join_stream`` applies, so a
    star projection costs the sum of its arms, not their product.
    """
    size = state["size"]
    alive = np.ones(size, dtype=bool)
    for depths in descent.plan.components(descent.plan.stop):
        sub = descent.component_state(state, depths)
        for d in depths:
            sub = descent.step(sub, d, track_value=False)
            if sub["size"] == 0:
                return np.zeros(size, dtype=bool)
        witnessed = np.zeros(size, dtype=bool)
        # Witness scatter: one pass over the component's surviving rows.
        if descent.counter is not None:
            descent.counter.charge(intersection_steps=len(sub["origins"]))
        witnessed[sub["origins"]] = True
        alive &= witnessed
    return alive


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

    components = descent.plan.components(stop)
    component_of = {order[d]: ci for ci, depths in enumerate(components)
                    for d in depths}
    alive = np.ones(size, dtype=bool)
    counts_by_component: list[np.ndarray] = []
    folds: dict[int, tuple[str, np.ndarray]] = {}  # aggregate idx -> fold
    for ci, depths in enumerate(components):
        track = {agg.var for agg in aggregates
                 if component_of.get(agg.var) == ci}
        sub = descent.component_state(state, depths)
        for d in depths:
            sub = descent.step(sub, d, track_value=order[d] in track)
        origins = sub["origins"]
        # The COUNT fold: one pass over the component's frontier rows —
        # the vectorized face of the python eliminator's per-tuple ⊕.
        if counter is not None:
            counter.charge(intersection_steps=len(origins))
        counts = np.bincount(origins, minlength=size)
        counts_by_component.append(counts)
        alive &= counts > 0
        if len(origins) == 0:
            continue
        # Frontier rows arrive grouped by origin (the descent preserves
        # lexicographic order), so per-origin folds are segment reductions.
        change = np.empty(len(origins), dtype=bool)
        change[0] = True
        np.not_equal(origins[1:], origins[:-1], out=change[1:])
        segment_starts = np.flatnonzero(change)
        segment_origins = origins[segment_starts]
        for ai, agg in enumerate(aggregates):
            if agg.var not in track or agg.kind == "count":
                continue
            codes = sub["values"][agg.var]
            # Each segment reduction below re-walks the component's rows.
            if counter is not None:
                counter.charge(intersection_steps=len(codes))
            fold = np.zeros(size, dtype=np.int64)
            if agg.kind == "sum":
                if len(codes) > _SUM_SAFE_ROWS:
                    raise ColumnarFallback(
                        "SUM fold too large for exact int64 arithmetic")
                fold[segment_origins] = np.add.reduceat(
                    int_domain[codes], segment_starts)
                folds[ai] = ("sum", fold)
            elif agg.kind == "min":
                fold[segment_origins] = np.minimum.reduceat(
                    codes, segment_starts)
                folds[ai] = ("code", fold)
            else:  # max — code order equals value order
                fold[segment_origins] = np.maximum.reduceat(
                    codes, segment_starts)
                folds[ai] = ("code", fold)

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
            elif agg.var in component_of:
                ci = component_of[agg.var]
                kind, fold = folds.get(ai, ("code", None))
                if fold is None:
                    # Var in a component but never tracked: impossible —
                    # tracked above whenever agg.var ∈ component.
                    raise ColumnarFallback("missing component fold")
                data = fold[kept].tolist()
                plans.append((agg.kind, ci, data))
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
