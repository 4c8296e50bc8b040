"""Per-view maintenance state: annotated join-tree messages that repair.

A standing acyclic view is held as an
:class:`~repro.joins.yannakakis.AnnotatedJoinTree`: one annotated table
per join-tree node (tuples annotated with a support count and one
semiring value per aggregate), one ``⊕``-projected message per non-root
node, and the root's group accumulators.  The FAQ delta rule is what
makes this state repairable: the view is *linear* in each atom's
annotation table (as long as the relation appears in exactly one atom),
so a tuple-level delta is itself an annotated table — inserted tuples
lifted normally, deleted tuples lifted and **negated** through the ring
protocol (:func:`repro.query.semiring.negate_value`) — and

    ΔM_n = π_keep( ΔT_n ⊗ M_c₁ ⊗ ... ⊗ M_cₖ )

re-derives only the messages on the changed leaf's root path, joining the
delta against the *unchanged* sibling messages.  The support coordinate
tells a delete when an entry's (or group's) last derivation is gone — a
SUM of 0 alone cannot distinguish "cancelled to zero" from "no longer
derivable".

Every propagation join probes a hash index keyed on the child's
separator (the running-intersection property guarantees the join columns
*are* exactly the separator); this module builds and maintains those
indexes, so a single-tuple delta costs work proportional to the affected
entries, not to the database.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.joins.instrumentation import OperationCounter
from repro.joins.yannakakis import (
    AnnotatedJoinTree,
    AnnotatedNode,
    AnnTable,
    aggregate_lifts,
    ann_project,
)
from repro.query.builder import Query
from repro.query.semiring import negate_value
from repro.relational.database import Database


def _pick(row: tuple, positions: Sequence[int]) -> tuple:
    return tuple(row[p] for p in positions)


def _positions(schema: tuple[str, ...], columns: Sequence[str]) -> list[int]:
    return [schema.index(v) for v in columns]


def _index_by(rows: Iterable[tuple], positions: Sequence[int]
              ) -> dict[tuple, set]:
    """Rows bucketed by their values at ``positions``."""
    index: dict[tuple, set] = {}
    for row in rows:
        index.setdefault(_pick(row, positions), set()).add(row)
    return index


def _discard(index: dict[tuple, set], key: tuple, row: tuple) -> None:
    bucket = index.get(key)
    if bucket is not None:
        bucket.discard(row)
        if not bucket:
            del index[key]


class ViewState:
    """The repairable materialization of one acyclic standing query.

    Build it from the query spec and the current database, then feed it
    effective tuple deltas through :meth:`apply`; :meth:`rows` yields the
    current (unordered) output rows.

    Raises :class:`QueryError` when the query cannot be held this way
    (cyclic hypergraph, or an aggregate over a product-less semiring).
    """

    def __init__(self, spec: Query, database: Database,
                 counter: OperationCounter | None = None):
        self._spec = spec
        semirings, lifts = aggregate_lifts(spec.core, spec.aggregates)
        self._tree = AnnotatedJoinTree(
            spec.core, database, spec.head_vars, semirings, lifts,
            spec.all_selections, counter)
        for _node, _table in self._tree.pass_messages(counter):
            pass
        self._nodes = self._tree.nodes
        self._semirings = self._tree.semirings

        #: Edge keys per relation name (len > 1 marks a self-join, which
        #: breaks the delta rule's linearity for that relation).
        self._edges_of: dict[str, list[str]] = {}
        for node in self._nodes.values():
            self._edges_of.setdefault(node.relation, []).append(node.edge)

        #: Per node, per child edge: child-separator key -> base rows.
        self._table_index: dict[str, dict[str, dict[tuple, set]]] = {}
        #: Per non-root node: separator key -> its message rows.
        self._message_index: dict[str, dict[tuple, set]] = {}
        for node in self._nodes.values():
            self._table_index[node.edge] = {
                child: _index_by(node.table, _positions(
                    node.schema, self._nodes[child].sep))
                for child in node.children
            }
            if node.parent is not None:
                schema, rows = node.message
                self._message_index[node.edge] = _index_by(
                    rows, _positions(schema, node.sep))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> Query:
        """The standing query this state materializes."""
        return self._spec

    @property
    def supports_deletes(self) -> bool:
        """True when every aggregate semiring is a ring (has ``negate``)."""
        return all(sr.has_inverse for sr in self._semirings)

    def relation_edges(self, name: str) -> tuple[str, ...]:
        """The join-tree edges bound to relation ``name`` (may be empty)."""
        return tuple(self._edges_of.get(name, ()))

    def group_count(self) -> int:
        """Number of live groups (root accumulator entries)."""
        return len(self._tree.groups)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def apply(self, name: str, inserted: Iterable[tuple],
              deleted: Iterable[tuple],
              counter: OperationCounter | None = None) -> bool | None:
        """Propagate an effective delta on relation ``name``.

        Returns True when the root groups changed, False when the state
        absorbed the delta without any output-visible change, and None
        when this state *cannot* repair for the delta — the relation
        appears in several atoms (the delta rule needs linearity) or the
        batch deletes under a non-invertible semiring — in which case the
        state is untouched and the caller must rebuild from scratch.
        """
        edges = self._edges_of.get(name)
        if not edges:
            return False  # the view does not read this relation
        if len(edges) > 1:
            return None  # self-join: Q is not linear in this relation
        deleted = list(deleted)
        if deleted and not self.supports_deletes:
            return None

        node = self._nodes[edges[0]]
        delta_rows: dict[tuple, list] = {}
        for row in inserted:
            if not node.admits(row):
                continue
            if row in node.table:
                continue  # effective deltas should never resend these
            ann = node.lift(row)
            node.table[row] = list(ann)
            self._index_table_row(node, row, add=True)
            delta_rows[row] = ann
        for row in deleted:
            if row not in node.table:
                continue  # filtered out at load time, or never present
            del node.table[row]
            self._index_table_row(node, row, add=False)
            ann = node.lift(row)
            delta_rows[row] = [negate_value(sr, a)
                               for sr, a in zip(self._semirings, ann)]
        if counter is not None:
            counter.charge(tuples_scanned=len(delta_rows))
        if not delta_rows:
            return False

        # Walk the root path, joining the delta against unchanged sibling
        # messages (and the ancestor base tables) via the separator
        # indexes, merging each re-derived message as we go.
        acc: AnnTable = (node.schema, delta_rows)
        incoming: str | None = None
        while True:
            for child_edge in node.children:
                if child_edge == incoming:
                    continue
                child = self._nodes[child_edge]
                message_schema, message_rows = child.message
                acc = self._probe_join(
                    acc, message_schema, message_rows,
                    self._message_index[child_edge], child.sep, counter)
                if not acc[1]:
                    return False  # delta died against a sibling subtree
            if node.parent is None:
                break
            delta_message = ann_project(acc, node.keep, self._semirings,
                                        counter)
            self._merge_message(node, delta_message)
            if not delta_message[1]:
                return False
            parent = self._nodes[node.parent]
            acc = self._probe_join(delta_message, parent.schema,
                                   parent.table,
                                   self._table_index[parent.edge][node.edge],
                                   node.sep, counter)
            if not acc[1]:
                return False
            incoming, node = node.edge, parent

        return self._merge_groups(self._tree.project_groups(acc, counter))

    def _index_table_row(self, node: AnnotatedNode, row: tuple,
                         add: bool) -> None:
        for child_edge, index in self._table_index[node.edge].items():
            key = _pick(row, _positions(node.schema,
                                        self._nodes[child_edge].sep))
            if add:
                index.setdefault(key, set()).add(row)
            else:
                _discard(index, key, row)

    def _probe_join(self, delta: AnnTable, other_schema: tuple[str, ...],
                    other_rows: dict[tuple, list],
                    index: dict[tuple, set], sep: tuple[str, ...],
                    counter: OperationCounter | None) -> AnnTable:
        """Join a (small) delta table against an indexed stored table.

        The join columns are exactly ``sep`` by the running-intersection
        property, so each delta row costs one probe plus the matched
        entries — never a scan of the stored side.
        """
        d_schema, d_rows = delta
        sep_positions = _positions(d_schema, sep)
        extra = [v for v in other_schema if v not in d_schema]
        extra_positions = _positions(other_schema, extra)
        out_schema = d_schema + tuple(extra)
        out: dict[tuple, list] = {}
        semirings = self._semirings
        for row, ann in d_rows.items():
            if counter is not None:
                counter.charge(tuples_scanned=1, hash_probes=1)
            for other in index.get(_pick(row, sep_positions), ()):
                other_ann = other_rows[other]
                joined = row + _pick(other, extra_positions)
                out[joined] = [sr.times(a, b) for sr, a, b
                               in zip(semirings, ann, other_ann)]
                if counter is not None:
                    counter.charge(tuples_emitted=1)
        return out_schema, out

    def _merge_message(self, node: AnnotatedNode, delta: AnnTable) -> None:
        """``⊕``-merge a delta message into a node's stored message,
        pruning entries whose support reaches zero."""
        schema, rows = node.message
        index = self._message_index[node.edge]
        sep_positions = _positions(schema, node.sep)
        for row, ann in delta[1].items():
            existing = rows.get(row)
            if existing is None:
                if ann[0] == 0:
                    continue  # a cancelled entry never materializes
                rows[row] = list(ann)
                index.setdefault(_pick(row, sep_positions), set()).add(row)
                continue
            merged = [sr.plus(a, b) for sr, a, b
                      in zip(self._semirings, existing, ann)]
            if merged[0] == 0:
                del rows[row]
                _discard(index, _pick(row, sep_positions), row)
            else:
                rows[row] = merged

    def _merge_groups(self, delta: AnnTable) -> bool:
        groups = self._tree.groups
        changed = False
        for key, ann in delta[1].items():
            existing = groups.get(key)
            if existing is None:
                if ann[0] == 0:
                    continue
                groups[key] = list(ann)
                changed = True
                continue
            merged = [sr.plus(a, b) for sr, a, b
                      in zip(self._semirings, existing, ann)]
            if merged[0] == 0:
                del groups[key]
            else:
                groups[key] = merged
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def rows(self) -> list[tuple]:
        """The current output rows (group keys + finalized aggregates)."""
        return self._tree.rows()
