"""Engine.subscribe: standing queries maintained under catalog deltas."""

import random

import pytest

from repro.engine.session import Engine
from repro.errors import QueryError
from repro.ivm.subscription import incremental_decision
from repro.joins.instrumentation import OperationCounter
from repro.query.builder import Query
from repro.relational.relation import Relation


def star_engine(groups=10, fanout=4, seed=0, **kwargs):
    """Three arms around a shared key, sized mid power-of-two bucket so
    single-tuple deltas never trip the statistics-drift re-planner."""
    rng = random.Random(seed)
    relations = []
    for i, column in enumerate(("b", "c", "d")):
        rows = set()
        while len(rows) < groups * fanout:
            rows.add((rng.randrange(groups), rng.randrange(500)))
        relations.append(Relation(f"R{i + 1}", ("a", column), rows))
    return Engine(relations=relations, **kwargs)


STAR = "Q(A, SUM(B) AS total, COUNT(*) AS n) :- R1(A,B), R2(A,C), R3(A,D)"


class TestLifecycle:
    def test_initial_result_matches_execute(self):
        engine = star_engine()
        sub = engine.subscribe(STAR)
        cold = engine.execute(STAR, counter=OperationCounter())
        assert sub.result == cold
        assert sub.incremental
        assert sub.last_maintenance.kind == "refresh"

    def test_randomized_insert_delete_stream_matches_cold_execution(self):
        # The acceptance cross-check: a subscribed acyclic SUM/GROUP BY
        # view stays bit-identical to cold re-execution under a random
        # stream of single-tuple inserts AND deletes.
        engine = star_engine(seed=3)
        reference = Engine(database=engine.database)
        sub = engine.subscribe(STAR, replan_threshold=99)
        rng = random.Random(42)
        incremental_inserts = incremental_deletes = 0
        for step in range(60):
            name = f"R{rng.randrange(3) + 1}"
            relation = engine.database.get(name)
            if rng.random() < 0.45 and len(relation) > 4:
                victim = rng.choice(sorted(relation.tuples))
                applied = engine.apply_delta(name, deletes=[victim])
                deleting = True
            else:
                row = (rng.randrange(10), rng.randrange(500))
                applied = engine.apply_delta(name, inserts=[row])
                deleting = False
            if applied.changed and sub.last_maintenance.kind == "incremental":
                if deleting:
                    incremental_deletes += 1
                else:
                    incremental_inserts += 1
            cold = reference.execute(sub.query, counter=OperationCounter())
            assert sub.rows() == sorted(cold.tuples), f"diverged at {step}"
        assert incremental_inserts > 5 and incremental_deletes > 5

    def test_on_change_fires_only_on_result_change(self):
        engine = star_engine()
        seen = []
        sub = engine.subscribe(STAR, on_change=lambda s: seen.append(s.rows()),
                               replan_threshold=99)
        assert seen == []  # initial materialization is not a change
        row = next(iter(engine.database.get("R1").tuples))
        engine.apply_delta("R1", inserts=[row])  # no-op batch
        assert seen == []
        engine.apply_delta("R1", inserts=[(0, 499)])
        assert len(seen) == 1 and seen[0] == sub.rows()

    def test_unsubscribe_stops_maintenance(self):
        engine = star_engine()
        sub = engine.subscribe(STAR)
        stamp = sub.last_maintenance
        assert engine.unsubscribe(sub) is True
        assert engine.unsubscribe(sub) is False
        assert not sub.active
        engine.apply_delta("R1", inserts=[(0, 499)])
        assert sub.last_maintenance is stamp

    def test_engine_insert_routes_through_maintenance(self):
        engine = star_engine()
        sub = engine.subscribe(STAR, replan_threshold=99)
        grown = engine.insert("R1", [(0, 499)])
        assert grown == 1
        assert sub.last_maintenance.kind == "incremental"
        cold = engine.execute(STAR, counter=OperationCounter())
        assert sub.result == cold


class TestFallbacks:
    def test_cyclic_view_refreshes(self):
        engine = Engine(relations=[
            Relation("E", ("x", "y"), {(1, 2), (2, 3), (3, 1)}),
        ])
        sub = engine.subscribe("Q(X) :- E(X,Y), E(Y,Z), E(Z,X)")
        assert not sub.incremental
        assert "cyclic" in sub.fallback_reason
        engine.apply_delta("E", inserts=[(1, 1)])
        assert sub.last_maintenance.kind == "refresh"
        assert sub.rows() == sorted(
            engine.execute(sub.query, counter=OperationCounter()).tuples)

    def test_self_join_delta_refreshes_that_batch_only(self):
        engine = Engine(relations=[
            Relation("E", ("x", "y"), {(i, i + 1) for i in range(20)}),
            Relation("L", ("x", "t"), {(i, i % 3) for i in range(20)}),
        ])
        sub = engine.subscribe("Q(X, T) :- E(X,Y), E(Y,Z), L(X,T)",
                               replan_threshold=99)
        assert sub.incremental
        engine.apply_delta("E", inserts=[(30, 31)])
        assert sub.last_maintenance.kind == "refresh"
        assert "several atoms" in sub.last_maintenance.reason
        # a delta on the non-self-joined relation stays incremental
        engine.apply_delta("L", inserts=[(0, 7)])
        assert sub.last_maintenance.kind == "incremental"
        assert sub.rows() == sorted(
            engine.execute(sub.query, counter=OperationCounter()).tuples)

    def test_min_delete_refreshes_insert_stays_incremental(self):
        engine = star_engine()
        sub = engine.subscribe("Q(A, MIN(B) AS lo) :- R1(A,B), R2(A,C)",
                               replan_threshold=99)
        assert sub.incremental
        engine.apply_delta("R1", inserts=[(0, 499)])
        assert sub.last_maintenance.kind == "incremental"
        victim = next(iter(engine.database.get("R1").tuples))
        engine.apply_delta("R1", deletes=[victim])
        assert sub.last_maintenance.kind == "refresh"
        assert "inverse" in sub.last_maintenance.reason
        assert sub.rows() == sorted(
            engine.execute(sub.query, counter=OperationCounter()).tuples)

    def test_unordered_limit_is_structurally_refresh_only(self):
        decision = incremental_decision(
            Query.coerce("Q(A) :- R1(A,B) LIMIT 3"))
        assert decision is not None and "LIMIT" in decision

    def test_ordered_view_maintains_and_stays_sorted(self):
        engine = star_engine()
        sub = engine.subscribe(
            "Q(A, SUM(B) AS total) :- R1(A,B), R2(A,C) "
            "ORDER BY total DESC LIMIT 3", replan_threshold=99)
        engine.apply_delta("R1", inserts=[(0, 499)])
        cold = engine.execute(sub.query, counter=OperationCounter())
        assert sub.result == cold
        totals = [row[1] for row in sub.rows()]
        assert totals == sorted(totals, reverse=True)


class TestReplanning:
    def test_stats_drift_triggers_replan_and_counts(self):
        engine = star_engine(groups=4, fanout=4)  # small: buckets move fast
        sub = engine.subscribe(STAR, replan_threshold=1)
        fingerprint_before = sub._planned_fingerprint
        engine.apply_delta("R1", inserts=[(0, 1000 + i) for i in range(40)])
        assert sub.last_maintenance.kind == "refresh"
        assert sub.last_maintenance.replanned
        assert sub._planned_fingerprint != fingerprint_before
        assert engine._plans.invalidation_counts().get("stats-drift") == 1
        snapshot = engine.metrics_snapshot()
        key = 'repro_plan_cache_invalidations_total{reason="stats-drift"}'
        assert snapshot[key] == 1.0

    def test_stats_drift_evicts_a_constant_bound_views_plan(self):
        # The plan key holds the constant-free plan form; evicting by the
        # full form (constants included) would silently match nothing.
        edges = {(v, (v + step) % 8) for v in range(8) for step in (1, 2)}
        engine = Engine(relations=[Relation("Ru", ("A", "B"), edges),
                                   Relation("Su", ("B", "C"), edges)])
        sub = engine.subscribe("V(B) :- Ru(3,B), Su(B,C)",
                               replan_threshold=1)
        (stale,) = engine._plans._entries
        assert stale[0] == "Ru(v0,v1);Su(v1,v2)=>v1|sel:v0==?"
        engine.apply_delta("Su", inserts=[(4, 100 + i) for i in range(40)])
        assert sub.last_maintenance.replanned
        assert stale not in engine._plans
        assert engine._plans.invalidation_counts() == {"stats-drift": 1}
        assert sub.rows() == sorted(
            engine.execute(sub.query, counter=OperationCounter()).tuples)

    def test_version_bump_on_replace_refreshes_and_counts(self):
        engine = star_engine()
        sub = engine.subscribe(STAR, replan_threshold=99)
        engine.replace_relation(Relation("R3", ("a", "d"), {(0, 1)}))
        assert sub.last_maintenance.kind == "refresh"
        assert sub.last_maintenance.replanned
        assert engine._plans.invalidation_counts() == {"version-bump": 1}
        snapshot = engine.metrics_snapshot()
        key = 'repro_plan_cache_invalidations_total{reason="version-bump"}'
        assert snapshot[key] == 1.0
        assert sub.rows() == sorted(
            engine.execute(sub.query, counter=OperationCounter()).tuples)

    def test_remove_relation_deactivates_dependents(self):
        engine = star_engine()
        sub = engine.subscribe(STAR)
        other = engine.subscribe("Q(A, C) :- R2(A,C)")
        engine.remove_relation("R1")
        assert not sub.active
        assert "removed" in sub.last_maintenance.reason
        assert other.active
        # deactivated subscriptions ignore later deltas
        engine.apply_delta("R2", inserts=[(0, 499)])
        assert other.last_maintenance.kind in ("incremental", "refresh")

    def test_replan_threshold_validates(self):
        engine = star_engine()
        with pytest.raises(QueryError):
            engine.subscribe(STAR, replan_threshold=0)


class TestMetrics:
    def test_delta_and_maintenance_instruments(self):
        engine = star_engine()
        engine.subscribe(STAR, replan_threshold=99)
        engine.apply_delta("R1", inserts=[(0, 499)], deletes=[(0, 499)])
        engine.apply_delta("R1", inserts=[(1, 499)])
        snapshot = engine.metrics_snapshot()
        assert snapshot['repro_deltas_applied_total{kind="insert"}'] == 1.0
        assert snapshot['repro_subscriptions_active'] == 1
        maintained = snapshot[
            'repro_view_maintenance_total{kind="incremental"}']
        refreshed = snapshot['repro_view_maintenance_total{kind="refresh"}']
        assert maintained >= 1.0 and refreshed >= 1.0  # initial refresh

    def test_metrics_disabled_engine_still_maintains(self):
        engine = star_engine(metrics=False)
        sub = engine.subscribe(STAR, replan_threshold=99)
        engine.apply_delta("R1", inserts=[(0, 499)])
        assert sub.result == engine.execute(
            STAR, counter=OperationCounter())


class TestFailingSubscriber:
    QUERIES = (STAR,
               "Q(A, COUNT(*) AS n) :- R1(A,B), R2(A,C)",
               "Q(A, MAX(B) AS top) :- R1(A,B), R3(A,D)")

    def test_raising_view_does_not_strand_the_others(self):
        engine = star_engine()
        raised = []

        def fail_once(sub):
            if not raised:
                raised.append(sub)
                raise RuntimeError("subscriber failed")

        subs = [engine.subscribe(q, replan_threshold=99,
                                 on_change=fail_once if i == 1 else None)
                for i, q in enumerate(self.QUERIES)]

        def fresh(q):
            return engine.execute(q, counter=OperationCounter())

        with pytest.raises(RuntimeError, match="subscriber failed"):
            engine.apply_delta("R1", inserts=[(0, 499)])
        assert raised == [subs[1]]
        assert subs[0].result == fresh(self.QUERIES[0])
        assert subs[2].result == fresh(self.QUERIES[2])
        assert not subs[1].incremental  # its state was dropped

        engine.apply_delta("R1", inserts=[(1, 498)])
        for sub, q in zip(subs, self.QUERIES):
            assert sub.result == fresh(q)
        assert subs[1].last_maintenance.kind == "refresh"
        assert subs[1].incremental
        assert subs[0].last_maintenance.kind == "incremental"
