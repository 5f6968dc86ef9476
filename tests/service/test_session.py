"""Session and registry semantics: admission, scheduling, eviction, books."""

import pytest

from repro import History, append, check, r, w
from repro.errors import HistoryError, ServiceError
from repro.history.ops import Op, OpType
from repro.service.session import Session, SessionConfig, SessionRegistry


def ops_for(txns=40, seed=0, fault=None):
    from repro.service.client import session_workload

    return session_workload(txns=txns, seed=seed, fault=fault)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSessionConfig:
    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ServiceError, match="chunk_ops"):
            SessionConfig(chunk_ops=0)

    def test_bad_workload_fails_at_open(self):
        registry = SessionRegistry()
        with pytest.raises(ValueError, match="unknown workload"):
            registry.open(SessionConfig(workload="linked-list"))
        # The failed open left nothing behind.
        assert not registry.sessions

    def test_options_reach_the_checker(self):
        session = Session(
            "s",
            SessionConfig(
                workload="rw-register",
                options={"sources": ["initial-state"]},
            ),
        )
        assert session.checker.workload == "rw-register"
        # Bad sources surface at the first analysis slice (plan build
        # time), poisoning only that session.
        bad = Session(
            "s2",
            SessionConfig(
                workload="rw-register", options={"sources": ["vibes"]}
            ),
        )
        bad.buffer(list(History.of(("ok", 0, [w("x", 1)])).ops))
        with pytest.raises(ValueError, match="unknown version-order sources"):
            bad.analyze_chunk()
        assert bad.state == "poisoned"


class TestSessionLifecycle:
    def test_chunked_analysis_matches_batch(self):
        ops = ops_for(txns=60, seed=3)
        session = Session("s", SessionConfig(chunk_ops=37))
        session.buffer(ops)
        while session.has_work:
            session.analyze_chunk()
        batch = check(History(ops))
        update = session.verdict()
        assert update.result.valid == batch.valid
        assert [a.message for a in update.result.anomalies] == [
            a.message for a in batch.anomalies
        ]
        assert session.chunks_checked == (len(ops) + 36) // 37
        assert session.ops_ingested == len(ops)
        assert session.backlog == 0

    def test_verdict_requires_drained_backlog(self):
        session = Session("s", SessionConfig())
        session.buffer(ops_for(txns=10))
        with pytest.raises(ServiceError, match="unanalyzed"):
            session.verdict()

    def test_verdict_on_empty_session_is_the_empty_observation(self):
        session = Session("s", SessionConfig())
        update = session.verdict()
        assert update.result.valid
        assert update.txns == 0
        # Idempotent: the verdict is cached, not re-derived.
        assert session.verdict() is update

    def test_poisoning_discards_backlog_and_sticks(self):
        session = Session("s", SessionConfig(chunk_ops=4))
        # An orphan completion is structurally invalid and poisons.
        poison = [Op(0, OpType.OK, 0, (append("x", 1),))]
        session.buffer(poison + ops_for(txns=10))
        with pytest.raises(HistoryError):
            session.analyze_chunk()
        assert session.state == "poisoned"
        assert session.backlog == 0  # rest of the backlog discarded
        assert not session.has_work
        with pytest.raises(ServiceError, match="poisoned"):
            session.buffer(ops_for(txns=2))
        with pytest.raises(ServiceError, match="poisoned"):
            session.verdict()
        assert "error" in session.stats()

    def test_a_bare_session_counts_and_traces_its_chunks(self):
        # No bundle passed: the session builds its own and never runs dark.
        ops = ops_for(txns=20, seed=1)
        session = Session("s", SessionConfig(chunk_ops=16))
        session.buffer(ops)
        while session.has_work:
            session.analyze_chunk()
        metrics = session.obs.metrics
        assert metrics.ops_ingested_total.labels("s").value == len(ops)
        assert (
            metrics.chunks_checked_total.labels("s").value
            == session.chunks_checked
        )
        traces = session.obs.tracer.snapshot()
        assert len(traces) == session.chunks_checked
        analyze = traces[-1]["spans"][-1]
        assert analyze["name"] == "analyze"
        children = [span["name"] for span in analyze["children"]]
        assert "stream/ingest" in children
        assert "retire" not in children

    def test_auto_retirement_is_traced_with_its_chunk(self):
        from repro.service.client import session_workload

        # A rotating keyspace, so retired keys never recur.
        ops = session_workload(txns=30, seed=2, max_writes_per_key=4)
        session = Session("s", SessionConfig(chunk_ops=16, retire_idle_txns=5))
        session.buffer(ops)
        while session.has_work:
            session.analyze_chunk()
        assert session.retire_calls == session.chunks_checked
        for trace in session.obs.tracer.snapshot():
            analyze = trace["spans"][-1]
            assert analyze["children"][-1]["name"] == "retire"

    def test_stats_record(self):
        session = Session("s", SessionConfig(chunk_ops=64))
        session.buffer(ops_for(txns=20, seed=1))
        while session.has_work:
            session.analyze_chunk()
        session.verdict()
        stats = session.stats()
        assert stats["state"] == "open"
        assert stats["ops_ingested"] == session.ops_ingested
        assert stats["chunks_checked"] >= 1
        assert stats["analyze_seconds"] >= 0
        assert stats["last_verdict"]["valid"] is True
        assert stats["last_verdict"]["chunk"] == session.chunks_checked


class TestRegistry:
    def test_open_close_and_limits(self):
        registry = SessionRegistry(max_sessions=2)
        a = registry.open(session_id="a")
        registry.open(session_id="b")
        with pytest.raises(ServiceError, match="full"):
            registry.open(session_id="c")
        with pytest.raises(ServiceError, match="already open"):
            registry.open(session_id="a")
        final = registry.close("a")
        assert final["state"] == "closed"
        assert a.closed
        registry.open(session_id="c")  # slot freed
        with pytest.raises(ServiceError, match="unknown session"):
            registry.get("a")
        stats = registry.stats()
        assert stats["sessions_open"] == 2
        assert stats["sessions_opened"] == 3
        assert stats["sessions_closed"] == 1

    def test_a_bare_registry_shares_its_bundle_with_sessions_and_wal(
        self, tmp_path
    ):
        # Built with no bundle, as perfbench builds them: registry and
        # durability each make a default one, and every session the
        # registry opens reports into the registry's.
        from repro.service import DurabilityManager

        registry = SessionRegistry()
        durability = DurabilityManager(str(tmp_path), fsync="never")
        session = registry.open(SessionConfig(chunk_ops=16), "s")
        assert session.obs is registry.obs
        durability.open_session(session)
        ops = ops_for(txns=20, seed=1)
        durability.log_append(session, 1, ops)
        registry.append("s", ops)
        while registry.has_work():
            registry.run_slice()
        metrics = registry.obs.metrics
        assert metrics.sessions_opened_total.labels().value == 1
        assert (
            metrics.chunks_checked_total.labels("s").value
            == session.chunks_checked
            > 0
        )
        assert durability.obs.metrics.wal_appends_total.labels().value == 1
        durability.close()

    def test_auto_ids(self):
        registry = SessionRegistry()
        assert registry.open().id == "session-1"
        assert registry.open().id == "session-2"

    def test_round_robin_slices(self):
        """Sessions take turns: one chunk each, in rotation order."""
        registry = SessionRegistry()
        registry.open(SessionConfig(chunk_ops=8), "a")
        registry.open(SessionConfig(chunk_ops=8), "b")
        registry.append("a", ops_for(txns=20, seed=1))
        registry.append("b", ops_for(txns=20, seed=2))
        order = []
        while registry.has_work():
            session, update, error = registry.run_slice()
            assert error is None and update is not None
            order.append(session.id)
        # Strict alternation while both have work.
        both = order[: 2 * min(order.count("a"), order.count("b"))]
        assert all(x != y for x, y in zip(both, both[1:]))
        assert registry.run_slice() is None
        assert registry.chunks_total == len(order)

    def test_large_session_cannot_starve_a_small_one(self):
        registry = SessionRegistry()
        registry.open(SessionConfig(chunk_ops=16), "big")
        registry.open(SessionConfig(chunk_ops=16), "small")
        registry.append("big", ops_for(txns=200, seed=1))
        registry.append("small", ops_for(txns=8, seed=2))
        slices_until_small_done = 0
        small = registry.get("small")
        while small.has_work:
            registry.run_slice()
            slices_until_small_done += 1
        # The small session finished within a few rotations, not after
        # the big one's entire backlog.
        assert slices_until_small_done <= 4
        assert registry.get("big").has_work

    def test_run_slice_reports_poisoning_and_moves_on(self):
        registry = SessionRegistry()
        registry.open(SessionConfig(), "bad")
        registry.open(SessionConfig(), "good")
        registry.get("bad").buffer([Op(0, OpType.OK, 0, (append("x", 1),))])
        registry.append("good", ops_for(txns=10, seed=4))
        outcomes = {}
        while registry.has_work():
            session, update, error = registry.run_slice()
            outcomes.setdefault(session.id, (update, error))
        assert outcomes["bad"][0] is None
        assert isinstance(outcomes["bad"][1], HistoryError)
        assert outcomes["good"][1] is None
        assert registry.get("good").verdict().result.valid

    def test_backpressure_admission(self):
        registry = SessionRegistry(max_pending_ops=10)
        session = registry.open(SessionConfig(chunk_ops=4), "s")
        assert registry.accepts(session)
        registry.append("s", ops_for(txns=20, seed=1)[:12])
        # Backlog >= high-watermark: no more admissions...
        assert not registry.accepts(session)
        registry.run_slice()
        registry.run_slice()
        # ...until analysis drains it below the mark.
        assert registry.accepts(session)

    def test_idle_eviction_spares_backlogged_sessions(self):
        clock = FakeClock()
        registry = SessionRegistry(idle_timeout=10.0, clock=clock)
        registry.open(session_id="idle")
        busy = registry.open(SessionConfig(chunk_ops=1000), "busy")
        registry.append("busy", ops_for(txns=10, seed=1))
        clock.now = 11.0
        assert registry.evict_idle() == ["idle"]
        assert "busy" in registry.sessions  # pending work is never dropped
        with pytest.raises(ServiceError, match="unknown session"):
            registry.get("idle")
        # Touching resets the clock.
        busy.pending.clear()
        busy.touch()
        clock.now = 20.0
        assert registry.evict_idle() == []
        clock.now = 22.0
        assert registry.evict_idle() == ["busy"]
        assert registry.stats()["sessions_evicted"] == 2

    def test_rw_register_session(self):
        """Cross-workload sessions coexist in one registry."""
        registry = SessionRegistry()
        registry.open(SessionConfig(workload="list-append"), "la")
        registry.open(
            SessionConfig(
                workload="rw-register",
                options={"sources": ["initial-state", "write-follows-read"]},
            ),
            "rw",
        )
        history = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1)]),
        )
        registry.append("rw", list(history.ops))
        registry.drain(registry.get("rw"))
        assert registry.get("rw").verdict().result.valid


class TestEvictionDurability:
    """Idle eviction with a durability layer: state survives on disk."""

    def test_on_evict_hook_fires_before_drop(self):
        clock = FakeClock()
        registry = SessionRegistry(idle_timeout=10.0, clock=clock)
        registry.open(session_id="victim")
        seen = []
        registry.on_evict = lambda session: seen.append(
            (session.id, session.id in registry.sessions)
        )
        clock.now = 11.0
        registry.evict_idle()
        # The hook saw the session while it was still registered, so a
        # checkpoint taken inside it captures complete state.
        assert seen == [("victim", True)]

    def test_evicted_then_reopened_session_restores_from_disk(self, tmp_path):
        """An evicted session is not an empty session: reopening it on a
        durable daemon restores the checker from the eviction checkpoint
        instead of silently starting over."""
        import asyncio

        from repro import check
        from repro.service import CheckerService, DurabilityManager

        ops = ops_for(txns=60, seed=13, fault="tidb-retry")
        expected = check(History(ops))

        async def main():
            from repro.service.protocol import (
                decode_frame,
                encode_frame,
                encode_ops,
            )

            async def request(reader, writer, frame):
                writer.write(encode_frame(frame))
                await writer.drain()
                return decode_frame(await reader.readline())

            durability = DurabilityManager(str(tmp_path), fsync="never")
            registry = SessionRegistry(idle_timeout=10.0)
            service = CheckerService(registry, port=0, durability=durability)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await request(reader, writer, {
                "type": "open", "session": "evictee", "chunk": 16,
            })
            await request(reader, writer, {
                "type": "append", "session": "evictee", "seq": 1,
                "ops": encode_ops(ops),
            })
            first = await request(reader, writer, {
                "type": "verdict", "session": "evictee",
            })
            # Force the idle eviction (backlog is empty post-verdict).
            far_future = registry.clock() + 1_000.0
            assert registry.evict_idle(now=far_future) == ["evictee"]
            assert "evictee" not in registry.sessions
            # A plain re-open restores from disk, not an empty session.
            reopened = await request(reader, writer, {
                "type": "open", "session": "evictee",
            })
            second = await request(reader, writer, {
                "type": "verdict", "session": "evictee", "report": True,
            })
            stats = await request(reader, writer, {
                "type": "stats", "session": "evictee",
            })
            writer.close()
            await service.drain()
            return reopened, first, second, stats

        reopened, first, second, stats = asyncio.run(main())
        assert reopened["resumed"] is True
        assert reopened["applied_seq"] == 1
        assert reopened["ops_ingested"] == len(ops)
        assert stats["stats"]["resumed"] is True
        assert stats["stats"]["ops_ingested"] == len(ops)
        assert second["valid"] == first["valid"] == expected.valid
        assert second["report"] == expected.report()
