"""Chunk tracing: span trees, the bounded ring, the slow-chunk tap."""

import io
import json

import pytest

from repro.core import Profile
from repro.obs import ChunkTracer, EventLog, percentiles


class TestProfileSpans:
    def test_nested_stages_become_children(self):
        profile = Profile()
        with profile.stage("analyze"):
            with profile.stage("stream/ingest"):
                pass
            with profile.stage("index/scan"):
                pass
        assert len(profile.spans) == 1
        root = profile.spans[0]
        assert root["name"] == "analyze"
        assert [child["name"] for child in root["children"]] == [
            "stream/ingest", "index/scan",
        ]
        assert root["ms"] >= 0.0

    def test_flat_profile_totals_still_accumulate(self):
        profile = Profile()
        with profile.stage("a"):
            pass
        with profile.stage("a"):
            pass
        assert "a" in profile.stages  # the --profile report stays correct
        assert len(profile.spans) == 2  # the tree keeps both occurrences


class TestChunkTracer:
    def test_ring_is_bounded_oldest_first(self):
        tracer = ChunkTracer(capacity=4)
        for chunk in range(10):
            tracer.record(
                session="s", chunk=chunk, ops=10, txns=5,
                elapsed_seconds=0.001,
            )
        traces = tracer.snapshot()
        assert [trace["chunk"] for trace in traces] == [6, 7, 8, 9]
        assert tracer.chunks_traced == 10

    def test_pre_spans_precede_the_analyze_root(self):
        tracer = ChunkTracer()
        profile = Profile()
        with profile.stage("stream/ingest"):
            pass
        trace = tracer.record(
            session="s", chunk=0, ops=10, txns=5, elapsed_seconds=0.002,
            profile=profile,
            pre_spans=[tracer.span("decode", 0.0004)],
        )
        names = [span["name"] for span in trace["spans"]]
        assert names == ["decode", "analyze"]
        analyze = trace["spans"][-1]
        assert analyze["children"][0]["name"] == "stream/ingest"
        assert trace["ms"] == 2.0

    def test_slow_chunk_dumps_span_tree_to_event_log(self):
        stream = io.StringIO()
        events = EventLog(stream)
        tracer = ChunkTracer(slow_chunk_ms=5.0, events=events)
        tracer.record(
            session="s", chunk=0, ops=10, txns=5, elapsed_seconds=0.001
        )
        tracer.record(
            session="s", chunk=1, ops=10, txns=5, elapsed_seconds=0.02
        )
        assert tracer.slow_chunks == 1
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert len(records) == 1
        record = records[0]
        assert record["event"] == "slow-chunk"
        assert record["level"] == "warn"
        assert record["chunk"] == 1
        assert record["threshold_ms"] == 5.0
        assert record["spans"][-1]["name"] == "analyze"
        slow_flags = [t["slow"] for t in tracer.snapshot()]
        assert slow_flags == [False, True]

    def test_snapshot_filters_and_limits(self):
        tracer = ChunkTracer()
        for chunk in range(3):
            tracer.record(
                session="a", chunk=chunk, ops=1, txns=1,
                elapsed_seconds=0.001,
            )
        tracer.record(
            session="b", chunk=0, ops=1, txns=1, elapsed_seconds=0.001
        )
        assert len(tracer.snapshot(session="a")) == 3
        assert len(tracer.snapshot(session="b")) == 1
        limited = tracer.snapshot(session="a", limit=2)
        assert [trace["chunk"] for trace in limited] == [1, 2]
        assert len(tracer.snapshot(limit=10)) == 4
        # limit=0 asks for no traces, not (via ``traces[-0:]``) all of them.
        assert tracer.snapshot(limit=0) == []
        assert tracer.snapshot(session="a", limit=0) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ChunkTracer(capacity=0)
        with pytest.raises(ValueError, match="slow_chunk_ms"):
            ChunkTracer(slow_chunk_ms=0)


class TestPercentiles:
    def test_empty_window_is_zeros(self):
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_exact_interpolation(self):
        values = list(range(1, 101))  # 1..100
        digest = percentiles(values)
        assert digest["p50"] == 50.5
        assert digest["p95"] == pytest.approx(95.05)
        assert digest["p99"] == pytest.approx(99.01)

    def test_single_sample(self):
        assert percentiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}
