"""Event log semantics: levels, rate limiting, line schema."""

import io
import json

import pytest

from repro.obs import EventLog, open_event_log


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_log(**kwargs):
    stream = io.StringIO()
    clock = FakeClock()
    wall = FakeClock()
    wall.now = 1000.0
    log = EventLog(stream, clock=clock, wall_clock=wall, **kwargs)
    return log, stream, clock


def lines(stream):
    return [
        json.loads(line)
        for line in stream.getvalue().splitlines()
        if line
    ]


class TestLevels:
    def test_below_threshold_dropped_before_formatting(self):
        log, stream, _ = make_log(level="warn")
        assert not log.emit("noise", level="debug")
        assert not log.emit("notice", level="info")
        assert log.emit("trouble", level="warn")
        assert log.emit("fire", level="error")
        assert [record["event"] for record in lines(stream)] == [
            "trouble", "fire",
        ]

    def test_unknown_levels_rejected(self):
        with pytest.raises(ValueError, match="unknown level"):
            EventLog(io.StringIO(), level="loud")
        log, _, _ = make_log()
        with pytest.raises(ValueError, match="unknown level"):
            log.emit("x", level="loud")

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError, match="rate_limit"):
            EventLog(io.StringIO(), rate_limit=0)
        with pytest.raises(ValueError, match="burst"):
            EventLog(io.StringIO(), burst=0)


class TestSchema:
    def test_line_is_compact_json_with_context(self):
        log, stream, _ = make_log()
        log.emit("quota-trip", level="warn", session="s-1", quota="ops")
        record = lines(stream)[0]
        assert record == {
            "ts": 1000.0,
            "level": "warn",
            "event": "quota-trip",
            "session": "s-1",
            "quota": "ops",
        }

    def test_non_json_values_stringified_not_fatal(self):
        log, stream, _ = make_log()
        log.emit("odd", payload={1, 2})
        record = lines(stream)[0]
        assert record["event"] == "odd"
        assert isinstance(record["payload"], str)


class TestRateLimiting:
    def test_burst_exhaustion_suppresses(self):
        log, stream, _ = make_log(rate_limit=1.0, burst=3)
        written = [log.emit("hot") for _ in range(10)]
        assert written.count(True) == 3
        assert log.suppressed_total == 7
        assert log.emitted == 3

    def test_suppressed_count_rides_next_permitted_line(self):
        log, stream, clock = make_log(rate_limit=1.0, burst=2)
        for _ in range(5):
            log.emit("hot", detail="x")
        clock.now += 10.0  # refill
        assert log.emit("hot", detail="y")
        last = lines(stream)[-1]
        assert last["suppressed"] == 3
        assert last["detail"] == "y"
        # The counter reset once reported.
        clock.now += 10.0
        log.emit("hot")
        assert "suppressed" not in lines(stream)[-1]

    def test_buckets_are_per_event_name(self):
        log, stream, _ = make_log(rate_limit=1.0, burst=1)
        assert log.emit("first")
        assert not log.emit("first")
        assert log.emit("second")  # own bucket, unaffected


class TestOpenEventLog:
    def test_dash_streams_to_stdout(self, capsys):
        log = open_event_log("-")
        log.emit("hello")
        log.close()
        out = capsys.readouterr().out
        assert json.loads(out)["event"] == "hello"

    def test_path_opens_for_append(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for round_ in range(2):
            log = open_event_log(str(path))
            log.emit("restart", round=round_)
            log.close()
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [record["round"] for record in records] == [0, 1]
