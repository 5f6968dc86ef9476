"""The serve workload: a durable ``repro serve`` daemon under a closed loop.

Set-up generates a few long list-append sessions, computes each one's
batch ``check()`` verdict as the oracle, and pre-encodes every ``append``
frame, once per seed and in this (the parent) process.  A frame holds
exactly ``CHUNK_OPS`` operations and sessions open with that chunk size,
so each analysis slice is one frame and the chunk count is fixed.

The daemon runs in its own process with ``--data-dir``, ``--fsync batch``
and its default checkpoint cadence (every 20k analysed operations).
This process is the single load generator: one unix-socket
connection, sessions driven round-robin, each append sent only after the
previous reply arrived (a closed loop of callers that wait for their ack,
as ``ServiceClient`` does).  A round opens every session, appends all of
their frames, asks each for its verdict and closes it; rounds repeat until
the run's time is up.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
from time import perf_counter, sleep
from typing import Dict, List

from repro.core import check
from repro.db import Isolation
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History
from repro.service.protocol import encode_frame, encode_ops

from batch import run_worker
from common import child_env, median, peak_rss_mb, percentile, ratio

#: Two sessions of about 21k operations (43 chunks each): long enough
#: that each checkpoints once per round at the daemon's default cadence
#: and per-chunk cost visibly grows with the prefix, short enough that a
#: run holds several rounds.
SESSIONS = 2
SESSION_TXNS = 10_500
CHUNK_OPS = 500
FSYNC = "batch"
MODEL = "serializable"
WARMUP_TXNS = 300
#: Seconds to wait for the daemon to accept connections, or for a reply.
DAEMON_TIMEOUT = 60.0
#: Daemon start-ups per run; ``setup_s`` is their median.
SETUPS = 11
#: Per-round work counts that must repeat exactly, and agree between the
#: daemon's ``stats`` frame and the traced run.
COUNT_KEYS = ("chunks", "keys_reanalyzed", "keys_reused", "checkpoints")


def _session_ops(seed: int, txns: int) -> list:
    history = run_workload(
        RunConfig(
            txns=txns,
            concurrency=10,
            isolation=Isolation.SERIALIZABLE,
            workload=WorkloadConfig(
                workload="list-append", active_keys=10, max_writes_per_key=100
            ),
            seed=seed,
        )
    )
    return list(history.ops)


def _frames(name: str, ops: list) -> List[bytes]:
    return [
        encode_frame({
            "type": "append",
            "session": name,
            "seq": number + 1,
            "ops": encode_ops(ops[start:start + CHUNK_OPS]),
        })
        for number, start in enumerate(range(0, len(ops), CHUNK_OPS))
    ]


def _oracle(ops: list) -> dict:
    history = History(ops)
    result = check(history, workload="list-append", consistency_model=MODEL)
    return {
        "valid": result.valid,
        "model": MODEL,
        "txns": len(history),
        "anomalies": len(result.anomalies),
        "anomaly_types": list(result.anomaly_types),
    }


def prepare(seed: int, work_dir: str, sessions: int, txns: int) -> dict:
    names = [f"s{index}" for index in range(sessions)]
    streams = {
        name: _session_ops(seed * 1000 + index, txns)
        for index, name in enumerate(names)
    }
    frames = {name: _frames(name, ops) for name, ops in streams.items()}
    warmup_ops = _session_ops(seed * 1000 + 999, WARMUP_TXNS)
    oracle = {name: _oracle(ops) for name, ops in streams.items()}
    return {
        "names": names,
        "frames": frames,
        "warmup": _frames("warmup", warmup_ops),
        "oracle": oracle,
        "ops": sum(len(ops) for ops in streams.values()),
        "txns": sum(o["txns"] for o in oracle.values()),
        "bytes": sum(len(f) for fs in frames.values() for f in fs),
    }


class Daemon:
    """A ``python -m repro serve`` process and one lockstep connection."""

    def __init__(self, work_dir: str, tag: str) -> None:
        # Relative to the working directory, which the daemon shares:
        # unix socket paths are length-limited.
        rel = os.path.relpath(work_dir)
        self.sock_path = os.path.join(rel, f"{tag}.sock")
        self.data_dir = os.path.join(rel, f"{tag}-data")
        self.log_path = os.path.join(work_dir, f"{tag}.log")
        self.proc = None
        self.fh = None
        self.sock = None

    def start(self) -> None:
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--unix", self.sock_path,
                    "--data-dir", self.data_dir,
                    "--fsync", FSYNC,
                    "--quiet",
                ],
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
            )
        deadline = perf_counter() + DAEMON_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early; see {self.log_path}")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.sock_path)
                break
            except OSError:
                sock.close()
                if perf_counter() > deadline:
                    raise RuntimeError("daemon did not start listening")
                sleep(0.005)
        sock.settimeout(DAEMON_TIMEOUT)
        self.sock = sock
        self.fh = sock.makefile("rwb")

    def send(self, frame: bytes) -> bytes:
        self.fh.write(frame)
        self.fh.flush()
        return self.fh.readline()

    def request(self, **fields) -> dict:
        return json.loads(self.send(encode_frame(fields)))

    def stop(self) -> None:
        if self.fh is not None:
            self.fh.close()
            self.sock.close()
            self.fh = self.sock = None
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _open(daemon: Daemon, name: str) -> bool:
    reply = daemon.request(
        type="open", session=name, workload="list-append", model=MODEL,
        chunk=CHUNK_OPS,
    )
    return reply.get("type") == "opened"


def set_up(work_dir: str, tag: str, warmup: List[bytes]) -> tuple:
    """Spawn, ``ping``, one throwaway session: the time until ready."""
    begin = perf_counter()
    daemon = Daemon(work_dir, tag)
    try:
        daemon.start()
        ok = daemon.request(type="ping").get("type") == "pong"
        ok = _open(daemon, "warmup") and ok
        for frame in warmup:
            ok = json.loads(daemon.send(frame)).get("type") == "appended" and ok
        ok = daemon.request(type="verdict", session="warmup").get("valid") is True and ok
        ok = daemon.request(type="close", session="warmup").get("type") == "closed" and ok
    except BaseException:
        daemon.stop()
        raise
    return perf_counter() - begin, daemon, ok


def run_round(daemon: Daemon, inputs: dict) -> dict:
    """One round of every session, driven to its verdict and closed.

    Counters come from the daemon's ``stats`` frame; ``checkpoints`` is
    the daemon's running total.
    """
    names = inputs["names"]
    frames = inputs["frames"]
    failed = attempted = 0
    for name in names:
        attempted += 1
        failed += not _open(daemon, name)
    latencies = []
    depth = max(len(f) for f in frames.values())
    begin = perf_counter()
    for position in range(depth):
        for name in names:
            if position >= len(frames[name]):
                continue
            sent = perf_counter()
            line = daemon.send(frames[name][position])
            latencies.append(perf_counter() - sent)
            attempted += 1
            failed += json.loads(line).get("type") != "appended"
    verdicts = {}
    for name in names:
        verdicts[name] = daemon.request(type="verdict", session=name)
    end = perf_counter()
    for name in names:
        attempted += 1
        record = verdicts[name]
        got = {k: record.get(k) for k in inputs["oracle"][name]}
        failed += got != inputs["oracle"][name]
    stats = daemon.request(type="stats")
    sessions = [stats["sessions"][name] for name in names]
    for name in names:
        attempted += 1
        failed += daemon.request(type="close", session=name).get("type") != "closed"
    return {
        "seconds": end - begin,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "chunks": sum(s["chunks_checked"] for s in sessions),
        "keys_reanalyzed": sum(s["keys_reanalyzed"] for s in sessions),
        "keys_reused": sum(s["keys_reused"] for s in sessions),
        "checkpoints": stats["durability"]["checkpoints_written"],
        "checkpoint_every": stats["durability"]["checkpoint_every"],
        "chunk_ms": {name: stats["sessions"][name]["last_chunk_ms"] for name in names},
    }


def run(
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    sessions: int = SESSIONS,
    txns: int = SESSION_TXNS,
) -> dict:
    """Measure the serve workload.  ``sessions`` and ``txns`` shrink it
    (the benchmark's own tests use them)."""
    inputs = prepare(seed, work_dir, sessions, txns)
    setups: List[float] = []
    attempted = failed = 0
    daemon = None
    try:
        for number in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            setup_s, daemon, ok = set_up(work_dir, f"daemon{number}", inputs["warmup"])
            setups.append(setup_s)
            attempted += 1
            failed += not ok
        rounds = []
        # A traced run splits its time: daemon rounds for the untraced
        # end-to-end seconds, then the sans-I/O traced rounds.
        budget = seconds / 2 if trace else seconds
        begin = perf_counter()
        checkpoints = 0
        while not failed:
            step = perf_counter()
            result = run_round(daemon, inputs)
            result["checkpoints"], checkpoints = (
                result["checkpoints"] - checkpoints, result["checkpoints"]
            )
            rounds.append(result)
            attempted += result["attempted"]
            failed += result["failed"]
            # Stop before a round that would overrun the run's time.
            now = perf_counter()
            if now - begin + (now - step) > budget:
                break
        rss = peak_rss_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    latencies_ms = [s * 1e3 for r in rounds for s in r["latencies"]]
    counts = [_round_counts(r) for r in rounds]
    record = {
        "inputs": {
            "sessions": sessions,
            "ops": inputs["ops"],
            "txns": inputs["txns"],
            "bytes": inputs["bytes"],
            "frames": sum(len(f) for f in inputs["frames"].values()),
            "chunk_ops": CHUNK_OPS,
        },
        "fsync": FSYNC,
        "checkpoint_every": rounds[0]["checkpoint_every"] if rounds else None,
        "rounds": len(rounds),
        "daemon_counts": counts[0] if counts else None,
        "daemon_chunk_ms": rounds[0]["chunk_ms"] if rounds else None,
        "percentile_samples": {"append_ms": len(latencies_ms)},
        "samples": {
            "setup_s": setups,
            "round_s": [r["seconds"] for r in rounds],
            "append_ms": [[x * 1e3 for x in r["latencies"]] for r in rounds],
        },
    }
    # Every round replays identical frames: the daemon's counters repeat.
    if any(c != counts[0] for c in counts):
        failed += 1
        record["count_mismatch"] = counts
    out = {"attempted": attempted, "failed": failed, "record": record}
    if failed:
        return out
    round_s = [r["seconds"] for r in rounds]
    out["metrics"] = {
        "setup_s": median(setups),
        # The fastest round, for the reason batch.run gives.
        "verdict_s": min(round_s),
        "ops_per_s": inputs["ops"] / min(round_s),
        "append_ms_p50": percentile(latencies_ms, 50),
        "append_ms_p95": percentile(latencies_ms, 95),
        "peak_rss_mb": rss,
    }
    if trace:
        sans_io = traced_rounds(
            inputs, work_dir, seconds / 2, rounds[0]["checkpoint_every"]
        )
        if sans_io is None:
            out["failed"] += 1
            out["attempted"] += 1
            return out
        out["attempted"] += len(sans_io) * len(inputs["names"])
        mismatches = _traced_failures(sans_io, inputs, counts[0])
        out["failed"] += mismatches
        if mismatches:
            record["traced_counts"] = [_round_counts(t) for t in sans_io]
            return out
        out["layers"] = serve_layers(sans_io, out["metrics"]["verdict_s"])
        record["traced_rounds"] = sum(t["spans_on"] for t in sans_io)
        record["untraced_sans_io_rounds"] = sum(not t["spans_on"] for t in sans_io)
        record["percentile_samples"]["incremental.chunk_ms"] = sum(
            len(per) for t in sans_io if t["spans_on"] for per in t["chunk_ms"].values()
        )
    return out


def traced_rounds(
    inputs: dict, work_dir: str, seconds: float, checkpoint_every: int
):
    """The same frames through the sans-I/O calls, in a fresh worker, at
    the daemon's checkpoint cadence.  Rounds alternate between spans on
    and spans off, so the worker also measures what the spans cost."""
    frames_path = os.path.join(work_dir, "frames.json")
    with open(frames_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "sessions": {
                    n: [f.decode("utf-8") for f in fs]
                    for n, fs in inputs["frames"].items()
                },
                "warmup": [f.decode("utf-8") for f in inputs["warmup"]],
            },
            fh,
        )
    _setup_s, result = run_worker({
        "mode": "serve-traced",
        "frames_path": frames_path,
        "work_dir": work_dir,
        "seconds": seconds,
        "model": MODEL,
        "chunk_ops": CHUNK_OPS,
        "checkpoint_every": checkpoint_every,
        "fsync": FSYNC,
    })
    return None if result is None else result["rounds"]


def _round_counts(round_: dict) -> dict:
    return {k: round_[k] for k in COUNT_KEYS}


def _traced_failures(traced: List[dict], inputs: dict, daemon_counts: dict) -> int:
    """Traced verdicts must match the oracle, traced counts the daemon's."""
    failed = 0
    for t in traced:
        for name, record in t["verdicts"].items():
            expected = inputs["oracle"][name]
            failed += {k: record.get(k) for k in expected} != expected
        failed += _round_counts(t) != daemon_counts
    return failed


def _growth(chunk_ms: List[float]) -> float:
    """Mean cost of the last tenth of chunks over the first tenth."""
    tenth = max(1, len(chunk_ms) // 10)
    return ratio(sum(chunk_ms[-tenth:]), sum(chunk_ms[:tenth]))


def serve_layers(rounds: List[dict], untraced_round_s: float) -> Dict[str, float]:
    """Per-layer values from the sans-I/O rounds with spans on.

    ``server.residual_s`` is the daemon's fastest round
    (``untraced_round_s``) minus the layer spans of the fastest traced
    round: sockets, event loop and scheduling.
    ``trace.overhead_s`` compares the worker's fastest rounds with spans
    on and off, so both sides run the same calls in one process.
    """
    traced = [t for t in rounds if t["spans_on"]]
    bare = [t for t in rounds if not t["spans_on"]]

    def spans(name: str) -> float:
        return median([t["spans"].get(name, 0.0) for t in traced])

    first = traced[0]
    chunk_ms = [ms for t in traced for per in t["chunk_ms"].values() for ms in per]
    covered = min(traced, key=lambda t: t["seconds"])["covered_s"]
    reanalyzed, reused = first["keys_reanalyzed"], first["keys_reused"]
    return {
        "protocol.decode_s": spans("protocol.decode"),
        "protocol.reply_s": spans("protocol.reply"),
        "protocol.frames": first["frames"],
        "protocol.bytes": first["bytes"],
        "durability.wal_s": spans("durability.wal"),
        "durability.checkpoint_s": spans("durability.checkpoint"),
        "durability.checkpoints": first["checkpoints"],
        "durability.wal_bytes": first["wal_bytes"],
        "session.buffer_s": spans("session.buffer"),
        "incremental.extend_s": spans("incremental.extend"),
        "incremental.chunk_ms_p50": percentile(chunk_ms, 50),
        "incremental.chunk_ms_p95": percentile(chunk_ms, 95),
        "incremental.chunks": first["chunks"],
        "incremental.keys_reanalyzed": reanalyzed,
        "incremental.keys_reused": reused,
        "incremental.reuse_share": ratio(reused, reused + reanalyzed),
        "incremental.chunk_growth": median(
            [_growth(per) for t in traced for per in t["chunk_ms"].values()]
        ),
        "server.residual_s": untraced_round_s - covered,
        "trace.overhead_s": min(t["seconds"] for t in traced)
        - min(t["seconds"] for t in bare),
        "trace.coverage": ratio(covered, untraced_round_s),
    }
