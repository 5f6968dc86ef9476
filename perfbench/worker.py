"""The process under test for batch runs, and the traced serve run.

Started fresh for every repetition by ``perfbench/run.py``.  It imports
``repro`` and the numpy/scipy modules the checker loads lazily, prints
``ready`` (the parent times spawn-to-ready as ``setup_s``), then reads one
JSON job from stdin and prints one JSON result line.  Job modes:

``verdict``
    The untraced batch path a user runs: ``load_history`` on the
    JSON-lines file, ``check``, ``report()``.
``traced``
    The same path split into the layers' public calls, in order, with a
    span around each and a ``Profile`` threaded through for the children
    the checker already times: ``load_ops`` -> ``History(ops)`` ->
    ``History.index()`` -> ``analyze`` -> ``finish_analysis`` ->
    ``CheckResult.report()``.  Index, analyze and finish run inside one
    ``paused_gc()`` scope, as ``check()`` runs them.
``serve-traced``
    Pre-encoded append frames pushed through the service's sans-I/O
    calls in the order the daemon makes them: ``decode_frame`` /
    ``decode_ops`` -> ``DurabilityManager.log_append`` ->
    ``SessionRegistry.append`` -> ``run_slice`` -> ``maybe_checkpoint``
    -> ``update_record`` / ``encode_frame``.  Rounds alternate between
    spans on and spans off; the difference of their medians is what the
    spans cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from time import perf_counter

from common import Spans, peak_rss_mb, signature


def _verdict(result, text: str) -> dict:
    """The verdict signature plus a digest of the rendered report."""
    verdict = signature(result)
    verdict["report_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return verdict


def _options(job: dict) -> dict:
    options = dict(job.get("options") or {})
    if "sources" in options:
        options["sources"] = tuple(options["sources"])
    return options


def run_verdict(job: dict) -> dict:
    from repro.core import check
    from repro.history.io import load_history

    begin = perf_counter()
    history = load_history(job["path"])
    result = check(
        history,
        workload=job["workload"],
        consistency_model=job["model"],
        **_options(job),
    )
    text = result.report()
    end = perf_counter()
    return {
        "verdict_s": end - begin,
        "peak_rss_mb": peak_rss_mb(),
        "verdict": _verdict(result, text),
    }


def run_traced(job: dict) -> dict:
    from repro.core import CycleAnomaly, Profile, analyze, finish_analysis
    from repro.core.gcpause import paused_gc
    from repro.history import History
    from repro.history.io import load_ops

    spans = Spans()
    profile = Profile()
    begin = perf_counter()
    with spans.span("io.decode"):
        with open(job["path"], "r", encoding="utf-8") as fh:
            ops = list(load_ops(fh))
    with spans.span("history.pair"):
        history = History(ops)
    with paused_gc():
        with spans.span("index.build"):
            history.index(profile=profile)
        with spans.span("analyze"):
            analysis = analyze(
                history, workload=job["workload"], profile=profile,
                **_options(job),
            )
        with spans.span("finish"):
            result = finish_analysis(analysis, job["model"], profile=profile)
    with spans.span("report"):
        text = result.report()
    end = perf_counter()

    stages = profile.stages
    counters = profile.counters
    took = spans.totals()
    columnar = counters.get("keyspace.columnar_keys", 0)
    fallback = counters.get("keyspace.fallback_keys", 0)
    layers = {
        "io.decode_s": took["io.decode"],
        "io.ops": len(ops),
        "io.bytes": os.path.getsize(job["path"]),
        "history.pair_s": took["history.pair"],
        "history.txns": len(history),
        "index.build_s": took["index.build"],
        "index.keys": counters.get("index.keys", 0),
        "analyze_s": took["analyze"],
        "analyze.columnar_screen_s": stages.get("analyze/columnar-screen", 0.0),
        # Per-key (non-columnar) analysis: the whole keyspace on the
        # classic loop, or the keys the columnar screen handed back.
        "analyze.keys_s": stages.get("analyze/keys", 0.0)
        + stages.get("analyze/fallback", 0.0),
        "analyze.merge_s": stages.get("analyze/merge", 0.0),
        "analyze.orders_s": stages.get("analyze/orders", 0.0),
        "analyze.columnar_keys": columnar,
        "analyze.fallback_keys": fallback,
        "analyze.columnar_share": columnar / (columnar + fallback)
        if columnar + fallback
        else 0.0,
        "graph.freeze_s": stages.get("freeze", 0.0),
        "graph.nodes": counters.get("graph.nodes", 0),
        "graph.edges": counters.get("graph.edges", 0),
        "cycle_search_s": stages.get("cycle-search", 0.0),
        "cycle_search.full_runs": counters.get("scc.full_runs", 0),
        "cycle_search.probe_runs": counters.get("scc.probe_runs", 0),
        "cycle_search.cycles": sum(
            isinstance(a, CycleAnomaly) for a in result.anomalies
        ),
        "explain_s": stages.get("explain", 0.0),
        "report_s": took["report"],
    }
    return {
        "verdict_s": end - begin,
        "covered_s": spans.top_level(),
        "layers": layers,
        "verdict": _verdict(result, text),
        "spans": spans.records,
    }


def _serve_round(job: dict, lines: dict, data_dir: str, spans: Spans) -> dict:
    """Every session's frames, round-robin, then every verdict."""
    from repro.service.durability import DurabilityManager
    from repro.service.protocol import (
        decode_frame,
        decode_ops,
        encode_frame,
        update_record,
    )
    from repro.service.session import SessionConfig, SessionRegistry

    names = list(lines)
    verdict_lines = {
        name: encode_frame({"type": "verdict", "session": name, "report": False})
        for name in names
    }
    depth = max(len(v) for v in lines.values())
    durability = DurabilityManager(
        data_dir, checkpoint_every=job["checkpoint_every"], fsync=job["fsync"]
    )
    registry = SessionRegistry()
    for name in names:
        session = registry.open(
            SessionConfig(
                workload="list-append",
                consistency_model=job["model"],
                chunk_ops=job["chunk_ops"],
            ),
            name,
        )
        durability.open_session(session)
    chunk_ms = {name: [] for name in names}
    frames_seen = bytes_seen = 0
    begin = perf_counter()
    for position in range(depth):
        for name in names:
            if position >= len(lines[name]):
                continue
            line = lines[name][position]
            with spans.span("protocol.decode"):
                frame = decode_frame(line)
                ops = decode_ops(frame["ops"])
            frames_seen += 1
            bytes_seen += len(line)
            session = registry.get(frame["session"])
            with spans.span("session.buffer"):
                fresh = session.dedupe_ops(ops)
            with spans.span("durability.wal"):
                durability.log_append(session, frame["seq"], fresh)
            with spans.span("session.buffer"):
                registry.append(session.id, fresh)
                session.applied_seq = frame["seq"]
            slice_begin = perf_counter()
            with spans.span("incremental.extend"):
                sliced, _update, exc = registry.run_slice()
            chunk_ms[sliced.id].append((perf_counter() - slice_begin) * 1e3)
            if exc is not None:
                raise exc
            with spans.span("durability.checkpoint"):
                durability.maybe_checkpoint(sliced)
            with spans.span("protocol.reply"):
                encode_frame({
                    "type": "appended",
                    "session": session.id,
                    "ops": len(fresh),
                    "buffered": session.backlog,
                    "seq": frame["seq"],
                    "applied_seq": session.applied_seq,
                })
    verdicts = {}
    for name in names:
        with spans.span("protocol.decode"):
            frame = decode_frame(verdict_lines[name])
        frames_seen += 1
        bytes_seen += len(verdict_lines[name])
        with spans.span("protocol.reply"):
            record = update_record(registry.get(frame["session"]).verdict())
            record["session"] = name
            encode_frame(record)
        verdicts[name] = record
    end = perf_counter()
    wal_bytes = sum(os.path.getsize(durability.store(name).wal_path) for name in names)
    sessions = {name: registry.get(name).stats() for name in names}
    checkpoints = durability.checkpoints_written
    for name in names:
        registry.close(name)
        durability.drop(name, destroy=True)
    durability.close()
    shutil.rmtree(data_dir, ignore_errors=True)
    return {
        "seconds": end - begin,
        "covered_s": spans.top_level(),
        "spans": spans.totals(),
        "chunk_ms": chunk_ms,
        "frames": frames_seen,
        "bytes": bytes_seen,
        "wal_bytes": wal_bytes,
        "checkpoints": checkpoints,
        "chunks": sum(s["chunks_checked"] for s in sessions.values()),
        "keys_reanalyzed": sum(s["keys_reanalyzed"] for s in sessions.values()),
        "keys_reused": sum(s["keys_reused"] for s in sessions.values()),
        "verdicts": verdicts,
    }


def run_serve_traced(job: dict) -> dict:
    def encoded(frames):
        return [f.encode("utf-8") for f in frames]

    with open(job["frames_path"], "r", encoding="utf-8") as fh:
        frames = json.load(fh)
    lines = {name: encoded(fs) for name, fs in frames["sessions"].items()}
    # A throwaway session first, as the daemon's set-up runs one: the
    # first chunks pay lazy imports and allocator growth.
    _serve_round(
        job,
        {"warmup": encoded(frames["warmup"])},
        os.path.join(job["work_dir"], "traced-warmup"),
        Spans(enabled=False),
    )
    rounds = []
    started = perf_counter()
    while True:
        step = perf_counter()
        spans_on = len(rounds) % 2 == 0
        data_dir = os.path.join(job["work_dir"], f"traced-{len(rounds)}")
        rounds.append(_serve_round(job, lines, data_dir, Spans(enabled=spans_on)))
        rounds[-1]["spans_on"] = spans_on
        # Stop before a round that would overrun the run's time, once
        # there is a round with spans and one without.
        now = perf_counter()
        if len(rounds) >= 2 and now - started + (now - step) > job["seconds"]:
            return {"rounds": rounds}


MODES = {
    "verdict": run_verdict,
    "traced": run_traced,
    "serve-traced": run_serve_traced,
}


def main() -> int:
    # What a fresh checker process pays before it can take input: the
    # package, and the numpy/scipy modules the checker imports lazily.
    import repro  # noqa: F401
    import repro.core  # noqa: F401
    import repro.history.io  # noqa: F401
    import scipy.sparse  # noqa: F401
    from scipy.sparse import csgraph  # noqa: F401

    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    result = MODES[job["mode"]](job)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
