"""The batch workload: a JSON-lines history file in, a verdict out.

Set-up generates the history from the simulator, writes it as JSON lines
and computes the verdict oracle, once per seed and in this (the parent)
process.  Each measured repetition then starts a fresh ``worker.py``
process, so ``setup_s`` and ``peak_rss_mb`` see only the checker.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import List

from repro.core import check
from repro.db import Isolation
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history.io import dump_history

from common import ROOT, child_env, median, ratio, signature

#: Seconds a worker may take before the repetition counts as failed.
WORKER_TIMEOUT = 170.0

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

#: A rw-register history from the read-committed simulator in the
#: Figure 4 shape (§7.5): 100 active keys, at most 100 writes per key,
#: 1-5 micro-ops per transaction, 20 concurrent clients.  Checked
#: strict-serializable with all four version-order sources, as the §7.4
#: analysis ran.  20k transactions keep one repetition near 2-3 s, so a
#: run holds about twenty of them.
WORKLOAD = "rw-register"
ISOLATION = Isolation.READ_COMMITTED
TXNS = 20_000
MODEL = "strict-serializable"
SOURCES = ("initial-state", "write-follows-read", "process", "realtime")


def prepare(seed: int, work_dir: str, txns: int) -> dict:
    """Generate, dump, and check in memory for the verdict oracle."""
    history = run_workload(
        RunConfig(
            txns=txns,
            concurrency=20,
            isolation=ISOLATION,
            workload=WorkloadConfig(
                workload=WORKLOAD,
                active_keys=100,
                max_writes_per_key=100,
                max_txn_len=5,
            ),
            seed=seed,
        )
    )
    path = os.path.join(work_dir, "history.jsonl")
    dump_history(history, path)
    expected = signature(
        check(history, workload=WORKLOAD, consistency_model=MODEL, sources=SOURCES)
    )
    inputs = {
        "path": path,
        "bytes": os.path.getsize(path),
        "ops": history.op_count,
        "txns": len(history),
        "expected": expected,
    }
    del history
    gc.collect()
    return inputs


def run_worker(job: dict) -> tuple:
    """Start a fresh worker, time spawn-to-ready, run one job.

    Returns ``(setup_s, result)``; ``result`` is ``None`` when the worker
    failed, timed out or printed no result.
    """
    begin = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - begin
        if ready.strip() != "ready":
            return setup_s, None
        out, _ = proc.communicate(json.dumps(job) + "\n", timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        return perf_counter() - begin, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _job(mode: str, inputs: dict) -> dict:
    return {
        "mode": mode,
        "path": inputs["path"],
        "workload": WORKLOAD,
        "model": MODEL,
        "options": {"sources": list(SOURCES)},
    }


def run(
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    txns: int = TXNS,
) -> dict:
    """Measure the batch workload; returns metrics, checks and a record.

    ``txns`` shrinks the history (the benchmark's own tests use it).
    """
    inputs = prepare(seed, work_dir, txns)
    expected = inputs["expected"]
    setups: List[float] = []
    plain: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    reports = set()

    def verify(result) -> bool:
        nonlocal attempted, failed
        attempted += 1
        ok = result is not None and (
            {k: result["verdict"][k] for k in expected} == expected
        )
        if ok:
            reports.add(result["verdict"]["report_sha256"])
        else:
            failed += 1
        return ok

    begin = perf_counter()
    while not failed:
        step = perf_counter()
        setup_s, result = run_worker(_job("verdict", inputs))
        setups.append(setup_s)
        if verify(result):
            plain.append(result)
        if trace:
            setup_s, result = run_worker(_job("traced", inputs))
            setups.append(setup_s)
            if verify(result):
                traced.append(result)
        # Stop before a repetition that would overrun the run's time.
        now = perf_counter()
        if now - begin + (now - step) > seconds:
            break
    # Traced and untraced repetitions must render the same report.
    if len(reports) > 1:
        failed += 1

    record = {
        "inputs": {k: inputs[k] for k in ("bytes", "ops", "txns")},
        "expected_anomalies": len(expected["anomalies"]),
        "samples": {
            "setup_s": setups,
            "verdict_s": [r["verdict_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
    }
    if not plain or failed:
        return {"attempted": attempted, "failed": failed, "record": record}
    # The fastest repetition: contention from the rest of the host only
    # adds time, and drifts over minutes, so the fastest of many
    # repetitions repeats across runs where their median does not.
    # A batch user appends the whole file in one request, whose round
    # trip ends with the rendered report.  So ops_per_s and both
    # append_ms percentiles are verdict_s rescaled: a handful of
    # whole-file samples holds no tail to take a p95 of.
    verdict_s = min(r["verdict_s"] for r in plain)
    metrics = {
        "setup_s": median(setups),
        "verdict_s": verdict_s,
        "ops_per_s": inputs["ops"] / verdict_s,
        "append_ms_p50": verdict_s * 1e3,
        "append_ms_p95": verdict_s * 1e3,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    record["percentile_samples"] = {"verdict_s": len(plain)}
    out = {"attempted": attempted, "failed": failed, "metrics": metrics,
           "record": record}
    if trace:
        layers = traced_layers(traced, metrics["verdict_s"])
        record["spans"] = traced[-1]["spans"]
        if layers is None:
            out["failed"] += 1
            record["traced_counts"] = [t["layers"] for t in traced]
        else:
            out["layers"] = layers
    return out


def traced_layers(traced: List[dict], untraced_verdict_s: float):
    """Per-layer values across traced repetitions: the median of each
    time, and each count — which must repeat exactly, else ``None``.
    The overhead compares the fastest traced and untraced repetitions."""
    layers = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                return None
            layers[name] = values[0]
        else:
            layers[name] = median(values)
    traced_verdict_s = min(t["verdict_s"] for t in traced)
    layers["trace.overhead_s"] = traced_verdict_s - untraced_verdict_s
    layers["trace.coverage"] = median(
        [ratio(t["covered_s"], t["verdict_s"]) for t in traced]
    )
    return layers
