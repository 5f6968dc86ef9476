"""The repository benchmark: one workload end to end, or its traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-register-faulty --seed 1 \\
        --seconds 55 --trace 0

Workloads (``BENCHMARK.json`` lists them and why):

``batch-register-faulty``
    20k-transaction rw-register history from the read-committed
    simulator, all four version-order sources.  The anomaly signature
    must equal ``check()`` of the generated in-memory history.
``serve-append-durable``
    A durable ``repro serve`` daemon driven by a closed-loop load
    generator over one unix socket.  Each session's verdict must equal a
    batch ``check()`` of its operations.

No workload takes the list-append columnar analysis path: a third
workload would leave too little time per run to hold the spread inside
the bounds on a shared host.

End-to-end metrics:

``setup_s``      spawn until ready, the median of the run's start-ups: a
                 fresh interpreter importing ``repro`` and the numpy/scipy
                 it loads lazily (batch); daemon spawn, ``ping`` and one
                 throwaway session (serve).
``verdict_s``    file open to rendered ``report()`` (batch); first append
                 to the last session's verdict reply (serve).  The fastest
                 of the run's repetitions (batch) or rounds (serve): the
                 rest of the host only adds time, in regimes minutes long,
                 and the fastest of many repeats where their median does
                 not.
``ops_per_s``    operations checked divided by ``verdict_s``.
``append_ms_*``  p50 and p95 of the append round trip over every append of
                 the run (serve); batch sends the whole file as one
                 request, so there both are ``verdict_s`` in ms.
``peak_rss_mb``  ``VmHWM`` of the checker process (median over
                 repetitions) or of the daemon.

The failure share (failed over attempted items) is ``failed`` /
``attempted`` in the result line and ``failed_share`` in the record.

Inputs are made from ``--seed`` during set-up, outside every timed
region.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run (spans around each layer's public calls) next to an untraced one.
The line before it is the full record: environment, a host-speed probe
taken before and after the run, inputs, raw samples, sample counts behind
each percentile, and the failure share.  Any wrong
verdict, error reply or worker failure makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import ROOT, SRC, environment, host_probe_ms, ratio

WORKLOADS = ("batch-register-faulty", "serve-append-durable")


def _definitions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _metrics(values: dict, definitions: list) -> dict:
    """Every defined metric, with its unit; a missing one is an error."""
    missing = [d["name"] for d in definitions if d["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
        for d in definitions
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    definitions = _definitions()

    # Terminated runs unwind too, so workers and the daemon are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    probes = [host_probe_ms()]
    try:
        if args.workload == "serve-append-durable":
            import serve

            out = serve.run(args.seed, args.seconds, bool(args.trace), work_dir)
        else:
            import batch

            out = batch.run(args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    probes.append(host_probe_ms())

    correct = out["failed"] == 0 and "metrics" in out
    if correct and args.trace:
        # Layers a workload never calls are reported as measured: zero.
        layers = {d["name"]: 0 for d in definitions["per_layer"]}
        layers.update(out["layers"])
        metrics = _metrics(layers, definitions["per_layer"])
    elif correct:
        metrics = _metrics(out["metrics"], definitions["end_to_end"])
    else:
        metrics = {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "host_probe_ms": probes,
        "failed_share": ratio(out["failed"], out["attempted"]),
        **out["record"],
    }
    if args.trace and "metrics" in out:
        record["untraced"] = out["metrics"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
