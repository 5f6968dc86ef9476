"""The benchmark's own check: per-layer counts repeat exactly on one seed.

Each workload runs twice, traced, at a reduced size on the same seed.
Every count and byte total the traced run reports (input ops, pairs,
keys, graph size, cycle-search runs, incremental chunks and key reuse,
checkpoints) must be identical across the two runs, so later changes can
rest exact claims on them.  Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SRC  # noqa: E402

sys.path.insert(0, SRC)

import batch  # noqa: E402
import serve  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    COUNTS = [
        m["name"]
        for m in json.load(fh)["per_layer"]
        if m["unit"] in ("count", "bytes")
    ]

SEED = 7


def _traced(tmp_path, name: str, tag: str) -> dict:
    work_dir = str(tmp_path / tag)
    os.makedirs(work_dir)
    if name == "serve-append-durable":
        # One session long enough to checkpoint at the daemon's default
        # cadence (every 20k operations).
        return serve.run(SEED, 0.0, True, work_dir, sessions=1, txns=10_500)
    return batch.run(SEED, 0.0, True, work_dir, txns=3_000)


@pytest.mark.parametrize("name", ["batch-register-faulty", "serve-append-durable"])
def test_counts_repeat_exactly(tmp_path, name):
    first = _traced(tmp_path, name, "first")
    second = _traced(tmp_path, name, "second")
    for out in (first, second):
        assert out["failed"] == 0, out["record"]
    counts = [{n: out["layers"][n] for n in COUNTS if n in out["layers"]}
              for out in (first, second)]
    assert counts[0] == counts[1]
    # The counts are of real work, not placeholders.
    if name == "serve-append-durable":
        assert counts[0]["incremental.chunks"] > 0
        assert counts[0]["durability.checkpoints"] > 0
        assert first["record"]["daemon_counts"] == second["record"]["daemon_counts"]
    else:
        assert counts[0]["io.ops"] > 0 and counts[0]["graph.edges"] > 0
