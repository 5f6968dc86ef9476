"""Keyspace execution engine: merge determinism, plans, shared read checks."""

import random

from repro.core import WW, analyze
from repro.core.analysis import Analysis, Evidence
from repro.core.anomalies import G1A, GARBAGE_READ, Anomaly
from repro.core.keyspace import (
    PLANS,
    ReadCheckStyle,
    _analyze_plan,
    _merge,
    check_recoverable_read,
)
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History, append, r, w


def history(workload="list-append", seed=17, txns=150):
    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=5,
            workload=WorkloadConfig(workload=workload, active_keys=4),
            seed=seed,
        )
    )


class TestMergeDeterminism:
    def test_batch_order_is_irrelevant(self):
        h = history()
        plan = PLANS["list-append"](h)
        whole = [_analyze_plan(plan)]
        # Split the whole-plan batch into shuffled pieces: the merge must
        # restore tag order however the blocks arrive.
        rng = random.Random(0)
        anomaly_blocks, edge_blocks = (list(blocks) for blocks in whole[0])
        rng.shuffle(anomaly_blocks)
        rng.shuffle(edge_blocks)
        pieces = [(anomaly_blocks[i::3], edge_blocks[i::3]) for i in range(3)]

        merged_whole = Analysis(history=h, workload="list-append")
        _merge(merged_whole, whole)
        merged_pieces = Analysis(history=h, workload="list-append")
        _merge(merged_pieces, pieces)

        assert merged_pieces.anomalies == merged_whole.anomalies
        assert list(merged_pieces.graph.nodes()) == list(
            merged_whole.graph.nodes()
        )
        assert sorted(merged_pieces.graph.edges()) == sorted(
            merged_whole.graph.edges()
        )
        assert merged_pieces.evidence == merged_whole.evidence

    def test_evidence_precedence_follows_tags(self):
        h = History.of(("ok", 0, [append("x", 1)]))
        first = Evidence(kind=WW, key="x", value=1)
        second = Evidence(kind=WW, key="x", value=99)
        batches = [
            ([], [((0, 5, 0), {(0, 2, WW): second})]),
            ([], [((0, 1, 0), {(0, 2, WW): first})]),
        ]
        analysis = Analysis(history=h, workload="list-append")
        _merge(analysis, batches)
        assert analysis.evidence[(0, 2, WW)] == first


class TestPlanRegistry:
    def test_all_workloads_registered(self):
        assert set(PLANS) == {
            "list-append",
            "rw-register",
            "grow-set",
            "counter",
        }


class TestSharedReadChecks:
    def style(self, **overrides):
        def garbage(reader, key, element, elements):
            return Anomaly(GARBAGE_READ, (reader.id,), f"garbage {element}")

        def g1a(reader, key, element, writer):
            return Anomaly(G1A, (reader.id, writer.id), f"aborted {element}")

        def g1b(reader, key, last, final, elements, writer):
            return Anomaly("G1b", (reader.id, writer.id), f"mid {last}->{final}")

        base = dict(garbage=garbage, g1a=g1a, g1b=g1b, intermediate=True)
        base.update(overrides)
        return ReadCheckStyle(**base)

    def fixture(self):
        h = History.of(
            ("ok", 0, [w("k", 1), w("k", 2)]),   # 1 is an intermediate write
            ("fail", 1, [w("k", 3)]),
            ("ok", 2, [r("k", 1)]),
        )
        write_map = h.index().slices["k"].write_map
        reader = h.transactions[2]
        return reader, write_map

    def test_garbage(self):
        reader, write_map = self.fixture()
        found = check_recoverable_read(reader, "k", (99,), write_map, self.style())
        assert [a.name for a in found] == [GARBAGE_READ]

    def test_aborted_suppresses_g1b_when_configured(self):
        reader, write_map = self.fixture()
        aborted_nonfinal = check_recoverable_read(
            reader,
            "k",
            (3,),
            write_map,
            self.style(intermediate_after_aborted=False),
        )
        assert [a.name for a in aborted_nonfinal] == [G1A]

    def test_intermediate_read(self):
        reader, write_map = self.fixture()
        found = check_recoverable_read(reader, "k", (1,), write_map, self.style())
        assert [a.name for a in found] == ["G1b"]

    def test_clean_read(self):
        reader, write_map = self.fixture()
        assert check_recoverable_read(
            reader, "k", (2,), write_map, self.style()
        ) == []


class TestAnalyzeForwarding:
    def test_custom_analyzers_unaffected_by_defaults(self):
        # analyze() must not force a profile kwarg on analyzers that
        # never opted in (registered third-party callables).
        from repro.core import register_analyzer
        from repro.core.checker import ANALYZERS

        def fake(history, process_edges=True, realtime_edges=True):
            return Analysis(history=history, workload="fake")

        register_analyzer("fake-workload", fake)
        try:
            result = analyze(history(seed=3), workload="fake-workload")
            assert result.workload == "fake"
        finally:
            ANALYZERS.pop("fake-workload", None)
