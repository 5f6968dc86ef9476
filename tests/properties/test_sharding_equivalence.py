"""The key-sharding oracle: per-key batches merge into the whole check.

Elle's dependency inference is separable by key (§4–§5), and the keyspace
pipeline promises that the tag-ordered merge makes the order in which
per-key batches arrive irrelevant.  The streaming checker relies on that
promise when it merges cached per-key batches with fresh ones.  These tests
split a plan's keyspace into ``shards`` interleaved key groups, analyze each
group on its own, merge the groups in shuffled order, and require the result
to reproduce :func:`repro.check` / :func:`repro.core.analyze` *exactly*:
same anomalies in the same order with the same messages, same graph
(including node interning order, which cycle-witness selection depends on),
same evidence, same verdict.  They pin that across all four workloads,
multiple fault injectors, and randomized generator configurations.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.core import analyze
from repro.core.analysis import Analysis
from repro.core.checker import finish_analysis
from repro.core.keyspace import PLANS, _merge
from repro.core.orders import add_process_edges, add_realtime_edges
from repro.db import FaunaInternal, Isolation, TiDBRetry, YugaByteStaleRead
from repro.generator import RunConfig, WorkloadConfig, run_workload

WORKLOADS = ["list-append", "rw-register", "grow-set", "counter"]

FAULTS = {
    "none": None,
    "tidb-retry": lambda rng: TiDBRetry(rng),
    "yugabyte-stale-read": lambda rng: YugaByteStaleRead(
        rng, probability=0.4, staleness=3
    ),
    "fauna-internal": lambda rng: FaunaInternal(rng, probability=0.4, staleness=2),
}


def make_history(workload, fault, seed, txns=250):
    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=8,
            isolation=Isolation.SNAPSHOT_ISOLATION,
            workload=WorkloadConfig(workload=workload, active_keys=6),
            seed=seed,
            crash_probability=0.02,
            faults=FAULTS[fault],
        )
    )


def sharded_analysis(history, workload, shards, seed=0, **options):
    """Analyze ``shards`` interleaved key groups apart, merge shuffled."""
    plan = PLANS[workload](history, **options)
    keys = list(plan.keys())
    batches = [(plan.internal_anomaly_blocks(), [])]
    for shard in range(shards):
        anomaly_blocks, edge_blocks = [], []
        for key in keys[shard::shards]:
            key_anomalies, key_edges = plan.analyze_key(key)
            anomaly_blocks.extend(key_anomalies)
            edge_blocks.extend(key_edges)
        batches.append((anomaly_blocks, edge_blocks))
    random.Random(seed).shuffle(batches)
    analysis = Analysis(history=history, workload=workload)
    _merge(analysis, batches)
    add_process_edges(analysis)
    add_realtime_edges(analysis)
    return analysis


def sharded_check(history, workload, shards, seed=0, **options):
    """The serializable verdict over :func:`sharded_analysis`."""
    analysis = sharded_analysis(history, workload, shards, seed, **options)
    return finish_analysis(analysis, "serializable")


def analysis_signature(analysis):
    """Everything inference produced, in order."""
    return (
        [(a.name, a.txns, a.message, tuple(sorted(a.data.items(), key=repr)))
         for a in analysis.anomalies],
        list(analysis.graph.nodes()),          # interning order matters
        sorted(analysis.graph.edges()),
        sorted(analysis.evidence.items()),
    )


def result_signature(result):
    """The full verdict, including rendered cycle witnesses."""
    return (
        result.valid,
        result.consistency_model,
        result.anomaly_types,
        tuple((a.name, a.txns, a.message) for a in result.anomalies),
        frozenset(result.impossible),
        frozenset(result.not_),
        frozenset(result.but_possibly),
    ) + analysis_signature(result.analysis)


def check_options(workload):
    if workload == "rw-register":
        # Exercise every version-order source, including the per-key
        # process/realtime streams.
        return {
            "sources": (
                "initial-state",
                "write-follows-read",
                "process",
                "realtime",
            )
        }
    return {}


class TestShardedCheckEquivalence:
    """Merged key shards == check(), everywhere."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("fault", ["tidb-retry", "fauna-internal"])
    def test_faulty_histories(self, workload, fault):
        # 600 transactions cross COLUMNAR_MIN_TXNS (512), so check() takes
        # the whole-index columnar pass of the two workloads that have one.
        txns = 600 if workload in ("list-append", "rw-register") else 250
        history = make_history(workload, fault, seed=11, txns=txns)
        options = check_options(workload)
        whole = check(
            history, workload=workload, consistency_model="serializable",
            **options,
        )
        for shards in (2, 3):
            sharded = sharded_check(history, workload, shards, **options)
            assert result_signature(sharded) == result_signature(whole)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_clean_histories(self, workload):
        history = make_history(workload, "none", seed=5)
        whole = check(history, workload=workload)
        sharded = sharded_check(history, workload, 2)
        assert result_signature(sharded) == result_signature(whole)

    def test_yugabyte_stale_read_list_append(self):
        history = make_history("list-append", "yugabyte-stale-read", seed=3)
        whole = check(history)
        sharded = sharded_check(history, "list-append", 4)
        assert result_signature(sharded) == result_signature(whole)

    def test_more_shards_than_keys(self):
        history = make_history("list-append", "none", seed=2, txns=40)
        whole = check(history)
        sharded = sharded_check(history, "list-append", 64)
        assert result_signature(sharded) == result_signature(whole)


class TestShardedAnalyzeEquivalence:
    """The raw Analysis (pre-cycle-search) is identical too."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_analysis_identical(self, workload):
        history = make_history(workload, "tidb-retry", seed=29)
        whole = analyze(history, workload=workload)
        sharded = sharded_analysis(history, workload, 2)
        assert analysis_signature(sharded) == analysis_signature(whole)


class TestRandomizedEquivalence:
    """Hypothesis-driven sweep over generator configurations."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workload=st.sampled_from(WORKLOADS),
        fault=st.sampled_from(sorted(FAULTS)),
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.integers(min_value=2, max_value=4),
        isolation=st.sampled_from(
            [
                Isolation.SERIALIZABLE,
                Isolation.SNAPSHOT_ISOLATION,
                Isolation.READ_COMMITTED,
            ]
        ),
    )
    def test_random_runs(self, workload, fault, seed, shards, isolation):
        history = run_workload(
            RunConfig(
                txns=120,
                concurrency=5,
                isolation=isolation,
                workload=WorkloadConfig(workload=workload, active_keys=4),
                seed=seed,
                crash_probability=0.05,
                faults=FAULTS[fault],
            )
        )
        options = check_options(workload)
        whole = check(history, workload=workload, **options)
        sharded = sharded_check(
            history, workload, shards, seed=seed, **options
        )
        assert result_signature(sharded) == result_signature(whole)
