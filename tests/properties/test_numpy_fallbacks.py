"""The pure-Python twins: every vectorized pass has a numpy-free double.

The analyzer's hot paths — whole-index columnar screens, bulk edge-array
ingestion, the closed-form interval reduction, process-chain scatter — are
numpy passes.  Each keeps a pure-Python twin, selected by input size: small
inputs take the twin, where numpy's per-call overhead would dominate, and
the twin doubles as the reference oracle for its numpy pass.  These tests
force the twins two ways and pin byte-identity both times:

* every size threshold (:data:`SIZE_THRESHOLDS`) lowered to 1 for the
  reference run, so each numpy pass runs whatever the input size, and
  raised to infinity for the compared run, so only the twins run;
* ``COLUMNAR_MIN_TXNS = 0`` (forcing the columnar screens on histories
  small enough that they normally take the per-key path) against the
  screens disabled outright.

Identity is the full analysis signature — anomalies in order, node
interning order, edges, evidence — the same oracle the sharding and
streaming equivalence suites use.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.db import FaunaInternal, Isolation, TiDBRetry, YugaByteStaleRead
from repro.generator import RunConfig, WorkloadConfig, run_workload

import repro.core.internal as internal_mod
import repro.core.keyspace as keyspace_mod
import repro.core.orders as orders_mod
import repro.graph.csr as csr_mod
import repro.graph.intervals as intervals_mod

#: Every size threshold that selects between a numpy pass and its
#: pure-Python twin, as ``(module, attribute)``.  The columnar screens
#: (``COLUMNAR_MIN_TXNS``) gate the list-append and rw-register
#: ``analyze_index`` passes and the index's column views.
SIZE_THRESHOLDS = [
    (csr_mod, "_BULK_MIN_EDGES"),
    (csr_mod, "_FAST_SCC_MIN_EDGES"),
    (internal_mod, "_NP_SWEEP_MIN"),
    (intervals_mod, "_NP_SORT_MIN"),
    (keyspace_mod, "COLUMNAR_MIN_TXNS"),
    (orders_mod, "_NP_ORDERS_MIN"),
]


def set_thresholds(patch, value):
    """Set every numpy/twin size threshold to ``value``."""
    for mod, name in SIZE_THRESHOLDS:
        patch.setattr(mod, name, value)


def force_numpy(patch):
    """Lower every threshold to 1: each numpy pass runs on any input."""
    set_thresholds(patch, 1)


def force_twins(patch):
    """Raise every threshold past any input: only the twins run."""
    set_thresholds(patch, float("inf"))

FAULTS = {
    "none": None,
    "tidb-retry": lambda rng: TiDBRetry(rng),
    "yugabyte-stale-read": lambda rng: YugaByteStaleRead(
        rng, probability=0.4, staleness=3
    ),
    "fauna-internal": lambda rng: FaunaInternal(
        rng, probability=0.4, staleness=2
    ),
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


def check_options(workload):
    if workload == "rw-register":
        # All four version-order sources: the register screen precomputes
        # the committed stream, version pins, and realtime filters.
        return {
            "sources": (
                "initial-state",
                "write-follows-read",
                "process",
                "realtime",
            )
        }
    return {}


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
    return (
        result.valid,
        result.anomaly_types,
        tuple((a.name, a.txns, a.message) for a in result.anomalies),
    ) + analysis_signature(result.analysis)


def _signed_check(history, workload):
    result = check(history, workload=workload, **check_options(workload))
    return result_signature(result)


@pytest.fixture
def pure_python(monkeypatch):
    """Select the pure-Python twin of every numpy pass."""
    force_twins(monkeypatch)


@pytest.fixture
def forced_columnar(monkeypatch):
    """Run the whole-index screens on histories of any size."""
    monkeypatch.setattr(keyspace_mod, "COLUMNAR_MIN_TXNS", 0)


class TestNoNumpyTwins:
    """With every numpy pass bypassed, the twins reproduce its output exactly."""

    @pytest.mark.parametrize("workload", ["list-append", "rw-register"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_check_is_identical_without_numpy(
        self, monkeypatch, workload, fault
    ):
        history = make_history(workload, fault, seed=11, txns=600)
        with monkeypatch.context() as patch:
            force_numpy(patch)
            reference = _signed_check(history, workload)
        history._index = None  # drop the cached column views
        with monkeypatch.context() as patch:
            force_twins(patch)
            assert _signed_check(history, workload) == reference

    @pytest.mark.parametrize("workload", ["grow-set", "counter"])
    def test_other_workloads_are_identical_without_numpy(
        self, monkeypatch, workload
    ):
        history = make_history(workload, "tidb-retry", seed=5, txns=600)
        with monkeypatch.context() as patch:
            force_numpy(patch)
            reference = _signed_check(history, workload)
        history._index = None
        with monkeypatch.context() as patch:
            force_twins(patch)
            assert _signed_check(history, workload) == reference

    def test_columnar_screens_decline_without_numpy(self, pure_python):
        from repro.core import Profile

        history = make_history("list-append", "none", seed=3, txns=600)
        profile = Profile()
        check(history, profile=profile)
        assert "analyze/columnar-screen" not in profile.stages
        assert "analyze/keys" in profile.stages


class TestForcedColumnarScreens:
    """Screens forced on small histories == screens disabled outright."""

    @pytest.mark.parametrize("workload", ["list-append", "rw-register"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_forced_screen_matches_per_key_path(
        self, monkeypatch, forced_columnar, workload, fault
    ):
        history = make_history(workload, fault, seed=29)
        forced = _signed_check(history, workload)
        with monkeypatch.context() as patch:
            # Larger than any test history: the screen never engages.
            patch.setattr(keyspace_mod, "COLUMNAR_MIN_TXNS", 10**9)
            assert _signed_check(history, workload) == forced


class TestHypothesisSweep:
    """Randomized configurations: twins and screens agree everywhere."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workload=st.sampled_from(["list-append", "rw-register"]),
        fault=st.sampled_from(sorted(FAULTS)),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_all_three_paths_agree(self, workload, fault, seed):
        history = make_history(workload, fault, seed, txns=120)
        reference = _signed_check(history, workload)
        patch = pytest.MonkeyPatch()
        try:
            patch.setattr(keyspace_mod, "COLUMNAR_MIN_TXNS", 0)
            assert _signed_check(history, workload) == reference
        finally:
            patch.undo()
        history._index = None
        try:
            force_twins(patch)
            assert _signed_check(history, workload) == reference
        finally:
            patch.undo()
