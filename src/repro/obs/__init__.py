"""Observability for the checker service: metrics, events, traces.

Three instruments, one bundle:

* :mod:`repro.obs.metrics` — a label-aware metrics registry (counters,
  gauges, fixed-bucket histograms) with a hard cardinality cap, exposed
  as a Prometheus text-format scrape (:mod:`repro.obs.httpd`) and as the
  ``metrics`` wire frame;
* :mod:`repro.obs.events` — a leveled, rate-limited structured JSON
  event log (``serve --log-json PATH|-``);
* :mod:`repro.obs.tracing` — per-chunk span trees in a bounded ring
  buffer, with slow chunks dumped to the event log.

Telemetry is part of the service, not an option on it: every
:class:`Observability` bundle always carries a registry, its
:class:`Instruments` and a tracer, so instrumentation sites are plain
calls with no off-mode to branch on.  Only the event log is optional —
:meth:`Observability.emit` and :meth:`Observability.close` are the one
None-safe place for it.  The accounting is cheap enough to leave on:
under cProfile the metrics and tracing modules take under 1% of a
durable serve run's time.

:class:`Instruments` pre-registers the service's whole metric surface in
one place so the names, labels, and help strings documented in the README
have exactly one source of truth.
"""

from __future__ import annotations

from typing import Any, Optional

from .events import LEVELS, EventLog, open_event_log
from .metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    OVERFLOW_LABEL,
    MetricsRegistry,
)
from .tracing import DEFAULT_TRACE_CAPACITY, ChunkTracer, percentiles
from .httpd import MetricsExporter

__all__ = [
    "ChunkTracer",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_TRACE_CAPACITY",
    "EventLog",
    "Instruments",
    "LEVELS",
    "MetricsExporter",
    "MetricsRegistry",
    "Observability",
    "OVERFLOW_LABEL",
    "open_event_log",
    "percentiles",
]


class Instruments:
    """Every metric family the service emits, registered up front.

    Families exist from daemon start (scrapes see zeros, not absences),
    and the per-session families share one cardinality budget enforced by
    the registry cap.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        # --- frame plane -------------------------------------------------
        self.frames_total = registry.counter(
            "repro_frames_total",
            "Request frames handled, by frame type.",
            ("type",),
        )
        self.frame_errors_total = registry.counter(
            "repro_frame_errors_total",
            "Error replies sent, by error code.",
            ("code",),
        )
        self.backpressure_waits_total = registry.counter(
            "repro_backpressure_waits_total",
            "Append frames that had to wait for analyzer headroom.",
        )
        self.backpressure_wait_seconds = registry.histogram(
            "repro_backpressure_wait_seconds",
            "Time append replies were withheld waiting for buffered-ops "
            "headroom.",
        )
        # --- analysis plane ----------------------------------------------
        self.ops_ingested_total = registry.counter(
            "repro_ops_ingested_total",
            "Operations accepted into session buffers, by session.",
            ("session",),
        )
        self.chunks_checked_total = registry.counter(
            "repro_chunks_checked_total",
            "Chunks fully analyzed, by session.",
            ("session",),
        )
        self.chunk_analyze_seconds = registry.histogram(
            "repro_chunk_analyze_seconds",
            "Wall-clock seconds per analyzed chunk, by session.",
            ("session",),
        )
        self.anomalies_total = registry.counter(
            "repro_anomalies_total",
            "Anomalies reported across all sessions.",
        )
        self.slow_chunks_total = registry.counter(
            "repro_slow_chunks_total",
            "Chunks whose analysis crossed --slow-chunk-ms.",
        )
        # --- governance plane --------------------------------------------
        self.sessions_opened_total = registry.counter(
            "repro_sessions_opened_total", "Sessions opened."
        )
        self.sessions_closed_total = registry.counter(
            "repro_sessions_closed_total", "Sessions closed by clients."
        )
        self.sessions_evicted_total = registry.counter(
            "repro_sessions_evicted_total", "Idle sessions evicted."
        )
        self.shed_opens_total = registry.counter(
            "repro_shed_opens_total",
            "Session opens refused while the service was overloaded.",
        )
        self.quota_trips_total = registry.counter(
            "repro_quota_trips_total",
            "Per-session quota rejections, by quota kind.",
            ("quota",),
        )
        self.pressure_actions_total = registry.counter(
            "repro_pressure_actions_total",
            "Degradation-ladder actions taken, by rung.",
            ("action",),
        )
        # --- durability plane --------------------------------------------
        self.wal_appends_total = registry.counter(
            "repro_wal_appends_total", "Chunks appended to the WAL."
        )
        self.wal_fsync_seconds = registry.histogram(
            "repro_wal_fsync_seconds",
            "Seconds per WAL fsync (policy always/batch).",
        )
        self.checkpoints_written_total = registry.counter(
            "repro_checkpoints_written_total", "Checkpoints written."
        )
        self.checkpoint_seconds = registry.histogram(
            "repro_checkpoint_seconds",
            "Seconds per checkpoint: pickle, digest, fsync and rename.",
        )
        self.checkpoint_bytes = registry.histogram(
            "repro_checkpoint_bytes",
            "Checkpoint sizes in bytes.",
            buckets=DEFAULT_BYTE_BUCKETS,
        )
        self.sessions_recovered_total = registry.counter(
            "repro_sessions_recovered_total",
            "Sessions rebuilt from checkpoint + WAL replay.",
        )


class Observability:
    """The telemetry bundle one daemon threads through all its layers.

    ``registry``, ``metrics`` and ``tracer`` always exist; ``events`` is
    the only optional part (no ``--log-json``, no event log).
    """

    def __init__(
        self,
        *,
        events: Optional[EventLog] = None,
        slow_chunk_ms: Optional[float] = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        max_series: int = 64,
    ) -> None:
        self.registry = MetricsRegistry(max_series=max_series)
        self.metrics = Instruments(self.registry)
        self.events = events
        self.tracer = ChunkTracer(
            capacity=trace_capacity,
            slow_chunk_ms=slow_chunk_ms,
            events=events,
        )

    def emit(self, event: str, level: str = "info", **fields: Any) -> bool:
        """Forward to the event log when one is attached."""
        if self.events is None:
            return False
        return self.events.emit(event, level=level, **fields)

    def close(self) -> None:
        if self.events is not None:
            self.events.close()
