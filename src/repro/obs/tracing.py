"""Per-chunk trace spans: the checking pipeline as a tree, not a total.

A whole-run :class:`~repro.profiling.Profile` answers "where did this
run spend its time"; an operator staring at one slow session needs the
per-*chunk* version — which stage of which chunk stalled.  The service
threads a fresh profile through every analyzed chunk, and the profile's
span tree (every ``stage()`` block nested under whatever stage was open
when it began) already holds that answer: the checker's ``stream/ingest``
/ ``index/scan`` / ``analyze/columnar-screen`` stages appear as children
without a single hot-path change.

:class:`ChunkTracer` keeps the last N chunk traces in a bounded ring
buffer and, when a chunk's wall-clock cost crosses ``slow_chunk_ms``,
dumps the offending span tree to the structured event log (level
``warn``, event ``slow-chunk``) — the tail latency *and its anatomy* land
in the log at the moment they happen.

A trace record is JSON-shaped end to end::

    {"session": "load-3", "chunk": 17, "ops": 1000, "txns": 507,
     "ms": 6.3, "slow": false,
     "spans": [{"name": "decode", "ms": 0.4},
               {"name": "buffer", "ms": 0.1},
               {"name": "analyze", "ms": 5.8, "children": [
                   {"name": "stream/ingest", "ms": 1.1},
                   ...]}]}

``decode`` and ``buffer`` cover the frame work the server did for this
chunk's operations (accumulated per-session between analysis slices);
``analyze`` wraps the checker extend with the profile stages nested
inside; ``retire`` appears when auto-retirement ran on the slice.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from ..profiling import Profile
from .events import EventLog

#: Default ring-buffer capacity (chunk traces retained).
DEFAULT_TRACE_CAPACITY = 256


class ChunkTracer:
    """A bounded ring of per-chunk trace records plus the slow-chunk tap."""

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        slow_chunk_ms: Optional[float] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if slow_chunk_ms is not None and slow_chunk_ms <= 0:
            raise ValueError("slow_chunk_ms must be positive")
        self.capacity = capacity
        self.slow_chunk_ms = slow_chunk_ms
        self.events = events
        self._ring: deque = deque(maxlen=capacity)
        self.chunks_traced = 0
        self.slow_chunks = 0

    def record(
        self,
        *,
        session: str,
        chunk: int,
        ops: int,
        txns: int,
        elapsed_seconds: float,
        profile: Optional[Profile] = None,
        pre_spans: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Fold one analyzed chunk into the ring; dump it when slow.

        ``pre_spans`` are spans recorded before analysis began (frame
        decode, backlog buffering — the server accumulates them per
        session between slices); the profile's own span tree lands under
        an ``analyze`` root.
        """
        ms = elapsed_seconds * 1000.0
        spans: List[Dict[str, Any]] = list(pre_spans or ())
        analyze: Dict[str, Any] = {"name": "analyze", "ms": round(ms, 3)}
        if profile is not None and profile.spans:
            analyze["children"] = profile.spans
        spans.append(analyze)
        trace: Dict[str, Any] = {
            "session": session,
            "chunk": chunk,
            "ops": ops,
            "txns": txns,
            "ms": round(ms, 3),
            "slow": False,
            "spans": spans,
        }
        if profile is not None and profile.counters:
            trace["counters"] = dict(profile.counters)
        self.chunks_traced += 1
        if self.slow_chunk_ms is not None and ms >= self.slow_chunk_ms:
            trace["slow"] = True
            self.slow_chunks += 1
            if self.events is not None:
                self.events.emit(
                    "slow-chunk",
                    level="warn",
                    session=session,
                    chunk=chunk,
                    ops=ops,
                    ms=round(ms, 3),
                    threshold_ms=self.slow_chunk_ms,
                    spans=spans,
                )
        self._ring.append(trace)
        return trace

    def span(self, name: str, elapsed_seconds: float) -> Dict[str, Any]:
        """A leaf span dict (helper for server-side decode/buffer spans)."""
        return {"name": name, "ms": round(elapsed_seconds * 1000.0, 3)}

    def snapshot(
        self, session: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Recent traces, oldest first (optionally one session's only)."""
        traces: List[Dict[str, Any]] = [
            trace
            for trace in self._ring
            if session is None or trace["session"] == session
        ]
        if limit is not None:
            # Not ``traces[-limit:]``: ``-0 == 0`` would return them all.
            traces = traces[max(0, len(traces) - limit):]
        return traces


def percentiles(
    values, quantiles=(0.5, 0.95, 0.99)
) -> Dict[str, float]:
    """Exact percentiles over a small sample window, as ``{"p50": ...}``.

    Nearest-rank with linear interpolation; an empty window is all zeros.
    Used for the per-session ``last_chunk_ms`` digest in ``stats`` frames
    and the benchmark's latency rows — the windows are hundreds of floats,
    so exactness costs nothing.
    """
    data = sorted(values)
    out: Dict[str, float] = {}
    for q in quantiles:
        name = f"p{int(q * 100)}"
        if not data:
            out[name] = 0.0
            continue
        position = q * (len(data) - 1)
        lower = int(position)
        upper = min(lower + 1, len(data) - 1)
        fraction = position - lower
        out[name] = data[lower] + (data[upper] - data[lower]) * fraction
    return out
