"""Per-stage timing, counters and span trees for the checking pipeline.

Perf work on the checker needs to know where the time goes: dependency
inference, graph freeze, each SCC mask family, cycle BFS, explanation
rendering.  A :class:`Profile` is threaded (optionally) through
:func:`repro.core.checker.check` and
:func:`repro.core.cycle_search.find_cycle_anomalies`; ``python -m repro
--profile`` prints the result.  The service threads one fresh profile
through every analyzed chunk, and its span tree becomes that chunk's
trace (:class:`repro.obs.tracing.ChunkTracer`).

Counters double as behavioural assertions: the mask-refinement cycle search
records how many *full-graph* Tarjan decompositions ran versus how many
were confined to parent components or served from cache, so a regression
back to per-pass full decompositions is visible in the numbers.

This module is a stdlib-only leaf: ``history``, ``core`` and ``obs`` all
import it without importing one another.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional


class Profile:
    """Accumulates named stage durations, integer counters and span trees.

    Stages nest freely; re-entering a name accumulates into ``stages``.
    ``spans`` keeps every stage occurrence as a tree: a list of root span
    dicts, each ``{"name", "ms"}`` plus ``"children"`` when stages ran
    nested inside it.  The object is cheap enough to thread through hot
    paths as an optional argument — callers use :func:`stage`.
    """

    __slots__ = ("stages", "counters", "spans", "_stage_order", "_open")

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.spans: List[Dict[str, Any]] = []
        self._stage_order: list = []
        self._open: List[Dict[str, Any]] = []  # spans of the open stages

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (accumulating on re-entry)."""
        span: Dict[str, Any] = {"name": name, "ms": 0.0}
        if self._open:
            self._open[-1].setdefault("children", []).append(span)
        else:
            self.spans.append(span)
        self._open.append(span)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._open.pop()
            span["ms"] = round(elapsed * 1000.0, 3)
            if name not in self.stages:
                self._stage_order.append(name)
                self.stages[name] = elapsed
            else:
                self.stages[name] += elapsed

    def count(self, name: str, n: int = 1) -> None:
        """Bump counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def report(self) -> str:
        """An aligned, human-readable stage/counter table."""
        lines = ["profile:"]
        if self.stages:
            width = max(len(name) for name in self.stages)
            for name in self._stage_order:
                lines.append(
                    f"  {name.ljust(width)}  {self.stages[name] * 1000:10.2f} ms"
                )
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(
                    f"  {name.ljust(width)}  {self.counters[name]:10d}"
                )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (for benchmark records)."""
        return {
            "stages_ms": {
                name: self.stages[name] * 1000 for name in self._stage_order
            },
            "counters": dict(self.counters),
        }


def stage(profile: Optional[Profile], name: str):
    """``profile.stage(name)`` or a no-op context when profiling is off.

    Hot paths thread an *optional* profile; this keeps their ``with``
    blocks unconditional.
    """
    if profile is None:
        return nullcontext()
    return profile.stage(name)
