"""Helpers shared by the benchmark's parent process and its workers.

Statistics over run samples, the verdict signature two checks of one
history must share, an in-memory span recorder for traced runs, process
peak memory, and the environment block every record carries.
Nothing here imports ``repro``: the parent must be able to report a
missing program as an error instead of crashing on import.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program's source tree; every process the benchmark starts imports
#: ``repro`` from here.
SRC = os.path.join(ROOT, "src")


def child_env() -> Dict[str, str]:
    """Environment for a process under test: ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def signature(result) -> dict:
    """What two checks of one history must agree on: the verdict and
    every anomaly's name and transactions, in report order."""
    return {
        "valid": result.valid,
        "anomalies": [[a.name, list(a.txns)] for a in result.anomalies],
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


_OFF = nullcontext()


class Spans:
    """Spans kept in memory: ``(name, start, end, parent)`` per record.

    A traced run wraps each call into a layer in :meth:`span`; a span
    opened inside another names it as parent.  :meth:`totals` sums the
    durations per name, :meth:`top_level` the durations of root spans.
    With ``enabled=False`` the same call sites read no clock and record
    nothing, which is how a traced run measures what its spans cost.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.records: List[tuple] = []
        self._open: List[str] = []
        if not enabled:
            self.span = lambda _name: _OFF  # type: ignore[method-assign]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.records.append((name, start, end, parent))

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, start, end, _parent in self.records:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def top_level(self) -> float:
        return sum(end - start for _n, start, end, p in self.records if p is None)


def host_probe_ms() -> float:
    """Best of five timings of a fixed pure-Python loop, in ms.

    How fast the host runs the interpreter at the moment: on a shared
    host it drifts in spells minutes long, and a record taken in a slow
    spell shows it here.
    """
    best = math.inf
    for _ in range(5):
        begin = perf_counter()
        total = 0
        for number in range(200_000):
            total += number
        best = min(best, perf_counter() - begin)
    return best * 1e3


def environment() -> Dict[str, object]:
    """Machine and library versions, so later records compare like with like."""
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "platform": platform.platform(),
    }
