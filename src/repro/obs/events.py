"""Structured JSON event log: leveled, rate-limited, one object per line.

Metrics answer "how much, how fast"; events answer "what exactly happened
at 14:03:07".  ``repro serve --log-json PATH|-`` streams one JSON object
per line — admission refusals, quota trips, degradation-ladder rungs,
checkpoint/restore, WAL fsync stalls, slow chunks — each carrying its
session/seq/chunk context, so an operator can ``jq`` a day of daemon life
instead of re-running it.

Schema (every line)::

    {"ts": 1723111387.214,        # wall-clock unix seconds
     "level": "warn",             # debug | info | warn | error
     "event": "slow-chunk",       # stable machine-readable name
     ...context fields...}        # session, chunk, seq, ms, trace, ...

Two disciplines keep the log safe to leave on under load:

* **Levels.**  Events below the configured threshold are dropped before
  any formatting work happens.
* **Rate limiting.**  Each event *name* has its own token bucket
  (``rate_limit`` events/second, ``burst`` capacity).  A hot failure mode
  — say a client hammering a quota — cannot flood the disk: excess events
  are counted, not written, and the next permitted line of that name
  carries ``"suppressed": N`` so the gap is visible rather than silent.

The sink is any text stream; :func:`open_event_log` maps the CLI
convention (``-`` for stdout, a path for an append-opened file).  Writes
are line-buffered and flushed per event — an event log that loses its
tail in a crash defeats its purpose — and serialized under a lock so the
asyncio loop and test threads never interleave half-lines.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, TextIO

#: Numeric severities, log4j-shaped.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}


class EventLog:
    """A leveled, per-event-name rate-limited JSON-lines sink."""

    def __init__(
        self,
        stream: TextIO,
        *,
        level: str = "info",
        rate_limit: float = 50.0,
        burst: int = 100,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        close_stream: bool = False,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown level {level!r}; expected one of {sorted(LEVELS)}"
            )
        if rate_limit <= 0:
            raise ValueError("rate_limit must be positive events/second")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self._stream = stream
        self._threshold = LEVELS[level]
        self._rate = rate_limit
        self._burst = float(burst)
        self._clock = clock
        self._wall = wall_clock
        self._close_stream = close_stream
        self._lock = threading.Lock()
        #: Per-event-name token buckets: name -> [tokens, last_refill].
        self._buckets: Dict[str, list] = {}
        #: Events dropped by the bucket since that name's last write.
        self._suppressed: Dict[str, int] = {}
        self.emitted = 0
        self.suppressed_total = 0

    def emit(self, event: str, level: str = "info", **fields: Any) -> bool:
        """Write one event line; returns False when filtered or limited."""
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(f"unknown level {level!r}")
        if severity < self._threshold:
            return False
        with self._lock:
            if not self._take_token(event):
                self._suppressed[event] = self._suppressed.get(event, 0) + 1
                self.suppressed_total += 1
                return False
            record: Dict[str, Any] = {
                "ts": round(self._wall(), 3),
                "level": level,
                "event": event,
            }
            suppressed = self._suppressed.pop(event, 0)
            if suppressed:
                record["suppressed"] = suppressed
            record.update(fields)
            try:
                self._stream.write(
                    json.dumps(record, separators=(",", ":"), default=str)
                    + "\n"
                )
                self._stream.flush()
            except (OSError, ValueError):  # pragma: no cover - closed sink
                return False
            self.emitted += 1
            return True

    def _take_token(self, event: str) -> bool:
        now = self._clock()
        bucket = self._buckets.get(event)
        if bucket is None:
            self._buckets[event] = [self._burst - 1.0, now]
            return True
        tokens, last = bucket
        tokens = min(self._burst, tokens + (now - last) * self._rate)
        if tokens < 1.0:
            bucket[0] = tokens
            bucket[1] = now
            return False
        bucket[0] = tokens - 1.0
        bucket[1] = now
        return True

    def close(self) -> None:
        with self._lock:
            if self._close_stream:
                try:
                    self._stream.close()
                except OSError:  # pragma: no cover - already closed
                    pass


def open_event_log(
    path: str,
    *,
    level: str = "info",
    rate_limit: float = 50.0,
    burst: int = 100,
) -> EventLog:
    """An :class:`EventLog` for the CLI's ``--log-json PATH|-`` flag.

    ``-`` streams to stdout (composes with ``--quiet``); anything else is
    opened for append, so a restarting daemon extends its log instead of
    truncating the history an operator is tailing.
    """
    if path == "-":
        return EventLog(
            sys.stdout, level=level, rate_limit=rate_limit, burst=burst
        )
    stream = open(path, "a", encoding="utf-8")
    return EventLog(
        stream,
        level=level,
        rate_limit=rate_limit,
        burst=burst,
        close_stream=True,
    )
