"""A minimal asyncio HTTP responder for the ``/metrics`` scrape endpoint.

Prometheus needs exactly one thing from the daemon: ``GET /metrics`` →
``200 text/plain`` with the exposition body.  Pulling in an HTTP
framework for that would break the repo's zero-dependency rule, so this
is the smallest honest server: it shares the daemon's event loop (one
more ``asyncio.start_server`` beside the frame listeners — scrapes
interleave with analysis slices exactly like frame I/O does), parses just
the request line plus headers, answers, and closes.  Routes:

``GET /metrics``
    The registry's Prometheus text exposition (content type
    ``text/plain; version=0.0.4``).

``GET /healthz``
    ``200 ok`` with a one-line JSON liveness body — the ``ping`` frame
    for infrastructure that only speaks HTTP.

``GET /traces``
    The chunk tracer's ring buffer as JSON (newest last);
    ``?session=ID`` filters, ``?limit=N`` keeps the newest N.

Anything else is ``404``; malformed or oversized requests get ``400``.
Responses always carry ``Connection: close`` — scrapes are one-shot, and
keeping the state machine trivial matters more than saving a handshake
every 15 seconds.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

#: Request line + headers larger than this are rejected outright.
MAX_REQUEST_BYTES = 16 * 1024

_CONTENT_TYPE_TEXT = "text/plain; version=0.0.4; charset=utf-8"
_CONTENT_TYPE_JSON = "application/json; charset=utf-8"


class MetricsExporter:
    """The scrape endpoint: binds a port, serves the registry, stops clean."""

    def __init__(
        self,
        registry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer,
        health=None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.tracer = tracer
        #: Optional callable returning the liveness dict ``/healthz``
        #: serves (the server wires its ``pong`` body in).
        self.health = health
        self._server: Optional[asyncio.AbstractServer] = None
        self.scrapes = 0

    async def start(self) -> int:
        """Bind the listener; returns the bound port (real one for 0)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._respond(reader)
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            writer.write(head + payload)
            await writer.drain()
        except (ConnectionError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, str]:
        try:
            request_line = await reader.readline()
            # Drain headers; the routes are all GETs with no body.
            while True:
                line = await reader.readline()
                if line in (b"", b"\r\n", b"\n"):
                    break
        except (asyncio.LimitOverrunError, ValueError):
            return "400 Bad Request", _CONTENT_TYPE_TEXT, "bad request\n"
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return "400 Bad Request", _CONTENT_TYPE_TEXT, "bad request\n"
        method, target = parts[0], parts[1]
        if method not in ("GET", "HEAD"):
            return (
                "405 Method Not Allowed",
                _CONTENT_TYPE_TEXT,
                "only GET is supported\n",
            )
        split = urlsplit(target)
        path = split.path
        if path == "/metrics":
            self.scrapes += 1
            return "200 OK", _CONTENT_TYPE_TEXT, self.registry.expose()
        if path == "/healthz":
            record: Dict[str, Any] = {"ok": True}
            if self.health is not None:
                record.update(self.health())
            return (
                "200 OK",
                _CONTENT_TYPE_JSON,
                json.dumps(record, separators=(",", ":")) + "\n",
            )
        if path == "/traces":
            query = parse_qs(split.query)
            session = (query.get("session") or [None])[0]
            limit_text = (query.get("limit") or [None])[0]
            limit = None
            if limit_text is not None:
                try:
                    limit = max(0, int(limit_text))
                except ValueError:
                    return (
                        "400 Bad Request",
                        _CONTENT_TYPE_TEXT,
                        "limit must be an integer\n",
                    )
            traces: List[Dict[str, Any]] = self.tracer.snapshot(
                session=session, limit=limit
            )
            return (
                "200 OK",
                _CONTENT_TYPE_JSON,
                json.dumps(traces, separators=(",", ":")) + "\n",
            )
        return "404 Not Found", _CONTENT_TYPE_TEXT, "not found\n"
