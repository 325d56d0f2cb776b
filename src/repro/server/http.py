"""Shared HTTP/1.1 plumbing for repro's stdlib servers and callers.

:class:`ReproServer` (the single-node job API) and the fleet router
(:mod:`repro.fleet.router`) both speak the same tiny HTTP dialect:
persistent (keep-alive) connections, ``Content-Length`` framing, JSON
bodies.  :class:`HttpServerBase` is the one node surface they share:
head/body parsing with bounded bodies, response encoding, the
per-connection request loop with taxonomy error mapping, per-request
accounting (``repro_http_requests_total`` and
``repro_http_request_seconds``), the span buffer a collector drains
at ``GET /v1/obs/spans?since=N``, the local ``/metrics`` dump, and
the start/shutdown lifecycle with a signal-driven :meth:`run`.  Each
server implements :meth:`_route` for its own routes and its handlers.

A connection serves requests until the peer sends ``Connection:
close`` or hangs up, a framing error leaves the stream out of sync, a
streaming handler takes the socket over (:meth:`_take_over`), the
connection sits idle for :data:`KEEPALIVE_IDLE_S`, or the server shuts
down.  Each response's ``Connection`` header says which.

Handlers are coroutines ``handler(writer, body, headers, *args)``
returning the HTTP status they sent (0 suppresses accounting, e.g. a
stream the peer closed).  ``headers`` is a lower-cased name -> value
dict, which is how request metadata like the caller's ``traceparent``
reaches a handler.

The calling side is :class:`ConnectionPool` (idle keep-alive
``http.client`` connections per host), :func:`wire_exchange`,
:func:`decode_reply` and :func:`fetch_text`, which
:class:`~repro.client.ReproClient`, the router's
:class:`~repro.fleet.runner.RunnerHandle` and the ``repro obs``
console share.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import signal
import threading
import time
import urllib.error
import urllib.parse
import weakref
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.resilience import faults
from repro.server import protocol
from repro.server.protocol import ServerError

log = logging.getLogger("repro.server")

#: request bodies past this are refused (jobs are tiny)
MAX_BODY_BYTES = 64 * 1024

#: a server closes a keep-alive connection idle this long
KEEPALIVE_IDLE_S = 30.0

#: at shutdown, handlers still busy this long after the listener
#: closed (a proxied event stream) are cancelled
SHUTDOWN_GRACE_S = 5.0

#: idle connections a :class:`ConnectionPool` keeps per host
POOL_MAX_IDLE = 8

JSON_TYPE = "application/json"

REASONS = {200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
           400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
           409: "Conflict", 413: "Payload Too Large",
           429: "Too Many Requests", 500: "Internal Server Error",
           502: "Bad Gateway", 503: "Service Unavailable",
           504: "Gateway Timeout"}


class FramingError(ServerError):
    """A request whose framing cannot be trusted: the bytes after it
    are not known to start a request, so the connection closes."""


class HttpServerBase:
    """Keep-alive HTTP/1.1 server core (stdlib asyncio).

    ``obs_buffer`` > 0 keeps a :class:`~repro.obs.SpanBuffer` of that
    many finished spans, attached as a span sink while the node
    serves.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: prefix of this node's ``route`` label on the request metrics
    route_prefix: str = ""

    def __init__(self, obs_buffer: int = 0) -> None:
        #: open connections: None while idle between requests, else
        #: whether the current response may keep the connection open
        self._conns: Dict[asyncio.StreamWriter, Optional[bool]] = {}
        self._conn_tasks: Set[asyncio.Task] = set()
        self._closing = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.span_buffer: Optional[obs.SpanBuffer] = (
            obs.SpanBuffer(obs_buffer) if obs_buffer > 0 else None)
        self._m_requests = obs.REGISTRY.counter(
            "repro_http_requests_total", "HTTP requests served",
            labelnames=("route", "status"))
        self._m_latency = obs.REGISTRY.histogram(
            "repro_http_request_seconds", "HTTP request latency",
            labelnames=("route",))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Attach the span buffer, :meth:`_prepare`, bind, then
        :meth:`_listening` (non-blocking; use from async code)."""
        self._loop = asyncio.get_running_loop()
        if self.span_buffer is not None:
            obs.add_sink(self.span_buffer)
        await self._prepare()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._listening()

    async def _prepare(self) -> None:
        """Node set-up before the socket binds (spans already record)."""

    def _listening(self) -> None:
        """Called once bound: say where, start background loops."""

    async def shutdown(self) -> None:
        """Finish every connection, then detach the span buffer."""
        await self._finish_connections()
        if self.span_buffer is not None:
            obs.remove_sink(self.span_buffer)

    def run(self) -> None:
        """Serve until SIGINT/SIGTERM, then :meth:`shutdown` (blocking)."""
        async def main():
            await self.start()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
            await stop.wait()
            log.info("signal received: shutting down")
            await self.shutdown()

        asyncio.run(main())

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        loop = asyncio.get_running_loop()
        try:
            while not self._closing:
                self._conns[writer] = None
                idle = loop.call_later(KEEPALIVE_IDLE_S, writer.close)
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    break
                finally:
                    idle.cancel()
                if not line or self._closing:
                    break
                if not await self._serve_one(line, reader, writer):
                    break
        finally:
            self._conns.pop(writer, None)
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:                   # noqa: BLE001
                pass

    async def _serve_one(self, line: bytes, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Answer the request whose first line is ``line``; True when
        the connection stays open for the next one.

        The request clock starts at the first line, so the time a
        connection sat idle before it never counts as request time.
        """
        route = "unparsed"
        t0 = time.monotonic()
        self._conns[writer] = False
        try:
            method, target, keep, headers = await self._read_head(
                reader, line)
            self._conns[writer] = keep
            body = await self._read_body(reader, headers)
            path, _, raw_query = target.partition("?")
            query = dict(urllib.parse.parse_qsl(raw_query))
            route, handler, args = self._route(method, path, query)
            status = await handler(writer, body, headers, *args)
        except (ConnectionError, asyncio.IncompleteReadError):
            status = 0
            self._conns[writer] = False
        except Exception as exc:                # noqa: BLE001
            if isinstance(exc, FramingError):
                self._conns[writer] = False
            status, payload = protocol.error_to_payload(exc)
            try:
                await self._send_json(writer, status, payload)
            except ConnectionError:
                self._conns[writer] = False
        if status:
            self._observe_request(route, status, time.monotonic() - t0)
        return bool(self._conns.get(writer)) and not self._closing

    def _take_over(self, writer: asyncio.StreamWriter) -> None:
        """A streaming handler owns the socket until it closes it."""
        self._conns[writer] = False

    def _stop_serving(self) -> None:
        """Stop accepting and close every idle keep-alive connection;
        a request in progress is answered with ``Connection: close``."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        for writer, keep in list(self._conns.items()):
            if keep is None:
                writer.close()

    async def _finish_connections(self) -> None:
        """Wait for every connection handler to end, cancelling those
        still busy after :data:`SHUTDOWN_GRACE_S`, so no handler task
        outlives the server."""
        self._stop_serving()
        if self._conn_tasks:
            _, busy = await asyncio.wait(set(self._conn_tasks),
                                         timeout=SHUTDOWN_GRACE_S)
            for task in busy:
                task.cancel()
            await asyncio.gather(*busy, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    def _route(self, method: str, path: str, query: Dict[str, str]):
        """Return ``(route_name, handler, args)`` or raise ServerError.

        ``query`` is the parsed query string; routes that take
        parameters (e.g. ``/v1/obs/spans?since=N``) thread the values
        through as handler args.  A server routes its own paths and
        hands the rest here: the routes every node answers.
        """
        if method == "GET" and path == "/metrics":
            return "metrics", self._h_metrics, (query,)
        if method == "GET" and path == f"/{protocol.API_VERSION}/obs/spans":
            return "obs_spans", self._h_obs_spans, (
                query.get("since", "0"),)
        raise ServerError(f"no route for {method} {path}",
                          status=404, code="not_found")

    def _observe_request(self, route: str, status: int,
                         elapsed_s: float) -> None:
        route = self.route_prefix + route
        self._m_requests.inc(route=route, status=str(status))
        self._m_latency.observe(elapsed_s, route=route)

    # ------------------------------------------------------------------
    # Routes every node answers
    # ------------------------------------------------------------------

    @staticmethod
    def _cursor(since: str) -> int:
        """A ``?since=`` drain cursor; not an integer is a 400."""
        try:
            return int(since)
        except (TypeError, ValueError):
            raise ServerError(f"bad since cursor {since!r}",
                              status=400, code="bad_request") from None

    async def _metrics_text(self, query: Dict[str, str]) -> str:
        """This process's Prometheus exposition."""
        return obs.REGISTRY.to_prometheus()

    async def _h_metrics(self, writer, body, headers,
                         query: Dict[str, str]) -> int:
        text = await self._metrics_text(query)
        return await self._send(writer, 200, text.encode("utf-8"),
                                "text/plain; version=0.0.4")

    def _span_stats(self) -> Dict[str, Any]:
        """The span buffer's ``/v1/obs/summary`` block."""
        buffer = self.span_buffer
        return {"enabled": buffer is not None,
                "buffered": len(buffer) if buffer is not None else 0,
                "dropped": buffer.dropped if buffer is not None else 0}

    async def _h_obs_spans(self, writer, body, headers,
                           since: str) -> int:
        """Drain finished spans past the collector's cursor."""
        cursor = self._cursor(since)
        buffer = self.span_buffer
        spans, next_seq = (buffer.since(cursor) if buffer is not None
                           else ([], 0))
        return await self._send_json(writer, 200, {
            "enabled": buffer is not None, "spans": spans,
            "next": next_seq,
            "dropped": buffer.dropped if buffer is not None else 0,
            "now": obs.now()})

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------

    async def _read_head(self, reader: asyncio.StreamReader, line: bytes):
        """``(method, target, keep_alive, headers)`` of one request."""
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise FramingError("malformed request line", status=400,
                               code="bad_request")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                raise FramingError("request header line too long",
                                   status=400,
                                   code="bad_request") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        keep = "close" not in connection and (
            version != "HTTP/1.0" or "keep-alive" in connection)
        return method, target, keep, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: Dict[str, str]) -> bytes:
        if "transfer-encoding" in headers:
            # an unread chunked body would be parsed as the next request
            raise FramingError("Transfer-Encoding is not supported; "
                               "send a Content-Length", status=400,
                               code="bad_request")
        raw = headers.get("content-length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            raise FramingError(f"bad Content-Length {raw!r}", status=400,
                               code="bad_request")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise FramingError(f"body of {length} bytes refused",
                               status=413, code="too_large")
        return await reader.readexactly(length) if length else b""

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    body: bytes, content_type: str,
                    extra: Optional[Dict[str, str]] = None) -> int:
        keep = bool(self._conns.get(writer)) and not self._closing
        head = [f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: keep-alive" if keep else "Connection: close"]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()
        return status

    async def _send_json(self, writer, status: int, payload: Any,
                         extra: Optional[Dict[str, str]] = None) -> int:
        body = json.dumps(payload).encode("utf-8")
        headers = dict(extra or {})
        retry = protocol.retry_after_of(payload) if isinstance(
            payload, dict) else None
        if retry is not None:
            headers.setdefault("Retry-After", str(max(1, round(retry))))
        return await self._send(writer, status, body, JSON_TYPE, headers)


# ----------------------------------------------------------------------
# The calling side: pooled keep-alive connections
# ----------------------------------------------------------------------

#: what a reused connection the peer has since closed fails with
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``)
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


def _close_all(idle: Dict[str, List[http.client.HTTPConnection]]) -> None:
    for conns in idle.values():
        for conn in conns:
            conn.close()
    idle.clear()


class ConnectionPool:
    """Idle keep-alive ``http.client`` connections, keyed by host.

    Thread-safe: a caller takes a connection for one exchange and puts
    it back only after reading the whole response, so a pooled
    connection never holds a half-read response.  At most
    :data:`POOL_MAX_IDLE` idle connections stay open per host; a pool
    dropped without :meth:`close` still closes its sockets.
    """

    def __init__(self) -> None:
        self._idle: Dict[str, List[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def exchange(self, base_url: str, method: str, path: str,
                 body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout_s: float = 60.0
                 ) -> Tuple[int, bytes, Dict[str, str]]:
        """One request; ``(status, body, headers)`` of any answer.

        Raises ``urllib.error.URLError`` when the peer is unreachable
        or the exchange breaks.  A reused connection the peer closed
        in the meantime (its idle timeout, a restart) is retried once
        on a fresh connection.
        """
        parts = urllib.parse.urlsplit(base_url)
        host, target = parts.netloc, parts.path + path
        with self._lock:
            idle = self._idle.get(host)
            conn = idle.pop() if idle else None
        while True:
            reused = conn is not None
            if conn is None:
                conn = http.client.HTTPConnection(host, timeout=timeout_s)
            else:
                conn.timeout = timeout_s
                conn.sock.settimeout(timeout_s)
            try:
                conn.request(method, target, body=body,
                             headers=headers or {})
                response = conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and isinstance(exc, _STALE):
                    conn = None
                    continue
                raise urllib.error.URLError(exc) from exc
            if response.will_close:
                conn.close()
            else:
                with self._lock:
                    idle = self._idle.setdefault(host, [])
                    if len(idle) < POOL_MAX_IDLE:
                        idle.append(conn)
                        conn = None
                if conn is not None:
                    conn.close()
            return response.status, data, dict(response.headers)

    def close(self) -> None:
        """Close the idle connections (the pool stays usable)."""
        with self._lock:
            _close_all(self._idle)


def wire_exchange(pool: ConnectionPool, base_url: str, method: str,
                  path: str, payload: Optional[Dict[str, Any]] = None,
                  headers: Optional[Dict[str, str]] = None,
                  timeout_s: float = 60.0
                  ) -> Tuple[int, bytes, Dict[str, str]]:
    """One JSON-API exchange, body undecoded, through the
    ``net.request`` wire-fault site.

    A *drop* raises before the request is sent; a *truncation* raises
    after the exchange completed, so the peer may have acted (the
    ambiguity a torn TCP stream leaves, which content-hash idempotent
    resubmission absorbs); *http_500* answers a synthetic retryable
    refusal; *delay* stalls, then proceeds.
    """
    mode = faults.inject_wire("net.request")
    if mode == "drop":
        raise urllib.error.URLError(
            f"injected fault: request dropped before send "
            f"({method} {path})")
    if mode == "http_500":
        return 503, json.dumps({"error": {
            "code": "unavailable",
            "message": f"injected fault: synthetic upstream 5xx "
                       f"({method} {path})",
            "retry_after_s": 0.1}}).encode("utf-8"), {}
    if mode == "delay":
        time.sleep(0.05)
    send = {"Accept": JSON_TYPE}
    send.update(headers or {})
    body = None
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        send["Content-Type"] = JSON_TYPE
    result = pool.exchange(base_url, method, path, body, send, timeout_s)
    if mode == "truncated":
        raise urllib.error.URLError(
            f"injected fault: response truncated after exchange "
            f"({method} {path})")
    return result


def decode_reply(status: int, raw: bytes, headers: Dict[str, str]
                 ) -> Tuple[int, Any, Dict[str, str]]:
    """A JSON answer decoded; an error body that is not JSON becomes
    an ``internal`` error payload."""
    if status < 400:
        return status, json.loads(raw.decode("utf-8") or "{}"), headers
    text = raw.decode("utf-8", "replace")
    try:
        data = json.loads(text or "{}")
    except json.JSONDecodeError:
        data = {"error": {"code": "internal", "message": text}}
    return status, data, headers


def fetch_text(pool: ConnectionPool, base_url: str, path: str,
               timeout_s: float = 60.0) -> str:
    """GET a non-JSON resource (``/metrics``); an error status raises
    ``urllib.error.HTTPError``."""
    status, raw, headers = pool.exchange(base_url, "GET", path,
                                         timeout_s=timeout_s)
    if status >= 400:
        raise urllib.error.HTTPError(base_url + path, status,
                                     REASONS.get(status, "Error"),
                                     headers, None)
    return raw.decode("utf-8")
