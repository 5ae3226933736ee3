"""Asyncio HTTP front-end serving :class:`~repro.portal.app.PortalApp`.

The paper's portal is a Django site behind a real web server; ours was
a router with no transport.  This module closes that gap with stdlib
building blocks only:

* **transport** — ``asyncio.start_server`` speaking enough HTTP/1.1
  for browsers and the load generator (GET/HEAD, keep-alive,
  Content-Length framing).
* **dispatch** — page rendering is synchronous (sqlite + numpy), so
  each admitted request runs on a bounded ``ThreadPoolExecutor``
  via ``run_in_executor``; the event loop itself never blocks.
* **admission control** — at most ``queue_cap`` requests may be
  outstanding (rendering or queued for a worker).  Beyond that the
  server *sheds*: an immediate ``503`` with ``Retry-After``, counted
  separately from errors, instead of an unbounded queue whose tail
  latency grows without limit.  A per-request ``deadline`` bounds how
  long a client waits — on expiry the client gets a ``504`` (the
  worker finishes in the background and its result still lands in the
  page cache).
* **tiered caching** — under the app, the TSDB's epoch-invalidated
  :class:`~repro.tsdb.cache.QueryCache` memoises query results; above
  it, :class:`PageCache` memoises whole rendered pages keyed on
  ``(path, params, store epoch)``.  A page hit skips rendering
  entirely; any TSDB write bumps the epoch and naturally invalidates
  every page that could have shown stale data.  Pages that reflect
  non-TSDB mutable state (``/obs``) are never cached; the job table is
  treated as read-only while serving (re-ingest → restart or epoch
  bump).
* **observability** — per-endpoint latency histograms
  (``repro_portal_request_seconds``), an in-flight gauge, and
  counters for responses by status class, shed requests and deadline
  expiries, all on the shared :mod:`repro.obs` registry (visible on
  the portal's own ``/obs`` page).

``/healthz`` answers on the event loop itself — no worker, no
admission — so liveness probes succeed even while the pool is
saturated.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro import obs
from repro.obs import handles
from repro.portal.app import PortalApp, Response
from repro.tsdb.cache import QueryCache

__all__ = ["PageCache", "PortalServer", "ROUTE_LABELS"]

#: first path segments with their own metric label; anything else is
#: "other" so user-supplied paths cannot explode metric cardinality
ROUTE_LABELS = frozenset(
    {"", "search", "job", "date", "fleet", "tsdb", "obs", "healthz"}
)

#: paths (first segment) whose rendered pages may be cached — pure
#: functions of (job DB, TSDB epoch).  /obs reflects live process
#: metrics and must never be cached.
CACHEABLE = frozenset({"", "search", "job", "date", "fleet", "tsdb"})


class PageCache(QueryCache):
    """Rendered pages keyed on ``(path+query, epoch)``: the query
    cache's LRU and epoch rule under the portal's own counters."""

    _hits = handles.counter(
        "repro_portal_page_cache_hits_total",
        "portal pages served from the rendered-page cache",
    )
    _misses = handles.counter(
        "repro_portal_page_cache_misses_total",
        "portal pages that had to be rendered",
    )


_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class PortalServer:
    """Serve a :class:`PortalApp` over HTTP with load shedding.

    Parameters
    ----------
    app:
        the portal application to dispatch into.
    host, port:
        bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    workers:
        render threads.  Also the natural concurrency of the pool;
        ``queue_cap`` admitted requests beyond this merely wait.
    queue_cap:
        maximum outstanding (admitted, unanswered) requests before
        the server sheds with 503 + ``Retry-After``.
    deadline:
        seconds an admitted request may take before the client gets a
        504.  The render keeps running on its worker and still
        populates the page cache.
    """

    def __init__(
        self,
        app: PortalApp,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 8,
        queue_cap: int = 64,
        deadline: float = 30.0,
        page_cache_size: int = 256,
    ) -> None:
        self.app = app
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        self.queue_cap = int(queue_cap)
        self.deadline = float(deadline)
        self.page_cache = PageCache(maxsize=page_cache_size)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="portal-render"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._outstanding = 0  # touched only on the event loop
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- rendering (worker threads) ---------------------------------------
    def _store_epoch(self) -> int:
        stream = getattr(self.app, "stream", None)
        if stream is None:
            return 0
        return int(getattr(stream.tsdb, "epoch", 0))

    @staticmethod
    def _route_label(path: str) -> str:
        seg = path.lstrip("/").split("/", 1)[0]
        return seg if seg in ROUTE_LABELS else "other"

    def _render(self, target: str) -> Response:
        """Render one request on a pool thread, through the page cache.

        The epoch is captured *before* the cache lookup; a write that
        lands mid-render bumps the epoch, so the possibly-stale page
        is filed under the old epoch and never served after the write.
        """
        route = self._route_label(urlsplit(target).path)
        cacheable = route in CACHEABLE
        if cacheable:
            epoch = self._store_epoch()
            page = self.page_cache.get(target, epoch)
            if page is not None:
                return page
        with obs.span("portal.render", route=route):
            page = self.app.get_url(target)
        if cacheable and page.status == 200:
            self.page_cache.put(target, epoch, page)
        return page

    # -- HTTP plumbing (event loop) ---------------------------------------
    @staticmethod
    def _encode(
        resp: Response, *, head_only: bool, keep_alive: bool,
        extra: Tuple[Tuple[str, str], ...] = (),
    ) -> bytes:
        body = resp.body.encode("utf-8", "replace")
        reason = _STATUS_REASONS.get(resp.status, "Unknown")
        lines = [
            f"HTTP/1.1 {resp.status} {reason}",
            f"Content-Type: {resp.content_type}; charset=utf-8",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{k}: {v}" for k, v in extra)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head if head_only else head + body

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        """One request head → (method, target, headers), None on EOF."""
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        except asyncio.LimitOverrunError:
            raise ValueError("request head too large")
        text = raw.decode("latin-1")
        request_line, _, rest = text.partition("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in rest.split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    req = await self._read_request(reader)
                except ValueError as exc:
                    writer.write(self._encode(
                        Response(status=400, body=str(exc),
                                 content_type="text/plain"),
                        head_only=False, keep_alive=False,
                    ))
                    await writer.drain()
                    return
                if req is None:
                    return
                method, target, headers = req
                keep_alive = headers.get("connection", "").lower() != "close"
                payload = await self._respond(method, target, keep_alive)
                writer.write(payload)
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # server shutdown cancels idle keep-alive handlers; close
            # the connection quietly rather than logging a traceback
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _respond(
        self, method: str, target: str, keep_alive: bool
    ) -> bytes:
        head_only = method == "HEAD"
        route = self._route_label(urlsplit(target).path)
        if method not in ("GET", "HEAD"):
            self._count_status(405, route)
            return self._encode(
                Response(status=405, body="GET or HEAD only",
                         content_type="text/plain"),
                head_only=head_only, keep_alive=keep_alive,
                extra=(("Allow", "GET, HEAD"),),
            )
        if route == "healthz":
            # liveness answers on the loop: no admission, no worker
            self._count_status(200, route)
            return self._encode(
                Response(body="ok\n", content_type="text/plain"),
                head_only=head_only, keep_alive=keep_alive,
            )
        if self._outstanding >= self.queue_cap:
            obs.counter(
                "repro_portal_shed_total",
                "requests shed by admission control (503)",
            ).inc()
            self._count_status(503, route)
            return self._encode(
                Response(status=503, body="portal overloaded, retry\n",
                         content_type="text/plain"),
                head_only=head_only, keep_alive=keep_alive,
                extra=(("Retry-After", "1"),),
            )
        self._outstanding += 1
        inflight = obs.gauge(
            "repro_portal_inflight", "portal requests being served"
        )
        inflight.inc()
        start = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            resp = await asyncio.wait_for(
                loop.run_in_executor(self._pool, self._render, target),
                timeout=self.deadline,
            )
        except asyncio.TimeoutError:
            obs.counter(
                "repro_portal_deadline_total",
                "requests that exceeded the render deadline (504)",
            ).inc()
            resp = Response(status=504, body="render deadline exceeded\n",
                            content_type="text/plain")
        except Exception as exc:  # render bug → 500, never a dead conn
            obs.counter(
                "repro_portal_errors_total",
                "unhandled exceptions while rendering (500)",
            ).inc()
            resp = Response(
                status=500, content_type="text/plain",
                body=f"internal error: {type(exc).__name__}: {exc}\n",
            )
        finally:
            self._outstanding -= 1
            inflight.dec()
            obs.histogram(
                "repro_portal_request_seconds",
                "portal request latency by route",
            ).observe(time.perf_counter() - start, route=route)
        self._count_status(resp.status, route)
        return self._encode(resp, head_only=head_only, keep_alive=keep_alive)

    @staticmethod
    def _count_status(status: int, route: str) -> None:
        obs.counter(
            "repro_portal_responses_total",
            "portal responses by status class and route",
        ).inc(code=f"{status // 100}xx", route=route)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (on the current event loop)."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port,
            limit=64 * 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def start_background(self) -> Tuple[str, int]:
        """Run the server on a dedicated event-loop thread.

        Returns ``(host, port)`` once the socket is bound — tests and
        the load generator connect immediately after.
        """
        loop = asyncio.new_event_loop()
        self._loop = loop
        bound = threading.Event()
        failure: list = []

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except Exception as exc:  # bind failure → surface to caller
                failure.append(exc)
                bound.set()
                return
            bound.set()
            loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="portal-server", daemon=True
        )
        self._thread.start()
        bound.wait()
        if failure:
            raise failure[0]
        return self.host, self.port

    def close(self) -> None:
        """Stop accepting, tear down the loop thread and the pool."""
        if self._loop is not None and self._thread is not None:
            loop = self._loop

            async def shutdown() -> None:
                if self._server is not None:
                    self._server.close()
                    await self._server.wait_closed()
                # drain keep-alive connection handlers cleanly
                me = asyncio.current_task()
                tasks = [
                    t for t in asyncio.all_tasks(loop) if t is not me
                ]
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

            fut = asyncio.run_coroutine_threadsafe(shutdown(), loop)
            try:
                fut.result(timeout=10)
            except Exception:
                obs.counter(
                    "repro_portal_shutdown_errors_total",
                    "errors while draining handlers at shutdown",
                ).inc()
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout=10)
            if not loop.is_running():
                loop.close()
            self._loop = None
            self._thread = None
        self._pool.shutdown(wait=False, cancel_futures=True)
