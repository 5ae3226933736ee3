"""Asyncio HTTP front-end serving :class:`~repro.portal.app.PortalApp`.

The paper's portal is a Django site behind a real web server; ours was
a router with no transport.  This module closes that gap with stdlib
building blocks only:

* **transport** — ``asyncio.start_server`` speaking enough HTTP/1.1
  for browsers and test clients (GET/HEAD, keep-alive,
  Content-Length framing).  An HTTP/1.0 connection stays open only
  on ``Connection: keep-alive``; a request that carries a body
  (``Content-Length`` > 0 or any ``Transfer-Encoding``) is answered
  and then the connection is closed, so body bytes are never read as
  the next request.
* **dispatch** — a page-cache hit is answered on the event loop from
  the bytes it was filed as: one lookup, one socket write.  Rendering
  is synchronous (sqlite + numpy), so a miss is admitted and runs on
  a bounded ``ThreadPoolExecutor`` via ``run_in_executor``; the event
  loop itself never blocks.
* **admission control** — at most ``queue_cap`` misses may be
  outstanding (rendering or queued for a worker).  Beyond that the
  server *sheds*: an immediate ``503`` with ``Retry-After``, counted
  separately from errors, instead of an unbounded queue whose tail
  latency grows without limit.  A per-request ``deadline`` bounds how
  long a client waits — on expiry the client gets a ``504`` (the
  worker finishes in the background and its result still lands in the
  page cache).
* **tiered caching** — under the app, the TSDB's window-scoped
  :class:`~repro.tsdb.cache.QueryCache` memoises query results; above
  it, :class:`PageCache` memoises whole rendered pages keyed on
  ``(path, params, store epoch)``.  A page hit skips rendering
  entirely; any TSDB write bumps the epoch and naturally invalidates
  every page that could have shown stale data.  Pages that reflect
  non-TSDB mutable state (``/obs``) are never cached; the job table is
  treated as read-only while serving (re-ingest → restart or epoch
  bump).
* **observability** — per-endpoint latency histograms
  (``repro_portal_request_seconds``), a gauge of the requests on the
  render pool, and counters for responses by status class, shed
  requests and deadline expiries, all on the shared :mod:`repro.obs`
  registry (visible on the portal's own ``/obs`` page).

``/healthz`` and page-cache hits answer on the event loop itself —
no worker, no admission — so liveness probes and cached pages are
served even while the pool is saturated.  The store epoch a lookup
keys on is a plain attribute of every store, so reading it on the
loop never blocks.
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
from repro.portal.app import PortalApp
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


#: a page as it is sent: ``(status, content type, encoded body)``
Page = Tuple[int, str, bytes]


class PageCache(QueryCache):
    """Rendered :data:`Page` s keyed on ``(path+query, epoch)``: the
    query cache's LRU and epoch rule under the portal's own counters."""

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

_INFLIGHT = handles.gauge(
    "repro_portal_inflight", "portal requests handed to the render pool")
_SHED = handles.counter(
    "repro_portal_shed_total", "requests shed by admission control (503)")
_DEADLINE = handles.counter(
    "repro_portal_deadline_total",
    "requests that exceeded the render deadline (504)")
_ERRORS = handles.counter(
    "repro_portal_errors_total", "unhandled exceptions while rendering (500)")
_SHUTDOWN_ERRORS = handles.counter(
    "repro_portal_shutdown_errors_total",
    "errors while draining handlers at shutdown")
_REQUEST_SECONDS = handles.histogram(
    "repro_portal_request_seconds", "portal request latency by route")
_RESPONSES = handles.counter(
    "repro_portal_responses_total",
    "portal responses by status class and route")
#: the labelled samples, bound once: by route, and by (status // 100,
#: route)
_ROUTES = ROUTE_LABELS | {"other"}
_SECONDS_OF = {r: _REQUEST_SECONDS.labels(route=r) for r in _ROUTES}
_RESPONSES_OF = {(c, r): _RESPONSES.labels(code=f"{c}xx", route=r)
                 for c in range(1, 6) for r in _ROUTES}


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
        maximum outstanding (admitted, unanswered) misses before the
        server sheds with 503 + ``Retry-After``; hits are never
        admitted.
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

    def _store_epoch(self) -> int:
        stream = getattr(self.app, "stream", None)
        if stream is None:
            return 0
        return int(getattr(stream.tsdb, "epoch", 0))

    @staticmethod
    def _route_label(path: str) -> str:
        seg = path.lstrip("/").split("/", 1)[0]
        return seg if seg in ROUTE_LABELS else "other"

    # -- rendering (worker threads) ---------------------------------------
    def _render(self, target: str, route: str, epoch: Optional[int]) -> Page:
        """Render one page missed by the page cache, on a pool thread,
        and file a 200 under ``epoch`` (None: not cacheable).

        ``epoch`` was captured *before* the cache lookup; a write that
        lands mid-render bumps the epoch, so the possibly-stale page
        is filed under the old epoch and never served after the write.
        """
        with obs.span("portal.render", route=route):
            resp = self.app.get_url(target)
        page = (resp.status, resp.content_type,
                resp.body.encode("utf-8", "replace"))
        if epoch is not None and resp.status == 200:
            self.page_cache.put(target, epoch, page)
        return page

    # -- HTTP plumbing (event loop) ---------------------------------------
    @staticmethod
    def _encode(
        page: Page, *, head_only: bool, keep_alive: bool,
        extra: Tuple[Tuple[str, str], ...] = (),
    ) -> bytes:
        status, content_type, body = page
        head = (
            f"HTTP/1.1 {status} {_STATUS_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            + "".join(f"{k}: {v}\r\n" for k, v in extra) + "\r\n"
        ).encode("ascii")
        return head if head_only else head + body

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, bool]]:
        """One request head → (method, target, route, keep-alive), None
        on EOF."""
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
        method, target, version = parts
        headers: Dict[str, str] = {}
        for line in rest.split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            name, value = name.strip().lower(), value.strip()
            # a repeated field joins its values, so a second
            # Content-Length cannot hide the first
            if name in headers:
                value = f"{headers[name]},{value}"
            headers[name] = value
        tokens = {t.strip().lower()
                  for t in headers.get("connection", "").split(",")}
        if version == "HTTP/1.0":
            keep_alive = "keep-alive" in tokens
        else:
            keep_alive = "close" not in tokens
        # a body is never read, so the connection closes after the
        # answer: its bytes must not be parsed as the next request
        if "transfer-encoding" in headers or headers.get(
                "content-length", "").strip(" 0,"):
            keep_alive = False
        return method.upper(), target, self._route_label(
            urlsplit(target).path), keep_alive

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    req = await self._read_request(reader)
                except ValueError as exc:
                    writer.write(self._encode(
                        (400, "text/plain", str(exc).encode()),
                        head_only=False, keep_alive=False,
                    ))
                    await writer.drain()
                    return
                if req is None:
                    return
                method, target, route, keep_alive = req
                writer.write(await self._respond(
                    method, target, route, keep_alive))
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
            except (OSError, asyncio.CancelledError):
                pass  # shutdown may also cancel a handler still closing

    async def _respond(
        self, method: str, target: str, route: str, keep_alive: bool
    ) -> bytes:
        head_only = method == "HEAD"
        if method not in ("GET", "HEAD"):
            _RESPONSES_OF[4, route].inc()
            return self._encode(
                (405, "text/plain", b"GET or HEAD only"),
                head_only=head_only, keep_alive=keep_alive,
                extra=(("Allow", "GET, HEAD"),),
            )
        if route == "healthz":
            # liveness answers on the loop: no admission, no worker
            _RESPONSES_OF[2, route].inc()
            return self._encode(
                (200, "text/plain", b"ok\n"),
                head_only=head_only, keep_alive=keep_alive,
            )
        start = time.perf_counter()
        epoch = None
        if route in CACHEABLE:
            # a hit answers here, from the bytes it was filed as
            epoch = self._store_epoch()
            page = self.page_cache.get(target, epoch)
            if page is not None:
                _SECONDS_OF[route].observe(time.perf_counter() - start)
                _RESPONSES_OF[2, route].inc()
                return self._encode(
                    page, head_only=head_only, keep_alive=keep_alive)
        if self._outstanding >= self.queue_cap:
            _SHED.inc()
            _RESPONSES_OF[5, route].inc()
            return self._encode(
                (503, "text/plain", b"portal overloaded, retry\n"),
                head_only=head_only, keep_alive=keep_alive,
                extra=(("Retry-After", "1"),),
            )
        self._outstanding += 1
        _INFLIGHT.set(self._outstanding)
        loop = asyncio.get_running_loop()
        try:
            page = await asyncio.wait_for(
                loop.run_in_executor(
                    self._pool, self._render, target, route, epoch),
                timeout=self.deadline,
            )
        except asyncio.TimeoutError:
            _DEADLINE.inc()
            page = (504, "text/plain", b"render deadline exceeded\n")
        except Exception as exc:  # render bug → 500, never a dead conn
            _ERRORS.inc()
            page = (500, "text/plain", (
                f"internal error: {type(exc).__name__}: {exc}\n"
            ).encode("utf-8", "replace"))
        finally:
            self._outstanding -= 1
            _INFLIGHT.set(self._outstanding)
            _SECONDS_OF[route].observe(time.perf_counter() - start)
        _RESPONSES_OF[page[0] // 100, route].inc()
        return self._encode(page, head_only=head_only, keep_alive=keep_alive)

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

        Returns ``(host, port)`` once the socket is bound — clients
        can connect immediately after.
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
                _SHUTDOWN_ERRORS.inc()
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout=10)
            if not loop.is_running():
                loop.close()
            self._loop = None
            self._thread = None
        self._pool.shutdown(wait=False, cancel_futures=True)
