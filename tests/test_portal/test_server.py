"""PortalServer: HTTP transport, admission control, tiered cache."""

import asyncio
import http.client
import re
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.popgen import generate_population
from repro.db import Database
from repro.pipeline.records import JobRecord
from repro.portal.app import PortalApp
from repro.portal.server import CACHEABLE, PageCache, PortalServer
from repro.tsdb import TimeSeriesDB


def _make_app(n_jobs: int = 200):
    db = Database()
    generate_population(db, n_jobs, seed=33)
    JobRecord.bind(db)
    return PortalApp(db)


@pytest.fixture(scope="module")
def served():
    """One server over a small synthetic population."""
    app = _make_app()
    server = PortalServer(app, workers=4, queue_cap=16, deadline=30.0)
    host, port = server.start_background()
    yield app, server, host, port
    server.close()


def _get(host, port, path, method="GET"):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def test_front_page_over_http(served):
    _app, _srv, host, port = served
    status, headers, body = _get(host, port, "/")
    assert status == 200
    assert "text/html" in headers["Content-Type"]
    assert int(headers["Content-Length"]) == len(body)
    assert b"Recent jobs" in body


def test_unknown_route_is_404(served):
    _app, _srv, host, port = served
    status, _h, _b = _get(host, port, "/nope")
    assert status == 404


def test_bad_param_is_400_not_500(served):
    _app, _srv, host, port = served
    status, _h, body = _get(host, port, "/search?min_runtime=banana")
    assert status == 400
    assert b"min_runtime" in body


def test_healthz_and_head(served):
    _app, _srv, host, port = served
    status, _h, body = _get(host, port, "/healthz")
    assert (status, body) == (200, b"ok\n")
    status, headers, body = _get(host, port, "/", method="HEAD")
    assert status == 200
    assert body == b""
    assert int(headers["Content-Length"]) > 0


def test_post_is_405(served):
    _app, _srv, host, port = served
    status, headers, _b = _get(host, port, "/", method="POST")
    assert status == 405
    assert headers["Allow"] == "GET, HEAD"


def test_keep_alive_reuses_connection(served):
    _app, _srv, host, port = served
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for _ in range(3):
            conn.request("GET", "/")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
    finally:
        conn.close()


def test_admission_control_sheds_503():
    app = _make_app(50)
    server = PortalServer(app, workers=2, queue_cap=0)
    host, port = server.start_background()
    try:
        status, headers, _b = _get(host, port, "/")
        assert status == 503
        assert headers["Retry-After"] == "1"
        # liveness keeps answering while everything else sheds
        status, _h, _b = _get(host, port, "/healthz")
        assert status == 200
    finally:
        server.close()


def test_deadline_expiry_is_504():
    app = _make_app(50)
    orig = app.get_url

    def slow(url):
        time.sleep(0.5)
        return orig(url)

    app.get_url = slow
    server = PortalServer(app, workers=2, queue_cap=8, deadline=0.05)
    host, port = server.start_background()
    try:
        status, _h, body = _get(host, port, "/")
        assert status == 504
        assert b"deadline" in body
    finally:
        server.close()


def test_render_exception_is_500_not_dead_connection():
    app = _make_app(50)

    def boom(url):
        raise RuntimeError("kaput")

    app.get_url = boom
    server = PortalServer(app, workers=2, queue_cap=8)
    host, port = server.start_background()
    try:
        status, _h, body = _get(host, port, "/")
        assert status == 500
        assert b"RuntimeError" in body
    finally:
        server.close()


def test_page_cache_serves_identical_bytes(served):
    _app, server, host, port = served
    hits0 = server.page_cache.hits
    _s, _h, first = _get(host, port, "/search?status=COMPLETED")
    _s, _h, second = _get(host, port, "/search?status=COMPLETED")
    assert first == second
    assert server.page_cache.hits > hits0


def test_metrics_exported(served):
    _app, _srv, host, port = served
    _get(host, port, "/")
    text = obs.render_text()
    assert "repro_portal_request_seconds" in text
    assert "repro_portal_responses_total" in text
    assert "repro_portal_inflight" in text


def test_obs_page_not_cached(served):
    _app, server, host, port = served
    misses0 = server.page_cache.misses
    hits0 = server.page_cache.hits
    _get(host, port, "/obs")
    _get(host, port, "/obs")
    # neither request touched the page cache
    assert server.page_cache.misses == misses0
    assert server.page_cache.hits == hits0


# -- PageCache unit behaviour ---------------------------------------------

def test_page_cache_epoch_invalidation():
    cache = PageCache(maxsize=8)
    page = (200, "text/html", b"old")
    cache.put("/x", 1, page)
    assert cache.get("/x", 1) is page
    assert cache.get("/x", 2) is None  # write bumped the epoch
    assert len(cache) == 0  # stale entry evicted on contact
    cache.put("/x", 2, (200, "text/html", b"new"))
    assert cache.get("/x", 2)[2] == b"new"


def test_page_cache_lru_eviction():
    cache = PageCache(maxsize=2)
    for i in range(4):
        cache.put(f"/p{i}", 0, (200, "text/html", str(i).encode()))
    assert len(cache) == 2
    assert cache.get("/p0", 0) is None
    assert cache.get("/p3", 0)[2] == b"3"


def test_page_cache_rejects_bad_size():
    with pytest.raises(ValueError):
        PageCache(maxsize=0)


def test_server_page_cache_invalidated_by_tsdb_write():
    """A TSDB write must invalidate every cached /tsdb page."""
    db = Database()
    generate_population(db, 30, seed=33)
    JobRecord.bind(db)
    tsdb = TimeSeriesDB()
    tsdb.put_many("stats", {"host": "n1"}, (np.arange(10) * 60).tolist(),
                  np.arange(10.0).tolist())
    stream = SimpleNamespace(tsdb=tsdb, metric="stats")
    app = PortalApp(db, stream=stream)
    server = PortalServer(app, workers=2, queue_cap=8)
    host, port = server.start_background()
    try:
        _s, _h, before = _get(host, port, "/tsdb")
        misses0 = server.page_cache.misses
        _s, _h, again = _get(host, port, "/tsdb")
        assert again == before  # epoch unchanged: cache hit
        assert server.page_cache.misses == misses0
        tsdb.put("stats", {"host": "n1"}, 700, 99.0)
        _s, _h, after = _get(host, port, "/tsdb")
        assert server.page_cache.misses > misses0  # re-rendered
        assert after != before
    finally:
        server.close()


# -- the page-cache hit path ------------------------------------------------

def _counting_submits(server):
    """Count the jobs handed to the server's render pool."""
    calls = []
    submit = server._pool.submit

    def counted(*args, **kwargs):
        calls.append(args)
        return submit(*args, **kwargs)

    server._pool.submit = counted
    return calls


def test_a_hit_submits_nothing_to_the_pool(served):
    _app, server, host, port = served
    calls = _counting_submits(server)
    try:
        _get(host, port, "/search?status=FAILED")
        assert len(calls) == 1  # the miss renders on the pool
        for _ in range(3):
            status, _h, _b = _get(host, port, "/search?status=FAILED")
            assert status == 200
        _get(host, port, "/search?status=FAILED", method="HEAD")
        assert len(calls) == 1
    finally:
        del server._pool.submit


def test_a_hit_is_answered_while_the_pool_is_saturated():
    app = _make_app(50)
    server = PortalServer(app, workers=1, queue_cap=1)
    host, port = server.start_background()
    gate = threading.Event()
    render = app.get_url

    def blocked(url):
        gate.wait(10)
        return render(url)

    stuck = threading.Thread(
        target=_get, args=(host, port, "/search?status=FAILED"))
    try:
        assert _get(host, port, "/")[0] == 200  # filed in the page cache
        app.get_url = blocked
        stuck.start()
        deadline = time.monotonic() + 10
        while server._outstanding < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._outstanding == server.queue_cap
        assert _get(host, port, "/")[0] == 200  # hit: no admission
        assert _get(host, port, "/?uncached=1")[0] == 503  # miss: shed
    finally:
        gate.set()
        if stuck.ident is not None:
            stuck.join(timeout=10)
        server.close()
    assert not stuck.is_alive()


def test_every_cacheable_request_is_one_hit_or_one_miss():
    db = Database()
    generate_population(db, 30, seed=33)
    JobRecord.bind(db)
    tsdb = TimeSeriesDB()
    tsdb.put_many("stats", {"host": "n1"}, (np.arange(10) * 60).tolist(),
                  np.arange(10.0).tolist())
    app = PortalApp(db, stream=SimpleNamespace(tsdb=tsdb, metric="stats"))
    server = PortalServer(app, workers=2, queue_cap=8)
    host, port = server.start_background()
    urls = ["/", "/search?user=nobody", "/tsdb", "/job/0", "/nope", "/obs",
            "/healthz", "/search?min_runtime=banana"]
    cacheable = 0
    try:
        for round_ in range(3):
            for url in urls:
                for method in ("GET", "HEAD", "POST"):
                    _get(host, port, url, method=method)
                    route = url.lstrip("/").split("/")[0].split("?")[0]
                    cacheable += method != "POST" and route in CACHEABLE
            tsdb.put("stats", {"host": "n1"}, 700 + round_, 1.0)
    finally:
        server.close()
    cache = server.page_cache
    assert cache.hits > 0 and cache.misses > 0
    assert cache.hits + cache.misses == cacheable


def _raw(host, port, data, *, half_close=False, timeout=2.0):
    """Send raw bytes and read until the server closes the connection
    (a ``socket.timeout`` means it held the connection open)."""
    chunks = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except (ConnectionResetError, BrokenPipeError):
            pass  # closed with bytes of ours unread
    return b"".join(chunks)


def _parse_head(data):
    """Raw response bytes → ``(status, headers, bytes after the head)``."""
    head, sep, rest = data.partition(b"\r\n\r\n")
    assert sep, f"truncated response head {head[:80]!r}"
    status_line, *lines = head.decode("ascii").split("\r\n")
    version, status, _reason = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    return int(status), dict(line.split(": ", 1) for line in lines), rest


def _split_responses(data):
    """Raw response bytes of GETs → ``[(status, headers, body)]``."""
    out = []
    while data:
        status, headers, data = _parse_head(data)
        size = int(headers["Content-Length"])
        body, data = data[:size], data[size:]
        assert len(body) == size, "truncated response body"
        out.append((status, headers, body))
    return out


def test_a_hit_sends_the_bytes_the_miss_sent(served):
    _app, server, host, port = served
    request = (b"%s /search?user=hit-bytes HTTP/1.1\r\nHost: t\r\n"
               b"Connection: close\r\n\r\n")
    misses0 = server.page_cache.misses
    miss = _raw(host, port, request % b"GET")
    assert server.page_cache.misses == misses0 + 1
    hits0 = server.page_cache.hits
    assert _raw(host, port, request % b"GET") == miss
    head_hit = _raw(host, port, request % b"HEAD")
    assert server.page_cache.hits == hits0 + 2
    assert head_hit == miss[:miss.index(b"\r\n\r\n") + 4]
    ((status, headers, body),) = _split_responses(miss)
    assert status == 200 and int(headers["Content-Length"]) == len(body)


def test_a_hit_is_counted_in_latency_and_responses(served):
    _app, server, host, port = served
    _get(host, port, "/search?user=counted")  # the miss
    seconds = obs.histogram("repro_portal_request_seconds")
    responses = obs.counter("repro_portal_responses_total")
    n0 = seconds.count(route="search")
    ok0 = responses.value(code="2xx", route="search")
    hits0 = server.page_cache.hits
    for _ in range(3):
        _get(host, port, "/search?user=counted")
    assert server.page_cache.hits == hits0 + 3
    assert seconds.count(route="search") == n0 + 3
    assert responses.value(code="2xx", route="search") == ok0 + 3


# -- request framing ----------------------------------------------------------

@pytest.mark.parametrize("version, connection, keep_alive", [
    ("HTTP/1.0", None, False),
    ("HTTP/1.0", "Keep-Alive", True),
    ("HTTP/1.0", "foo, keep-alive", True),
    ("HTTP/1.1", None, True),
    ("HTTP/1.1", "Keep-Alive, Close", False),
    ("HTTP/1.1", "upgrade", True),
])
def test_connection_persistence_follows_version_and_tokens(
    served, version, connection, keep_alive
):
    _app, _srv, host, port = served
    request = f"GET /healthz {version}\r\n"
    if connection is not None:
        request += f"Connection: {connection}\r\n"
    request = (request + "\r\n").encode()
    # two pipelined requests; no half-close, so a connection held
    # open past a "close" answer times the read out
    data = _raw(host, port, request * 2, half_close=keep_alive)
    responses = _split_responses(data)
    assert len(responses) == (2 if keep_alive else 1)
    for status, headers, body in responses:
        assert (status, body) == (200, b"ok\n")
        assert headers["Connection"] == (
            "keep-alive" if keep_alive else "close")


@pytest.mark.parametrize("method, framing, body", [
    ("POST", "Content-Length: 5", b"hello"),
    ("GET", "Content-Length: 5", b"hello"),
    ("POST", "Content-Length: 5\r\nContent-Length: 0", b"hello"),
    ("POST", "Transfer-Encoding: chunked", b"5\r\nhello\r\n0\r\n\r\n"),
])
def test_a_request_body_is_never_read_as_a_request(
    served, method, framing, body
):
    _app, _srv, host, port = served
    request = (f"{method} /healthz HTTP/1.1\r\nHost: t\r\n{framing}\r\n\r\n"
               .encode() + body + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    ((status, headers, _body),) = _split_responses(_raw(host, port, request))
    assert status == (405 if method == "POST" else 200)
    assert headers["Connection"] == "close"


_HEAD_LINE = st.one_of(
    st.sampled_from([
        b"GET / HTTP/1.1", b"HEAD /search?user=u HTTP/1.1",
        b"GET /healthz HTTP/1.0", b"POST /job/1 HTTP/1.1", b"GET //[ HTTP/1.1",
        b"GET /date/2015-13-45 HTTP/1.1", b"GET /tsdb?range=x HTTP/1.1",
        b"get /obs HTTP/1.1", b"GET * HTTP/1.1", b"GET /",
    ]),
    st.binary(max_size=60),
)
_HEADER = st.tuples(
    st.sampled_from([b"Host", b"Connection", b"Content-Length",
                     b"Transfer-Encoding", b"X-Pad"]) | st.binary(max_size=12),
    st.sampled_from([b"", b"0", b"close", b"keep-alive", b"chunked"])
    | st.binary(max_size=30),
)


@settings(max_examples=40, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(line=_HEAD_LINE, headers=st.lists(_HEADER, max_size=4),
       pad=st.sampled_from([0, 0, 1_000, 64 * 1024 - 512, 70_000]),
       smuggle=st.booleans())
def test_any_request_head_gets_one_answer_or_a_close(
    served, line, headers, pad, smuggle
):
    """Whatever the head, the server answers it once with a well-formed
    2xx-4xx or 503, or closes; it never 500s, hangs or reads a declared
    body as the next request."""
    _app, _srv, host, port = served
    fields = [name + b": " + value for name, value in headers]
    if pad:
        fields.append(b"X-Pad: " + b"p" * pad)
    smuggled = b"GET /healthz HTTP/1.1\r\n\r\n"
    if smuggle:
        fields.append(b"Content-Length: %d" % len(smuggled))
    head = b"\r\n".join([line, *fields]) + b"\r\n\r\n"
    assume(head.find(b"\r\n\r\n") == len(head) - 4)
    data = _raw(host, port, head + (smuggled if smuggle else b""),
                half_close=True)
    if not data:
        return  # closed without an answer
    # one answer: a HEAD's has no body, any other's Content-Length bytes
    status, headers_out, rest = _parse_head(data)
    assert 200 <= status < 500 or status == 503, data[:200]
    assert len(rest) in (0, int(headers_out["Content-Length"])), data[:200]


# -- many keep-alive connections at once ----------------------------------------

async def _keep_alive_gets(host, port, paths):
    """GET ``paths`` in turn over one HTTP/1.1 keep-alive connection:
    ``(status, ms)`` per request.  A transport error raises."""
    reader, writer = await asyncio.open_connection(host, port)
    out = []
    try:
        for path in paths:
            t0 = time.perf_counter()
            writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            head = await reader.readuntil(b"\r\n\r\n")
            length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
            await reader.readexactly(int(length.group(1)))
            out.append((int(head.split()[1]),
                        (time.perf_counter() - t0) * 1e3))
    finally:
        writer.close()
        await writer.wait_closed()
    return out


async def _connections(host, port, paths_each):
    """One connection per entry of ``paths_each``, all at once: the
    ``(status, ms)`` list of each, or the exception that ended it.
    Raises ``TimeoutError`` if they are not all done in 60 s."""
    return await asyncio.wait_for(asyncio.gather(
        *(_keep_alive_gets(host, port, paths) for paths in paths_each),
        return_exceptions=True,
    ), 60.0)


def test_200_keep_alive_connections_get_no_5xx_and_p99_under_2s():
    """200 connections × 8 GETs over a 5 000-job population and a live
    TSDB (8 hosts × 720 points), after one serial warm-up pass: every
    request is answered without a 5xx or a transport error, p99 ≤ 2 s,
    the page cache absorbs repeats and only its misses reach the pool."""
    users, per_user = 200, 8
    db = Database()
    generate_population(db, 5_000, seed=33)
    JobRecord.bind(db)
    tsdb = TimeSeriesDB()
    rng = np.random.default_rng(404)
    t = (np.arange(720) * 60).tolist()  # 12 h at minute cadence
    for h in range(8):
        v = np.cumsum(rng.integers(0, 1000, size=720)).astype(float)
        tsdb.put_many("stats", {"host": f"n{h:02d}"}, t, v.tolist())
    stream = SimpleNamespace(
        tsdb=tsdb, metric="stats", samples=0,
        analyzer=SimpleNamespace(inflight=0),
        alerts=SimpleNamespace(ledger=(), suppressed=0, recent=lambda n: []),
    )
    app = PortalApp(db, stream=stream)
    renders = []  # list.append is atomic: a thread-safe tally
    render = app.get_url
    app.get_url = lambda url: renders.append(url) or render(url)
    paths = [
        "/", "/search?status=COMPLETED", "/search?min_runtime=600", "/fleet",
        *(f"/job/{r.jobid}" for r in JobRecord.objects.all()[:4]),
        "/tsdb", "/tsdb?group_by=host&downsample=600:avg",
        "/tsdb?metric=stats&agg=avg",
    ]
    server = PortalServer(app, workers=8, queue_cap=256, deadline=30.0)
    host, port = server.start_background()
    try:
        warm, = asyncio.run(_connections(host, port, [paths]))
        done = asyncio.run(_connections(host, port, [
            [paths[(u + i) % len(paths)] for i in range(per_user)]
            for u in range(users)
        ]))
    finally:
        server.close()
    errors = [r for r in [warm, *done] if isinstance(r, BaseException)]
    assert errors == [], errors[:3]
    assert {status for status, _ms in warm} == {200}, warm
    answered = [x for conn in done for x in conn]
    assert len(answered) == users * per_user
    assert {status for status, _ms in answered} == {200}
    assert np.percentile([ms for _s, ms in answered], 99) <= 2_000.0
    assert server.page_cache.hits > 0
    assert len(renders) == server.page_cache.misses



def test_close_under_idle_keep_alive_clients_logs_nothing(monkeypatch):
    """Keep-alive clients that drop their connections without awaiting
    ``wait_closed()`` — their handlers are still closing — and others
    left open and idle: closing the server cancels every handler
    quietly, its loop's exception handler sees nothing, and every
    request answered before is intact."""
    closing = []  # list.append is atomic: a thread-safe tally
    wait_closed = asyncio.StreamWriter.wait_closed

    async def slow_wait_closed(writer):
        closing.append(writer)
        await asyncio.sleep(0.2)  # a close that takes a while
        await wait_closed(writer)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", slow_wait_closed)
    server = PortalServer(_make_app(), workers=2)
    host, port = server.start_background()
    seen = []
    server._loop.set_exception_handler(lambda loop, ctx: seen.append(ctx))
    want = _get(host, port, "/")[2]

    async def get_and_drop(n):
        conns = [await asyncio.open_connection(host, port) for _ in range(n)]
        out = []
        for reader, writer in conns:
            writer.write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            head = await reader.readuntil(b"\r\n\r\n")
            length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
            out.append((int(head.split()[1]),
                        await reader.readexactly(int(length.group(1)))))
        for _reader, writer in conns:
            writer.close()  # and no ``await writer.wait_closed()``
        return out

    idle = [http.client.HTTPConnection(host, port, timeout=10)
            for _ in range(20)]
    try:
        answered = asyncio.run(get_and_drop(50))
        for conn in idle:
            conn.request("GET", "/")
            resp = conn.getresponse()
            answered.append((resp.status, resp.read()))
        deadline = time.monotonic() + 10
        while len(closing) < 1 + 50 and time.monotonic() < deadline:
            time.sleep(0.01)  # every dropped handler is closing
        server.close()
    finally:
        for conn in idle:
            conn.close()
    assert seen == []
    assert len(answered) == 70
    assert all(status == 200 and body == want for status, body in answered)
