"""Closed-loop synthetic-user load generator for the portal server.

Models the paper's audience — consultants and users hitting the web
frontend — as ``users`` concurrent closed-loop clients: each issues a
request, waits for the full response, *thinks* for a random interval,
then requests its next page, cycling through a mixed path list
(search, job detail, fleet, tsdb plots).  Closed-loop load is the
right shape for a human-facing portal: a slow server slows its users
down instead of building an unbounded open-loop queue, so the numbers
reported here (p50/p95/p99 latency, throughput, shed rate) are what a
person at a browser would experience.

Everything is stdlib asyncio over raw sockets — the generator speaks
just enough HTTP/1.1 (keep-alive, Content-Length framing) to drive
:class:`~repro.portal.server.PortalServer`, and deterministic
per-user RNG seeds keep runs reproducible.

503 responses (admission-control sheds) are counted separately from
server errors: shedding under overload is the server *working as
designed*, a 5xx is a bug.  ``LoadReport.gate()`` encodes the CI
contract — zero 5xx, zero transport exceptions, p99 under a bound.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.sketch import QuantileSketch

__all__ = ["LoadGenerator", "LoadReport", "default_paths"]


def default_paths(
    jobids: Sequence[str] = (), with_tsdb: bool = False,
    metric: str = "",
) -> List[str]:
    """A representative page mix: front page, searches, details, fleet."""
    paths = [
        "/",
        "/search?status=COMPLETED",
        "/search?min_runtime=600",
        "/fleet",
    ]
    paths.extend(f"/job/{j}" for j in jobids)
    if with_tsdb:
        paths.append("/tsdb")
        paths.append("/tsdb?group_by=host&downsample=600:avg")
        if metric:
            paths.append(f"/tsdb?metric={metric}&agg=avg")
    return paths


@dataclass
class LoadReport:
    """What one load-generator run measured."""

    users: int
    duration_s: float
    requests: int = 0
    ok: int = 0                # 2xx
    shed: int = 0              # 503 admission-control (by design)
    deadline: int = 0          # 504 render deadline
    client_errors: int = 0     # other 4xx
    server_errors: int = 0     # 5xx except 503
    exceptions: int = 0        # transport-level failures
    #: streaming quantile sketch over the successful requests'
    #: latencies — answers percentile() in O(bins) without keeping the
    #: sample, and merges exactly if reports are ever combined across
    #: generators
    sketch: QuantileSketch = field(default_factory=QuantileSketch)

    def record(self, latency_ms: float) -> None:
        """Record one successful request's latency."""
        self.sketch.observe(latency_ms)

    def percentile(self, q: float) -> float:
        """Latency percentile in ms over successful (2xx) requests.

        Served from the mergeable :class:`QuantileSketch` (relative
        value error ≤ its ``alpha``, 0.5 % by default).
        """
        if not self.sketch.count:
            return 0.0
        return self.sketch.quantile(q / 100.0)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "users": self.users,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "throughput_rps": round(self.throughput_rps, 1),
            "http_2xx": self.ok,
            "http_4xx": self.client_errors,
            "http_5xx": self.server_errors,
            "shed_503": self.shed,
            "deadline_504": self.deadline,
            "exceptions": self.exceptions,
            "p50_ms": round(self.percentile(50), 2),
            "p95_ms": round(self.percentile(95), 2),
            "p99_ms": round(self.percentile(99), 2),
        }

    def gate(self, p99_ms: float) -> List[str]:
        """CI contract violations (empty list == pass)."""
        problems = []
        if self.exceptions:
            problems.append(f"{self.exceptions} transport exceptions")
        if self.server_errors:
            problems.append(f"{self.server_errors} 5xx responses")
        if not self.ok:
            problems.append("no successful responses at all")
        if self.percentile(99) > p99_ms:
            problems.append(
                f"p99 {self.percentile(99):.1f} ms > gate {p99_ms:.1f} ms"
            )
        return problems

    def render_text(self) -> str:
        d = self.to_dict()
        return (
            f"{d['users']} users x {d['duration_s']}s: "
            f"{d['requests']} requests ({d['throughput_rps']} rps)\n"
            f"  2xx={d['http_2xx']} 4xx={d['http_4xx']} "
            f"5xx={d['http_5xx']} shed(503)={d['shed_503']} "
            f"deadline(504)={d['deadline_504']} "
            f"exceptions={d['exceptions']}\n"
            f"  latency p50={d['p50_ms']} ms  p95={d['p95_ms']} ms  "
            f"p99={d['p99_ms']} ms"
        )


class _Client:
    """One keep-alive HTTP/1.1 connection speaking to the portal."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=4 * 1024 * 1024
        )

    async def get(self, path: str) -> Tuple[int, bytes]:
        """GET ``path`` → (status, body); reconnects on a dropped conn."""
        if self._writer is None or self._writer.is_closing():
            await self._connect()
        try:
            return await self._roundtrip(path)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            # server closed an idle keep-alive: one clean retry
            await self.close()
            await self._connect()
            return await self._roundtrip(path)

    async def _roundtrip(self, path: str) -> Tuple[int, bytes]:
        req = (
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(req.encode("ascii"))
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.decode("latin-1").split(maxsplit=2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionResetError(f"bad status line {status_line!r}")
        status = int(parts[1])
        length = 0
        close = False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, body

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = self._writer = None


class LoadGenerator:
    """``users`` closed-loop synthetic users cycling through ``paths``.

    Parameters
    ----------
    host, port:
        where the :class:`~repro.portal.server.PortalServer` listens.
    paths:
        page mix each user cycles through (shuffled per user with a
        deterministic per-user seed).
    users:
        concurrent synthetic users.
    requests_per_user:
        closed-loop requests each user issues before leaving.
    think_time:
        mean seconds between a response and the user's next request,
        drawn uniformly from ``[0, 2*think_time]``.
    seed:
        base RNG seed; user ``i`` seeds with ``seed + i``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        paths: Sequence[str],
        users: int = 200,
        requests_per_user: int = 10,
        think_time: float = 0.02,
        seed: int = 0,
    ) -> None:
        if not paths:
            raise ValueError("need at least one path to request")
        self.host = host
        self.port = int(port)
        self.paths = list(paths)
        self.users = int(users)
        self.requests_per_user = int(requests_per_user)
        self.think_time = float(think_time)
        self.seed = int(seed)

    async def _user(self, uid: int, report: LoadReport) -> None:
        rng = random.Random(self.seed + uid)
        client = _Client(self.host, self.port)
        try:
            for i in range(self.requests_per_user):
                path = self.paths[(uid + i) % len(self.paths)]
                t0 = time.perf_counter()
                try:
                    status, _body = await client.get(path)
                except (OSError, asyncio.IncompleteReadError, ValueError):
                    report.exceptions += 1
                    report.requests += 1
                    await client.close()
                    continue
                dt_ms = (time.perf_counter() - t0) * 1e3
                report.requests += 1
                if 200 <= status < 300:
                    report.ok += 1
                    report.record(dt_ms)
                elif status == 503:
                    report.shed += 1
                elif status == 504:
                    report.deadline += 1
                elif 400 <= status < 500:
                    report.client_errors += 1
                else:
                    report.server_errors += 1
                if self.think_time:
                    await asyncio.sleep(
                        rng.uniform(0.0, 2.0 * self.think_time)
                    )
        finally:
            await client.close()

    async def run_async(self) -> LoadReport:
        report = LoadReport(users=self.users, duration_s=0.0)
        t0 = time.perf_counter()
        await asyncio.gather(
            *(self._user(uid, report) for uid in range(self.users))
        )
        report.duration_s = time.perf_counter() - t0
        return report

    def run(self) -> LoadReport:
        """Run the whole closed loop on a private event loop."""
        return asyncio.run(self.run_async())
