"""A one-caller HTTP client for the ``--serve`` child.

Like the repo's own ``ServeClient`` it opens one connection per request
(never more than one at a time), but it polls a job's result every
millisecond instead of every 50 ms, so the poll period does not
quantize the measured latency, and it records what each op cost.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Optional, Tuple

#: Pause between result polls [s]: well under a job's ~10 ms service
#: time, so the poll period does not quantize the measured latency.
POLL_S = 0.001


class JobOutcome:
    """What one job op observed, client side."""

    __slots__ = (
        "status", "error_type", "job_id", "record", "body", "polls",
        "requests", "t_post", "t_done", "result_s",
    )

    def __init__(self):
        self.status = 0
        self.error_type: Optional[str] = None
        self.job_id: Optional[str] = None
        self.record: Optional[dict] = None
        self.body = b""
        self.polls = 0
        self.requests = 0
        self.t_post = 0.0
        self.t_done = 0.0
        self.result_s = 0.0


class BenchClient:
    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Extra headers on every request (the traced run's op id).
        self.headers: Dict[str, str] = {}

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        headers = dict(self.headers)
        if body:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=body or None, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def keepalive_rtt_ms(self, rounds: int = 3) -> float:
        """Median ``GET /healthz`` round trip over one persistent
        connection (the server writes headers and body separately, which
        a keep-alive client pays for in delayed-ACK stalls)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        times = []
        try:
            for _ in range(rounds + 1):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                times.append(time.perf_counter() - start)
        finally:
            conn.close()
        times = sorted(times[1:])
        return 1e3 * times[len(times) // 2]

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` counters as ``{name: value}`` (label-free lines)."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics -> HTTP {status}")
        out: Dict[str, float] = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                out[name] = float(value)
        return out

    def run_job(self, payload: bytes, tracer=None) -> JobOutcome:
        """POST a job and poll its result; times POST send -> body received."""
        out = JobOutcome()
        out.t_post = time.perf_counter()
        span = tracer.begin("http.post") if tracer else None
        status, body = self.request("POST", "/jobs", payload)
        if span is not None:
            tracer.end(span)
        out.requests = 1
        out.status = status
        if status != 202:
            out.t_done = time.perf_counter()
            out.body = body
            try:
                out.error_type = json.loads(body)["error"]["type"]
            except (ValueError, KeyError, TypeError):
                out.error_type = None
            return out
        out.job_id = json.loads(body)["id"]
        path = f"/jobs/{out.job_id}/result"
        while True:
            t0 = time.perf_counter()
            span = tracer.begin("http.poll") if tracer else None
            status, body = self.request("GET", path)
            out.requests += 1
            if status != 409:
                if span is not None:
                    tracer.rename(span, "http.result")
                    tracer.end(span)
                out.t_done = time.perf_counter()
                out.result_s = out.t_done - t0
                break
            if span is not None:
                tracer.end(span)
            out.polls += 1
            time.sleep(POLL_S)
        out.status = status
        out.body = body
        out.record = json.loads(body)
        return out
