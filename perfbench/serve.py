"""``serve``: the HTTP gateway under open-loop load from one process.

A fresh ``pyrtos-sc serve`` (``serve_launcher``, defaults, fresh cache
directory) answers a seeded request mix sent on a fixed schedule by two
client threads, each request on its own connection.  The run sweeps the
rate ``LADDER`` ``SWEEPS`` times, sending one ``SEGMENT`` of requests per
rung and sweep, so every rung's samples are spread over the whole run
rather than caught in one slow stretch of the host; ``low`` and ``high``
are two of the rungs.  A request is timed from when it was due, so a
stalled server also charges the requests queued behind it.

The bounded figures come from the ``OVERLOAD`` rung, where both
connections are always busy: ``ops_per_s`` is the sustained rate
(requests completed per second) and ``op_p50_ms`` / ``op_p90_ms`` the
busy latency, from sending a request to its answer while the other
connection's request is served too.  The open-loop latencies at ``low``
and ``high`` and ``max_rps`` (the ladder rate, interpolated between rungs,
where the 90th percentile reaches ``LATENCY_LIMIT_MS``) are printed as
well; they are not bounded because the host's changing speed moves them
by more than any bound allows (README, "Reference figures").
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .common import ROOT, Result, child_env, fresh_dir, median_prepare_s, \
    percentile, remove_dir, rng_for

NAME = "serve"
#: Open-loop rates (requests per second), ascending.
LADDER = (20, 40, 60, 70, 80, 90, 100)
LOW, HIGH = 20, 60
#: A rate far above what two connections can complete: measures capacity.
OVERLOAD = 200
#: The host's speed drifts over seconds; many short sweeps average it out.
SWEEPS = 4
#: Requests per rung and sweep; a rung pools SWEEPS * SEGMENT samples,
#: times its entry in SEGMENT_SCALE: the ``low`` rung twice as many, and
#: the ``OVERLOAD`` rung, whose figures are the bounded ones, three times
#: as many (300), so that its p90 rests on 30 samples rather than 10.
SEGMENT = 25
SEGMENT_SCALE = {LOW: 2, OVERLOAD: 3}
#: The 90th-percentile latency a rate must meet to count for max_rps.
LATENCY_LIMIT_MS = 50.0
#: Requests per kind in every segment (sums to SEGMENT).  The cheap kinds
#: (repeat, lint, html) make 36 % and verify, the dearest, 20 %, so p50
#: falls inside the fresh-simulate cluster and p90 in the middle of the
#: verify one rather than in the gap between two clusters, where it jumps.
MIX = (("simulate", 11), ("repeat", 4), ("lint", 3), ("verify", 5),
       ("html", 2))
#: Lint requests sent back to back on one kept-alive connection after each
#: sweep, untimed by the ladder: they show the per-response stall of
#: keep-alive connections (README, "Faults seen").
KEEPALIVE_REQUESTS = 10
#: Generators (with size parameters) of the served specs.  All pass the
#: strict lint gate by design (dag and bursty specs are rejected with
#: RTS101 / RTS166).  Periods are held in a narrow band so that a seed
#: changes which specs are drawn, not how costly a request is.
GENERATORS = (
    ("contention", {}),
    ("freertos", {"period_min_us": 2_000, "period_max_us": 2_000}),
    ("partitioned", {}),
    ("periodic", {"period_min_us": 2_000, "period_max_us": 10_000}),
    ("smp", {}),
)
POOL_SIZE = 10
DURATION = "10ms"
#: Verify requests check seeded ``contention`` specs with execution-time
#: intervals: every one explores the full 16-run budget, so their cost
#: varies little from seed to seed.
VERIFY_OPTIONS = {"horizon": "2ms", "max_runs": 16}
CLIENT_THREADS = 2
#: Simulate responses compared with an in-process execution.
SAMPLE_CHECKS = 8
SERVER_TIMEOUT_S = 60


@dataclass
class Request:
    kind: str
    method: str
    path: str
    body: Optional[bytes] = None
    pool_index: Optional[int] = None  # repeat / html: which pool job
    params: Optional[Dict] = None


@dataclass
class Plan:
    pool: List[Dict]  # simulate params of the repeated specs
    #: (rate, sweep) -> the segment's requests in sending order.
    segments: Dict[tuple, List[Request]] = field(default_factory=dict)


def _encode(payload: Dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def prepare(seed: int, seconds: int) -> Plan:
    """Seeded request lists; every simulated spec passes the lint gate."""
    from repro.corpus import generate
    from repro.serve.workers import LintRejected, validate_spec

    rng = rng_for(NAME, seed, "requests")
    counter = [0]

    def gated_spec(kind: str = "", params: Dict = None) -> Dict:
        while True:
            if not kind:
                kind, params = GENERATORS[counter[0] % len(GENERATORS)]
            spec = generate(kind, rng.randrange(1 << 30), params)
            try:
                validate_spec(spec)
            except LintRejected:
                continue  # drawn again; the gate decides, not the seed
            counter[0] += 1
            return spec

    pool = [{"spec": gated_spec(), "duration": DURATION}
            for _ in range(POOL_SIZE)]
    plan = Plan(pool=pool)
    cursor = 0
    for sweep, rate in _schedule():
        requests = []
        for kind, count in MIX:
            for _ in range(count * SEGMENT_SCALE.get(rate, 1)):
                if kind == "simulate":
                    params = {"spec": gated_spec(), "duration": DURATION}
                    requests.append(Request(kind, "POST", "/v1/simulate",
                                            _encode(params), params=params))
                elif kind == "lint":
                    requests.append(Request(kind, "POST", "/v1/lint",
                                            _encode({"spec": gated_spec()})))
                elif kind == "verify":
                    params = dict(VERIFY_OPTIONS,
                                  spec=gated_spec("contention",
                                                  {"intervals": True}))
                    requests.append(Request(kind, "POST", "/v1/verify",
                                            _encode(params), params=params))
                elif kind == "repeat":  # repeat / html cycle through the pool
                    requests.append(Request(
                        kind, "POST", "/v1/simulate",
                        _encode(pool[cursor % POOL_SIZE]),
                        pool_index=cursor % POOL_SIZE))
                    cursor += 1
                else:
                    requests.append(Request(kind, "GET", "",
                                            pool_index=cursor % POOL_SIZE))
                    cursor += 1
        rng.shuffle(requests)
        plan.segments[(rate, sweep)] = requests
    return plan


def _schedule():
    """(sweep, rate) in sending order: the ladder, climbed SWEEPS times."""
    return [(sweep, rate) for sweep in range(SWEEPS)
            for rate in LADDER + (OVERLOAD,)]


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
class Server:
    """One fresh gateway process with its own cache directory."""

    def __init__(self, traced: bool = False) -> None:
        self.dir = fresh_dir("serve")
        self._spans_path = os.path.join(self.dir, "spans.jsonl")
        self._rss_path = os.path.join(self.dir, "peak_rss_mb")
        #: The server's layer spans, read back by :meth:`stop` if traced.
        self.spans: Optional[List] = None
        #: The server's peak resident memory, read back by :meth:`stop`.
        self.peak_rss_mb: Optional[float] = None
        self.traced = traced
        port_file = os.path.join(self.dir, "port")
        command = [sys.executable, "-m", "perfbench.serve_launcher",
                   "--cache", os.path.join(self.dir, "cache"),
                   "--port-file", port_file, "--rss-file", self._rss_path]
        if traced:
            command += ["--spans", self._spans_path]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        try:
            self.port = self._wait_port(port_file)
            while True:
                try:
                    if request(self.port, "GET", "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                self._check_alive()
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        #: Seconds from process start until /healthz answered.
        self.setup_s = time.perf_counter() - started

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def _wait_port(self, port_file: str) -> int:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while not os.path.exists(port_file):
            self._check_alive()
            if time.monotonic() > deadline:
                raise RuntimeError("server did not bind in time")
            time.sleep(0.005)
        with open(port_file) as handle:
            return int(handle.read())

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if os.path.exists(self._rss_path):
            with open(self._rss_path) as handle:
                self.peak_rss_mb = float(handle.read())
        if self.traced and os.path.exists(self._spans_path):
            from .tracing import load_spans

            self.spans = load_spans(self._spans_path)
        remove_dir(self.dir)


def request(port: int, method: str, path: str,
            body: Optional[bytes] = None) -> tuple:
    """One request on its own connection: (status, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=SERVER_TIMEOUT_S)
    try:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
def _send(port: int, item: Request, job_ids: List[str]) -> tuple:
    path = item.path
    if item.kind == "html":
        path = f"/v1/jobs/{job_ids[item.pool_index]}/trace.html"
    return request(port, item.method, path, item.body)


def run_rung(port: int, rate: int, requests: List[Request],
             job_ids: List[str]) -> List[tuple]:
    """Send one segment at ``rate``; rows (due, sent, done, status, body)."""
    rows: List[Optional[tuple]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.01

    def client() -> None:
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                due = start + index / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                status, body = _send(port, requests[index], job_ids)
                rows[index] = (due, sent, time.perf_counter(), status, body)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=client)
               for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return rows


def rung_stats(segments: List[List[tuple]]) -> Dict[str, float]:
    """One rung's figures, pooled over its segments (one per sweep)."""
    rows = [row for segment in segments for row in segment]
    latencies = [done - due for due, _, done, _, _ in rows]

    def growth(segment: List[tuple]) -> float:
        # lateness that keeps growing means the rate outruns the server
        lateness = [sent - due for due, sent, _, _, _ in segment]
        quarter = len(lateness) // 4
        return (statistics.median(lateness[-quarter:])
                - statistics.median(lateness[:quarter]))

    busy = [done - sent for _, sent, done, _, _ in rows]
    return {
        "p50_ms": 1000.0 * percentile(latencies, 50),
        "p90_ms": 1000.0 * percentile(latencies, 90),
        "busy_p50_ms": 1000.0 * percentile(busy, 50),
        "busy_p90_ms": 1000.0 * percentile(busy, 90),
        "lateness_growth_ms": 1000.0 * statistics.median(
            growth(segment) for segment in segments),
        "rejected": sum(1 for row in rows if row[3] == 429),
        "achieved_rps": statistics.median(
            (len(segment) - 1) / (max(row[2] for row in segment)
                                  - segment[0][0])
            for segment in segments),
    }


def max_rps(stats: Dict[int, Dict[str, float]]) -> float:
    """Highest rate meeting the limit, interpolated between rungs.

    A rung passes when its p90 is within ``LATENCY_LIMIT_MS``, nothing was
    refused with 429 and the generator's lateness did not grow by more
    than half the limit within a segment.  Between the last passing rung
    and the first failing one the rate is interpolated linearly on p90,
    taken as its running maximum up the ladder so that a noisy dip cannot
    move the crossing back down.
    """
    previous = None
    envelope = 0.0
    for rate in LADDER:
        row = stats[rate]
        p90 = envelope = max(envelope, row["p90_ms"])
        if p90 <= LATENCY_LIMIT_MS and not row["rejected"] \
                and row["lateness_growth_ms"] <= LATENCY_LIMIT_MS / 2:
            previous = (rate, p90)
            continue
        if previous is None:
            return rate * min(1.0, LATENCY_LIMIT_MS / p90)
        low_rate, low_p90 = previous
        if p90 <= LATENCY_LIMIT_MS:  # failed on 429 or growing lateness
            return float(low_rate)
        share = (LATENCY_LIMIT_MS - low_p90) / (p90 - low_p90)
        return low_rate + (rate - low_rate) * share
    return float(LADDER[-1])


# ---------------------------------------------------------------------------
# Checks and digest
# ---------------------------------------------------------------------------
def _expected_simulate_body(params: Dict) -> bytes:
    """The bytes a served simulate must equal: a direct in-process run."""
    from repro.campaign.cache import run_key
    from repro.campaign.spec import RunRequest
    from repro.serve.jobs import SIMULATE_SPEC

    result = SIMULATE_SPEC.execute(RunRequest(index=0, params=params))
    payload = {"id": run_key(SIMULATE_SPEC.fingerprint(), params),
               "kind": "simulate", "state": "done", "result": result}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _check(plan: Plan, pool_bodies: List[bytes], results: Dict, seed: int,
           problems: List[str]) -> int:
    """Failed requests; output problems are appended to ``problems``."""
    failed = 0
    fresh = []
    for (rate, sweep), rows in results.items():
        for item, row in zip(plan.segments[(rate, sweep)], rows):
            if row[3] != 200:
                failed += 1
                continue
            if item.kind == "repeat" and row[4] != pool_bodies[item.pool_index]:
                problems.append(f"repeated simulate {item.pool_index} at "
                                f"{rate}/s: body differs from the first")
            if item.kind == "simulate":
                fresh.append((item, row[4]))
            if item.kind == "html" and not row[4].startswith(b"<!DOCTYPE"):
                problems.append("trace.html response is not an HTML page")
    sample = rng_for(NAME, seed, "sample").sample(
        range(len(fresh)), min(SAMPLE_CHECKS, len(fresh)))
    for index in sample:
        item, body = fresh[index]
        if body != _expected_simulate_body(item.params):
            problems.append("served simulate differs from in-process "
                            "SIMULATE_SPEC.execute")
    return failed


def _digest(plan: Plan) -> Dict:
    from repro.campaign.spec import RunRequest
    from repro.kernel.time import parse_time
    from repro.serve.jobs import SIMULATE_SPEC
    from repro.verify import verify_spec

    from .common import DigestCollector

    ops = [lambda p=p: SIMULATE_SPEC.execute(RunRequest(index=0, params=p))
           for p in plan.pool]
    for segment in plan.segments.values():
        for item in segment:
            if item.kind == "simulate":
                ops.append(lambda p=item.params: SIMULATE_SPEC.execute(
                    RunRequest(index=0, params=p)))
            elif item.kind == "verify":
                ops.append(lambda p=item.params: verify_spec(
                    p["spec"], horizon=parse_time(p["horizon"]),
                    max_runs=p["max_runs"]))
    collector = DigestCollector()
    try:
        for op in ops:
            op()
            collector.flush()
    finally:
        digest = collector.close()
    return digest


def _sweep(server: Server, plan: Plan, sweep: int) -> tuple:
    """Warm one fresh server up, then climb the ladder once (timed)."""
    pool_bodies, job_ids = [], []
    for params in plan.pool:  # untimed: fills the repeated jobs
        status, body = request(server.port, "POST", "/v1/simulate",
                               _encode(params))
        if status != 200:
            raise RuntimeError(f"warm-up simulate answered {status}")
        pool_bodies.append(body)
        job_ids.append(json.loads(body)["id"])
    for item in (Request("html", "GET", "", pool_index=0),
                 Request("lint", "POST", "/v1/lint",
                         _encode({"spec": plan.pool[0]["spec"]})),
                 Request("verify", "POST", "/v1/verify", _encode(
                     dict(VERIFY_OPTIONS, spec=plan.pool[0]["spec"])))):
        _send(server.port, item, job_ids)  # untimed: lazy imports
    begin = time.perf_counter()
    rows = {rate: run_rung(server.port, rate, plan.segments[(rate, sweep)],
                           job_ids)
            for rate in LADDER + (OVERLOAD,)}
    window = (begin, time.perf_counter())
    return pool_bodies, rows, window, _keepalive(server.port, plan)


def _keepalive(port: int, plan: Plan) -> List[tuple]:
    """(seconds, status) of lint requests sharing one connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=SERVER_TIMEOUT_S)
    body = _encode({"spec": plan.pool[0]["spec"]})
    rows = []
    try:
        for _ in range(KEEPALIVE_REQUESTS):
            begin = time.perf_counter()
            conn.request("POST", "/v1/lint", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            rows.append((time.perf_counter() - begin, response.status))
    finally:
        conn.close()
    return rows


def run(seed: int, seconds: int, tracer=None) -> Result:
    """``seconds`` is not used: the ladder fixes the run's length.

    Each sweep gets its own fresh server, so the cache a server builds up
    never carries from one sweep into the next; the start-ups are
    the set-up samples.
    """
    prepare_s = None if tracer else median_prepare_s(NAME, seed, seconds)
    plan = prepare(seed, seconds)
    results, start_s, peaks, spans, keepalive = {}, [], [], [], []
    pool_bodies: List[bytes] = []
    problems: List[str] = []
    for sweep in range(SWEEPS):
        server = Server(traced=tracer is not None)
        try:
            start_s.append(server.setup_s)
            bodies, rows, window, kept = _sweep(server, plan, sweep)
            keepalive += kept
        finally:
            server.stop()
        if server.peak_rss_mb is None:
            raise RuntimeError("the server was killed before it drained")
        peaks.append(server.peak_rss_mb)
        if pool_bodies and bodies != pool_bodies:
            problems.append("fresh servers answered the same simulate "
                            "with different bodies")
        pool_bodies = bodies
        for rate, segment in rows.items():
            results[(rate, sweep)] = segment
        if server.spans is not None:
            spans += [s for s in server.spans
                      if window[0] <= s[3] and s[4] <= window[1]]
    failed = _check(plan, pool_bodies, results, seed, problems)
    failed += sum(1 for _, status in keepalive if status != 200)
    stats = {rate: rung_stats([results[(rate, sweep)]
                               for sweep in range(SWEEPS)])
             for rate in LADDER + (OVERLOAD,)}
    sustained = stats[OVERLOAD]["achieved_rps"]
    e2e = {
        "setup_s": None if tracer else prepare_s + statistics.median(start_s),
        "peak_rss_mb": max(peaks),
        "ops_per_s": sustained,
        "op_p50_ms": stats[OVERLOAD]["busy_p50_ms"],
        "op_p90_ms": stats[OVERLOAD]["busy_p90_ms"],
    }
    summary = {
        "req_p50_ms.low": (stats[LOW]["p50_ms"], "ms"),
        "req_p90_ms.low": (stats[LOW]["p90_ms"], "ms"),
        "req_p50_ms.high": (stats[HIGH]["p50_ms"], "ms"),
        "req_p90_ms.high": (stats[HIGH]["p90_ms"], "ms"),
        "max_rps": (max_rps(stats), "1/s"),
        "sustained_rps": (sustained, "1/s"),
        "busy_p50_ms": (e2e["op_p50_ms"], "ms"),
        "busy_p90_ms": (e2e["op_p90_ms"], "ms"),
        "keepalive_mean_ms": (1000.0 * statistics.mean(
            seconds for seconds, _ in keepalive), "ms"),
    }
    for rate in LADDER:
        for key in ("p90_ms", "achieved_rps", "lateness_growth_ms"):
            summary[f"rung{rate}.{key}"] = (stats[rate][key], "")
    lateness = statistics.mean(
        sent - due for rows in results.values() for due, sent, *_ in rows)
    return Result(
        attempted=sum(len(rows) for rows in results.values())
        + len(keepalive),
        failed=failed,
        problems=problems,
        end_to_end=e2e,
        summary=summary,
        digest=_digest(plan),
        # the spans are already cut to the sweeps' windows
        window=(float("-inf"), float("inf")),
        spans=spans if tracer is not None else None,
        layer_extra={"serve.lateness_ms": 1000.0 * lateness},
    )
