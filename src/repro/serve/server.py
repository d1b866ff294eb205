"""The asyncio admission/allocation server (``repro serve``).

A deliberately dependency-free HTTP/1.1 + JSON server on asyncio
streams, built so that *no request path is unbounded*:

- admit requests pass the health gates (drain flag, bounded queue,
  overload classification) **before** queueing — the bounded queue is
  the backpressure mechanism, and a full queue is a typed shed, not a
  hang;
- a single decision worker consumes the queue FCFS (matching the
  paper's admission discipline) and enforces each request's own
  decision deadline: a request that waited past its timeout is shed,
  never silently served late;
- every handler runs under a catch-all that converts surprises into a
  500 response plus an ``unhandled_errors`` count — the smoke test
  asserts that count is zero under 2x overload;
- SIGTERM starts a graceful drain: stop accepting, let queued work
  finish within the grace budget, shed the rest (accounted), flush the
  observability artefacts, exit 0.

Endpoints::

    POST /v1/admit     admission test     -> Decision JSON
    POST /v1/release   early completion   -> {"released": bool}
    GET  /healthz      health gate state  (503 when overloaded)
    GET  /stats        accounting + breaker + health + uptime
    GET  /metrics      Prometheus text exposition of live metrics
    POST /v1/drain     begin graceful drain (also SIGTERM)
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.backend import default_backend
from repro.core.policy import SensorSnapshot, SetBusGrant, make_policy
from repro.core.spec import ResourceVector
from repro.obs import (
    FlightRecorder,
    HistoryRing,
    MetricsSampler,
    Observer,
    get_observer,
)
from repro.serve.controller import ServeController
from repro.serve.health import (
    HealthMonitor,
    HealthState,
    HealthThresholds,
    LoopLagProbe,
)
from repro.serve.protocol import (
    AdmitRequest,
    Decision,
    DecisionOutcome,
    ProtocolError,
)
from repro.serve.shedding import CircuitBreaker, RetryAdvisor

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 256 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8181
    cores: int = 4
    cache_ways: int = 16
    bandwidth_share: float = 1.0
    queue_limit: int = 64
    max_inflight: int = 256
    max_loop_lag: float = 0.25
    default_timeout: float = 2.0  # decision deadline when unspecified
    drain_grace: float = 5.0
    housekeeping_interval: float = 0.05
    breaker_trip_after: int = 5
    breaker_recover_after: int = 20
    elastic_slack: float = 0.5
    seed: int = 0
    metrics_out: Optional[str] = None
    events_out: Optional[str] = None
    # Time-series telemetry (PR 9): the history ring always serves
    # ``GET /metrics/history``; samples are only *taken* when a live
    # observer is installed (zero-cost-when-disabled).
    history_capacity: int = 512
    sample_every: int = 4  # housekeeping ticks per history sample
    history_out: Optional[str] = None
    flight_out: Optional[str] = None
    flight_window: float = 30.0
    # Advisory closed-loop policy (repro.core.policy registry name):
    # it observes health pressure each housekeeping tick and its
    # decisions surface in /stats and the event stream.  The server's
    # admission math is untouched — actuation here is observational.
    policy: Optional[str] = None

    def capacity(self) -> ResourceVector:
        return ResourceVector(
            cores=self.cores,
            cache_ways=self.cache_ways,
            bandwidth_share=self.bandwidth_share,
        )

    def thresholds(self) -> HealthThresholds:
        return HealthThresholds(
            max_queue_depth=self.queue_limit,
            max_inflight=self.max_inflight,
            max_loop_lag=self.max_loop_lag,
        )


@dataclass
class _PendingAdmit:
    """One queued admit request awaiting the decision worker."""

    request: AdmitRequest
    future: "asyncio.Future[Decision]"
    enqueued_at: float
    deadline: float  # absolute, server clock


# -- tiny HTTP layer ---------------------------------------------------------


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; ``None`` on clean EOF (client closed)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise _HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request head too large") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    try:
        text = head.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length)
    return method.upper(), path, headers, body


def _render_response(
    status: int,
    payload: object,
    *,
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# -- the server --------------------------------------------------------------


class QosServer:
    """The long-running admission/allocation service."""

    def __init__(
        self, config: Optional[ServerConfig] = None
    ) -> None:
        self.config = config or ServerConfig()
        seed = self.config.seed
        self.controller = ServeController(
            self.config.capacity(),
            breaker=CircuitBreaker(
                trip_after=self.config.breaker_trip_after,
                recover_after=self.config.breaker_recover_after,
                elastic_slack=self.config.elastic_slack,
            ),
            advisor=RetryAdvisor(seed=seed),
            default_elastic_slack=self.config.elastic_slack,
        )
        self.health = HealthMonitor(self.config.thresholds())
        self.lag_probe = LoopLagProbe()
        self.queue: "asyncio.Queue[_PendingAdmit]" = asyncio.Queue(
            maxsize=self.config.queue_limit
        )
        self.draining = False
        self.stopped = asyncio.Event()
        self._started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Task"] = []
        # Time-series telemetry: the objects are cheap to hold, but no
        # sample is ever taken unless the observer is enabled.
        self.history = HistoryRing(self.config.history_capacity)
        self.sampler = MetricsSampler(self.history)
        self.flight = FlightRecorder(window=self.config.flight_window)
        self._ticks = 0
        self._last_rung = 0
        self._fingerprint: Optional[str] = None
        self.policy = (
            make_policy(self.config.policy)
            if self.config.policy is not None
            else None
        )
        if self.policy is not None:
            self.policy.reset()
        self._policy_granted = False
        self._policy_decisions = 0
        self._policy_epochs = 0

    # -- clock ------------------------------------------------------------

    def now(self) -> float:
        """Seconds since server start (the LAC's timeline origin)."""
        return time.monotonic() - self._started

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.lag_probe.start()
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._decision_worker()),
            loop.create_task(self._housekeeping()),
        ]

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`drain` completes (signal or endpoint)."""
        await self.stopped.wait()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.drain()),
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish or shed, flush.

        Idempotent — a second SIGTERM while draining is a no-op rather
        than an abort.
        """
        if self.draining:
            return
        self.draining = True
        now = self.now()
        obs = get_observer()
        if obs.enabled:
            obs.events.emit("serve.drain.begin", now)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let queued decisions finish within the grace budget...
        grace_deadline = time.monotonic() + self.config.drain_grace
        while not self.queue.empty() and time.monotonic() < grace_deadline:
            await asyncio.sleep(0.01)
        # ...then shed whatever is left, with accounting.
        while not self.queue.empty():
            pending = self.queue.get_nowait()
            self._resolve(
                pending,
                self.controller.shed(
                    DecisionOutcome.SHED_DRAINING,
                    "server draining: queued request not decided within "
                    "the grace budget",
                    now=self.now(),
                    tenant=pending.request.tenant,
                ),
            )
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        await self.lag_probe.stop()
        if obs.enabled:
            obs.events.emit(
                "serve.drain.end",
                self.now(),
                offered=self.controller.accounting.offered,
                conserves=self.controller.accounting.conserves,
            )
            # Final forced sample: the history stream's last record
            # carries the same counter totals /stats reports, so the
            # conservation check holds against the file too.
            self._take_sample(obs, self.now(), force=True)
            if self.config.flight_out:
                self.flight.dump(
                    self.config.flight_out,
                    t=max(0.0, self.now()),
                    reason="drain",
                )
            if self.config.history_out:
                self.history.write_jsonl(self.config.history_out)
        self._flush_artifacts()
        self.stopped.set()

    def _flush_artifacts(self) -> None:
        """Write final metrics/events JSONL snapshots, if configured."""
        observer = get_observer()
        if not observer.enabled:
            return
        if self.config.metrics_out:
            observer.metrics.write_jsonl(self.config.metrics_out)
        if self.config.events_out:
            observer.events.write_jsonl(self.config.events_out)

    # -- background tasks -------------------------------------------------

    async def _decision_worker(self) -> None:
        """FCFS consumer of the admit queue; enforces decision deadlines."""
        while True:
            pending = await self.queue.get()
            now = self.now()
            try:
                if now > pending.deadline:
                    decision = self.controller.shed(
                        DecisionOutcome.SHED_DEADLINE,
                        f"queued {now - pending.enqueued_at:.3f}s, past the "
                        f"request's decision deadline",
                        now=now,
                        tenant=pending.request.tenant,
                    )
                else:
                    started = time.monotonic()
                    decision = self.controller.decide(
                        pending.request, now=now
                    )
                    latency = (
                        time.monotonic() - started
                        + (now - pending.enqueued_at)
                    )
                    decision = dataclasses.replace(
                        decision, decision_latency=latency
                    )
                    obs = get_observer()
                    if obs.enabled:
                        obs.metrics.summary(
                            "serve.decision_latency_seconds"
                        ).add(latency)
            except Exception as error:  # noqa: BLE001 - must not die
                self.controller.accounting.unhandled_errors += 1
                decision = Decision(
                    outcome=DecisionOutcome.REJECT_INVALID,
                    reason=f"internal error deciding request: {error!r}",
                )
                self.controller.accounting.record(decision)
            self._resolve(pending, decision)

    def _resolve(self, pending: _PendingAdmit, decision: Decision) -> None:
        if not pending.future.done():
            pending.future.set_result(decision)

    async def _housekeeping(self) -> None:
        """Periodic: expire holds, classify health, feed the breaker."""
        interval = self.config.housekeeping_interval
        while True:
            await asyncio.sleep(interval)
            now = self.now()
            self.controller.expire(now=now)
            snapshot = self.health.classify(
                queue_depth=self.queue.qsize(),
                inflight=self.controller.inflight,
                loop_lag=self.lag_probe.lag,
            )
            changed = self.controller.breaker.record(snapshot.state)
            obs = get_observer()
            if obs.enabled:
                obs.metrics.gauge("serve.health.pressure").set(
                    round(snapshot.pressure, 4)
                )
                obs.metrics.gauge("serve.queue_depth").set(
                    snapshot.queue_depth
                )
                if changed:
                    obs.events.emit(
                        "serve.breaker.transition",
                        now,
                        ceiling=self.controller.breaker.ceiling.value,
                        health=snapshot.state.value,
                    )
                self._ticks += 1
                if self._ticks % max(1, self.config.sample_every) == 0:
                    self._take_sample(obs, now)
                if changed:
                    self._on_breaker_change(obs, now)
            if self.policy is not None:
                self._policy_tick(obs, now, snapshot)

    def _policy_tick(self, obs, now: float, health) -> None:
        """One advisory policy epoch driven by server health.

        The bus-utilisation sensor is proxied by health pressure (both
        are "how contended is the shared resource" in [0, 1+]); there
        are no simulated jobs, so ways policies see an empty job list
        and emit nothing.
        """
        snapshot = SensorSnapshot(
            now=now,
            epoch_index=self._policy_epochs,
            l2_ways=self.config.cache_ways,
            reserved_ways=0,
            spare_ways=self.config.cache_ways,
            bus_utilisation=health.pressure,
            bus_saturated=health.state is HealthState.OVERLOADED,
            bus_granted=self._policy_granted,
        )
        self._policy_epochs += 1
        for action in self.policy.decide(snapshot):
            if not isinstance(action, SetBusGrant):
                continue
            if action.granted == self._policy_granted:
                continue
            self._policy_granted = action.granted
            self._policy_decisions += 1
            if obs.enabled:
                obs.metrics.gauge("serve.policy.granted").set(
                    1 if action.granted else 0
                )
                obs.events.emit(
                    "policy.decision",
                    now,
                    policy=self.policy.name,
                    **action.describe(),
                )

    # -- time-series telemetry --------------------------------------------

    def _take_sample(self, obs, now: float, *, force: bool = False) -> None:
        """One history point: scalar metrics + uptime, flight-fed.

        The accounting triple rides along as explicit ``serve.*``
        series — per-outcome counters alone would force every reader
        to re-derive the admitted/rejected/shed partition.

        ``force=True`` bypasses the ring's downsampling stride — the
        drain-time final sample uses it so the last history record's
        counter totals always equal the final ``/stats`` accounting.
        """
        accounting = self.controller.accounting
        point = self.sampler.sample(
            obs.metrics,
            max(0.0, now),
            extra={
                "serve.offered": accounting.offered,
                "serve.admitted": accounting.admitted,
                "serve.rejected": accounting.rejected,
                "serve.shed": accounting.shed,
                "serve.downgraded": accounting.downgraded,
            },
            force=force,
            uptime=round(now, 3),
        )
        self.flight.note_sample(point)
        self.flight.note_events(obs.events.records)

    def _on_breaker_change(self, obs, now: float) -> None:
        """Flight-dump on a trip (rung stepping down toward open)."""
        breaker = self.controller.breaker
        rung = breaker.rung
        tripped = rung > self._last_rung
        self._last_rung = rung
        if tripped and self.config.flight_out:
            self._take_sample(obs, now, force=True)
            self.flight.dump(
                self.config.flight_out,
                t=max(0.0, now),
                reason=f"breaker:{breaker.ceiling.value}",
            )

    def fingerprint(self) -> str:
        """Code fingerprint of the serve-relevant modules (memoised)."""
        if self._fingerprint is None:
            from repro.analysis.store import modules_fingerprint

            self._fingerprint = modules_fingerprint(
                (
                    "repro.core.admission",
                    "repro.core.modes",
                    "repro.serve.controller",
                    "repro.serve.health",
                    "repro.serve.protocol",
                    "repro.serve.shedding",
                )
            )
        return self._fingerprint

    # -- request handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await _read_http_request(reader)
                except _HttpError as error:
                    writer.write(
                        _render_response(
                            error.status,
                            {"error": error.message},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    response = await self._route(method, path, body)
                except _HttpError as error:
                    response = _render_response(
                        error.status, {"error": error.message},
                        keep_alive=keep_alive,
                    )
                except Exception as error:  # noqa: BLE001 - 500, keep serving
                    self.controller.accounting.unhandled_errors += 1
                    obs = get_observer()
                    if obs.enabled:
                        obs.metrics.counter("serve.http_500").inc()
                    print(
                        f"serve: unhandled error on {method} {path}: "
                        f"{error!r}",
                        file=sys.stderr,
                    )
                    response = _render_response(
                        500,
                        {"error": f"internal error: {error!r}"},
                        keep_alive=keep_alive,
                    )
                writer.write(response)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, method: str, path: str, body: bytes) -> bytes:
        if path == "/v1/admit" and method == "POST":
            return await self._handle_admit(body)
        if path == "/v1/release" and method == "POST":
            return self._handle_release(body)
        if path == "/healthz" and method == "GET":
            return self._handle_healthz()
        if path == "/stats" and method == "GET":
            return self._handle_stats()
        if path == "/metrics" and method == "GET":
            return self._handle_metrics()
        if path == "/metrics/history" and method == "GET":
            return self._handle_history()
        if path == "/v1/drain" and method == "POST":
            asyncio.ensure_future(self.drain())
            return _render_response(200, {"draining": True})
        if path in (
            "/v1/admit", "/v1/release", "/v1/drain",
            "/healthz", "/stats", "/metrics", "/metrics/history",
        ):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {path}")

    def _decision_response(self, decision: Decision) -> bytes:
        extra = {}
        if decision.retry_after is not None:
            extra["Retry-After"] = f"{decision.retry_after:.3f}"
        return _render_response(
            decision.outcome.http_status,
            decision.to_dict(),
            extra_headers=extra,
        )

    async def _handle_admit(self, body: bytes) -> bytes:
        now = self.now()
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            request = AdmitRequest.from_dict(payload)
        except (ProtocolError, ValueError, UnicodeDecodeError) as error:
            # Even malformed requests are *offered* load: account them
            # so conservation holds from the client's perspective too.
            decision = Decision(
                outcome=DecisionOutcome.REJECT_INVALID,
                reason=str(error),
            )
            self.controller.accounting.record(decision)
            return self._decision_response(decision)

        # Gate 1: draining — no new work, typed shed.
        if self.draining:
            return self._decision_response(
                self.controller.shed(
                    DecisionOutcome.SHED_DRAINING,
                    "server is draining",
                    now=now,
                    tenant=request.tenant,
                )
            )
        # Gate 2: hard overload — shed before spending queue space.
        if self.health.state is HealthState.OVERLOADED:
            return self._decision_response(
                self.controller.shed(
                    DecisionOutcome.SHED_OVERLOAD,
                    f"health gate: {self.health.last.to_dict()}"
                    if self.health.last
                    else "health gate: overloaded",
                    now=now,
                    tenant=request.tenant,
                )
            )
        # Gate 3: bounded queue — backpressure as a typed shed.
        timeout = (
            request.timeout
            if request.timeout is not None
            else self.config.default_timeout
        )
        pending = _PendingAdmit(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline=now + timeout,
        )
        try:
            self.queue.put_nowait(pending)
        except asyncio.QueueFull:
            return self._decision_response(
                self.controller.shed(
                    DecisionOutcome.SHED_QUEUE_FULL,
                    f"admission queue at limit "
                    f"({self.config.queue_limit})",
                    now=now,
                    tenant=request.tenant,
                )
            )
        # The worker resolves within the request's deadline by
        # construction; the extra slack covers a busy loop, and the
        # final timeout is a belt-and-braces shed so no client ever
        # hangs on us.
        try:
            decision = await asyncio.wait_for(
                pending.future, timeout=timeout + self.config.drain_grace
            )
        except asyncio.TimeoutError:
            decision = self.controller.shed(
                DecisionOutcome.SHED_DEADLINE,
                "decision worker did not answer within the hard cap",
                now=self.now(),
                tenant=request.tenant,
            )
            pending.future.cancel()
        return self._decision_response(decision)

    def _handle_release(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            if not isinstance(payload, dict):
                raise ProtocolError("release body must be a JSON object")
            job_id = payload.get("job_id")
            if not isinstance(job_id, int):
                raise ProtocolError("job_id must be an integer")
        except (ProtocolError, ValueError, UnicodeDecodeError) as error:
            raise _HttpError(400, str(error)) from None
        released = self.controller.release(job_id, now=self.now())
        return _render_response(
            200, {"released": released, "job_id": job_id}
        )

    def _handle_healthz(self) -> bytes:
        snapshot = self.health.last
        state = self.health.state
        status = 503 if state is HealthState.OVERLOADED else 200
        if self.draining:
            status = 503
        return _render_response(
            status,
            {
                "state": state.value,
                "draining": self.draining,
                "snapshot": snapshot.to_dict() if snapshot else None,
            },
        )

    def _handle_stats(self) -> bytes:
        now = self.now()
        payload = self.controller.stats_dict(now=now)
        payload["uptime"] = round(now, 3)
        payload["draining"] = self.draining
        payload["queue_depth"] = self.queue.qsize()
        payload["health"] = (
            self.health.last.to_dict()
            if self.health.last
            else {"state": self.health.state.value}
        )
        payload["cache_backend"] = default_backend()
        payload["fingerprint"] = self.fingerprint()
        if self.policy is not None:
            payload["policy"] = {
                "name": self.policy.name,
                "granted": self._policy_granted,
                "decisions": self._policy_decisions,
            }
        return _render_response(200, payload)

    def _handle_history(self) -> bytes:
        return _render_response(200, self.history.to_payload())

    def _handle_metrics(self) -> bytes:
        from repro.obs.export import prometheus_text

        observer = get_observer()
        text = prometheus_text(observer.metrics.snapshot())
        body = text.encode("utf-8")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        return head.encode("latin-1") + body


async def serve_main(config: ServerConfig) -> int:
    """Run a server until drained; returns the process exit code.

    Installs a live observer for the whole server lifetime (the
    ``/metrics`` endpoint and the drain-time artefact flush need one),
    prints the bound address, and wires SIGTERM/SIGINT to the graceful
    drain.
    """
    from repro.obs import reset_observer, set_observer

    observer = Observer()
    set_observer(observer)
    server = QosServer(config)
    try:
        await server.start()
        server.install_signal_handlers()
        print(
            f"serving on http://{config.host}:{server.port} "
            f"(capacity {server.controller.capacity})",
            flush=True,
        )
        await server.serve_until_stopped()
        accounting = server.controller.accounting
        print(
            f"drained: offered={accounting.offered} "
            f"admitted={accounting.admitted} "
            f"rejected={accounting.rejected} shed={accounting.shed} "
            f"errors={accounting.unhandled_errors} "
            f"conserves={accounting.conserves}",
            flush=True,
        )
        return 0 if accounting.unhandled_errors == 0 else 1
    finally:
        reset_observer()
