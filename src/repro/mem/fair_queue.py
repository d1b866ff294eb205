"""Fair-queuing memory-bus scheduler (the paper's future work).

Section 3.2 notes that a complete RUM QoS target "would include
off-chip bandwidth rate"; the paper leaves bandwidth partitioning to
future work, citing Nesbit et al.'s Virtual Private Caches, which pair
cache partitions with a **fair-queuing memory controller**.  This
module implements that substrate so bandwidth can be a first-class
reserved resource:

- Each core is assigned a bandwidth *share* (fraction of the bus).
- Every request is stamped with its virtual start time
  ``VST = max(arrival, last_VFT(core))`` (the core's previous virtual
  finish being ``VFT = VST + service / share``), and the bus serves the
  *eligible* — already-arrived — pending request with the smallest VST
  (start-time fair queuing, SFQ).
- The guarantee: a core with share φ observes service no worse than a
  private bus of capacity φ · peak, *regardless* of how aggressively
  other cores inject — the property FCFS lacks.
- The scheduler is work-conserving: unused shares are consumed by
  whoever is backlogged.

A FCFS baseline is included for the ablation bench that demonstrates
the isolation property.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List

from repro.obs import get_observer
from repro.obs.trace import derive_trace_id
from repro.util.stats import RunningStats
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class CompletedRequest:
    """One serviced memory request."""

    core_id: int
    arrival: float
    start: float
    finish: float

    @property
    def latency(self) -> float:
        """Queueing + service time, in cycles."""
        return self.finish - self.arrival


@dataclass
class _PendingRequest:
    core_id: int
    arrival: float
    tag: float  # virtual start time (fair queue) or arrival (FCFS)
    sequence: int


class _BusBase:
    """Common machinery: request intake, busy tracking, statistics."""

    def __init__(self, *, service_cycles: float = 20.0) -> None:
        check_positive("service_cycles", service_cycles)
        self.service_cycles = service_cycles
        self._pending: List[tuple] = []  # heap of (tag, seq, request)
        self._sequence = itertools.count()
        self._bus_free_at = 0.0
        self.completed: List[CompletedRequest] = []
        self.per_core_latency: Dict[int, RunningStats] = {}

    def _tag(self, core_id: int, arrival: float) -> float:
        raise NotImplementedError

    def submit(self, core_id: int, arrival: float) -> None:
        """Queue one block request from ``core_id`` at cycle ``arrival``."""
        check_non_negative("arrival", arrival)
        request = _PendingRequest(
            core_id=core_id,
            arrival=arrival,
            tag=self._tag(core_id, arrival),
            sequence=next(self._sequence),
        )
        heapq.heappush(
            self._pending, (request.tag, request.sequence, request)
        )

    def drain(self) -> List[CompletedRequest]:
        """Serve every queued request; return completions.

        Requests are assumed already submitted (offline schedule).  At
        each service decision the bus picks the smallest-tag request
        *among those already arrived* by the bus-free time; only when
        nothing has arrived does it idle, jumping the clock to the
        earliest pending arrival.  Serving strictly in global tag order
        instead (the old behaviour) let the bus sit idle waiting for a
        small-tag request's arrival while an arrived larger-tag request
        was pending — violating the work-conservation property promised
        above.
        """
        obs = get_observer()
        emit_grants = obs.enabled
        # Not-yet-arrived requests, ordered by arrival (ties: tag, seq).
        arrivals: List[tuple] = [
            (request.arrival, tag, seq, request)
            for tag, seq, request in self._pending
        ]
        heapq.heapify(arrivals)
        self._pending = []
        # Arrived requests, ordered by tag (ties: submission order).
        eligible: List[tuple] = []
        while arrivals or eligible:
            if not eligible:
                # Idle bus, nothing arrived: jump to the next arrival.
                self._bus_free_at = max(
                    self._bus_free_at, arrivals[0][0]
                )
            while arrivals and arrivals[0][0] <= self._bus_free_at:
                arrival, tag, seq, request = heapq.heappop(arrivals)
                heapq.heappush(eligible, (tag, seq, request))
            _, _, request = heapq.heappop(eligible)
            start = max(self._bus_free_at, request.arrival)
            finish = start + self.service_cycles
            self._bus_free_at = finish
            completed = CompletedRequest(
                core_id=request.core_id,
                arrival=request.arrival,
                start=start,
                finish=finish,
            )
            self.completed.append(completed)
            self.per_core_latency.setdefault(
                request.core_id, RunningStats()
            ).add(completed.latency)
            if emit_grants:
                obs.metrics.counter(
                    "mem.fairqueue.grants", core=request.core_id
                ).inc()
                obs.events.emit(
                    "bus_grant",
                    start,
                    core_id=request.core_id,
                    arrival=request.arrival,
                    finish=finish,
                    tag=request.tag,
                )
                # One trace per request, named by (core, submission
                # sequence): a bus.request root split into the queueing
                # wait and the service occupancy, so per-request latency
                # decomposes by cause.
                trace_id = derive_trace_id(
                    "bus", request.core_id, request.sequence
                )
                root = obs.trace.span(
                    trace_id,
                    "bus.request",
                    request.arrival,
                    finish,
                    core=request.core_id,
                    tag=request.tag,
                )
                obs.trace.span(
                    trace_id, "bus.queue", request.arrival, start, parent=root
                )
                obs.trace.span(
                    trace_id, "bus.service", start, finish, parent=root
                )
        return self.completed

    def mean_latency(self, core_id: int) -> float:
        """Mean request latency seen by ``core_id``."""
        try:
            return self.per_core_latency[core_id].mean
        except KeyError:
            raise ValueError(f"core {core_id} issued no requests") from None


class FcfsBus(_BusBase):
    """First-come-first-served baseline: no isolation whatsoever."""

    def _tag(self, core_id: int, arrival: float) -> float:
        return arrival


class FairQueueBus(_BusBase):
    """Start-time fair-queuing bus with per-core shares."""

    def __init__(
        self,
        shares: Dict[int, float],
        *,
        service_cycles: float = 20.0,
    ) -> None:
        super().__init__(service_cycles=service_cycles)
        if not shares:
            raise ValueError("at least one core share is required")
        total = sum(shares.values())
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"shares sum to {total}, exceeding the bus capacity"
            )
        for core_id, share in shares.items():
            if share <= 0:
                raise ValueError(
                    f"share for core {core_id} must be positive, got "
                    f"{share}"
                )
        self.shares = dict(shares)
        self._last_vft: Dict[int, float] = {
            core_id: 0.0 for core_id in shares
        }

    def _tag(self, core_id: int, arrival: float) -> float:
        try:
            share = self.shares[core_id]
        except KeyError:
            raise ValueError(
                f"core {core_id} has no bandwidth share"
            ) from None
        # Start-time fair queuing tags by the *virtual start*: the later
        # of the request's arrival (virtual time ~ real time here) and
        # the core's previous virtual finish.  The finish — start plus
        # service inflated by 1/share — only advances the core's VFT
        # chain; tagging by the finish (the old behaviour) is SFQ's
        # sibling FFQ, which penalises low-share cores' first requests
        # by their whole inflated service time.
        start = max(arrival, self._last_vft[core_id])
        self._last_vft[core_id] = start + self.service_cycles / share
        return start

    def guaranteed_latency_bound(self, core_id: int, backlog: int) -> float:
        """Worst-case latency of the ``backlog``-th queued request.

        A core with share φ is served at least at rate φ/service, so
        its k-th backlogged request finishes within ``k * service / φ``
        plus one residual service time (the request in flight when it
        arrived) — the classic fair-queuing bound.
        """
        check_positive("backlog", backlog)
        share = self.shares[core_id]
        return backlog * self.service_cycles / share + self.service_cycles
