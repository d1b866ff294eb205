"""LAC under adversarial interleavings.

These tests drive the Local Admission Controller with request patterns
the batch experiments never produce: rapid admit/release/cancel
storms, repeated rejection followed by re-admission through
:meth:`reserve_window`, and long mixed sequences where any
capacity-accounting drift would compound.  They pin the invariants
that make that safe:

- **capacity conservation** — at every step, ``used_at`` never exceeds
  capacity at any reservation boundary, and ``used + available`` spans
  the whole node;
- **release/cancel symmetry** — whatever was reserved becomes available
  again, exactly;
- **rejection is stateless** — a rejected admission leaves the timeline
  byte-identical, so hammering a full node with doomed requests (the
  overload regime) cannot corrupt it.
"""

import math

from repro.core.admission import LocalAdmissionController
from repro.core.job import Job
from repro.core.modes import ExecutionMode
from repro.core.spec import QoSTarget, ResourceVector, TimeslotRequest
from repro.util.rng import DeterministicRng

CAPACITY = ResourceVector(cores=4, cache_ways=16, bandwidth_share=1.0)


def make_job(job_id, *, cores, ways, tw, deadline=None, mode=None, arrival=0.0):
    return Job(
        job_id=job_id,
        benchmark="bzip2",
        target=QoSTarget(
            ResourceVector(cores, ways),
            TimeslotRequest(max_wall_clock=tw, deadline=deadline),
            mode if mode is not None else ExecutionMode.strict(),
        ),
        arrival_time=arrival,
        instructions=1000,
    )


def timeline_points(lac, horizon=1_000.0):
    """Every instant where reserved usage can change, clamped finite."""
    points = {0.0}
    for reservation in lac.reservations():
        points.add(reservation.start)
        if reservation.end < math.inf:
            points.add(reservation.end)
            points.add(max(0.0, reservation.end - 1e-9))
    points.add(horizon)
    return sorted(points)


def assert_conserved(lac):
    """used ≤ capacity and used + available == capacity, everywhere."""
    for t in timeline_points(lac):
        used = lac.used_at(t)
        available = lac.available_at(t)
        assert used.cores <= lac.capacity.cores, (t, used)
        assert used.cache_ways <= lac.capacity.cache_ways, (t, used)
        assert used.bandwidth_share <= lac.capacity.bandwidth_share + 1e-9
        assert used.cores + available.cores == lac.capacity.cores
        assert (
            used.cache_ways + available.cache_ways
            == lac.capacity.cache_ways
        )


def timeline_snapshot(lac):
    return [
        (r.reservation_id, r.job_id, r.start, r.end, r.resources)
        for r in lac.reservations()
    ]


class TestAdversarialInterleavings:
    def test_rapid_admit_release_cancel_storm_conserves_capacity(self):
        """A seeded 300-step storm of admits/releases/cancels never drifts."""
        lac = LocalAdmissionController(CAPACITY)
        rng = DeterministicRng(1234, "admission-storm")
        live = {}  # job_id -> reservation
        now = 0.0
        admitted = rejected = released = cancelled = 0
        for step in range(300):
            now += rng.uniform(0.0, 0.5)
            action = rng.uniform()
            if action < 0.55 or not live:
                job = make_job(
                    step + 1,
                    cores=int(rng.uniform(1, 4)),
                    ways=int(rng.uniform(1, 12)),
                    tw=rng.uniform(0.5, 8.0),
                    deadline=now + rng.uniform(1.0, 30.0),
                )
                decision = lac.admit(job, now=now)
                if decision.accepted and decision.reservation is not None:
                    live[job.job_id] = decision.reservation
                    admitted += 1
                elif not decision.accepted:
                    rejected += 1
            elif action < 0.8:
                job_id = rng.choice(sorted(live))
                reservation = live.pop(job_id)
                # Early completion somewhere inside (or before) the slot.
                at = now if now < reservation.end else reservation.end
                lac.release(reservation, at_time=max(at, 0.0))
                released += 1
            else:
                job_id = rng.choice(sorted(live))
                lac.cancel(live.pop(job_id))
                cancelled += 1
            assert_conserved(lac)
        # The storm must have actually exercised every path.
        assert admitted > 50
        assert rejected > 0
        assert released > 20
        assert cancelled > 10

    def test_rejected_admission_leaves_timeline_untouched(self):
        """Hammering a saturated node with doomed requests is a no-op."""
        lac = LocalAdmissionController(CAPACITY)
        filler = make_job(1, cores=4, ways=16, tw=50.0, deadline=60.0)
        assert lac.admit(filler, now=0.0).accepted
        before = timeline_snapshot(lac)
        for attempt in range(20):
            doomed = make_job(
                100 + attempt, cores=2, ways=8, tw=10.0, deadline=12.0
            )
            decision = lac.admit(doomed, now=0.0)
            assert not decision.accepted
            assert timeline_snapshot(lac) == before
            assert_conserved(lac)

    def test_reserve_window_readmission_after_repeated_rejection(self):
        """The fault-path retry loop: rejected until capacity frees, then in.

        A displaced job re-probes with backoff while the node is full;
        every probe must fail cleanly (no partial booking), and the
        probe immediately after the blocking reservation is released
        must succeed — with capacity conserved throughout.
        """
        lac = LocalAdmissionController(CAPACITY)
        blocker = make_job(1, cores=4, ways=16, tw=20.0, deadline=25.0)
        blocking_reservation = lac.admit(blocker, now=0.0).reservation
        assert blocking_reservation is not None

        request = ResourceVector(cores=2, cache_ways=8)
        deadline = 15.0
        probes = [0.5, 1.0, 2.0, 4.0]  # exponential backoff schedule
        for probe_time in probes:
            reservation = lac.reserve_window(
                job_id=42,
                resources=request,
                duration=5.0,
                not_before=probe_time,
                latest_end=deadline,
            )
            assert reservation is None
            assert_conserved(lac)
        rejections_so_far = lac.stats.rejections
        assert rejections_so_far >= len(probes)

        # The blocker completes early; the next probe must land.
        lac.release(blocking_reservation, at_time=6.0)
        reservation = lac.reserve_window(
            job_id=42,
            resources=request,
            duration=5.0,
            not_before=6.0,
            latest_end=deadline,
        )
        assert reservation is not None
        assert reservation.start >= 6.0
        assert reservation.end <= deadline
        assert_conserved(lac)

    def test_interleaved_reserve_window_and_admit_conserve(self):
        """Admissions and fault-path re-admissions share one timeline."""
        lac = LocalAdmissionController(CAPACITY)
        rng = DeterministicRng(77, "mixed-paths")
        reservations = []
        now = 0.0
        for step in range(120):
            now += rng.uniform(0.0, 0.3)
            if rng.uniform() < 0.5:
                job = make_job(
                    step + 1,
                    cores=1,
                    ways=int(rng.uniform(1, 8)),
                    tw=rng.uniform(0.5, 4.0),
                    deadline=now + rng.uniform(2.0, 20.0),
                )
                decision = lac.admit(job, now=now)
                if decision.reservation is not None:
                    reservations.append(decision.reservation)
            else:
                booked = lac.reserve_window(
                    job_id=1000 + step,
                    resources=ResourceVector(
                        cores=1, cache_ways=int(rng.uniform(1, 6))
                    ),
                    duration=rng.uniform(0.5, 3.0),
                    not_before=now,
                    latest_end=now + rng.uniform(4.0, 15.0),
                )
                if booked is not None:
                    reservations.append(booked)
            if reservations and rng.uniform() < 0.3:
                index = int(rng.uniform(0, len(reservations)))
                lac.release(reservations.pop(index), at_time=now)
            assert_conserved(lac)
        # Conservation of accounting: every admission test is either an
        # acceptance or a rejection, never both or neither.
        assert (
            lac.stats.acceptances + lac.stats.rejections
            == lac.stats.admission_tests
        )

    def test_release_then_cancel_capacity_round_trip(self):
        """Book the whole node, tear it all down, end exactly empty."""
        lac = LocalAdmissionController(CAPACITY)
        first = lac.admit(
            make_job(1, cores=2, ways=8, tw=10.0, deadline=20.0), now=0.0
        ).reservation
        second = lac.admit(
            make_job(2, cores=2, ways=8, tw=10.0, deadline=20.0), now=0.0
        ).reservation
        assert first is not None and second is not None
        assert lac.available_at(5.0).cores == 0
        lac.cancel(first)
        assert lac.available_at(5.0) == ResourceVector(
            cores=2, cache_ways=8, bandwidth_share=1.0
        )
        lac.release(second, at_time=3.0)
        assert lac.available_at(3.0) == CAPACITY
        # A started reservation is truncated, not erased — history stays.
        assert all(r.end <= 3.0 for r in lac.reservations())
        assert_conserved(lac)
