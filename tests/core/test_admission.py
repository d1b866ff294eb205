"""Tests for the Local Admission Controller (Section 5)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.admission import LocalAdmissionController
from repro.core.job import Job
from repro.core.modes import ExecutionMode
from repro.core.spec import QoSTarget, ResourceVector, TimeslotRequest


def node(cores=4, ways=16):
    return LocalAdmissionController(ResourceVector(cores, ways))


def make_job(
    job_id=1,
    *,
    cores=1,
    ways=7,
    tw=10.0,
    deadline=None,
    mode=None,
    arrival=0.0,
):
    timeslot = None
    if tw is not None:
        timeslot = TimeslotRequest(max_wall_clock=tw, deadline=deadline)
    return Job(
        job_id=job_id,
        benchmark="bzip2",
        target=QoSTarget(
            ResourceVector(cores, ways),
            timeslot,
            mode if mode is not None else ExecutionMode.strict(),
        ),
        arrival_time=arrival,
        instructions=1000,
    )


class TestCapacityQueries:
    def test_empty_node_fully_available(self):
        lac = node()
        assert lac.available_at(0.0) == ResourceVector(4, 16)

    def test_used_reflects_active_reservations(self):
        lac = node()
        decision = lac.admit(make_job(deadline=100.0), now=0.0)
        assert decision.accepted
        assert lac.used_at(5.0) == ResourceVector(1, 7)
        assert lac.used_at(15.0) == ResourceVector(0, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LocalAdmissionController(ResourceVector(0, 0))


class TestStrictAdmission:
    def test_immediate_admission_on_idle_node(self):
        lac = node()
        decision = lac.admit(make_job(deadline=10.5), now=0.0)
        assert decision.accepted
        assert decision.reserved_start == 0.0

    def test_two_seven_way_jobs_fit_but_not_three(self):
        # The paper's core All-Strict dynamic: 14 of 16 ways reserved,
        # a third 7-way job cannot run concurrently.
        lac = node()
        assert lac.admit(make_job(1, deadline=10.5), now=0.0).accepted
        assert lac.admit(make_job(2, deadline=10.5), now=0.0).accepted
        third = lac.admit(make_job(3, deadline=10.5), now=0.0)
        assert not third.accepted

    def test_third_job_fits_after_first_slot_with_loose_deadline(self):
        lac = node()
        lac.admit(make_job(1, deadline=10.5), now=0.0)
        lac.admit(make_job(2, deadline=10.5), now=0.0)
        third = lac.admit(make_job(3, deadline=30.0), now=0.0)
        assert third.accepted
        assert third.reserved_start == pytest.approx(10.0)

    def test_request_beyond_capacity_rejected(self):
        lac = node()
        decision = lac.admit(make_job(ways=17, deadline=100.0), now=0.0)
        assert not decision.accepted
        assert "capacity" in decision.reason

    def test_deadline_limits_start(self):
        lac = node()
        lac.admit(make_job(1, deadline=10.5), now=0.0)
        lac.admit(make_job(2, deadline=10.5), now=0.0)
        # tight deadline: the slot after the running jobs is too late.
        tight = lac.admit(make_job(3, deadline=10.5), now=0.0)
        assert not tight.accepted

    def test_cores_are_also_a_constraint(self):
        lac = node(cores=2, ways=16)
        assert lac.admit(make_job(1, ways=4, deadline=10.5), now=0.0).accepted
        assert lac.admit(make_job(2, ways=4, deadline=10.5), now=0.0).accepted
        third = lac.admit(make_job(3, ways=4, deadline=10.5), now=0.0)
        assert not third.accepted  # no third core


class TestElasticAdmission:
    def test_elastic_reserves_stretched_duration(self):
        lac = node()
        job = make_job(mode=ExecutionMode.elastic(0.5), deadline=100.0)
        decision = lac.admit(job, now=0.0)
        assert decision.accepted
        reservation = decision.reservation
        assert reservation.end - reservation.start == pytest.approx(15.0)


class TestOpportunisticAdmission:
    def test_always_accepted_without_reservation(self):
        lac = node()
        # Saturate reservations first.
        lac.admit(make_job(1, deadline=10.5), now=0.0)
        lac.admit(make_job(2, deadline=10.5), now=0.0)
        opportunistic = lac.admit(
            make_job(3, mode=ExecutionMode.opportunistic(), deadline=10.5),
            now=0.0,
        )
        assert opportunistic.accepted
        assert opportunistic.reservation is None


class TestLifetimeReservations:
    def test_lifetime_job_reserved_forever(self):
        lac = node()
        decision = lac.admit(make_job(tw=None), now=0.0)
        assert decision.accepted
        assert decision.reservation.end == math.inf
        assert lac.used_at(1e9) == ResourceVector(1, 7)

    def test_lifetime_job_blocks_conflicting_lifetime_job(self):
        lac = node()
        lac.admit(make_job(1, ways=10, tw=None), now=0.0)
        second = lac.admit(make_job(2, ways=10, tw=None), now=0.0)
        assert not second.accepted

    def test_lifetime_job_after_finite_jobs(self):
        lac = node()
        lac.admit(make_job(1, ways=10, deadline=10.5), now=0.0)
        decision = lac.admit(make_job(2, ways=10, tw=None), now=0.0)
        assert decision.accepted
        assert decision.reservation.start == pytest.approx(10.0)


class TestAutoDowngradePlacement:
    def test_latest_fit_places_reservation_late(self):
        # Section 3.4: AutoDown reservations go as late as possible.
        lac = node()
        job = make_job(deadline=30.0)
        decision = lac.admit(job, now=0.0, auto_downgrade=True)
        assert decision.accepted
        assert decision.reserved_start == pytest.approx(20.0)

    def test_latest_fit_respects_existing_reservations(self):
        lac = node()
        # Block the late window with two big jobs.
        lac.admit(make_job(1, ways=7, deadline=30.0), now=0.0)
        first = lac.reservations()[0]
        lac.admit(make_job(2, ways=7, deadline=30.0), now=0.0)
        job = make_job(3, ways=7, deadline=30.0)
        decision = lac.admit(job, now=0.0, auto_downgrade=True)
        assert decision.accepted
        # Must start at or after nothing conflicting; here 20.0 is free
        # because the first two run [0, 10).
        assert decision.reserved_start == pytest.approx(20.0)


class TestRelease:
    def test_early_release_allows_earlier_admission(self):
        lac = node()
        first = lac.admit(make_job(1, deadline=10.5), now=0.0)
        second = lac.admit(make_job(2, deadline=10.5), now=0.0)
        # Job 1 finishes early at t=4: reclaim.
        lac.release(first.reservation, at_time=4.0)
        third = lac.admit(make_job(3, deadline=14.7, arrival=4.0), now=4.0)
        assert third.accepted
        assert third.reserved_start == pytest.approx(4.0)

    def test_release_before_start_removes_reservation(self):
        lac = node()
        lac.admit(make_job(1, deadline=10.5), now=0.0)
        lac.admit(make_job(2, deadline=10.5), now=0.0)
        future = lac.admit(make_job(3, deadline=40.0), now=0.0)
        assert future.reserved_start == pytest.approx(10.0)
        lac.release(future.reservation, at_time=0.0)
        assert all(
            r.reservation_id != future.reservation.reservation_id
            for r in lac.reservations()
        )

    def test_release_unknown_reservation_raises(self):
        lac = node()
        decision = lac.admit(make_job(1, deadline=100.0), now=0.0)
        lac.release(decision.reservation, at_time=0.0)
        with pytest.raises(ValueError):
            lac.release(decision.reservation, at_time=0.0)


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),  # ways
                st.floats(min_value=0.5, max_value=20.0),  # tw
                st.floats(min_value=1.05, max_value=3.0),  # deadline mult
            ),
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_reserved_usage_never_exceeds_capacity(self, jobs):
        """Property: whatever is admitted, the reservation timeline
        never oversubscribes cores or ways at any breakpoint."""
        lac = node()
        now = 0.0
        for index, (ways, tw, mult) in enumerate(jobs):
            job = make_job(
                index + 1, ways=ways, tw=tw, deadline=now + mult * tw,
                arrival=now,
            )
            lac.admit(job, now=now)
            now += 0.25
        checkpoints = {now}
        for reservation in lac.reservations():
            checkpoints.add(reservation.start)
            if reservation.end != math.inf:
                checkpoints.add(max(0.0, reservation.end - 1e-9))
        for t in checkpoints:
            used = lac.used_at(t)
            assert used.cores <= lac.capacity.cores
            assert used.cache_ways <= lac.capacity.cache_ways

    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=5.0), min_size=1, max_size=15
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_fcfs_reservations_do_not_overlap_beyond_capacity(self, tws):
        lac = node(cores=1, ways=16)
        now = 0.0
        accepted = []
        for index, tw in enumerate(tws):
            job = make_job(
                index + 1, ways=16, tw=tw, deadline=now + 3 * tw, arrival=now
            )
            decision = lac.admit(job, now=now)
            if decision.accepted:
                accepted.append(decision.reservation)
        # Single core + all 16 ways: reservations must be disjoint.
        spans = sorted((r.start, r.end) for r in accepted)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9


#: Bus shares: round values whose sums pass 1.0 (the clamp) or tie a
#: request up to float error (the 1e-12 tolerance), and any fraction.
bandwidth_shares = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 0.75, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestTimelineAgainstBruteForce:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),   # start
                st.floats(min_value=0.1, max_value=5.0),    # duration
                st.integers(min_value=1, max_value=2),      # cores
                st.integers(min_value=1, max_value=8),      # ways
                bandwidth_shares,                           # bus share
            ),
            max_size=12,
        ),
        st.floats(min_value=0.0, max_value=15.0),            # probe start
        st.floats(min_value=0.1, max_value=5.0),              # probe dur
        st.integers(min_value=1, max_value=4),                # probe cores
        st.integers(min_value=1, max_value=16),               # probe ways
        bandwidth_shares,                                     # probe share
    )
    # 1.0 - 0.9 leaves 0.09999999999999998 of the bus: 0.1 fits only by
    # the tolerance.  From t=1, 0.5 + 0.75 books more than the whole bus
    # (the 1.0 clamp), so a 0.2 share no longer fits.
    @example([(0.0, 5.0, 1, 1, 0.9)], 1.0, 1.0, 1, 1, 0.1)
    @example([(0.0, 5.0, 1, 1, 0.5), (1.0, 5.0, 1, 1, 0.75)], 0.5, 1.0, 1, 1, 0.2)
    @settings(max_examples=60, deadline=None)
    def test_window_fits_matches_dense_sampling(
        self, reservations, probe_start, probe_duration, cores, ways, share
    ):
        """window_fits checks only breakpoints; a dense time sampling of
        available_at must agree with it, on cores, ways and bus share."""
        lac = LocalAdmissionController(ResourceVector(4, 16, 1.0))
        for index, (start, duration, r_cores, r_ways, r_share) in enumerate(
            reservations
        ):
            lac._reserve(
                job_id=index,
                start=start,
                end=start + duration,
                resources=ResourceVector(r_cores, r_ways, r_share),
            )
        request = ResourceVector(cores, ways, share)
        probe_end = probe_start + probe_duration
        fits = lac.window_fits(probe_start, probe_end, request)

        samples = 200
        step = probe_duration / samples
        # Availability is piecewise-constant, so a fixed-step sweep can
        # jump over a narrow reservation near probe_end; probing every
        # breakpoint inside the window as well makes the check exact.
        probes = [probe_start + i * step for i in range(samples)]
        for reservation in lac._reservations:
            for t in (reservation.start, reservation.end):
                if probe_start <= t < probe_end:
                    probes.append(t)
        dense = all(
            request.fits_within(lac.available_at(t)) for t in probes
        )
        assert fits == dense

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8.0),
                st.floats(min_value=0.2, max_value=4.0),
                st.integers(min_value=1, max_value=12),
            ),
            max_size=10,
        ),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_earliest_fit_is_truly_earliest(
        self, reservations, ways, duration
    ):
        """No feasible start exists strictly before the one returned
        (checked on a dense grid)."""
        lac = node()
        for index, (start, r_duration, r_ways) in enumerate(reservations):
            lac._reserve(
                job_id=index,
                start=start,
                end=start + r_duration,
                resources=ResourceVector(1, r_ways),
            )
        request = ResourceVector(1, ways)
        found = lac.earliest_fit(request, duration, not_before=0.0)
        if found is None:
            return  # nothing fits within the candidate horizon
        assert lac.window_fits(found, found + duration, request)
        # Dense grid up to the found start: no earlier feasible window.
        samples = 100
        for i in range(samples):
            earlier = found * i / samples
            if found - earlier < 1e-9:
                continue
            assert not lac.window_fits(
                earlier, earlier + duration, request
            )
