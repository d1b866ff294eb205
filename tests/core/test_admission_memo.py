"""The LAC's first-fit memo must answer as the paper's scan does.

``LocalAdmissionController.earliest_fit`` and ``latest_fit`` answer
from a per-timeline-version memo of each request's first feasible start
and count the candidate windows the FCFS scan would have evaluated
(DESIGN.md §7.5).  The oracle below keeps that scan: every candidate
start, in order, through the counted ``window_fits``, except that a
window empty in floating point is counted and fits nothing.  Seeded
random sequences of admissions, re-admissions, searches, releases and
cancels run on both, near time zero and at times where some lengths
are below the float spacing, and every decision, reason, start,
statistic and metric must match; after every operation
``booked_from``, which answers from the latest reservation end of the
timeline version, must agree with a scan of the reservations.  A
rejection for want of a window formats its reason only when it is
read, so the reasons are pinned to the text the LAC always wrote, over
a grid of lengths and deadlines.  The probe-level tests pin what the
memo saves in a real run: the uncounted window check runs a small
fraction of the counted windows, and a probe builds no ``QoSTarget``.
"""

import math
import random

import pytest

from repro.analysis.runner import run_all_configurations
from repro.core.admission import LocalAdmissionController
from repro.core.job import Job
from repro.core.modes import ExecutionMode
from repro.core.spec import QoSTarget, ResourceVector, TimeslotRequest
from repro.obs import Observer, observed
import repro.sim.system as system_module


class Scan(LocalAdmissionController):
    """The oracle: the paper's scan, evaluating every candidate window."""

    empty_windows = 0

    def _tries(self, start, duration, request):
        """Count the window from ``start``; whether it fits."""
        end = start + duration
        if end <= start:
            self.empty_windows += 1
            self._count_windows(1)
            return False
        return self.window_fits(start, end, request)

    def earliest_fit(
        self, request, duration, *, not_before, latest_end=math.inf
    ):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        candidates = sorted(
            {not_before}
            | {
                r.end
                for r in self._reservations
                if not_before < r.end < math.inf
            }
        )
        for start in candidates:
            if start + duration > latest_end:
                break
            if self._tries(start, duration, request):
                return start
        return None

    def latest_fit(self, request, duration, *, not_before, latest_end):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if latest_end == math.inf:
            raise ValueError("latest_fit needs a finite deadline")
        preferred = latest_end - duration
        if preferred < not_before:
            return None
        candidates = sorted(
            {preferred}
            | {
                r.end
                for r in self._reservations
                if not_before <= r.end <= preferred
            }
            | {not_before},
            reverse=True,
        )
        for start in candidates:
            if start < not_before:
                continue
            if self._tries(start, duration, request):
                return start
        return None


class Shipped(LocalAdmissionController):
    """The LAC as shipped, counting the windows it actually checks."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.checks = 0

    def _fits(self, start, end, request):
        self.checks += 1
        return super()._fits(start, end, request)


CAPACITY = ResourceVector(cores=4, cache_ways=16, bandwidth_share=1.0)
#: Shared request objects, so trains of probes hit the memo; bus shares
#: include 0.1 + 0.2, which only the window check's tolerance admits
#: next to 0.7.
REQUESTS = (
    ResourceVector(1, 4),
    ResourceVector(1, 7),
    ResourceVector(2, 12),
    ResourceVector(1, 3, 0.1),
    ResourceVector(1, 2, 0.1 + 0.2),
    ResourceVector(2, 5, 0.7),
    ResourceVector(4, 16),
)
#: Grid durations, so reservation ends often coincide.
DURATIONS = (0.25, 0.5, 1.0, 1.5, 2.0, 0.1 + 0.2)
#: Deadline spans, from too short for any duration to generous.
SPANS = (0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0)
STRICT = ExecutionMode.strict()
ELASTIC = ExecutionMode.elastic(0.1)
OPPORTUNISTIC = ExecutionMode.opportunistic()


def _decision(decision):
    reservation = decision.reservation
    return (
        decision.accepted,
        decision.reason,
        None
        if reservation is None
        else (
            reservation.reservation_id,
            reservation.job_id,
            reservation.start,
            reservation.end,
        ),
    )


def _request(rng):
    """A shared request most of the time; sometimes an equal copy."""
    request = rng.choice(REQUESTS)
    if rng.random() < 0.1:
        request = ResourceVector(
            request.cores, request.cache_ways, request.bandwidth_share
        )
    return request


#: Probe kinds and their weights: admissions by mode, a job through
#: ``admit``, a fault re-admission and the two searches on their own.
PROBES = {
    "strict": 10,
    "elastic": 5,
    "autodown": 8,
    "lifetime": 1,
    "no-deadline": 2,
    "opportunistic": 1,
    "job": 2,
    "reserve-window": 4,
    "earliest": 8,
    "latest": 3,
}
#: Timeline changes besides acceptances.
CHANGES = ("release-mid", "release-early", "cancel")
#: Train lengths: how many times one request is probed in a row.
TRAINS = (1, 1, 3, 8, 20)
#: Clock moves inside a train, and between operations: mostly forward,
#: as probes move, sometimes back, as a backfill or a re-admission asks
#: from earlier.
TRAIN_STEPS = (0.0, 0.05, 0.1, 0.25)
STEPS = (0.0, 0.1, 0.25, 0.5, 1.0, -0.5, -2.0)
#: A time from which the float spacing is 2**-24 (about 6e-8) ...
LARGE = 3.0e8
#: ... so that these lengths are below it: 1e-9 and 2e-8 round away,
#: 3e-8 rounds up to one spacing, and 2**-25, half of it, rounds to
#: even, which leaves every other start's window empty.
TINY_DURATIONS = (1e-9, 2e-8, 3e-8, 2.0**-25)


def _probe(lac, rng, kind, request, duration, span, now, job_id):
    """One admission test or search of ``kind``; returns its outcome."""
    deadline = now + span
    if kind in ("strict", "elastic", "autodown"):
        mode = ELASTIC if kind == "elastic" else STRICT
        decision = lac.admit_request(
            job_id,
            request,
            mode,
            mode.reservation_duration(duration),
            deadline,
            now=now,
            auto_downgrade=kind == "autodown",
        )
        return _decision(decision)
    if kind == "lifetime":
        return _decision(
            lac.admit_request(job_id, request, STRICT, None, None, now=now)
        )
    if kind == "no-deadline":
        return _decision(
            lac.admit_request(job_id, request, STRICT, duration, None, now=now)
        )
    if kind == "opportunistic":
        return _decision(
            lac.admit_request(
                job_id, request, OPPORTUNISTIC, duration, deadline, now=now
            )
        )
    if kind == "job":
        job = Job(
            job_id=job_id,
            benchmark="bzip2",
            target=QoSTarget(
                request, TimeslotRequest(duration, deadline), STRICT
            ),
            arrival_time=now,
            instructions=1000,
        )
        auto_downgrade = rng.random() < 0.5
        return _decision(lac.admit(job, now=now, auto_downgrade=auto_downgrade))
    latest_end = deadline if rng.random() < 0.7 else math.inf
    if kind == "reserve-window":
        reservation = lac.reserve_window(
            job_id, request, duration, not_before=now, latest_end=latest_end
        )
        return None if reservation is None else reservation.start
    if kind == "earliest":
        return lac.earliest_fit(
            request, duration, not_before=now, latest_end=latest_end
        )
    return lac.latest_fit(
        request, duration, not_before=now, latest_end=deadline
    )


def _change(lac, rng, kind):
    """Release a reservation mid-slot or before it starts, or cancel it."""
    reservations = lac.reservations()
    if not reservations:
        return None
    reservation = rng.choice(reservations)
    if kind == "release-mid":
        end = min(reservation.end, reservation.start + 4.0)
        at_time = reservation.start + rng.choice((0.25, 0.5, 0.75)) * (
            end - reservation.start
        )
        lac.release(reservation, at_time=at_time)
    elif kind == "release-early":
        at_time = max(0.0, reservation.start - rng.choice((0.0, 0.25, 1.0)))
        lac.release(reservation, at_time=at_time)
    else:
        lac.cancel(reservation)
    return reservation.reservation_id


def _sequence(cls, seed, operations=40, origin=0.0, durations=DURATIONS):
    """Run one seeded sequence on a fresh ``cls`` node, observed."""
    rng = random.Random(seed)
    lac = cls(CAPACITY)
    telemetry = Observer()
    seen = []
    now = origin
    with observed(telemetry):
        for job_id in range(1, operations + 1):
            if rng.random() < 0.15:
                kind = rng.choice(CHANGES)
                seen.append((kind, _change(lac, rng, kind)))
                _check_booked(lac, now)
            else:
                # A train: one request probed at rising times, as the
                # blocked head of a queue is.
                kind = rng.choices(tuple(PROBES), tuple(PROBES.values()))[0]
                request = _request(rng)
                duration = rng.choice(durations)
                span = rng.choice(SPANS)
                for _ in range(rng.choice(TRAINS)):
                    outcome = _probe(
                        lac, rng, kind, request, duration, span, now, job_id
                    )
                    seen.append((kind, now, outcome, _stats(lac)))
                    _check_booked(lac, now)
                    now += rng.choice(TRAIN_STEPS)
            seen.append(_stats(lac))
            now = max(0.0, now + rng.choice(STEPS))
    return (seen, list(telemetry.metrics.to_jsonl_lines())), lac


def _check_booked(lac, now):
    """``booked_from`` answers from the latest end of the timeline
    version; it must agree with a scan of the reservations."""
    assert lac.booked_from(now) == any(
        r.end > now for r in lac._reservations
    )


def _stats(lac):
    stats = lac.stats
    return (
        stats.admission_tests,
        stats.candidate_windows_evaluated,
        stats.acceptances,
        stats.rejections,
    )


@pytest.mark.parametrize("block", range(8))
def test_memo_matches_the_scan(block):
    windows = checks = 0
    for seed in range(block * 60, (block + 1) * 60):
        shipped, lac = _sequence(Shipped, seed)
        oracle, _ = _sequence(Scan, seed)
        assert shipped == oracle, f"seed {seed}"
        windows += lac.stats.candidate_windows_evaluated
        checks += lac.checks
    # The memo answered for some of the windows the scan counted.
    assert 0 < checks < windows


@pytest.mark.parametrize("block", range(2))
def test_memo_matches_the_scan_below_the_float_spacing(block):
    """At large times some windows are empty in floating point: they fit
    nothing, on the memo's path as on the scan's."""
    empty = 0
    for seed in range(block * 60, (block + 1) * 60):
        kwargs = dict(origin=LARGE, durations=DURATIONS + TINY_DURATIONS)
        shipped, _ = _sequence(Shipped, seed, **kwargs)
        oracle, scan = _sequence(Scan, seed, **kwargs)
        assert shipped == oracle, f"seed {seed}"
        empty += scan.empty_windows
    assert empty > 0


def test_a_train_of_rejected_probes_scans_once():
    """A blocked request probed at rising times is scanned once."""
    lac = LocalAdmissionController(CAPACITY)
    big = ResourceVector(4, 16)
    lac.admit_request(1, big, STRICT, 5.0, 5.0, now=0.0)
    lac.admit_request(2, ResourceVector(1, 4), STRICT, 1.0, 9.0, now=0.0)
    scans = []
    fits = lac._fits

    def counted(start, end, request):
        scans.append(start)
        return fits(start, end, request)

    lac._fits = counted
    booked = lac.stats.candidate_windows_evaluated
    oracle = Scan(CAPACITY)
    oracle.admit_request(1, big, STRICT, 5.0, 5.0, now=0.0)
    oracle.admit_request(2, ResourceVector(1, 4), STRICT, 1.0, 9.0, now=0.0)
    for step in range(40):
        now = step * 0.1
        for node in (lac, oracle):
            decision = node.admit_request(
                3, big, STRICT, 1.0, now + 2.0, now=now
            )
            assert not decision.accepted
    assert lac.stats == oracle.stats
    # One scan from 0.0: its window and 5.0's overlap a booking, 6.0's
    # fits.  Each probe's deadline stops its count after one window.
    assert scans == [0.0, 5.0, 6.0]
    assert lac.stats.candidate_windows_evaluated - booked == 40


#: Reservation lengths and deadlines for the rejection reasons: tiny,
#: fractional and large values.
REASON_DURATIONS = (1e-9, 3.0e-7, 0.1 + 0.2, 1.0 / 3.0, 2.5, 1234.5678, 98765432.1)
REASON_DEADLINES = (5e-10, 1e-6, 0.7, 2.0 / 3.0, 1234.56789, 3.14159265e8)


def _fully_booked():
    """A node whose whole capacity is booked for good: no window fits."""
    lac = LocalAdmissionController(CAPACITY)
    assert lac.admit_request(1, CAPACITY, STRICT, None, None, now=0.0).accepted
    return lac


@pytest.mark.parametrize("duration", REASON_DURATIONS)
def test_no_window_rejection_reads_as_it_always_did(duration):
    """A rejection for want of a window formats its reason only when the
    reason is read; it must read as the LAC always wrote it."""
    lac = _fully_booked()
    request = ResourceVector(1, 4)
    cases = [(STRICT, math.inf, False), (STRICT, None, False)]
    for deadline in REASON_DEADLINES:
        # AutoDown tries the window ending at the deadline first, which
        # is empty when the length is below the deadline's spacing.
        cases += [
            (STRICT, deadline, False),
            (ELASTIC, deadline, False),
            (STRICT, deadline, True),
        ]
    for mode, deadline, auto_downgrade in cases:
        decision = lac.admit_request(
            2,
            request,
            mode,
            duration,
            deadline,
            now=0.0,
            auto_downgrade=auto_downgrade,
        )
        latest_end = math.inf if deadline is None else deadline
        assert decision.reason == (
            f"no timeslot of length {duration:.3g} fits before "
            f"deadline {latest_end:.6g}"
        )
        assert decision.accepted is False
        assert decision.reservation is None
        assert decision.reserved_start is None


@pytest.mark.parametrize("auto_downgrade", [False, True])
def test_empty_windows_are_rejected_on_an_idle_node(auto_downgrade):
    """Every candidate window of a length below the float spacing at its
    start is empty: an idle node rejects it with the usual reason."""
    lac = LocalAdmissionController(CAPACITY)
    request = ResourceVector(1, 4)
    decision = lac.admit_request(
        2, request, STRICT, 1e-9, 6e8, now=3e8, auto_downgrade=auto_downgrade
    )
    assert (decision.accepted, decision.reservation) == (False, None)
    assert decision.reason == (
        "no timeslot of length 1e-09 fits before deadline 6e+08"
    )
    assert lac.reserve_window(3, request, 1e-9, not_before=3e8) is None
    with pytest.raises(ValueError, match="empty window"):
        lac.window_fits(3e8, 3e8 + 1e-9, request)


def test_an_empty_window_is_skipped_for_a_later_one():
    """Half the float spacing rounds to even: the window from a start
    with an even last bit is empty, and the next start's is not."""
    lac = LocalAdmissionController(CAPACITY)
    big = ResourceVector(4, 16)
    even = 2.0**28  # the spacing is 2**-24 from here on
    odd = even + 2.0**-24
    assert lac.admit_request(1, big, STRICT, even, None, now=0.0).accepted
    assert lac.admit_request(
        2, big, STRICT, odd - even, None, now=even
    ).accepted
    assert lac.earliest_fit(big, 2.0**-25, not_before=0.0) == odd


def test_rejection_reasons_pinned():
    lac = _fully_booked()
    request = ResourceVector(1, 4)
    decision = lac.admit_request(
        2, request, STRICT, 0.1 + 0.2, 1234.56789, now=0.0
    )
    assert decision.reason == (
        "no timeslot of length 0.3 fits before deadline 1234.57"
    )
    decision = lac.admit_request(
        2, request, STRICT, 98765432.1, math.inf, now=0.0
    )
    assert decision.reason == (
        "no timeslot of length 9.88e+07 fits before deadline inf"
    )
    decision = lac.admit_request(
        2, request, STRICT, 3e-7, 3.14159265e8, now=0.0, auto_downgrade=True
    )
    assert decision.reason == (
        "no timeslot of length 3e-07 fits before deadline 3.14159e+08"
    )
    decision = lac.admit_request(2, request, ELASTIC, 1e-9, 5e-10, now=0.0)
    assert decision.reason == (
        "no timeslot of length 1e-09 fits before deadline 5e-10"
    )
    oversized = ResourceVector(1, 20, 0.5)
    decision = lac.admit_request(2, oversized, STRICT, 1.0, 5.0, now=0.0)
    assert (decision.accepted, decision.reservation) == (False, None)
    assert decision.reason == (
        "request 1 core(s) + 20 way(s) + 50% bus exceeds node capacity "
        "4 core(s) + 16 way(s) + 100% bus"
    )
    decision = lac.admit_request(2, request, STRICT, None, None, now=0.0)
    assert (decision.accepted, decision.reservation) == (False, None)
    assert decision.reason == "no lifetime capacity available"


def _mix1_all_strict():
    """fig5's Mix-1 All-Strict point, run serially in this process."""
    return run_all_configurations("Mix-1", configurations=["All-Strict"])[
        "All-Strict"
    ]


def test_probes_rarely_run_the_window_check(monkeypatch):
    """The uncounted check runs under a tenth as often as the scan's
    windows are counted: the memo answers the rest."""
    calls = []
    fits = LocalAdmissionController._fits

    def counted(self, start, end, request):
        calls.append(start)
        return fits(self, start, end, request)

    monkeypatch.setattr(LocalAdmissionController, "_fits", counted)
    result = _mix1_all_strict()
    assert result.lac_candidate_windows > 1000
    assert 10 * len(calls) < result.lac_candidate_windows


def test_probes_build_targets_only_on_acceptance(monkeypatch):
    built = []
    target_cls = system_module.QoSTarget

    def counted(*args, **kwargs):
        built.append(kwargs)
        return target_cls(*args, **kwargs)

    monkeypatch.setattr(system_module, "QoSTarget", counted)
    result = _mix1_all_strict()
    assert len(result.jobs) == 10
    assert result.lac_admission_tests > 100
    assert len(built) == len(result.jobs)
