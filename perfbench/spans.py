"""In-memory span recorder wrapped around a program's public entry points.

A span is ``(name, start, end, parent)``.  Spans live in flat arrays so
that hundreds of thousands of them stay small in memory; they are
written out only when the run ends (:meth:`SpanRecorder.dump`).

A span name is ``<layer>.<entry point>``.  A layer's *self time* is the
duration of its spans minus the part covered by their child spans, so
nested calls are never counted twice and the self times of all spans in
an interval sum to the time that interval spent inside any layer.

A wrapped call costs its caller some tracer work outside the callee's
clock pair (the bookkeeping before and after it).  That work lands in
the parent span, so :meth:`SpanRecorder.calibrate` times it on an empty
call and :meth:`SpanRecorder.summarise` takes it off each parent's self
time, once per child span.

The recorder patches attributes in place and :meth:`SpanRecorder.remove`
puts every original back, so the program runs untouched outside the
traced region.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the part before the first dot)."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Records nested spans and outcome counters for wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        #: Outcome counts reported by ``on_result`` hooks.
        self.counters: Counter = Counter()

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. an import)."""
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(start)
        self.ends.append(end)

    # -- installing and removing wrappers ---------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(counters, result, args)`` runs after a successful
        call, to count outcomes (accepted admissions, transfers, ...).
        """
        owned = attr in vars(owner)
        func = vars(owner)[attr] if owned else getattr(owner, attr)
        name_id = self._name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock, counters = self.clock, self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counters, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, func, owned))

    def remove(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ---------------------------------------------------------

    def calibrate(self, calls: int = 20000, repeats: int = 9) -> float:
        """Tracer time one wrapped call adds to its parent's self time.

        Times a loop of ``calls`` empty calls bare, then with the loop and
        the callee both wrapped, and takes the parent's extra self time
        per call.  Bare and wrapped loops alternate, so each pair sees
        the host at the same speed; the result is the median over
        ``repeats`` pairs.  Spans of the calibration go to a scratch
        recorder, not to this one.
        """

        class Probe:
            def parent(self, n):
                child = self.child
                for _ in range(n):
                    child()

            def child(self):
                pass

        probe = Probe()
        clock = self.clock
        scratch = SpanRecorder(clock)
        costs = []
        for _ in range(repeats):
            start = clock()
            probe.parent(calls)
            bare = clock() - start
            first = len(scratch)
            scratch.wrap(Probe, "parent", "probe.parent")
            scratch.wrap(Probe, "child", "child.call")
            try:
                probe.parent(calls)
            finally:
                scratch.remove()
            parent_self = scratch.summarise(first)["self_s"]["probe"]
            costs.append((parent_self - bare) / calls)
        return max(0.0, statistics.median(costs))

    def summarise(
        self,
        first: int = 0,
        last: Optional[int] = None,
        child_cost: float = 0.0,
    ) -> dict:
        """Per-layer self time and entry counts over spans ``[first, last)``.

        ``entries[layer]`` counts spans entered from outside the layer
        (a call a layer makes into itself is part of the outer call), and
        ``entry_s[name]`` sums the full durations of those entry spans.
        ``child_cost`` (from :meth:`calibrate`) is taken off a parent's
        self time for each of its child spans; ``tracer_s`` is the total
        taken off.  ``covered`` is the summed self time of every span in
        the range, which for a range of whole root spans is the time
        spent inside any layer, less ``tracer_s``.
        """
        last = len(self.starts) if last is None else last
        names = self.names
        layers = [layer_of(name) for name in names]
        child_time = array("d", bytes(8 * (last - first)))
        children = 0
        for index in range(first, last):
            parent = self.parents[index]
            if parent >= first:
                children += 1
                child_time[parent - first] += (
                    self.ends[index] - self.starts[index] + child_cost
                )
        self_time: Counter = Counter()
        entries: Counter = Counter()
        entry_time: Counter = Counter()
        span_self: Counter = Counter()
        for index in range(first, last):
            name_id = self.name_ids[index]
            layer = layers[name_id]
            duration = self.ends[index] - self.starts[index]
            own = duration - child_time[index - first]
            self_time[layer] += own
            span_self[names[name_id]] += own
            parent = self.parents[index]
            if parent < first or layers[self.name_ids[parent]] != layer:
                entries[layer] += 1
                entry_time[names[name_id]] += duration
        return {
            "self_s": dict(self_time),
            "entries": dict(entries),
            "entry_s": dict(entry_time),
            "span_self_s": dict(span_self),
            "covered": sum(self_time.values()),
            "tracer_s": children * child_cost,
        }

    def dump(self, path) -> int:
        """Write every span to ``path``; return the span count.

        A traced batch holds up to a few million spans, so the format is
        one JSON header line (names, span count, column layout) followed
        by each column's raw native-endian bytes, in header order.
        Span ``i`` is ``(names[name_ids[i]], starts[i], ends[i],
        parents[i])``, with parent ``-1`` for a root span.
        """
        header = {
            "names": self.names,
            "count": len(self.starts),
            "columns": [[column, getattr(self, column).typecode]
                        for column in _COLUMNS],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in _COLUMNS:
                getattr(self, column).tofile(handle)
        return len(self.starts)

    @classmethod
    def load(cls, path) -> "SpanRecorder":
        """Read back a file written by :meth:`dump`."""
        recorder = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for name in header["names"]:
                recorder._name_id(name)
            for column, typecode in header["columns"]:
                values = array(typecode)
                values.fromfile(handle, header["count"])
                setattr(recorder, column, values)
        return recorder


_COLUMNS = ("name_ids", "starts", "ends", "parents")
