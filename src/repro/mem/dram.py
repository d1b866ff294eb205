"""Fixed-latency DRAM model.

The machine model (Section 6 of the paper) uses a 4 GB main memory with
a 300-cycle access latency.  Bandwidth contention is layered on top by
:mod:`repro.mem.bandwidth`; this module provides the un-contended
latency plus accounting of reads and write-backs so the bandwidth model
can compute bus utilisation.
"""

from __future__ import annotations

from repro.util.validation import check_non_negative, check_positive


class DramModel:
    """Main memory with a constant access latency and traffic counters."""

    def __init__(
        self,
        *,
        latency_cycles: float = 300.0,
        size_bytes: int = 4 * 1024**3,
    ) -> None:
        check_non_negative("latency_cycles", latency_cycles)
        check_positive("size_bytes", size_bytes)
        self.latency_cycles = latency_cycles
        self.size_bytes = size_bytes
        self.reads = 0
        self.writebacks = 0
        # Fault injection: extra cycles added to every access while a
        # degradation window is active (e.g. a rank operating in a
        # reduced-power or error-retry state).  Zero by default, so
        # fault-free runs are byte-identical to the pre-fault model.
        self._latency_penalty_cycles = 0.0
        self.degraded_accesses = 0

    # -- fault injection --------------------------------------------------------

    @property
    def effective_latency_cycles(self) -> float:
        """Access latency including any active fault penalty."""
        return self.latency_cycles + self._latency_penalty_cycles

    @property
    def is_degraded(self) -> bool:
        """Whether a latency-degradation window is currently active."""
        return self._latency_penalty_cycles > 0.0

    def apply_latency_penalty(self, extra_cycles: float) -> None:
        """Start a degradation window adding ``extra_cycles`` per access."""
        check_non_negative("extra_cycles", extra_cycles)
        self._latency_penalty_cycles += extra_cycles

    def clear_latency_penalty(self) -> None:
        """End all degradation windows, restoring the nominal latency."""
        self._latency_penalty_cycles = 0.0

    def access(self, address: int) -> float:
        """Service one read (L2 miss fill); return its latency in cycles.

        Addresses beyond the memory size indicate a broken workload
        generator, so they fail loudly rather than wrapping silently.
        """
        if not 0 <= address < self.size_bytes:
            raise ValueError(
                f"address {address:#x} outside the {self.size_bytes}-byte "
                "main memory"
            )
        self.reads += 1
        if self._latency_penalty_cycles > 0.0:
            self.degraded_accesses += 1
            return self.effective_latency_cycles
        return self.latency_cycles

    def record_writeback(self) -> None:
        """Account one dirty-victim write-back (bandwidth only)."""
        self.writebacks += 1

    @property
    def total_transfers(self) -> int:
        """Reads plus write-backs — the unit of bus traffic."""
        return self.reads + self.writebacks

    def traffic_bytes(self, block_bytes: int) -> int:
        """Total bytes moved over the memory bus so far."""
        check_positive("block_bytes", block_bytes)
        return self.total_transfers * block_bytes

    def reset_counters(self) -> None:
        """Zero the traffic counters (e.g. between measurement intervals)."""
        self.reads = 0
        self.writebacks = 0
