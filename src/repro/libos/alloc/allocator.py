"""A first-fit free-list heap allocator over a simulated memory region.

Block metadata lives host-side (Python dictionaries) — storing headers
inside simulated memory would only slow the simulation without changing
any behaviour the evaluation exercises — but every allocation is a real
region of simulated memory, subject to pkeys and monitors, and each
malloc/free charges the cost model.

Software hardening wraps instances of this class (see
:class:`repro.sh.asan.AsanAllocator`) to add redzones and quarantine,
which is why FlexOS needs *per-compartment* allocators when only a
subset of compartments is hardened (paper, §3 "SH Support").
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

from repro.machine.faults import OutOfMemoryError

if TYPE_CHECKING:
    from repro.machine.machine import Machine


class AllocationError(OutOfMemoryError):
    """Heap exhaustion or invalid free."""


#: All user allocations are rounded up to this alignment.
ALIGNMENT = 16


def _round_up(size: int) -> int:
    return (size + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


class HeapAllocator:
    """First-fit allocator with coalescing free list.

    Attributes:
        name: diagnostic name ("heap:netstack", "heap:shared", ...).
        base, size: the simulated region served.
    """

    def __init__(self, name: str, machine: "Machine", base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("heap size must be positive")
        self.name = name
        self.machine = machine
        self.base = base
        self.size = size
        # Sorted list of free block start addresses + parallel size map.
        self._free_starts: list[int] = [base]
        self._free_sizes: dict[int, int] = {base: size}
        self._live: dict[int, int] = {}
        self.total_allocs = 0
        self.total_frees = 0
        # Size distribution of this heap's allocations (metrics layer).
        self._size_hist = machine.cpu.metrics.histogram(f"alloc.bytes:{name}")

    # --- allocation -------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the block address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        cpu = self.machine.cpu
        start_ns = cpu.clock_ns
        cpu.charge(self.machine.cost.alloc_ns)
        cpu.bump(f"malloc:{self.name}")
        injector = self.machine.injector
        if injector is not None:
            # Resilience harness: may raise InjectedFault to model
            # exhaustion of this heap (site "alloc-exhaustion").
            injector.on_malloc(self, size)
        need = _round_up(size)
        self._size_hist.observe(need)
        for index, start in enumerate(self._free_starts):
            avail = self._free_sizes[start]
            if avail < need:
                continue
            del self._free_sizes[start]
            self._free_starts.pop(index)
            if avail > need:
                rest = start + need
                self._free_sizes[rest] = avail - need
                bisect.insort(self._free_starts, rest)
            self._live[start] = need
            self.total_allocs += 1
            tracer = self.machine.obs.tracer
            if tracer.recording:
                tracer.complete(
                    "malloc", "alloc", start_ns, heap=self.name, bytes=need
                )
            return start
        raise AllocationError(f"{self.name}: out of heap ({size} bytes requested)")

    def free(self, addr: int) -> None:
        """Release a previously allocated block."""
        cpu = self.machine.cpu
        start_ns = cpu.clock_ns
        cpu.charge(self.machine.cost.free_ns)
        size = self._live.pop(addr, None)
        if size is None:
            raise AllocationError(f"{self.name}: invalid free of {addr:#x}")
        self.total_frees += 1
        self._insert_free(addr, size)
        tracer = self.machine.obs.tracer
        if tracer.recording:
            tracer.complete("free", "alloc", start_ns, heap=self.name, bytes=size)

    def _insert_free(self, addr: int, size: int) -> None:
        """Insert a free block, coalescing with neighbours."""
        index = bisect.bisect_left(self._free_starts, addr)
        # Coalesce with successor.
        if index < len(self._free_starts):
            nxt = self._free_starts[index]
            if addr + size == nxt:
                size += self._free_sizes.pop(nxt)
                self._free_starts.pop(index)
        # Coalesce with predecessor.
        if index > 0:
            prev = self._free_starts[index - 1]
            if prev + self._free_sizes[prev] == addr:
                self._free_sizes[prev] += size
                return
        self._free_sizes[addr] = size
        bisect.insort(self._free_starts, addr)

    # --- introspection -----------------------------------------------------

    def owns(self, addr: int) -> bool:
        """True if ``addr`` is the start of a live allocation."""
        return addr in self._live

    def block_size(self, addr: int) -> int:
        """Size of the live block at ``addr``."""
        try:
            return self._live[addr]
        except KeyError:
            raise AllocationError(f"{self.name}: {addr:#x} is not live") from None

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside this heap's region."""
        return self.base <= addr < self.base + self.size

    @property
    def bytes_in_use(self) -> int:
        """Total bytes currently allocated."""
        return sum(self._live.values())

    @property
    def bytes_free(self) -> int:
        """Total bytes currently free."""
        return sum(self._free_sizes.values())

    @property
    def live_blocks(self) -> int:
        """Number of live allocations."""
        return len(self._live)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HeapAllocator({self.name!r}, in_use={self.bytes_in_use}, "
            f"free={self.bytes_free})"
        )
