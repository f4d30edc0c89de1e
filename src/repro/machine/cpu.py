"""The simulated CPU: execution contexts, clock, and statistics.

A *context* captures what real hardware holds in registers while a
compartment executes: the active address space (CR3 / EPT pointer), the
PKRU value, and the *domain profile* — the software-hardening
instrumentation compiled into the code currently running.  Gates push a
context on entry to a foreign compartment and pop it on return, exactly
like a domain switch.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from repro.machine.cycles import DEFAULT_COST_MODEL, CostModel
from repro.machine.faults import ProtectionFault
from repro.machine.mpk import pkru_all_access
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.machine.address_space import AddressSpace


@dataclasses.dataclass
class DomainProfile:
    """Instrumentation profile of the code executing in a domain.

    Built at image-build time from the compartment's software-hardening
    configuration.  The machine consults the current context's profile
    on every access:

    - ``load_factor`` / ``store_factor`` scale memory-op cost (ASAN,
      DFI, UBSAN instrumentation overhead);
    - ``monitors`` are callbacks (``monitor(machine, kind, vaddr,
      size)`` with ``kind`` in {"load", "store"}) that can detect
      violations (ASAN redzones) and charge flat check costs.
    """

    name: str = "default"
    load_factor: float = 1.0
    store_factor: float = 1.0
    monitors: list[Callable[["object", str, int, int], None]] = dataclasses.field(
        default_factory=list
    )
    #: Flat extra cost charged per function call made by this domain
    #: (stack protector canaries, SafeStack bookkeeping).
    call_extra_ns: float = 0.0
    #: Callbacks invoked on every outgoing cross-library call:
    #: ``monitor(caller_lib, callee_lib, fn_name)`` — CFI target checks.
    call_monitors: list[Callable[[str, str, str], None]] = dataclasses.field(
        default_factory=list
    )


#: Profile used before any image is built (uninstrumented).
NEUTRAL_PROFILE = DomainProfile()


@dataclasses.dataclass
class Context:
    """One execution context (protection-domain view of the CPU)."""

    address_space: "AddressSpace"
    pkru: int = dataclasses.field(default_factory=pkru_all_access)
    profile: DomainProfile = dataclasses.field(default_factory=lambda: NEUTRAL_PROFILE)
    label: str = ""
    #: Capability set (CHERI-style backends).  When present, accesses
    #: are checked against capabilities *instead of* protection keys.
    capabilities: object | None = None


class CPU:
    """Simulated CPU: context stack, nanosecond clock, and counters.

    The clock only moves via :meth:`charge`; determinism is total.  The
    ``charging`` flag lets the harness perform setup work (loading a
    workload into NIC rings, seeding datasets) without billing the
    measured server.
    """

    def __init__(self, cost: CostModel | None = None) -> None:
        self.cost = cost if cost is not None else DEFAULT_COST_MODEL
        self._clock_ns: float = 0.0
        self.charging: bool = True
        self._contexts: list[Context] = []
        # Deferred accounting (the machine's load/store path): memory ops
        # accumulate their clock and counter deltas into these plain
        # attributes instead of going through charge()/bump() per op.
        # The pending clock is folded in by every charge (which adds
        # ``(clock + pending) + ns``, exactly what a flush followed by
        # the add produces) and by every context change; the counter
        # deltas are integer-valued floats, so addition order cannot
        # change their value and they fold lazily, at counter reads.
        self._pending_ns: float = 0.0
        self._pend_loads: float = 0.0
        self._pend_load_bytes: float = 0.0
        self._pend_stores: float = 0.0
        self._pend_store_bytes: float = 0.0
        #: All metrics of this CPU (counters, histograms, gate edges).
        self.metrics = MetricsRegistry()
        # Reading any counter through the registry API must first fold
        # in the pending memory-op deltas (see flush_accounting).
        self.metrics._pre_read = self.flush_accounting
        #: Span tracer, attached by :class:`repro.obs.Observability`
        #: (None only for a bare CPU constructed outside a Machine).
        self.tracer = None
        #: When True, every charge is also attributed to the profile
        #: (≈ compartment) of the executing context — a simulated-time
        #: profiler.  Off by default (it taxes every charge).
        self.attribute_time: bool = False
        #: Accumulated simulated ns per domain-profile name.
        self._domain_time_ns: dict[str, float] = {}
        # PKRU sealing: WRPKRU is unprivileged on real hardware, so any
        # compartment could rewrite its own permissions.  FlexOS must
        # police it ("via static analysis, runtime checks or page-table
        # sealing", §3); here only holders of the gate token — the gate
        # implementations — may issue WRPKRU.
        self._gate_token = object()

    # --- deferred accounting ----------------------------------------------

    @property
    def clock_ns(self) -> float:
        """Current simulated time, pending memory-op charges included.

        The flush adds the same single ``_pending_ns`` term to
        ``_clock_ns`` that this property adds on the fly, so reading
        the clock and flushing it produce bit-identical floats.
        """
        return self._clock_ns + self._pending_ns

    @property
    def stats(self) -> dict[str, float]:
        """Legacy flat-counter view — the registry's counter table
        itself (flushed), so ``bump``/``stats`` never diverge."""
        return self.metrics.counter_values()

    @property
    def domain_time_ns(self) -> dict[str, float]:
        """Accumulated simulated ns per domain-profile name (flushed)."""
        self.flush_accounting()
        return self._domain_time_ns

    def flush_accounting(self) -> None:
        """Fold pending memory-op charges into the clock and counters.

        Called at context push/pop/swap while a charge is pending (so
        attribution lands on the accruing context), at counter/snapshot
        reads, and at scheduler switches.  Idempotent and cheap when
        nothing is pending.
        """
        pending = self._pending_ns
        if pending:
            self._pending_ns = 0.0
            self._clock_ns += pending
            if self.attribute_time and self._contexts:
                name = self._contexts[-1].profile.name
                self._domain_time_ns[name] = (
                    self._domain_time_ns.get(name, 0.0) + pending
                )
        if self._pend_loads:
            counters = self.metrics.counters
            counters["loads"] = counters.get("loads", 0.0) + self._pend_loads
            counters["load_bytes"] = (
                counters.get("load_bytes", 0.0) + self._pend_load_bytes
            )
            self._pend_loads = 0.0
            self._pend_load_bytes = 0.0
        if self._pend_stores:
            counters = self.metrics.counters
            counters["stores"] = counters.get("stores", 0.0) + self._pend_stores
            counters["store_bytes"] = (
                counters.get("store_bytes", 0.0) + self._pend_store_bytes
            )
            self._pend_stores = 0.0
            self._pend_store_bytes = 0.0

    # --- context management ----------------------------------------------

    @property
    def current(self) -> Context:
        """The active execution context."""
        if not self._contexts:
            raise RuntimeError("no execution context active")
        return self._contexts[-1]

    @property
    def has_context(self) -> bool:
        """True if at least one context is active."""
        return bool(self._contexts)

    def push_context(self, context: Context) -> None:
        """Enter a protection domain (gate entry, boot)."""
        if self._pending_ns:
            self.flush_accounting()
        self._contexts.append(context)

    def pop_context(self) -> Context:
        """Leave the current protection domain (gate return)."""
        if not self._contexts:
            raise RuntimeError("context stack underflow")
        if self._pending_ns:
            self.flush_accounting()
        return self._contexts.pop()

    @property
    def context_depth(self) -> int:
        """Current nesting depth of domain crossings."""
        return len(self._contexts)

    def swap_context_stack(self, new_stack: list[Context]) -> list[Context]:
        """Replace the whole context stack; returns the previous one.

        Used by the cooperative scheduler on a thread switch: a blocked
        thread may be suspended deep inside a chain of gate crossings,
        so its entire stack of protection-domain contexts is saved and
        restored wholesale — the simulated analogue of saving PKRU and
        the stack pointer in the thread control block (which is exactly
        why the paper requires the scheduler to be trusted under MPK).
        """
        self.flush_accounting()
        old = self._contexts
        self._contexts = new_stack
        return old

    # --- PKRU sealing -----------------------------------------------------------

    def gate_token(self) -> object:
        """The WRPKRU authorisation token.

        Only gate implementations (trusted, generated by the builder)
        may hold this; library code obtaining it would be the
        equivalent of smuggling a raw WRPKRU past the sealing checks.
        """
        return self._gate_token

    def wrpkru(self, value: int, token: object | None = None) -> None:
        """Execute a (sealed) WRPKRU: set the current context's PKRU.

        Raises :class:`ProtectionFault` for any caller not presenting
        the gate token — the simulated analogue of ERIM's binary
        inspection / Hodor's runtime checks rejecting rogue WRPKRU
        occurrences (see also "PKU Pitfalls", cited by the paper).
        """
        self.charge(self.cost.wrpkru_ns)
        self.bump("wrpkru")
        tracer = self.tracer
        if tracer is not None and tracer.recording:
            tracer.wrpkru(value)
        if token is not self._gate_token:
            raise ProtectionFault(
                0,
                "write",
                None,
                "unauthorized WRPKRU blocked by PKRU sealing",
            )
        self.current.pkru = value

    # --- accounting -------------------------------------------------------

    def charge(self, ns: float) -> None:
        """Advance the clock by ``ns`` simulated nanoseconds.

        Folds the pending memory-op time first: ``(clock + pending) +
        ns`` is the float a flush followed by the add produces, and
        ``x + 0.0 == x``, so nothing pending costs no branch.
        """
        if self.charging:
            pending = self._pending_ns
            self._clock_ns = self._clock_ns + pending + ns
            self._pending_ns = 0.0
            if self.attribute_time and self._contexts:
                name = self._contexts[-1].profile.name
                domain = self._domain_time_ns
                domain[name] = domain.get(name, 0.0) + pending + ns

    def _attribute(self, pending: float, charges: tuple) -> None:
        """Attribute a fold to the current context's profile: pending
        time plus ``charges``, in order (no entry for an empty fold).

        The crossing plans fold their charge sequences in line and call
        this while ``attribute_time`` is on.
        """
        if self._contexts and (pending or charges):
            name = self._contexts[-1].profile.name
            domain = self._domain_time_ns
            total = domain.get(name, 0.0) + pending
            for ns in charges:
                total += ns
            domain[name] = total

    def charge_mem(self, ns: float, op: str, size: int) -> None:
        """Deferred-accounting charge for one memory op.

        Accumulates the clock delta and the loads/stores counters into
        the pending accumulators instead of the registry; they are
        folded in by :meth:`flush_accounting` at the next observation
        point.
        """
        if self.charging:
            self._pending_ns += ns
        if op == "load":
            self._pend_loads += 1.0
            self._pend_load_bytes += size
        else:
            self._pend_stores += 1.0
            self._pend_store_bytes += size

    def bump(self, counter: str, amount: float = 1.0) -> None:
        """Increment a named statistics counter (via the registry)."""
        self.metrics.inc(counter, amount)

    def reset_stats(self) -> None:
        """Clear all counters (the clock is left untouched)."""
        self.flush_accounting()
        self.metrics.counters.clear()

    def snapshot(self) -> dict[str, float]:
        """Copy of the counters plus the current clock."""
        snap = dict(self.stats)
        snap["clock_ns"] = self.clock_ns
        return snap
