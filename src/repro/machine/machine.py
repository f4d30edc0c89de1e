"""The machine facade: every simulated load/store goes through here.

Access path for a load/store (mirrors the hardware + instrumentation
pipeline of the paper's testbed):

1. charge instrumented cost (cost model × the current domain profile's
   load/store factor);
2. run the domain's software-hardening monitors (ASAN shadow checks,
   DFI write-set checks) — these may raise :class:`SHViolation`;
3. a capability (CHERI) context checks the access against its
   capability bounds — on every access, before translation;
4. translate through the current context's address space — unmapped
   pages raise :class:`PageFault` (this is the whole of EPT isolation:
   a foreign VM's private pages simply are not mapped);
5. check page permissions;
6. check the page's protection key against the context's PKRU — a
   mismatch raises :class:`ProtectionFault` (MPK isolation);
   capability contexts skip this check;
7. move the bytes.

Steps 4–6 run once per page and operation: the translation they earn
is cached in the address space's software TLB, keyed by the context's
PKRU value (:data:`CAP_TLB_KEY` for capability contexts), and later
accesses skip them.

Device DMA (:meth:`Machine.dma_read` / :meth:`Machine.dma_write`)
bypasses PKRU — as on real hardware, where MPK does not constrain
devices — and never charges the CPU clock, which lets the workload
harness play the role of the external traffic generator.
"""

from __future__ import annotations

from typing import Iterator

from repro.machine.address_space import AddressSpace, Permissions
from repro.machine.cpu import CPU, Context
from repro.machine.cycles import CostModel
from repro.machine.ept import SharedWindowAllocator, VMDomain
from repro.machine.faults import PageFault, ProtectionFault
from repro.machine.memory import PAGE_SHIFT, PhysicalMemory
from repro.machine.mpk import pkru_readable, pkru_writable
from repro.obs import Observability

_PAGE_MASK = (1 << PAGE_SHIFT) - 1
#: Software-TLB key of a capability context's fills, which skip the
#: PKRU check: PKRU values are non-negative, so no PKRU context can hit
#: them.
CAP_TLB_KEY = -1


class Machine:
    """A simulated host: physical memory, one CPU, address spaces."""

    def __init__(
        self,
        cost: CostModel | None = None,
        phys_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self.phys = PhysicalMemory(phys_bytes)
        self.cpu = CPU(cost)
        #: Software-TLB telemetry.  Deliberately *not* registry
        #: counters: they count host-side caching, not anything
        #: simulated, so ``cpu.snapshot()`` holds simulated quantities
        #: only.
        self.tlb_hits = 0
        self.tlb_misses = 0
        #: Observability: span tracer (disabled by default) + metrics
        #: registry (shared with the CPU).  See :mod:`repro.obs`.
        #: Every channel's :class:`~repro.gates.base.CrossingPlan` (the
        #: one description of its crossing) registers in ``obs.plans``;
        #: their ``hits`` and ``refreshes`` are host-side telemetry only
        #: (kept out of the registry like the TLB counters above).
        self.obs = Observability(self.cpu)
        self.spaces: dict[str, AddressSpace] = {}
        self.vm_domains: dict[str, VMDomain] = {}
        self._shared_windows = SharedWindowAllocator(self.phys)
        #: Resilience fault injector (:mod:`repro.resilience`), or None.
        #: Hook sites (gate crossings, allocators, the scheduler, VM
        #: notifications) consult it only when armed; the common path
        #: pays a single attribute check.
        self.injector = None
        #: Group-scoped shared heap registry (see
        #: :mod:`repro.libos.alloc.groupheap`); installed by the builder
        #: or lazily by the first queue channel that needs ring memory.
        self.group_heaps = None

    @property
    def cost(self) -> CostModel:
        """The active cost model."""
        return self.cpu.cost

    # --- topology ---------------------------------------------------------

    def new_address_space(self, name: str) -> AddressSpace:
        """Create a named address space (MPK backend uses exactly one)."""
        if name in self.spaces:
            raise ValueError(f"address space {name!r} already exists")
        space = AddressSpace(name, self.phys)
        self.spaces[name] = space
        return space

    def new_vm_domain(self, name: str) -> VMDomain:
        """Create a VM domain (EPT backend: one per compartment)."""
        if name in self.vm_domains:
            raise ValueError(f"VM domain {name!r} already exists")
        domain = VMDomain(len(self.vm_domains), name, self.phys)
        self.vm_domains[name] = domain
        self.spaces[domain.space.name] = domain.space
        return domain

    def map_shared_window(
        self,
        domains: list[VMDomain],
        size: int,
        perms: Permissions = Permissions.RW,
    ) -> int:
        """Map a shared window at identical VAs into all given VMs."""
        return self._shared_windows.map_shared(domains, size, perms)

    # --- checked access -----------------------------------------------------

    def _tlb_fill(
        self, space: AddressSpace, context: Context, vaddr: int, op: str, key: int
    ) -> int:
        """Software-TLB miss: page-table lookup + checks, then cache.

        Checks the page's mapping and permissions and, unless ``key`` is
        :data:`CAP_TLB_KEY`, its protection key against the PKRU value
        ``key``; then records the earned translation under ``(vpn, op,
        key)``.  A capability context's bounds were already checked
        for the whole access, and a capability context is not subject
        to PKRU, so its fills skip that check and live under a key no
        PKRU value can take.
        """
        vpn = vaddr >> PAGE_SHIFT
        entry = space._pages.get(vpn)
        if entry is None:
            raise PageFault(vaddr, "access", f"not mapped in {space.name}")
        if op == "read":
            if not entry.perms & Permissions.READ:
                raise PageFault(vaddr, "read", "page not readable")
            if key != CAP_TLB_KEY and not pkru_readable(key, entry.pkey):
                raise ProtectionFault(vaddr, "read", entry.pkey, context.label)
        else:
            if not entry.perms & Permissions.WRITE:
                raise PageFault(vaddr, "write", "page not writable")
            if key != CAP_TLB_KEY and not pkru_writable(key, entry.pkey):
                raise ProtectionFault(vaddr, "write", entry.pkey, context.label)
        self.tlb_misses += 1
        space._access_cache[(vpn, op, key)] = entry.frame
        return entry.frame

    def _run(
        self,
        space: AddressSpace,
        context: Context,
        vaddr: int,
        size: int,
        range_key: tuple[int, int, str, int],
    ) -> Iterator[tuple[int, int, int]]:
        """Range-cache miss: yield ``(paddr, offset, length)`` for each
        page of the multi-page access ``range_key`` (``(vpn, npages, op,
        key)``), translating each page only when asked for it.

        Pages are translated in order, so a store that faults mid-run
        has written exactly the pages before the fault.  A run whose
        pages all passed and whose frames are physically contiguous
        enters the range cache.
        """
        _, _, op, key = range_key
        cache = space._access_cache
        first_frame = None
        next_frame = None
        offset = 0
        while offset < size:
            va = vaddr + offset
            vpn = va >> PAGE_SHIFT
            chunk = min(size - offset, ((vpn + 1) << PAGE_SHIFT) - va)
            frame = cache.get((vpn, op, key))
            if frame is None:
                frame = self._tlb_fill(space, context, va, op, key)
            else:
                self.tlb_hits += 1
            if first_frame is None:
                first_frame = frame
            elif frame != next_frame:
                first_frame = -1  # run is not physically contiguous
            next_frame = frame + 1
            yield (frame << PAGE_SHIFT) | (va & _PAGE_MASK), offset, chunk
            offset += chunk
        if first_frame >= 0:
            space._range_cache[range_key] = first_frame << PAGE_SHIFT

    def load(self, vaddr: int, size: int) -> bytes:
        """Checked read of ``size`` bytes by the current context."""
        cpu = self.cpu
        context = cpu.current
        profile = context.profile
        cpu.charge_mem(
            (cpu.cost.mem_op_ns + size * cpu.cost.mem_byte_ns) * profile.load_factor,
            "load",
            size,
        )
        if profile.monitors:
            for monitor in profile.monitors:
                monitor(self, "load", vaddr, size)
        if context.capabilities is None:
            key = context.pkru
        else:
            cpu.charge(cpu.cost.cheri_check_ns)
            context.capabilities.check(vaddr, size, "load")
            key = CAP_TLB_KEY
        if size <= 0:
            if size < 0:
                raise ValueError("size must be non-negative")
            return b""
        space = context.address_space
        view = self.phys.view
        vpn = vaddr >> PAGE_SHIFT
        last_vpn = (vaddr + size - 1) >> PAGE_SHIFT
        if last_vpn == vpn:
            # Hot case: the access fits one page — one dict probe, one
            # slice.
            frame = space._access_cache.get((vpn, "read", key))
            if frame is None:
                frame = self._tlb_fill(space, context, vaddr, "read", key)
            else:
                self.tlb_hits += 1
            paddr = (frame << PAGE_SHIFT) | (vaddr & _PAGE_MASK)
            return bytes(view[paddr : paddr + size])
        # Multi-page: a range-cache hit is one probe and one slice.
        range_key = (vpn, last_vpn - vpn + 1, "read", key)
        base_paddr = space._range_cache.get(range_key)
        if base_paddr is not None:
            self.tlb_hits += 1
            paddr = base_paddr | (vaddr & _PAGE_MASK)
            return bytes(view[paddr : paddr + size])
        return b"".join(
            [
                view[paddr : paddr + chunk]
                for paddr, _, chunk in self._run(
                    space, context, vaddr, size, range_key
                )
            ]
        )

    def store(self, vaddr: int, payload: bytes) -> None:
        """Checked write of ``payload`` by the current context."""
        cpu = self.cpu
        context = cpu.current
        profile = context.profile
        size = len(payload)
        cpu.charge_mem(
            (cpu.cost.mem_op_ns + size * cpu.cost.mem_byte_ns) * profile.store_factor,
            "store",
            size,
        )
        if profile.monitors:
            for monitor in profile.monitors:
                monitor(self, "store", vaddr, size)
        if context.capabilities is None:
            key = context.pkru
        else:
            cpu.charge(cpu.cost.cheri_check_ns)
            context.capabilities.check(vaddr, size, "store")
            key = CAP_TLB_KEY
        if not size:
            return
        space = context.address_space
        data = self.phys.data
        vpn = vaddr >> PAGE_SHIFT
        last_vpn = (vaddr + size - 1) >> PAGE_SHIFT
        if last_vpn == vpn:
            frame = space._access_cache.get((vpn, "write", key))
            if frame is None:
                frame = self._tlb_fill(space, context, vaddr, "write", key)
            else:
                self.tlb_hits += 1
            paddr = (frame << PAGE_SHIFT) | (vaddr & _PAGE_MASK)
            data[paddr : paddr + size] = payload
            return
        # Multi-page: a range-cache hit means every page of the run
        # already passed its checks — the whole store is one slice.
        range_key = (vpn, last_vpn - vpn + 1, "write", key)
        base_paddr = space._range_cache.get(range_key)
        if base_paddr is not None:
            self.tlb_hits += 1
            paddr = base_paddr | (vaddr & _PAGE_MASK)
            data[paddr : paddr + size] = payload
            return
        for paddr, offset, chunk in self._run(space, context, vaddr, size, range_key):
            data[paddr : paddr + chunk] = payload[offset : offset + chunk]

    def copy(self, dst: int, src: int, size: int) -> None:
        """Checked memory-to-memory copy (one load + one store)."""
        self.store(dst, self.load(src, size))

    def fill(self, vaddr: int, value: int, size: int) -> None:
        """Checked memset."""
        self.store(vaddr, bytes([value & 0xFF]) * size)

    # --- unchecked / device access ---------------------------------------------

    def _dma_frame(self, space: AddressSpace, vaddr: int) -> int:
        """Translation-cache miss for device DMA (no permission checks)."""
        vpn = vaddr >> PAGE_SHIFT
        entry = space._pages.get(vpn)
        if entry is None:
            raise PageFault(vaddr, "access", f"not mapped in {space.name}")
        space._frame_cache[vpn] = entry.frame
        return entry.frame

    def dma_write(self, space: AddressSpace, vaddr: int, payload: bytes) -> None:
        """Device write: translates via ``space``, bypasses PKRU and cost."""
        cache = space._frame_cache
        data = self.phys.data
        offset = 0
        va = vaddr
        end = vaddr + len(payload)
        while va < end:
            vpn = va >> PAGE_SHIFT
            chunk = min(end, (vpn + 1) << PAGE_SHIFT) - va
            frame = cache.get(vpn)
            if frame is None:
                frame = self._dma_frame(space, va)
            paddr = (frame << PAGE_SHIFT) | (va & _PAGE_MASK)
            data[paddr : paddr + chunk] = payload[offset : offset + chunk]
            offset += chunk
            va += chunk

    def dma_read(self, space: AddressSpace, vaddr: int, size: int) -> bytes:
        """Device read: translates via ``space``, bypasses PKRU and cost."""
        if size < 0:
            raise ValueError("size must be non-negative")
        cache = space._frame_cache
        view = self.phys.view
        chunks = []
        va = vaddr
        end = vaddr + size
        while va < end:
            vpn = va >> PAGE_SHIFT
            chunk = min(end, (vpn + 1) << PAGE_SHIFT) - va
            frame = cache.get(vpn)
            if frame is None:
                frame = self._dma_frame(space, va)
            paddr = (frame << PAGE_SHIFT) | (va & _PAGE_MASK)
            chunks.append(view[paddr : paddr + chunk])
            va += chunk
        if len(chunks) == 1:
            return bytes(chunks[0])
        return b"".join(chunks)

    # --- telemetry ---------------------------------------------------------

    def fastpath_stats(self) -> dict:
        """Software-TLB and crossing-plan telemetry (host-side; never
        charged, never in the metrics registry — see note in
        ``__init__``)."""
        return {
            "tlb_hits": self.tlb_hits,
            "tlb_misses": self.tlb_misses,
            "tlb_invalidations": sum(
                space.tlb_invalidations for space in self.spaces.values()
            ),
            "gateplan": {
                "plans": len(self.obs.plans),
                "plan_hits": sum(plan.hits for plan in self.obs.plans),
                "plan_refreshes": sum(
                    plan.refreshes for plan in self.obs.plans
                ),
            },
        }

    # --- context helpers --------------------------------------------------------

    def boot_context(self, space: AddressSpace, label: str = "boot") -> Context:
        """Push and return an all-access context on ``space``."""
        context = Context(address_space=space, label=label)
        self.cpu.push_context(context)
        return context
