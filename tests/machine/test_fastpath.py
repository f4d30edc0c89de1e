"""Golden suite for the machine's access path: randomized traces, DMA,
edge cases, iperf images and the load/store microbenchmark.

Every load/store translates through the software TLB.  Randomized
traces of map/unmap/protect/pkey/wrpkru/load/store operations run on a
machine with a neutral, an ASAN-like, a DFI-like or a capability
context.  Every per-op outcome (value or fault), the simulated clock,
every counter and the full physical memory image are compared with
``machine_golden.json``, which was recorded from the software-TLB path
and the per-page reference walk it replaced, after both were checked to
agree.  The same fixture pins device DMA, the edge
cases of an access (size 0, negative sizes, a multi-page store that
faults mid-run), fig3-style iperf under six isolation profiles and the
observables of the load/store microbenchmark per access size.

Regenerate (only for an intended change to memory-access
accounting)::

    PYTHONPATH=src python tests/machine/test_fastpath.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_iperf
from repro.machine.address_space import Permissions
from repro.machine.capabilities import CapabilitySet
from repro.machine.cpu import Context, DomainProfile
from repro.machine.faults import PageFault, ProtectionFault, SHViolation
from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SIZE
from repro.machine.mpk import pkru_all_access, pkru_for_keys

GOLDEN = pathlib.Path(__file__).with_name("machine_golden.json")
#: Window of fixed-placement test pages (clear of the reserve bump).
BASE = 0x2000_0000
NUM_PAGES = 8
PERM_CHOICES = (
    Permissions.NONE,
    Permissions.READ,
    Permissions.RW,
)
PKEY_CHOICES = (0, 1, 2, 3)


def _build(profile: DomainProfile | None = None, caps=None):
    machine = Machine()
    space = machine.new_address_space("main")
    context = machine.boot_context(space, label="test")
    if profile is not None:
        context.profile = profile
    if caps is not None:
        context.capabilities = caps
    return machine, space, context


def _page_va(page: int) -> int:
    return BASE + page * PAGE_SIZE


def _random_trace(rng: random.Random, ops: int) -> list[tuple]:
    """A seeded operation trace, independent of any machine state."""
    trace = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.10:
            trace.append(
                (
                    "map",
                    rng.randrange(NUM_PAGES),
                    rng.choice(PERM_CHOICES),
                    rng.choice(PKEY_CHOICES),
                )
            )
        elif roll < 0.16:
            trace.append(("unmap", rng.randrange(NUM_PAGES)))
        elif roll < 0.26:
            trace.append(
                (
                    "protect",
                    rng.randrange(NUM_PAGES),
                    rng.choice(PERM_CHOICES + (None,)),
                    rng.choice(PKEY_CHOICES + (None,)),
                )
            )
        elif roll < 0.34:
            # PKRU change: sealed WRPKRU half the time, direct register
            # mutation (≈ a context switch restoring saved PKRU) the
            # other half.
            keys = tuple(
                key for key in PKEY_CHOICES if rng.random() < 0.7
            )
            trace.append(
                (
                    "pkru",
                    rng.random() < 0.5,
                    pkru_for_keys(writable=keys)
                    if keys
                    else pkru_all_access(),
                )
            )
        else:
            page = rng.randrange(NUM_PAGES)
            offset = rng.choice((0, 1, 7, PAGE_SIZE - 3, PAGE_SIZE - 1))
            # Bulk sizes (3+ pages) exercise the range cache, including
            # runs with non-contiguous frames (remapped pages) and
            # faults in the middle of a run.
            size = rng.choice(
                (0, 1, 8, 64, PAGE_SIZE, PAGE_SIZE + 17,
                 3 * PAGE_SIZE + 11, 6 * PAGE_SIZE)
            )
            vaddr = _page_va(page) + offset
            if roll < 0.67:
                trace.append(("load", vaddr, size))
            else:
                payload = bytes(
                    rng.getrandbits(8) for _ in range(min(size, 64))
                ) * (1 if size <= 64 else (size // 64 + 1))
                trace.append(("store", vaddr, payload[:size]))
    return trace


def _apply(machine: Machine, space, op: tuple):
    """Run one trace op; normalise the outcome (value or fault)."""
    cpu = machine.cpu
    kind = op[0]
    try:
        if kind == "map":
            _, page, perms, pkey = op
            if space.is_mapped(_page_va(page)):
                return ("noop",)
            space.map_new(PAGE_SIZE, perms, pkey, vaddr=_page_va(page))
            return ("mapped", page)
        if kind == "unmap":
            _, page = op
            if not space.is_mapped(_page_va(page)):
                return ("noop",)
            space.unmap(_page_va(page), PAGE_SIZE)
            return ("unmapped", page)
        if kind == "protect":
            _, page, perms, pkey = op
            if not space.is_mapped(_page_va(page)):
                return ("noop",)
            space.protect(_page_va(page), PAGE_SIZE, perms, pkey)
            return ("protected", page)
        if kind == "pkru":
            _, sealed, value = op
            if sealed:
                cpu.wrpkru(value, cpu.gate_token())
            else:
                cpu.current.pkru = value
            return ("pkru", value)
        if kind == "load":
            _, vaddr, size = op
            return ("bytes", machine.load(vaddr, size))
        if kind == "store":
            _, vaddr, payload = op
            machine.store(vaddr, payload)
            return ("stored", len(payload))
        raise AssertionError(f"unknown op {kind}")
    except (PageFault, ProtectionFault, SHViolation) as exc:
        return ("fault", type(exc).__name__, str(exc))


def _asan_like() -> DomainProfile:
    poisoned = (BASE + 2 * PAGE_SIZE + 100, BASE + 2 * PAGE_SIZE + 120)

    def monitor(machine, kind, vaddr, size):
        machine.cpu.charge(machine.cost.asan_check_ns)
        if vaddr < poisoned[1] and poisoned[0] < vaddr + size:
            raise SHViolation("asan", f"poisoned {kind} at {vaddr:#x}")

    return DomainProfile(
        name="asan-like", load_factor=1.32, store_factor=1.32, monitors=[monitor]
    )


def _dfi_like() -> DomainProfile:
    def monitor(machine, kind, vaddr, size):
        if kind == "store":
            machine.cpu.bump("dfi_checks")

    return DomainProfile(name="dfi-like", store_factor=1.07, monitors=[monitor])


def _caps() -> CapabilitySet:
    # Covers part of the window so some accesses fault on bounds.
    return CapabilitySet("test", [(BASE, BASE + (NUM_PAGES - 2) * PAGE_SIZE)])


#: The randomized cells: (profile factory, capability factory, seeds).
TRACE_CELLS = {
    "neutral": (None, None, range(6)),
    "asan-like": (_asan_like, None, (1, 7)),
    "dfi-like": (_dfi_like, None, (2, 9)),
    "capability": (None, _caps, (3, 11)),
}


def golden(section: str, cell: str):
    return json.loads(GOLDEN.read_text())[section][cell]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def pin_machine(machine: Machine, outcomes) -> dict:
    """A machine's simulated state after a run, in JSON-exact form."""
    return {
        "outcomes": digest(outcomes),
        "clock": machine.cpu.clock_ns.hex(),
        "snapshot": machine.cpu.snapshot(),
        "memory": hashlib.sha256(machine.phys.data[:]).hexdigest(),
        "frames_allocated": machine.phys.frames_allocated,
    }


def run_trace(kind: str, seed: int) -> tuple[dict, Machine]:
    """One seeded randomized trace; returns its pinned state and machine."""
    profile_factory, caps_factory, _ = TRACE_CELLS[kind]
    machine, space, _ = _build(
        profile_factory() if profile_factory else None,
        caps_factory() if caps_factory else None,
    )
    trace = _random_trace(random.Random(seed), 400)
    outcomes = [_apply(machine, space, op) for op in trace]
    return pin_machine(machine, outcomes), machine


def check_trace(kind: str, seed: int) -> Machine:
    """The trace reproduces its golden; returns the machine."""
    state, machine = run_trace(kind, seed)
    assert json.loads(json.dumps(state)) == golden("traces", f"{kind}-{seed}")
    return machine


@pytest.mark.parametrize("seed", TRACE_CELLS["neutral"][2])
def test_differential_neutral_profile(seed):
    stats = check_trace("neutral", seed).fastpath_stats()
    assert stats["tlb_hits"] + stats["tlb_misses"] > 0


@pytest.mark.parametrize("seed", TRACE_CELLS["asan-like"][2])
def test_differential_asan_like_monitor(seed):
    """Monitors (charge + veto) run on every access."""
    check_trace("asan-like", seed)


@pytest.mark.parametrize("seed", TRACE_CELLS["dfi-like"][2])
def test_differential_dfi_like_monitor(seed):
    """Store-only monitors (DFI) see the whole store stream."""
    assert check_trace("dfi-like", seed).cpu.stats.get("dfi_checks")


@pytest.mark.parametrize("seed", TRACE_CELLS["capability"][2])
def test_differential_capability_context(seed):
    """Capability contexts translate through the TLB too."""
    stats = check_trace("capability", seed).fastpath_stats()
    assert stats["tlb_hits"] + stats["tlb_misses"] > 0


def test_protect_revokes_cached_read():
    machine, space, _ = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"x" * 8)
    assert machine.load(vaddr, 8) == b"x" * 8  # populates the cache
    space.protect(vaddr, PAGE_SIZE, Permissions.NONE)
    with pytest.raises(PageFault):
        machine.load(vaddr, 8)
    with pytest.raises(PageFault):
        machine.store(vaddr, b"y")


def test_pkey_change_invalidates_cached_rights():
    machine, space, context = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW, pkey=1)
    context.pkru = pkru_for_keys(writable=(1,))
    machine.store(vaddr, b"ok")
    space.protect(vaddr, PAGE_SIZE, pkey=2)  # now a key this PKRU denies
    with pytest.raises(ProtectionFault):
        machine.load(vaddr, 2)


def test_pkru_switch_needs_no_shootdown():
    """PKRU is part of the cache key: stale rights cannot leak."""
    machine, space, context = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW, pkey=3)
    context.pkru = pkru_for_keys(writable=(3,))
    machine.store(vaddr, b"hot")  # cached under the permissive PKRU
    context.pkru = pkru_for_keys(writable=(0,))  # "context switch"
    with pytest.raises(ProtectionFault):
        machine.load(vaddr, 3)
    context.pkru = pkru_for_keys(writable=(3,))
    assert machine.load(vaddr, 3) == b"hot"


def _cap_world(pkru: int):
    """A capability context whose capability covers the first half of
    one mapped page (pkey 3)."""
    caps = CapabilitySet("cap", [(BASE, BASE + PAGE_SIZE // 2)])
    machine, space, context = _build(caps=caps)
    context.pkru = pkru
    space.map_new(PAGE_SIZE, Permissions.RW, pkey=3, vaddr=BASE)
    return machine, space, context


def test_capability_bounds_checked_on_every_tlb_hit():
    """A cached translation never stands in for the bounds check."""
    machine, _, _ = _cap_world(pkru_all_access())
    machine.store(BASE, b"in")  # fills the write translation
    machine.load(BASE, 2)  # fills the read translation
    hits = machine.tlb_hits
    assert machine.load(BASE + 8, 2) == bytes(2)
    machine.store(BASE + 8, b"ok")
    assert machine.tlb_hits == hits + 2  # both served from the TLB
    clock = machine.cpu.clock_ns
    with pytest.raises(ProtectionFault, match="no capability"):
        machine.load(BASE + PAGE_SIZE // 2, 2)
    with pytest.raises(ProtectionFault, match="no capability"):
        machine.store(BASE + PAGE_SIZE - 4, b"out")
    # Each refused access still paid its capability check.
    assert machine.cpu.clock_ns > clock + 2 * machine.cost.cheri_check_ns


def test_capability_fills_never_serve_pkru_lookups():
    """A capability context skips PKRU; its fills are keyed apart, so a
    PKRU context with the same register value still faults."""
    denying = pkru_for_keys(writable=(0,))
    machine, space, _ = _cap_world(denying)
    machine.store(BASE, b"cap")
    assert machine.load(BASE, 3) == b"cap"
    hits = machine.tlb_hits
    assert machine.load(BASE, 3) == b"cap"
    assert machine.tlb_hits == hits + 1  # the capability fill is cached
    machine.cpu.push_context(Context(address_space=space, pkru=denying))
    with pytest.raises(ProtectionFault):
        machine.load(BASE, 3)
    with pytest.raises(ProtectionFault):
        machine.store(BASE, b"pk")
    machine.cpu.pop_context()
    assert machine.load(BASE, 3) == b"cap"


def test_remap_returns_new_frame_contents():
    machine, space, _ = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"old!")
    assert machine.load(vaddr, 4) == b"old!"
    space.unmap(vaddr, PAGE_SIZE)
    with pytest.raises(PageFault):
        machine.load(vaddr, 4)
    new_vaddr = space.map_new(PAGE_SIZE, Permissions.RW, vaddr=vaddr)
    assert new_vaddr == vaddr
    assert machine.load(vaddr, 4) == bytes(4)  # scrubbed fresh frame


def test_tlb_telemetry_counts():
    machine, space, _ = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"a")
    machine.store(vaddr, b"b")
    machine.load(vaddr, 1)
    machine.load(vaddr, 1)
    stats = machine.fastpath_stats()
    assert stats["tlb_misses"] == 2  # one read fill, one write fill
    assert stats["tlb_hits"] == 2
    before = stats["tlb_invalidations"]
    space.protect(vaddr, PAGE_SIZE, Permissions.READ)
    assert machine.fastpath_stats()["tlb_invalidations"] == before + 1
    # Telemetry never leaks into the simulated counter registry.
    assert "tlb_hits" not in machine.cpu.stats


def test_range_cache_bulk_roundtrip_and_invalidation():
    """Multi-page runs hit the range cache; protect revokes the run."""
    machine, space, _ = _build()
    vaddr = space.map_new(8 * PAGE_SIZE, Permissions.RW)
    payload = bytes(range(256)) * (8 * PAGE_SIZE // 256)
    machine.store(vaddr, payload)
    assert machine.load(vaddr, 8 * PAGE_SIZE) == payload
    # The second bulk access of each kind is a single range-cache hit.
    hits = machine.tlb_hits
    machine.load(vaddr, 8 * PAGE_SIZE)
    assert machine.tlb_hits == hits + 1
    # Write-protecting one page in the middle must fault the whole run.
    space.protect(vaddr + 3 * PAGE_SIZE, PAGE_SIZE, Permissions.READ)
    with pytest.raises(PageFault):
        machine.store(vaddr, payload)
    # ... and a partial store stops exactly at the revoked page.
    assert machine.load(vaddr, 8 * PAGE_SIZE) == payload


def test_range_cache_skips_non_contiguous_runs():
    """Runs over scattered frames never enter the range cache but stay
    correct."""
    machine, space, _ = _build()
    vaddr = space.map_new(4 * PAGE_SIZE, Permissions.RW)
    # Remap the second page to a different (later) frame: the run's
    # frames are no longer physically contiguous.  The intervening
    # mapping steals the recycled frame so the remap gets a fresh one.
    space.unmap(vaddr + PAGE_SIZE, PAGE_SIZE)
    space.map_new(PAGE_SIZE, Permissions.RW)
    space.map_new(PAGE_SIZE, Permissions.RW, vaddr=vaddr + PAGE_SIZE)
    frames = [space._pages[(vaddr >> 12) + i].frame for i in range(4)]
    assert frames != sorted(frames) or frames[1] != frames[0] + 1
    payload = b"\xab\xcd" * (2 * PAGE_SIZE)
    machine.store(vaddr, payload)
    assert machine.load(vaddr, 4 * PAGE_SIZE) == payload
    machine.load(vaddr, 4 * PAGE_SIZE)
    assert not space._range_cache  # never cached, still correct


# --- device DMA and the edge cases of an access -------------------------------


def run_dma() -> dict:
    machine, space, _ = _build()
    vaddr = space.map_new(3 * PAGE_SIZE, Permissions.RW)
    machine.dma_write(space, vaddr + 100, b"dma" * 2000)
    got = machine.dma_read(space, vaddr + 100, 6000)
    assert got == b"dma" * 2000
    return pin_machine(machine, [got])


def test_dma_differential():
    """DMA uses the translation-only cache and matches the golden."""
    assert json.loads(json.dumps(run_dma())) == golden("dma", "window")


def _counting_profile() -> DomainProfile:
    def monitor(machine, kind, vaddr, size):
        machine.cpu.bump(f"monitor_{kind}s")

    return DomainProfile(name="counting", monitors=[monitor])


def run_edges(with_caps: bool) -> dict:
    """Size 0, negative sizes and a multi-page store faulting mid-run.

    A size-0 access charges and runs monitors but translates nothing,
    so it never faults on the page tables (a capability context still
    checks its bounds).  A negative size raises ``ValueError``.  A
    store over four pages whose third is read-only writes exactly the
    first two before it faults.
    """
    caps = (
        CapabilitySet("test", [(BASE, BASE + NUM_PAGES * PAGE_SIZE)])
        if with_caps
        else None
    )
    machine, space, _ = _build(_counting_profile(), caps)
    space.map_new(4 * PAGE_SIZE, Permissions.RW, vaddr=BASE)
    space.protect(_page_va(2), PAGE_SIZE, Permissions.READ)
    unmapped = _page_va(6)
    ops = [
        lambda: machine.load(unmapped, 0),
        lambda: machine.store(unmapped, b""),
        lambda: machine.load(BASE + NUM_PAGES * PAGE_SIZE + 5, 0),
        lambda: machine.load(BASE, -1),
        lambda: machine.dma_read(space, BASE, -1),
        lambda: machine.store(BASE + 100, b"\x77" * (4 * PAGE_SIZE - 200)),
        lambda: machine.dma_read(space, BASE, 4 * PAGE_SIZE),
        lambda: machine.load(BASE + PAGE_SIZE, 2 * PAGE_SIZE),
    ]
    outcomes = []
    for op in ops:
        try:
            outcomes.append(("ok", op()))
        except (PageFault, ProtectionFault, ValueError) as exc:
            outcomes.append(("fault", type(exc).__name__, str(exc)))
    pinned = pin_machine(machine, outcomes)
    pinned["readable"] = [
        "ok" if outcome[0] == "ok" else f"{outcome[1]}: {outcome[2]}"
        for outcome in outcomes
    ]
    return pinned


@pytest.mark.parametrize("with_caps", (False, True), ids=("pkru", "capability"))
def test_access_edge_cases_match_golden(with_caps):
    cell = "capability" if with_caps else "pkru"
    assert json.loads(json.dumps(run_edges(with_caps))) == golden("edges", cell)


# --- fig3-style iperf under every isolation profile ----------------------------


IPERF_LIBS = ["libc", "netstack", "iperf"]
IPERF_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]
#: Backend and hardening of the six isolation profiles.
PROFILES = {
    "mpk-shared": ("mpk-shared", {}),
    "mpk-switched": ("mpk-switched", {}),
    "vm-rpc": ("vm-rpc", {}),
    "cheri": ("cheri", {}),
    "sh-asan": ("none", {"netstack": ("asan",)}),
    "sh-dfi": ("none", {"netstack": ("dfi",)}),
}


def run_profile(name: str):
    backend, hardening = PROFILES[name]
    image = build_image(
        BuildConfig(
            libraries=IPERF_LIBS,
            compartments=IPERF_COMPARTMENTS,
            backend=backend,
            hardening=hardening,
        )
    )
    result = run_iperf(image, 4096, 1 << 17)
    cpu = image.machine.cpu
    pinned = {
        "numbers": {
            "throughput_mbps": result.throughput_mbps,
            "elapsed_ns": result.elapsed_ns,
        },
        "snapshot": cpu.snapshot(),
        "counters": cpu.metrics.counter_values(),
    }
    return pinned, image


@pytest.mark.parametrize("name", PROFILES)
def test_iperf_profile_matches_golden(name):
    pinned, _ = run_profile(name)
    assert json.loads(json.dumps(pinned)) == golden("iperf", name)


def test_cheri_image_translates_through_the_tlb():
    _, image = run_profile("cheri")
    assert image.machine.fastpath_stats()["tlb_hits"] > 0


# --- load/store microbenchmark observables -----------------------------------


#: Access size -> store+load pairs.
MICRO_SIZES = {64: 200, 4096: 100, 65536: 20, 262144: 8}


def run_micro(size: int) -> dict:
    """Store+load pairs over a window of eight slots of one size."""
    machine = Machine()
    space = machine.new_address_space("bench")
    payload = b"\x5a" * size
    stride = max(size, 256)
    window = 8
    pages = (window * stride + size) // PAGE_SIZE + 2
    base = space.map_new(pages * PAGE_SIZE)
    machine.boot_context(space, label="bench")
    for index in range(MICRO_SIZES[size]):
        vaddr = base + (index % window) * stride
        machine.store(vaddr, payload)
        machine.load(vaddr, size)
    return {"clock": machine.cpu.clock_ns.hex(), "snapshot": machine.cpu.snapshot()}


@pytest.mark.parametrize("size", MICRO_SIZES)
def test_microbench_observables_match_golden(size):
    assert json.loads(json.dumps(run_micro(size))) == golden("micro", str(size))


def record() -> dict:
    return {
        "traces": {
            f"{kind}-{seed}": run_trace(kind, seed)[0]
            for kind, (_, _, seeds) in TRACE_CELLS.items()
            for seed in seeds
        },
        "dma": {"window": run_dma()},
        "edges": {
            cell: run_edges(with_caps)
            for cell, with_caps in (("pkru", False), ("capability", True))
        },
        "iperf": {name: run_profile(name)[0] for name in PROFILES},
        "micro": {str(size): run_micro(size) for size in MICRO_SIZES},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
