"""Differential property tests: the software-TLB fast path vs the walk.

Two machines — identical except for the ``fastpath`` flag — execute the
same randomized trace of map/unmap/protect/pkey/wrpkru/load/store
operations.  Every operation must produce the same value or the same
fault, and at the end the simulated clock, every counter, and the full
physical memory image must be bit-identical.  This is the proof
obligation of ISSUE 7: the fast path may only change host wall-clock,
never any simulated observable.
"""

from __future__ import annotations

import random

import pytest

from repro.machine.address_space import Permissions
from repro.machine.capabilities import CapabilitySet
from repro.machine.cpu import DomainProfile
from repro.machine.faults import PageFault, ProtectionFault, SHViolation
from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SIZE
from repro.machine.mpk import pkru_all_access, pkru_for_keys

#: Window of fixed-placement test pages (clear of the reserve bump).
BASE = 0x2000_0000
NUM_PAGES = 8
PERM_CHOICES = (
    Permissions.NONE,
    Permissions.READ,
    Permissions.RW,
)
PKEY_CHOICES = (0, 1, 2, 3)


def _build(fastpath: bool, profile: DomainProfile | None = None, caps=None):
    machine = Machine(fastpath=fastpath)
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


def _run_differential(seed: int, ops: int = 400, profile_factory=None,
                      caps_factory=None):
    rng = random.Random(seed)
    trace = _random_trace(rng, ops)
    fast, fast_space, _ = _build(
        True,
        profile_factory() if profile_factory else None,
        caps_factory() if caps_factory else None,
    )
    slow, slow_space, _ = _build(
        False,
        profile_factory() if profile_factory else None,
        caps_factory() if caps_factory else None,
    )
    assert fast.fastpath_enabled and not slow.fastpath_enabled
    for index, op in enumerate(trace):
        fast_result = _apply(fast, fast_space, op)
        slow_result = _apply(slow, slow_space, op)
        assert fast_result == slow_result, (
            f"divergence at op {index} {op!r}: "
            f"fast={fast_result!r} slow={slow_result!r}"
        )
    # Every simulated observable is bit-identical.
    assert fast.cpu.clock_ns == slow.cpu.clock_ns
    assert fast.cpu.snapshot() == slow.cpu.snapshot()
    assert fast.phys.data[:] == slow.phys.data[:]
    assert fast.phys.frames_allocated == slow.phys.frames_allocated
    return fast, slow


@pytest.mark.parametrize("seed", range(6))
def test_differential_neutral_profile(seed):
    fast, slow = _run_differential(seed)
    # The fast machine actually exercised its cache; the slow one never
    # touched it.
    stats = fast.fastpath_stats()
    assert stats["tlb_hits"] + stats["tlb_misses"] > 0
    assert slow.fastpath_stats()["tlb_hits"] == 0
    assert slow.fastpath_stats()["tlb_misses"] == 0


@pytest.mark.parametrize("seed", (1, 7))
def test_differential_asan_like_monitor(seed):
    """Monitors (charge + veto) run identically on both paths."""

    def profile():
        poisoned = (BASE + 2 * PAGE_SIZE + 100, BASE + 2 * PAGE_SIZE + 120)

        def monitor(machine, kind, vaddr, size):
            machine.cpu.charge(machine.cost.asan_check_ns)
            if vaddr < poisoned[1] and poisoned[0] < vaddr + size:
                raise SHViolation("asan", f"poisoned {kind} at {vaddr:#x}")

        return DomainProfile(
            name="asan-like",
            load_factor=1.32,
            store_factor=1.32,
            monitors=[monitor],
        )

    _run_differential(seed, profile_factory=profile)


@pytest.mark.parametrize("seed", (2, 9))
def test_differential_dfi_like_monitor(seed):
    """Store-only monitors (DFI) see the same access stream."""

    def profile():
        def monitor(machine, kind, vaddr, size):
            if kind != "store":
                return
            machine.cpu.bump("dfi_checks")

        return DomainProfile(
            name="dfi-like", store_factor=1.07, monitors=[monitor]
        )

    fast, slow = _run_differential(seed, profile_factory=profile)
    assert fast.cpu.stats.get("dfi_checks") == slow.cpu.stats.get("dfi_checks")


@pytest.mark.parametrize("seed", (3, 11))
def test_differential_capability_context(seed):
    """Capability contexts bypass the cache but stay bit-identical."""

    def caps():
        # Cover part of the window so some accesses fault on bounds.
        return CapabilitySet(
            "test", [(BASE, BASE + (NUM_PAGES - 2) * PAGE_SIZE)]
        )

    fast, slow = _run_differential(seed, caps_factory=caps)
    # Enforcement safety: capability accesses never populate the TLB.
    assert fast.fastpath_stats()["tlb_hits"] == 0
    assert fast.fastpath_stats()["tlb_misses"] == 0


def test_protect_revokes_cached_read():
    machine, space, _ = _build(True)
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"x" * 8)
    assert machine.load(vaddr, 8) == b"x" * 8  # populates the cache
    space.protect(vaddr, PAGE_SIZE, Permissions.NONE)
    with pytest.raises(PageFault):
        machine.load(vaddr, 8)
    with pytest.raises(PageFault):
        machine.store(vaddr, b"y")


def test_pkey_change_invalidates_cached_rights():
    machine, space, context = _build(True)
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW, pkey=1)
    context.pkru = pkru_for_keys(writable=(1,))
    machine.store(vaddr, b"ok")
    space.protect(vaddr, PAGE_SIZE, pkey=2)  # now a key this PKRU denies
    with pytest.raises(ProtectionFault):
        machine.load(vaddr, 2)


def test_pkru_switch_needs_no_shootdown():
    """PKRU is part of the cache key: stale rights cannot leak."""
    machine, space, context = _build(True)
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW, pkey=3)
    context.pkru = pkru_for_keys(writable=(3,))
    machine.store(vaddr, b"hot")  # cached under the permissive PKRU
    context.pkru = pkru_for_keys(writable=(0,))  # "context switch"
    with pytest.raises(ProtectionFault):
        machine.load(vaddr, 3)
    context.pkru = pkru_for_keys(writable=(3,))
    assert machine.load(vaddr, 3) == b"hot"


def test_remap_returns_new_frame_contents():
    machine, space, _ = _build(True)
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
    machine, space, _ = _build(True)
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"a")
    machine.store(vaddr, b"b")
    machine.load(vaddr, 1)
    machine.load(vaddr, 1)
    stats = machine.fastpath_stats()
    assert stats["enabled"] is True
    assert stats["tlb_misses"] == 2  # one read fill, one write fill
    assert stats["tlb_hits"] == 2
    before = stats["tlb_invalidations"]
    space.protect(vaddr, PAGE_SIZE, Permissions.READ)
    assert machine.fastpath_stats()["tlb_invalidations"] == before + 1
    # Telemetry never leaks into the simulated counter registry.
    assert "tlb_hits" not in machine.cpu.stats


def test_range_cache_bulk_roundtrip_and_invalidation():
    """Multi-page runs hit the range cache; protect revokes the run."""
    machine, space, _ = _build(True)
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
    # ... and a partial store stops exactly at the revoked page, like
    # the slow path.
    assert machine.load(vaddr, 8 * PAGE_SIZE) == payload


def test_range_cache_skips_non_contiguous_runs():
    """Runs over scattered frames never enter the range cache but stay
    correct."""
    machine, space, _ = _build(True)
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


def test_fastpath_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    assert Machine().fastpath_enabled is False
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    assert Machine().fastpath_enabled is True
    monkeypatch.delenv("REPRO_FASTPATH")
    assert Machine().fastpath_enabled is True
    assert Machine(fastpath=False).fastpath_enabled is False


def test_dma_differential():
    """DMA uses the translation-only cache; results stay identical."""
    fast, fast_space, _ = _build(True)
    slow, slow_space, _ = _build(False)
    for machine, space in ((fast, fast_space), (slow, slow_space)):
        vaddr = space.map_new(3 * PAGE_SIZE, Permissions.RW)
        machine.dma_write(space, vaddr + 100, b"dma" * 2000)
    assert fast.phys.data[:] == slow.phys.data[:]
    got_fast = fast.dma_read(fast_space, fast_space._next_va - 3 * PAGE_SIZE + 100, 6000)
    got_slow = slow.dma_read(slow_space, slow_space._next_va - 3 * PAGE_SIZE + 100, 6000)
    assert got_fast == got_slow == b"dma" * 2000
