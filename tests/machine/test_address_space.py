"""Unit tests for address spaces, mapping, and protection changes."""

import pytest

from repro.machine import Machine
from repro.machine.address_space import AddressSpace, Permissions
from repro.machine.faults import OutOfMemoryError, PageFault
from repro.machine.memory import PAGE_SIZE, PhysicalMemory


@pytest.fixture
def phys():
    return PhysicalMemory(64 * PAGE_SIZE)


@pytest.fixture
def space(phys):
    return AddressSpace("test", phys)


def test_map_new_returns_page_aligned(space):
    vaddr = space.map_new(100)
    assert vaddr % PAGE_SIZE == 0
    assert space.is_mapped(vaddr)
    assert not space.is_mapped(vaddr + PAGE_SIZE)


def test_reservations_do_not_overlap(space):
    first = space.map_new(3 * PAGE_SIZE)
    second = space.map_new(PAGE_SIZE)
    assert second >= first + 3 * PAGE_SIZE


def test_translate_roundtrip(space, phys):
    vaddr = space.map_new(2 * PAGE_SIZE)
    paddr = space.translate(vaddr + 17)
    phys.write(paddr, b"Z")
    assert phys.read(space.translate(vaddr + 17), 1) == b"Z"


def test_translate_unmapped_faults(space):
    with pytest.raises(PageFault):
        space.translate(0xDEAD000)


def test_fixed_mapping_and_double_map_rejected(space):
    vaddr = space.map_new(PAGE_SIZE, vaddr=0x4000_0000)
    assert vaddr == 0x4000_0000
    with pytest.raises(ValueError):
        space.map_new(PAGE_SIZE, vaddr=0x4000_0000)


def test_unaligned_fixed_mapping_rejected(space):
    with pytest.raises(ValueError):
        space.map_new(PAGE_SIZE, vaddr=0x4000_0001)


def test_unmap_frees_frames(space, phys):
    vaddr = space.map_new(2 * PAGE_SIZE)
    before = phys.frames_allocated
    space.unmap(vaddr, 2 * PAGE_SIZE)
    assert phys.frames_allocated == before - 2
    assert not space.is_mapped(vaddr)


def test_unmap_unmapped_faults(space):
    with pytest.raises(PageFault):
        space.unmap(0x7000_0000, PAGE_SIZE)


def test_protect_changes_pkey_and_perms(space):
    vaddr = space.map_new(PAGE_SIZE)
    space.protect(vaddr, PAGE_SIZE, perms=Permissions.READ, pkey=7)
    entry = space.entry(vaddr)
    assert entry.perms == Permissions.READ
    assert entry.pkey == 7


def test_protect_unmapped_faults(space):
    with pytest.raises(PageFault):
        space.protect(0x7000_0000, PAGE_SIZE, pkey=1)


def test_shared_frames_alias_content(space, phys):
    # Map the same frames at two different addresses: writes through one
    # mapping must be visible through the other (shared-memory basis of
    # the gate implementations).
    first = space.map_new(PAGE_SIZE)
    frames = space.frames_of(first, PAGE_SIZE)
    alias = space.reserve(PAGE_SIZE)
    space.map_frames(alias, frames)
    phys.write(space.translate(first), b"ping")
    assert phys.read(space.translate(alias), 4) == b"ping"


def test_va_exhaustion():
    phys = PhysicalMemory(16 * PAGE_SIZE)
    space = AddressSpace("tiny", phys, base=0x1000, limit=0x3000)
    space.map_new(2 * PAGE_SIZE)
    with pytest.raises(OutOfMemoryError):
        space.reserve(PAGE_SIZE)


def test_overlapping_map_frames_maps_nothing():
    # Regression: map_frames used to insert the pages in front of a
    # conflict before raising, leaving a half-mapped range and a stale
    # software TLB.  An overlap must now raise before any insertion.
    machine = Machine(phys_bytes=64 * PAGE_SIZE)
    space = machine.new_address_space("main")
    machine.boot_context(space)
    taken = space.map_new(PAGE_SIZE, vaddr=0x4000_2000)
    machine.store(taken, b"warm")  # fills the software TLB
    pages = dict(space._pages)
    caches = (
        dict(space._access_cache),
        dict(space._range_cache),
        dict(space._frame_cache),
    )
    assert caches[0]
    tlb_state = (space.epoch, space.tlb_invalidations)

    frames = machine.phys.alloc_frames(4)
    with pytest.raises(ValueError, match="page 0x40002000 already mapped"):
        space.map_frames(0x4000_0000, frames)  # pages 0-1 free, page 2 taken

    assert space._pages == pages
    assert not space.is_mapped(0x4000_0000)
    assert (
        space._access_cache,
        space._range_cache,
        space._frame_cache,
    ) == caches
    assert (space.epoch, space.tlb_invalidations) == tlb_state
    assert machine.load(taken, 4) == b"warm"
