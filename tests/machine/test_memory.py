"""Unit tests for physical memory and frame allocation."""

import random

import pytest

from repro.machine.faults import OutOfMemoryError
from repro.machine.memory import (
    PAGE_SIZE,
    PhysicalMemory,
    page_align_down,
    page_align_up,
)


def test_page_align_up():
    assert page_align_up(0) == 0
    assert page_align_up(1) == PAGE_SIZE
    assert page_align_up(PAGE_SIZE) == PAGE_SIZE
    assert page_align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE


def test_page_align_down():
    assert page_align_down(0) == 0
    assert page_align_down(PAGE_SIZE - 1) == 0
    assert page_align_down(PAGE_SIZE) == PAGE_SIZE
    assert page_align_down(2 * PAGE_SIZE + 5) == 2 * PAGE_SIZE


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(0)
    with pytest.raises(ValueError):
        PhysicalMemory(PAGE_SIZE + 1)


def test_frame_allocation_is_sequential():
    mem = PhysicalMemory(4 * PAGE_SIZE)
    assert mem.alloc_frame() == 0
    assert mem.alloc_frame() == 1
    assert mem.frames_allocated == 2


def test_frame_exhaustion():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    mem.alloc_frames(2)
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()


def test_freed_frames_are_recycled_and_scrubbed():
    mem = PhysicalMemory(4 * PAGE_SIZE)
    frame = mem.alloc_frame()
    mem.write(frame * PAGE_SIZE, b"secret")
    mem.free_frame(frame)
    again = mem.alloc_frame()
    # The recycled frame must come back and must not leak old bytes.
    assert again == frame
    assert mem.read(frame * PAGE_SIZE, 6) == bytes(6)
    # The same through a bulk reuse, over whole pages: the scrub clears
    # the freed frame and only it.
    frames = [again, *mem.alloc_frames(2)]
    for frame in frames:
        mem.write(frame * PAGE_SIZE, b"\xa5" * PAGE_SIZE)
    mem.free_frame(frames[1])
    assert mem.alloc_frames(1) == [frames[1]]
    assert mem.read(frames[1] * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    for frame in (frames[0], frames[2]):
        assert mem.read(frame * PAGE_SIZE, PAGE_SIZE) == b"\xa5" * PAGE_SIZE


def test_free_invalid_frame():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    with pytest.raises(ValueError):
        mem.free_frame(0)  # never allocated
    with pytest.raises(ValueError):
        mem.free_frame(-1)


def test_read_write_roundtrip():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    mem.write(100, b"abcdef")
    assert mem.read(100, 6) == b"abcdef"
    assert mem.read(99, 1) == b"\x00"


def test_out_of_range_access():
    mem = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(ValueError):
        mem.read(PAGE_SIZE - 1, 2)
    with pytest.raises(ValueError):
        mem.write(PAGE_SIZE, b"x")
    with pytest.raises(ValueError):
        mem.read(-1, 1)


def test_negative_frame_count():
    mem = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(ValueError):
        mem.alloc_frames(-1)


def test_alloc_frames_rolls_back_on_exhaustion():
    # Regression: a bulk request that runs out of memory partway used
    # to leak the frames it had already taken.  The failed request must
    # leave the allocator exactly as it found it.
    mem = PhysicalMemory(4 * PAGE_SIZE)
    mem.alloc_frames(2)
    assert mem.frames_allocated == 2
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frames(3)  # only 2 frames left
    assert mem.frames_allocated == 2
    assert mem._next_frame == 2
    assert mem._free_frames == []
    # The rolled-back frames are immediately reusable.
    assert mem.alloc_frames(2) == [2, 3]
    assert mem.frames_allocated == 4
    # A request the free list covers only in part fails before it pops
    # anything: the free list keeps its frames and their order.
    mem.free_frame(1)
    mem.free_frame(3)
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frames(3)
    assert mem._next_frame == 4
    assert mem._free_frames == [1, 3]
    assert mem.alloc_frames(2) == [3, 1]


def test_large_memory_is_lazily_zeroed():
    # 1 GiB would cost a second of zero-filling and 1 GiB of RSS with an
    # eager backing; lazily zeroed, only the touched pages cost anything.
    size = 1 << 30
    mem = PhysicalMemory(size)
    assert mem.num_frames == size // PAGE_SIZE
    assert mem.read(0, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert mem.read(size - PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    mem.write(size - 4, b"last")
    assert mem.read(size - 4, 4) == b"last"


@pytest.mark.parametrize("seed", range(8))
def test_alloc_frames_matches_repeated_alloc_frame(seed):
    # Property: alloc_frames(n) returns exactly the frames n single
    # alloc_frame() calls return on an identical twin, across random
    # mixes of single allocations, bulk allocations and frees, up to
    # and including exhaustion.
    rng = random.Random(seed)
    bulk = PhysicalMemory(64 * PAGE_SIZE)
    single = PhysicalMemory(64 * PAGE_SIZE)
    held: list[int] = []
    for _ in range(300):
        choice = rng.random()
        if choice < 0.35 and held:
            frame = held.pop(rng.randrange(len(held)))
            bulk.free_frame(frame)
            single.free_frame(frame)
        elif choice < 0.5:
            try:
                frame = bulk.alloc_frame()
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    single.alloc_frame()
                continue
            assert single.alloc_frame() == frame
            held.append(frame)
        else:
            count = rng.randrange(0, 12)
            state = (bulk._next_frame, list(bulk._free_frames))
            try:
                frames = bulk.alloc_frames(count)
            except OutOfMemoryError:
                assert count > single.num_frames - single.frames_allocated
                assert (bulk._next_frame, bulk._free_frames) == state
                continue
            assert frames == [single.alloc_frame() for _ in range(count)]
            held.extend(frames)
        assert bulk._next_frame == single._next_frame
        assert bulk._free_frames == single._free_frames


def test_read_returns_immutable_snapshot():
    # read() is built from the cached memoryview but must still be a
    # snapshot: later writes do not alter previously returned bytes.
    mem = PhysicalMemory(PAGE_SIZE)
    mem.write(0, b"before")
    snap = mem.read(0, 6)
    mem.write(0, b"after!")
    assert snap == b"before"
    assert isinstance(snap, bytes)
