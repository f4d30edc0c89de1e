"""Physical memory: a flat byte store carved into 4 KiB frames."""

from __future__ import annotations

import mmap

from repro.machine.faults import OutOfMemoryError

#: Page/frame size in bytes (x86-64 base pages).
PAGE_SIZE = 4096
#: log2(PAGE_SIZE).
PAGE_SHIFT = 12

#: One page of zeros, shared by every frame scrub.
_ZERO_PAGE = bytes(PAGE_SIZE)


def page_align_up(value: int) -> int:
    """Round ``value`` up to the next page boundary."""
    return (value + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def page_align_down(value: int) -> int:
    """Round ``value`` down to a page boundary."""
    return value & ~(PAGE_SIZE - 1)


class PhysicalMemory:
    """Flat simulated physical memory with a frame allocator.

    Frames are handed out by a bump allocator with a free list so that
    unmapped regions can be recycled.  All byte content lives in one
    private anonymous ``mmap`` indexed by physical address.  The host
    kernel zero-fills each page on first touch, so construction costs
    nothing per byte and resident memory tracks the frames actually
    written, not ``size_bytes``.  :attr:`view` is a cached
    ``memoryview`` over it so readers can slice without the double copy
    a ``bytes(data[...])`` round-trip costs.
    """

    def __init__(self, size_bytes: int = 64 * 1024 * 1024) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise ValueError("physical memory size must be a positive page multiple")
        self.size = size_bytes
        #: Byte store.  Supports the same slicing, slice assignment
        #: and buffer protocol as a ``bytearray`` of ``size_bytes``
        #: zeros, but compares by identity: compare contents with
        #: ``data[:]``.
        self.data = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)
        #: Zero-copy window over :attr:`data`; slicing it is free and
        #: ``bytes(view[a:b])`` copies exactly once.
        self.view = memoryview(self.data)
        self._next_frame = 0
        self._free_frames: list[int] = []
        self.num_frames = size_bytes >> PAGE_SHIFT

    def alloc_frame(self) -> int:
        """Allocate one frame; returns the frame number."""
        if self._free_frames:
            return self._free_frames.pop()
        if self._next_frame >= self.num_frames:
            raise OutOfMemoryError("physical memory exhausted")
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def alloc_frames(self, count: int) -> list[int]:
        """Allocate ``count`` frames (not necessarily contiguous).

        Returns exactly the frames ``count`` :meth:`alloc_frame` calls
        would: reused frames first, popped from the free list in LIFO
        order, then a fresh run from the bump pointer.  All-or-nothing:
        exhaustion is detected before anything is taken, so a failed
        bulk request leaves the allocator untouched.
        """
        if count < 0:
            raise ValueError("frame count must be non-negative")
        free = self._free_frames
        reused = min(count, len(free))
        fresh = count - reused
        if self._next_frame + fresh > self.num_frames:
            raise OutOfMemoryError("physical memory exhausted")
        split = len(free) - reused
        frames = free[split:]
        frames.reverse()
        del free[split:]
        start = self._next_frame
        self._next_frame = start + fresh
        frames.extend(range(start, start + fresh))
        return frames

    def free_frame(self, frame: int) -> None:
        """Return a frame to the allocator and scrub its contents."""
        if not 0 <= frame < self._next_frame:
            raise ValueError(f"invalid frame {frame}")
        base = frame << PAGE_SHIFT
        self.data[base : base + PAGE_SIZE] = _ZERO_PAGE
        self._free_frames.append(frame)

    def read(self, paddr: int, size: int) -> bytes:
        """Read ``size`` bytes at physical address ``paddr``.

        Returns immutable ``bytes`` built from the cached memoryview —
        one copy, not the two a bytearray-slice round-trip would cost.
        """
        if paddr < 0 or paddr + size > self.size:
            raise ValueError(f"physical read out of range: {paddr:#x}+{size}")
        return bytes(self.view[paddr : paddr + size])

    def write(self, paddr: int, payload) -> None:
        """Write ``payload`` (any bytes-like) at physical address ``paddr``."""
        if paddr < 0 or paddr + len(payload) > self.size:
            raise ValueError(f"physical write out of range: {paddr:#x}+{len(payload)}")
        self.data[paddr : paddr + len(payload)] = payload

    @property
    def frames_allocated(self) -> int:
        """Number of frames currently handed out."""
        return self._next_frame - len(self._free_frames)
