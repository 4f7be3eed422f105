"""Small helpers for working with byte ranges and block arithmetic."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple, Union

# File content: frozen ``bytes`` or a private, writable ``bytearray``.
Buffer = Union[bytes, bytearray]


def block_count(size: int, block_size: int) -> int:
    """Number of blocks needed to cover ``size`` bytes."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return (size + block_size - 1) // block_size


def block_range(offset: int, length: int, block_size: int) -> range:
    """Indices of the blocks touched by the byte range ``[offset, offset+length)``."""
    if length <= 0:
        return range(0)
    first = offset // block_size
    last = (offset + length - 1) // block_size
    return range(first, last + 1)


def iter_blocks(data: bytes, block_size: int) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(block_index, block_bytes)`` pairs; the final block may be short."""
    for i in range(0, len(data), block_size):
        yield i // block_size, data[i : i + block_size]


def apply_write(base: Buffer, offset: int, data: bytes) -> Buffer:
    """``base`` with ``data`` written at ``offset``.

    Writing past the current end zero-fills the gap, mirroring POSIX sparse
    file semantics.

    Aliasing: a ``bytearray`` ``base`` is written in place and returned, so
    the cost is that of the write alone. A ``bytes`` ``base`` is left alone
    and the result is new ``bytes`` built in one allocation, except for a
    write at offset 0 into an empty ``base``: its result is ``data`` itself
    when ``data`` is ``bytes``.
    """
    if offset < 0:
        raise ValueError("negative offset")
    if isinstance(base, bytearray):
        if offset > len(base):
            base.extend(bytes(offset - len(base)))
        base[offset : offset + len(data)] = data
        return base
    if not base and offset == 0:
        return bytes(data)
    if offset >= len(base):
        return b"".join((base, bytes(offset - len(base)), data))
    view = memoryview(base)
    return b"".join((view[:offset], data, view[offset + len(data) :]))


def truncate(base: Buffer, length: int) -> Buffer:
    """POSIX ``truncate``: shrink, or zero-extend when growing.

    Aliasing as in :func:`apply_write`: a ``bytearray`` is resized in place
    and returned; ``bytes`` yield ``bytes`` and are left alone.
    """
    if length < 0:
        raise ValueError("negative length")
    if isinstance(base, bytearray):
        if length <= len(base):
            del base[length:]
        else:
            base.extend(bytes(length - len(base)))
        return base
    if length <= len(base):
        return base[:length]
    return b"".join((base, bytes(length - len(base))))


def apply_runs(base: bytes, runs: Iterable[Tuple[int, bytes]]) -> bytes:
    """``base`` with each ``(offset, data)`` run written in order, as ``bytes``.

    Gaps past the end are zero-filled as in :func:`apply_write`. Runs that
    are sorted by offset and disjoint (what a packed write node carries)
    are joined over ``memoryview`` slices of ``base`` in one allocation;
    other runs, where a later one may overwrite an earlier one, are
    written into one private ``bytearray``. ``base`` is never modified.
    """
    runs = tuple(runs)
    if not _sorted_disjoint(runs):
        buffer = bytearray(base)
        for offset, data in runs:
            apply_write(buffer, offset, data)
        return bytes(buffer)
    view = memoryview(base)
    pieces: List[Buffer] = []
    pos = 0  # length of the result decided so far
    for offset, data in runs:
        if pos < len(base):
            pieces.append(view[pos : min(offset, len(base))])
        if offset > len(base):
            pieces.append(bytes(offset - max(pos, len(base))))
        pieces.append(data)
        pos = offset + len(data)
    pieces.append(view[pos:])
    return b"".join(pieces)


def _sorted_disjoint(runs: Tuple[Tuple[int, bytes], ...]) -> bool:
    end = 0
    for offset, data in runs:
        if offset < end:
            return False
        end = offset + len(data)
    return True


def merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce overlapping/adjacent ``(offset, length)`` ranges."""
    if not ranges:
        return []
    spans = sorted((off, off + ln) for off, ln in ranges if ln > 0)
    if not spans:
        return []
    merged = [spans[0]]
    for start, end in spans[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return [(start, end - start) for start, end in merged]


def changed_fraction(ranges: List[Tuple[int, int]], file_size: int) -> float:
    """Fraction of a ``file_size``-byte file covered by the written ranges."""
    if file_size <= 0:
        return 1.0
    covered = sum(length for _, length in merge_ranges(ranges))
    return min(1.0, covered / file_size)
