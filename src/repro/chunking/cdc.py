"""Content-defined chunking (CDC) with a gear rolling hash.

This is the LBFS-style chunker Seafile uses: chunk boundaries are placed
where a rolling hash of the recent byte window matches a mask, so an insert
or delete only re-chunks its neighbourhood instead of shifting every
boundary after it. The tradeoff the paper highlights (Section II-A): to keep
the chunk-index small, Seafile uses a large average chunk (1 MB), so even a
1-byte edit re-uploads ~1 MB.

The gear hash ``h_t = (h_{t-1} << 1) + gear[b_t] (mod 2^64)`` unrolls to
``h_t = sum_{i<64} gear[b_{t-i}] << i``: bit ``j`` depends only on the last
``j + 1`` bytes, so a boundary predicate on the low ``bits`` bits is a pure
function of the preceding ``bits`` bytes. :func:`_gear_hashes` evaluates
the sum for every position at once by log-doubling (the sum over a window
of ``2w`` bytes is the sum over ``w`` plus the same sum ``w`` bytes back,
shifted ``w`` bits), ``ceil(log2(bits))`` whole-array passes. For masks of
at most 32 bits it accumulates in ``uint32``: arithmetic mod 2^32 keeps the
low ``bits`` bits exact. The result matches the sequential
:class:`GearHasher` on those bits.

Because a boundary candidate depends only on the 64 bytes before it,
:func:`gear_hashes_incremental` rechunks an edited file by rehashing only
the windows around the bytes that changed and keeping every other
candidate of the previous version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.chunking.strong import dedup_hash
from repro.cost.meter import CostMeter, NULL_METER

_GEAR_BITS = 64
_U64 = np.uint64


def _gear_table(seed: int = 0x9E3779B97F4A7C15) -> np.ndarray:
    """A fixed pseudo-random 256-entry table (splitmix64 stream)."""
    out = np.empty(256, dtype=_U64)
    state = seed & 0xFFFFFFFFFFFFFFFF
    for i in range(256):
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        out[i] = z ^ (z >> 31)
    return out


GEAR_TABLE = _gear_table()
_GEAR_TABLE32 = GEAR_TABLE.astype(np.uint32)  # low 32 bits of each entry


class GearHasher:
    """Sequential reference gear hash (used for testing the fast path)."""

    def __init__(self):
        self._h = 0

    def update(self, byte: int) -> int:
        """Feed one byte; returns the new 64-bit hash value."""
        self._h = ((self._h << 1) + int(GEAR_TABLE[byte])) & 0xFFFFFFFFFFFFFFFF
        return self._h

    @property
    def value(self) -> int:
        return self._h


@dataclass(frozen=True)
class CDCChunk:
    """One content-defined chunk.

    Attributes:
        offset: byte offset in the file.
        length: chunk length.
        fingerprint: SHA-256 of the chunk content (the dedup key).
    """

    offset: int
    length: int
    fingerprint: bytes


def _mask_for_average(avg_size: int) -> int:
    """Mask with ``log2(avg_size)`` low bits set, giving that average chunk."""
    bits = max(1, int(avg_size).bit_length() - 1)
    return (1 << bits) - 1


def _gear_hashes(data: bytes, bits: int = _GEAR_BITS) -> np.ndarray:
    """Vectorized gear hash at every position of ``data``, low ``bits`` bits.

    Log-doubling: after the pass with shift ``w``, ``h[t]`` holds the sum of
    the last ``2w`` terms ``gear[b_{t-i}] << i``, so the passes for
    ``w = 1, 2, 4, ... < bits`` cover every term that reaches the low
    ``bits`` bits (the terms for ``i >= bits`` are multiples of
    ``2^bits``). With ``bits <= 32`` the sum runs in ``uint32``, which keeps
    those bits exact mod 2^32. The values agree with the sequential
    :class:`GearHasher` on the low ``bits`` bits.
    """
    n = len(data)
    if bits <= 32:
        dtype, table = np.uint32, _GEAR_TABLE32
    else:
        dtype, table = _U64, GEAR_TABLE
    h = table[np.frombuffer(data, dtype=np.uint8)]
    shifted = np.empty_like(h)
    w = 1
    while w < min(bits, _GEAR_BITS, n):
        # the same window w bytes back, shifted past the w newest terms
        np.left_shift(h[: n - w], dtype(w), out=shifted[: n - w])
        h[w:] += shifted[: n - w]
        w *= 2
    if bits < np.iinfo(dtype).bits:
        h &= dtype((1 << bits) - 1)
    return h


def _gear_candidates(data: bytes, bits: int) -> np.ndarray:
    """Sorted positions whose low ``bits`` gear-hash bits are all zero."""
    return np.flatnonzero(_gear_hashes(data, bits=bits) == 0)


def gear_hashes_incremental(
    prev: bytes,
    new: bytes,
    prev_candidates: np.ndarray,
    bits: int,
) -> np.ndarray:
    """Boundary candidates of ``new``, reusing ``prev_candidates``.

    A candidate is a position whose low ``bits`` gear-hash bits are zero,
    i.e. ``flatnonzero(_gear_hashes(new, bits) == 0)``; ``prev_candidates``
    must be that array for ``prev``. Exact: the hash at ``t`` depends only
    on bytes ``t-63 .. t``, so only the windows from each run of changed
    bytes to 64 bytes past it (and any grown tail) are rehashed, with 63
    bytes of warm-up context each; every old candidate outside them that
    still lies inside ``new`` is kept. This is a wall-clock optimization for
    the simulator — the metered CPU cost is unchanged because the *modeled*
    system still scans the whole file.
    """
    if prev == new:
        return prev_candidates
    n = len(new)
    n_common = min(len(prev), n)
    if n_common == 0:
        return _gear_candidates(new, bits)
    a = np.frombuffer(prev, dtype=np.uint8, count=n_common)
    b = np.frombuffer(new, dtype=np.uint8, count=n_common)
    diff = np.flatnonzero(a != b)
    if diff.size > n // 4:
        return _gear_candidates(new, bits)

    # runs of changed bytes closer than 64 apart share one window [lo, hi)
    if diff.size:
        breaks = np.flatnonzero(np.diff(diff) > _GEAR_BITS)
        lo = diff[np.r_[0, breaks + 1]]
        hi = np.minimum(diff[np.r_[breaks, diff.size - 1]] + _GEAR_BITS, n)
    else:
        lo, hi = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    if n > n_common:
        # grown: the tail is new, and joins a window that reaches it
        if hi.size and hi[-1] >= n_common:
            hi[-1] = n
        else:
            lo, hi = np.append(lo, n_common), np.append(hi, n)

    kept = prev_candidates[prev_candidates < n]
    if not lo.size:
        return kept
    inside = np.searchsorted(lo, kept, side="right") - 1
    kept = kept[(inside < 0) | (kept >= hi[inside])]

    # rehash every window in one buffer: each starts 63 bytes early (or at
    # byte 0), so a hash kept from it never reaches into the one before it
    ctx = np.maximum(lo - (_GEAR_BITS - 1), 0)
    lengths = hi - ctx
    shift = np.repeat(ctx - (np.cumsum(lengths) - lengths), lengths)
    pos = np.arange(shift.size) + shift  # file position of each buffer byte
    hashes = _gear_hashes(np.frombuffer(new, dtype=np.uint8)[pos], bits=bits)
    found = pos[(hashes == 0) & (pos >= np.repeat(lo, lengths))]
    return np.union1d(kept, found)


def cdc_boundaries(
    data: bytes,
    avg_size: int,
    *,
    min_size: int | None = None,
    max_size: int | None = None,
    candidates: np.ndarray | None = None,
) -> List[int]:
    """Chunk end offsets (exclusive) for ``data``; the last is ``len(data)``.

    ``candidates`` are the sorted positions whose gear hash matches the
    mask for ``avg_size`` (``gear_hashes_incremental`` keeps them across
    versions); they are computed here when not given.
    """
    if avg_size <= 0:
        raise ValueError("avg_size must be positive")
    if min_size is not None and min_size < 1:
        raise ValueError("min_size must be at least 1")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be at least 1")
    n = len(data)
    if n == 0:
        return []
    min_size = min_size if min_size is not None else max(1, avg_size // 4)
    max_size = max_size if max_size is not None else avg_size * 4
    if candidates is None:
        candidates = _gear_candidates(data, _mask_for_average(avg_size).bit_length())

    boundaries: List[int] = []
    start = 0
    while start < n:
        # A boundary at byte position p ends the chunk at p + 1; the first
        # eligible position is start + min_size - 1, the last is capped by
        # max_size (or end of data).
        hard_cut = min(start + max_size, n)
        ci = int(np.searchsorted(candidates, start + min_size - 1))
        if ci < len(candidates) and int(candidates[ci]) < hard_cut:
            cut = int(candidates[ci]) + 1
        else:
            cut = hard_cut
        boundaries.append(cut)
        start = cut
    return boundaries


def cdc_chunks(
    data: bytes,
    avg_size: int,
    *,
    min_size: int | None = None,
    max_size: int | None = None,
    meter: CostMeter = NULL_METER,
) -> List[CDCChunk]:
    """Chunk ``data`` content-defined and fingerprint each chunk.

    Charges ``cdc_chunking`` for the boundary scan and ``dedup_hash`` for
    the per-chunk fingerprints (Seafile computes these on the client and
    ships them to the server, which is why its server CPU is low).
    """
    meter.charge_bytes("cdc_chunking", len(data))
    chunks: List[CDCChunk] = []
    start = 0
    for end in cdc_boundaries(data, avg_size, min_size=min_size, max_size=max_size):
        body = data[start:end]
        chunks.append(
            CDCChunk(offset=start, length=len(body), fingerprint=dedup_hash(body, meter))
        )
        start = end
    return chunks
