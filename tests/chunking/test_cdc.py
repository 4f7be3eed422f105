"""Tests for content-defined chunking (the Seafile/LBFS substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.cdc import (
    GearHasher,
    _gear_hashes,
    cdc_boundaries,
    cdc_chunks,
    gear_hashes_incremental,
)
from repro.common.rng import DeterministicRandom
from repro.cost.meter import CostMeter


class TestGearHash:
    def test_vectorized_matches_sequential(self):
        data = DeterministicRandom(1).random_bytes(500)
        hasher = GearHasher()
        sequential = [hasher.update(b) for b in data]
        vectorized = _gear_hashes(data)
        assert all(int(vectorized[i]) == sequential[i] for i in range(len(data)))

    def test_masked_variant_matches_low_bits(self):
        data = DeterministicRandom(2).random_bytes(400)
        hasher = GearHasher()
        sequential = [hasher.update(b) for b in data]
        for bits in (8, 13, 20):
            masked = _gear_hashes(data, bits=bits)
            mask = (1 << bits) - 1
            assert all(
                int(masked[i]) == (sequential[i] & mask) for i in range(len(data))
            ), bits

    @given(st.binary(min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_property_vector_equals_sequential(self, data):
        hasher = GearHasher()
        sequential = [hasher.update(b) for b in data]
        vectorized = _gear_hashes(data)
        assert [int(v) for v in vectorized] == sequential

    @pytest.mark.parametrize("bits", list(range(1, 33)) + [64])
    def test_doubling_matches_sequential_around_each_step(self, bits):
        # lengths 0, 1 and w-1, w, w+1 for every doubling shift w
        data = DeterministicRandom(bits).random_bytes(130)
        hasher = GearHasher()
        mask = (1 << bits) - 1
        sequential = [hasher.update(b) & mask for b in data]
        lengths = {0, 1}
        w = 1
        while w <= 64:
            lengths |= {w - 1, w, w + 1}
            w *= 2
        for n in sorted(lengths):
            assert [int(v) for v in _gear_hashes(data[:n], bits=bits)] == (
                sequential[:n]
            ), (bits, n)


def _candidates(data: bytes, bits: int) -> np.ndarray:
    return np.flatnonzero(_gear_hashes(data, bits=bits) == 0)


def _edit(data: bytearray, kind: str, at: int, size: int) -> None:
    """Apply one edit of an edit script to ``data`` in place."""
    n = len(data)
    if kind == "flip" and n:
        data[at % n] ^= 0xFF
    elif kind == "pair" and n:
        # two edits within 64 bytes of each other
        p = at % n
        data[p] ^= 0x0F
        data[min(n - 1, p + size)] ^= 0xF0
    elif kind == "first" and n:
        data[0] ^= 0x5A
    elif kind == "last" and n:
        data[-1] ^= 0x5A
    elif kind == "grow":
        data.extend(DeterministicRandom(at).random_bytes(size))
    elif kind == "truncate":
        del data[at % (n + 1) :]
    elif kind == "clear":
        del data[:]
    elif kind == "rewrite":
        # more than a quarter of the bytes change: the full-rehash fallback
        half = data[: n // 2 + 1]
        data[: len(half)] = bytes(b ^ 0xFF for b in half)


_EDITS = st.tuples(
    st.sampled_from(
        ["flip", "pair", "first", "last", "grow", "truncate", "clear", "rewrite"]
    ),
    st.integers(0, 1 << 20),
    st.integers(1, 64),
)


class TestIncrementalGear:
    # The incremental path returns boundary candidates (the positions whose
    # masked gear hash is zero), not the per-byte hash array.
    def _check(self, prev: bytes, new: bytes, bits: int = 14):
        incremental = gear_hashes_incremental(prev, new, _candidates(prev, bits), bits)
        assert np.array_equal(incremental, _candidates(new, bits))

    def test_identical(self):
        data = DeterministicRandom(3).random_bytes(10_000)
        self._check(data, data)

    def test_point_edit(self):
        rng = DeterministicRandom(4)
        prev = bytearray(rng.random_bytes(10_000))
        new = bytearray(prev)
        new[5000] ^= 0xFF
        self._check(bytes(prev), bytes(new))

    def test_multiple_scattered_edits(self):
        rng = DeterministicRandom(5)
        prev = bytearray(rng.random_bytes(20_000))
        new = bytearray(prev)
        for pos in (100, 7000, 7003, 19_999):
            new[pos] ^= 0x55
        self._check(bytes(prev), bytes(new))

    def test_growth(self):
        rng = DeterministicRandom(6)
        prev = rng.random_bytes(8000)
        new = prev + rng.random_bytes(3000)
        self._check(prev, new)

    def test_truncation(self):
        rng = DeterministicRandom(7)
        prev = rng.random_bytes(8000)
        self._check(prev, prev[:5000])

    def test_edit_plus_growth(self):
        rng = DeterministicRandom(8)
        prev = bytearray(rng.random_bytes(8000))
        new = bytearray(prev)
        new[100:200] = rng.random_bytes(100)
        new.extend(rng.random_bytes(500))
        self._check(bytes(prev), bytes(new))

    def test_empty_prev(self):
        self._check(b"", DeterministicRandom(9).random_bytes(1000))

    def test_mostly_changed_falls_back(self):
        rng = DeterministicRandom(10)
        prev = rng.random_bytes(4000)
        new = rng.random_bytes(4000)
        self._check(prev, new)

    def test_truncate_to_empty(self):
        self._check(DeterministicRandom(18).random_bytes(3000), b"")

    def test_equal_content_returns_previous_candidates(self):
        data = DeterministicRandom(19).random_bytes(5000)
        prev = _candidates(data, 8)
        assert gear_hashes_incremental(data, bytes(data), prev, 8) is prev

    @given(
        size=st.integers(0, 3000),
        seed=st.integers(0, 1 << 16),
        bits=st.integers(1, 10),
        script=st.lists(_EDITS, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_edit_script(self, size, seed, bits, script):
        # each edit is one saved version; candidates carry across versions
        prev = DeterministicRandom(seed).random_bytes(size)
        candidates = _candidates(prev, bits)
        for kind, at, width in script:
            new = bytearray(prev)
            _edit(new, kind, at, width)
            new = bytes(new)
            candidates = gear_hashes_incremental(prev, new, candidates, bits)
            assert np.array_equal(candidates, _candidates(new, bits)), kind
            prev = new


class TestBoundaries:
    def test_cover_exactly(self):
        data = DeterministicRandom(11).random_bytes(50_000)
        bounds = cdc_boundaries(data, 2048)
        assert bounds[-1] == len(data)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_min_max_respected(self):
        data = DeterministicRandom(12).random_bytes(100_000)
        avg = 2048
        bounds = cdc_boundaries(data, avg)
        sizes = [b - a for a, b in zip([0] + bounds[:-1], bounds)]
        assert all(s <= avg * 4 for s in sizes)
        assert all(s >= avg // 4 for s in sizes[:-1])  # tail may be short

    def test_average_in_ballpark(self):
        data = DeterministicRandom(13).random_bytes(400_000)
        avg = 4096
        bounds = cdc_boundaries(data, avg)
        actual_avg = len(data) / len(bounds)
        assert avg / 3 < actual_avg < avg * 3

    def test_empty(self):
        assert cdc_boundaries(b"", 1024) == []

    def test_invalid_avg(self):
        with pytest.raises(ValueError):
            cdc_boundaries(b"abc", 0)

    @pytest.mark.parametrize("arg", ["min_size", "max_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_min_max_rejected(self, arg, value):
        # a cut at the chunk start never advanced, so these never returned
        data = DeterministicRandom(20).random_bytes(100_000)
        with pytest.raises(ValueError):
            cdc_boundaries(data, 256, **{arg: value})
        with pytest.raises(ValueError):
            cdc_chunks(data, 256, **{arg: value})

    def test_given_candidates_match_computed(self):
        data = DeterministicRandom(21).random_bytes(50_000)
        bits = (2048).bit_length() - 1
        assert cdc_boundaries(data, 2048, candidates=_candidates(data, bits)) == (
            cdc_boundaries(data, 2048)
        )

    def test_boundary_shift_is_local(self):
        # the CDC property: an edit only re-chunks its neighbourhood
        rng = DeterministicRandom(14)
        data = rng.random_bytes(200_000)
        edited = data[:100_000] + b"\x00\x42" + data[100_000:]
        bounds_a = set(cdc_boundaries(data, 2048))
        bounds_b = set(cdc_boundaries(edited, 2048))
        # boundaries well before the edit are identical
        before_a = {b for b in bounds_a if b < 90_000}
        before_b = {b for b in bounds_b if b < 90_000}
        assert before_a == before_b
        # boundaries after shift by exactly the insertion length
        after_a = {b + 2 for b in bounds_a if b > 110_000}
        after_b = {b for b in bounds_b if b > 110_000}
        assert after_a == after_b


class TestCdcChunks:
    def test_chunks_reassemble(self):
        data = DeterministicRandom(15).random_bytes(30_000)
        chunks = cdc_chunks(data, 1024)
        rebuilt = b"".join(data[c.offset : c.offset + c.length] for c in chunks)
        assert rebuilt == data

    def test_fingerprints_content_addressed(self):
        data = DeterministicRandom(16).random_bytes(30_000)
        chunks_a = cdc_chunks(data, 1024)
        chunks_b = cdc_chunks(data, 1024)
        assert [c.fingerprint for c in chunks_a] == [c.fingerprint for c in chunks_b]

    def test_charges_chunking_and_hash(self):
        meter = CostMeter()
        data = DeterministicRandom(17).random_bytes(10_000)
        cdc_chunks(data, 1024, meter=meter)
        assert meter.bytes_by_category["cdc_chunking"] == len(data)
        assert meter.bytes_by_category["dedup_hash"] == len(data)
