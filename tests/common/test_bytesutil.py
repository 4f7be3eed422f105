"""Unit and property tests for byte-range helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bytesutil import (
    apply_runs,
    apply_write,
    block_count,
    block_range,
    changed_fraction,
    iter_blocks,
    merge_ranges,
    truncate,
)


class TestBlockCount:
    def test_exact_multiple(self):
        assert block_count(8192, 4096) == 2

    def test_partial_block_rounds_up(self):
        assert block_count(4097, 4096) == 2

    def test_zero_size(self):
        assert block_count(0, 4096) == 0

    def test_one_byte(self):
        assert block_count(1, 4096) == 1

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            block_count(100, 0)


class TestBlockRange:
    def test_within_one_block(self):
        assert list(block_range(10, 100, 4096)) == [0]

    def test_spanning_two_blocks(self):
        assert list(block_range(4000, 200, 4096)) == [0, 1]

    def test_aligned_write(self):
        assert list(block_range(4096, 4096, 4096)) == [1]

    def test_zero_length(self):
        assert list(block_range(100, 0, 4096)) == []

    def test_exact_boundary_end(self):
        # write ending exactly at a block boundary does not touch the next
        assert list(block_range(0, 4096, 4096)) == [0]


class TestIterBlocks:
    def test_blocks_reassemble(self):
        data = bytes(range(256)) * 40
        blocks = list(iter_blocks(data, 1000))
        assert b"".join(b for _, b in blocks) == data
        assert [i for i, _ in blocks] == list(range(len(blocks)))

    def test_short_tail(self):
        blocks = list(iter_blocks(b"x" * 1001, 1000))
        assert len(blocks) == 2
        assert len(blocks[1][1]) == 1

    def test_empty(self):
        assert list(iter_blocks(b"", 1000)) == []


class TestApplyWrite:
    def test_overwrite_middle(self):
        assert apply_write(b"hello world", 6, b"there") == b"hello there"

    def test_extend(self):
        assert apply_write(b"abc", 3, b"def") == b"abcdef"

    def test_sparse_gap_zero_filled(self):
        assert apply_write(b"ab", 5, b"z") == b"ab\x00\x00\x00z"

    def test_write_into_empty(self):
        assert apply_write(b"", 0, b"data") == b"data"

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            apply_write(b"abc", -1, b"x")

    @given(
        base=st.binary(max_size=200),
        offset=st.integers(min_value=0, max_value=300),
        data=st.binary(max_size=100),
    )
    def test_result_length(self, base, offset, data):
        out = apply_write(base, offset, data)
        assert len(out) == max(len(base), offset + len(data))

    @given(
        base=st.binary(min_size=1, max_size=200),
        data=st.binary(min_size=1, max_size=50),
    )
    def test_written_bytes_present(self, base, data):
        offset = len(base) // 2
        out = apply_write(base, offset, data)
        assert out[offset : offset + len(data)] == data


class TestTruncate:
    def test_shrink(self):
        assert truncate(b"abcdef", 3) == b"abc"

    def test_grow_zero_fills(self):
        assert truncate(b"ab", 4) == b"ab\x00\x00"

    def test_same_length(self):
        assert truncate(b"abc", 3) == b"abc"

    def test_to_zero(self):
        assert truncate(b"abc", 0) == b""

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truncate(b"abc", -1)


_runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=300), st.binary(max_size=60)),
    max_size=6,
)


class TestAliasing:
    """A bytearray is mutated in place; bytes give new bytes, base untouched."""

    @given(
        base=st.binary(max_size=200),
        offset=st.integers(min_value=0, max_value=300),
        data=st.binary(max_size=100),
    )
    def test_apply_write_in_place_equals_pure(self, base, offset, data):
        pure = apply_write(base, offset, data)
        buffer = bytearray(base)
        assert apply_write(buffer, offset, data) is buffer
        assert type(pure) is bytes
        assert buffer == pure

    @given(base=st.binary(max_size=200), length=st.integers(0, 300))
    def test_truncate_in_place_equals_pure(self, base, length):
        pure = truncate(base, length)
        buffer = bytearray(base)
        assert truncate(buffer, length) is buffer
        assert type(pure) is bytes
        assert buffer == pure

    def test_first_write_into_empty_bytes_is_not_copied(self):
        data = b"payload"
        assert apply_write(b"", 0, data) is data
        copied = apply_write(b"", 0, bytearray(data))
        assert type(copied) is bytes and copied == data


class TestApplyRuns:
    @given(base=st.binary(max_size=200), runs=_runs)
    def test_equals_runs_applied_one_by_one(self, base, runs):
        expected = base
        for offset, data in runs:
            expected = apply_write(expected, offset, data)
        out = apply_runs(base, runs)
        assert type(out) is bytes
        assert out == expected

    def test_sorted_disjoint_runs_with_gap_past_end(self):
        assert apply_runs(b"abcdef", [(1, b"X"), (4, b"YZ"), (8, b"W")]) == (
            b"aXcdYZ\x00\x00W"
        )

    def test_later_run_wins_where_runs_overlap(self):
        assert apply_runs(b"abcdef", [(2, b"XXXX"), (1, b"YY")]) == b"aYYXXX"


    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            apply_runs(b"abc", [(-1, b"x")])


class TestMergeRanges:
    def test_disjoint_kept(self):
        assert merge_ranges([(0, 5), (10, 5)]) == [(0, 5), (10, 5)]

    def test_overlapping_merged(self):
        assert merge_ranges([(0, 5), (3, 5)]) == [(0, 8)]

    def test_adjacent_merged(self):
        assert merge_ranges([(0, 5), (5, 5)]) == [(0, 10)]

    def test_unsorted_input(self):
        assert merge_ranges([(10, 2), (0, 2)]) == [(0, 2), (10, 2)]

    def test_zero_length_dropped(self):
        assert merge_ranges([(5, 0)]) == []

    def test_empty(self):
        assert merge_ranges([]) == []

    def test_contained_range(self):
        assert merge_ranges([(0, 10), (2, 3)]) == [(0, 10)]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=1, max_value=100),
            ),
            max_size=30,
        )
    )
    def test_merged_cover_same_bytes(self, ranges):
        covered = set()
        for off, ln in ranges:
            covered.update(range(off, off + ln))
        merged = merge_ranges(ranges)
        merged_covered = set()
        for off, ln in merged:
            merged_covered.update(range(off, off + ln))
        assert merged_covered == covered
        # merged output is sorted and non-overlapping, non-adjacent
        for (o1, l1), (o2, _) in zip(merged, merged[1:]):
            assert o1 + l1 < o2


class TestChangedFraction:
    def test_full_coverage(self):
        assert changed_fraction([(0, 100)], 100) == 1.0

    def test_half(self):
        assert changed_fraction([(0, 50)], 100) == 0.5

    def test_overlaps_not_double_counted(self):
        assert changed_fraction([(0, 60), (40, 60)], 100) == 1.0

    def test_zero_size_file(self):
        assert changed_fraction([(0, 10)], 0) == 1.0

    def test_capped_at_one(self):
        assert changed_fraction([(0, 300)], 100) == 1.0
