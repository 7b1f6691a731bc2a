"""Unit tests for CHIME node layouts, lock words, and node views."""

import functools
import hashlib
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core.chime import ChimeIndex
from repro.core.node_layout import (
    ARGMAX_BITS,
    LeafLayout,
    SortedNodeLayout,
    VACANCY_BITS,
    VacancyBitmap,
    pack_lock_word,
    unpack_lock_word,
)
from repro.core.leaf_ops import HopscotchLeafOpsMixin
from repro.core.nodes import LeafNodeView, SortedNodeView
from repro.errors import HashTableFullError, LayoutError, TornReadError
from repro.hashing.hopscotch import HopscotchTable, default_hash
from repro.layout import MAX_KEY, StripedSpan
from repro.layout.versions import LINE, SpanSet, raw_span
from repro.memory.region import CACHE_LINE
from repro.obs import BUS
from tests.oracles import (
    check_entry_evs,
    check_hopscotch_bitmap,
    check_nv_uniform,
    collect_leaf_nv,
    compose_leaf,
    entry_evs,
    entry_nv,
    image_nv,
)


class TestLockWord:
    def test_roundtrip(self):
        word = pack_lock_word(True, 513, 0x1FFF)
        assert unpack_lock_word(word) == (True, 513, 0x1FFF)

    def test_unlocked(self):
        word = pack_lock_word(False, 0, 0)
        assert word == 0

    @given(st.booleans(),
           st.integers(min_value=0, max_value=(1 << ARGMAX_BITS) - 1),
           st.integers(min_value=0, max_value=(1 << VACANCY_BITS) - 1))
    def test_roundtrip_property(self, locked, argmax, vacancy):
        assert unpack_lock_word(pack_lock_word(locked, argmax, vacancy)) \
            == (locked, argmax, vacancy)

    def test_argmax_overflow_rejected(self):
        with pytest.raises(LayoutError):
            pack_lock_word(False, 1 << ARGMAX_BITS, 0)


class TestVacancyBitmap:
    def test_one_bit_per_entry_when_span_small(self):
        vmap = VacancyBitmap(span=16)
        assert vmap.bits == 16
        for entry in range(16):
            assert vmap.bit_of(entry) == entry
            assert list(vmap.coverage(entry)) == [entry]

    def test_coarse_mapping_for_large_span(self):
        vmap = VacancyBitmap(span=128)
        assert vmap.bits == VACANCY_BITS
        covered = set()
        for bit in range(vmap.bits):
            coverage = list(vmap.coverage(bit))
            assert coverage, "every bit must cover at least one entry"
            covered.update(coverage)
        assert covered == set(range(128))

    def test_bit_of_matches_coverage(self):
        vmap = VacancyBitmap(span=100)
        for entry in range(100):
            assert entry in vmap.coverage(vmap.bit_of(entry))

    def test_compose_full_and_empty(self):
        vmap = VacancyBitmap(span=16)
        assert vmap.compose([True] * 16) == (1 << 16) - 1
        assert vmap.compose([False] * 16) == 0

    def test_compose_coarse_bit_requires_all_occupied(self):
        vmap = VacancyBitmap(span=106)  # 2 entries per bit for most bits
        occupied = [True] * 106
        occupied[3] = False
        bitmap = vmap.compose(occupied)
        assert not (bitmap & (1 << vmap.bit_of(3)))

    def test_first_maybe_empty_simple(self):
        vmap = VacancyBitmap(span=16)
        bitmap = vmap.compose([True] * 8 + [False] + [True] * 7)
        assert vmap.first_maybe_empty(bitmap, home=2) == 8
        assert vmap.first_maybe_empty(bitmap, home=10) == 8  # wraps

    def test_first_maybe_empty_full(self):
        vmap = VacancyBitmap(span=16)
        assert vmap.first_maybe_empty((1 << 16) - 1, home=0) == -1

    def test_first_maybe_empty_home_bit_clear(self):
        vmap = VacancyBitmap(span=16)
        bitmap = vmap.compose([True] * 4 + [False] + [True] * 11)
        # Home's own bit clear: the probe must start at home itself.
        assert vmap.first_maybe_empty(bitmap, home=4) == 4


def internal_layout(span):
    """The sorted-array node as every internal level has it: 8-byte
    child pointers for values, plus the level byte."""
    return SortedNodeLayout(span, level_byte=True)


class TestInternalLayout:
    def test_sizes_consistent(self):
        layout = internal_layout(span=64)
        assert layout.logical_size == layout.header_size + 64 * layout.entry_size
        assert layout.total_size % CACHE_LINE == 0
        assert layout.lock_offset == layout.total_size - CACHE_LINE
        assert layout.lock_offset >= layout.raw_size

    def test_entry_offsets_disjoint(self):
        layout = internal_layout(span=8)
        offsets = [layout.entry_offset(i) for i in range(8)]
        for a, b in zip(offsets, offsets[1:]):
            assert b - a == layout.entry_size

    def test_bad_entry_index(self):
        layout = internal_layout(span=8)
        with pytest.raises(LayoutError):
            layout.entry_offset(8)


class TestLeafLayout:
    def test_replicated_blocks(self):
        layout = LeafLayout(span=64, neighborhood=8)
        assert layout.num_blocks == 8
        assert layout.logical_size == 8 * layout.block_size

    def test_span_must_divide(self):
        with pytest.raises(LayoutError):
            LeafLayout(span=60, neighborhood=8)

    def test_entry_offsets_skip_replicas(self):
        layout = LeafLayout(span=16, neighborhood=8)
        # Entry 8 starts block 1, after its replica.
        assert layout.entry_offset(8) == layout.block_size + layout.replica_size
        assert layout.replica_offset(1) == layout.block_size

    def test_fence_key_mode_bigger_replicas(self):
        plain = LeafLayout(span=64, neighborhood=8, fence_keys=False)
        fenced = LeafLayout(span=64, neighborhood=8, fence_keys=True)
        assert fenced.replica_size == plain.replica_size + 16
        assert fenced.logical_size > plain.logical_size

    def test_unreplicated_single_header(self):
        layout = LeafLayout(span=64, neighborhood=8, replicated=False)
        assert layout.num_blocks == 1
        assert layout.entry_offset(0) == layout.replica_size

    def test_neighborhood_segments_aligned_home(self):
        layout = LeafLayout(span=64, neighborhood=8)
        segments = layout.neighborhood_segments(8)
        assert len(segments) == 1
        start, length = segments[0]
        assert start == layout.replica_offset(1)  # adjacent replica included
        assert start + length == layout.entry_offset(15) + layout.entry_size

    def test_neighborhood_segments_unaligned_home(self):
        layout = LeafLayout(span=64, neighborhood=8)
        segments = layout.neighborhood_segments(10)
        assert len(segments) == 1
        start, length = segments[0]
        assert start == layout.entry_offset(10)
        # The block-2 replica lies inside the span (encompassed).
        assert start < layout.replica_offset(2) < start + length

    def test_neighborhood_segments_wraparound(self):
        layout = LeafLayout(span=64, neighborhood=8)
        segments = layout.neighborhood_segments(60)
        assert len(segments) == 2
        head = segments[1]
        assert head[0] == 0  # starts at block 0's replica
        tail = segments[0]
        assert tail[0] == layout.entry_offset(60)

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=64, deadline=None)
    def test_neighborhood_segments_cover_all_entries(self, home):
        layout = LeafLayout(span=64, neighborhood=8)
        segments = layout.neighborhood_segments(home)

        def covered(offset):
            return any(s <= offset and offset + layout.entry_size <= s + ln
                       for s, ln in segments)

        for step in range(8):
            pos = (home + step) % 64
            assert covered(layout.entry_offset(pos)), (home, pos)

    def test_range_segments_include_replica(self):
        layout = LeafLayout(span=64, neighborhood=8)
        segments = layout.range_segments(9, 20)
        assert segments[0][0] == layout.replica_offset(1)

    @pytest.mark.parametrize(
        "neighborhood,entry,leaf,memory,neighborhood_reads,entry_reads", [
            (8, 18, 1252, 1344, {156, 157}, {18, 19}),  # one-byte bitmaps
            (16, 19, 1276, 1344, {318, 319}, {19, 20}),  # two-byte bitmaps
        ], ids=["H=8", "H=16"])
    def test_wire_sizes_at_span_64(self, neighborhood, entry, leaf, memory,
                                   neighborhood_reads, entry_reads):
        """Raw bytes on the wire per read shape, and per leaf in MN
        memory: a change to the entry format fails here by name."""
        layout = LeafLayout(span=64, neighborhood=neighborhood)
        assert layout.entry_size == entry
        assert layout.raw_size == leaf
        # A scan reads the whole leaf from its first payload byte.
        assert layout.full_shape().raw_len == leaf - 1
        assert layout.total_size == memory
        assert {layout.neighborhood_shape(home).raw_len
                for home in range(64)} == neighborhood_reads
        assert {layout.entry_shape(index).raw_len
                for index in range(64)} == entry_reads


class TestInternalNodeView:
    def test_compose_parse_roundtrip(self):
        layout = internal_layout(span=8)
        entries = [(10, 0x100), (20, 0x200), (30, 0x300)]
        view = SortedNodeView.compose(layout, entries, sibling=0x999,
                                      fence_low=10, fence_high=100, nv=5,
                                      level=2)
        parsed = view.parse(addr=0xABC)
        assert parsed.level == 2
        assert parsed.count == 3
        assert (parsed.fence_low, parsed.fence_high) == (10, 100)
        assert parsed.sibling == 0x999
        assert list(zip(parsed.pivots, parsed.children)) == entries
        assert parsed.nv == 5
        assert view.is_consistent()

    def test_find_child_binary_search(self):
        layout = internal_layout(span=8)
        entries = [(0, 0xA), (10, 0xB), (20, 0xC)]
        view = SortedNodeView.compose(layout, entries, 0, 0, MAX_KEY, level=1)
        parsed = view.parse(0)
        assert parsed.find_child(5) == (0, 0xA)
        assert parsed.find_child(10) == (1, 0xB)
        assert parsed.find_child(15) == (1, 0xB)
        assert parsed.find_child(10**9) == (2, 0xC)

    def test_next_child(self):
        layout = internal_layout(span=8)
        entries = [(0, 0xA), (10, 0xB)]
        parsed = SortedNodeView.compose(layout, entries, 0, 0, MAX_KEY,
                                        level=1).parse(0)
        assert parsed.next_child(0) == 0xB
        assert parsed.next_child(1) is None

    def test_inconsistent_after_partial_overwrite(self):
        layout = internal_layout(span=8)
        view_a = SortedNodeView.compose(layout, [(0, 1)], 0, 0, MAX_KEY,
                                        nv=1, level=1)
        view_b = SortedNodeView.compose(layout, [(0, 1)], 0, 0, MAX_KEY,
                                        nv=2, level=1)
        torn = bytearray(view_a.span.data)
        torn[:64] = view_b.span.data[:64]
        from repro.layout import StripedSpan
        observed = SortedNodeView(layout, StripedSpan(bytes(torn), 0))
        assert not observed.is_consistent()


class TestLeafNodeView:
    def test_blank_entries_empty(self):
        layout = LeafLayout(span=16, neighborhood=8)
        view = LeafNodeView.blank(layout, sibling=0x42)
        for index in range(16):
            entry = view.entry(index)
            assert not entry.occupied
            assert entry.bitmap == 0
        for block in range(layout.num_blocks):
            assert view.replica_sibling(block) == 0x42
            assert view.replica_valid(block)

    def test_write_read_entry(self):
        layout = LeafLayout(span=16, neighborhood=8)
        view = LeafNodeView.blank(layout)
        view.write_entry(5, key=123, value=456, bitmap=0b101)
        entry = view.entry(5)
        assert (entry.key, entry.value, entry.bitmap) == (123, 456, 0b101)
        assert entry.occupied

    def test_entry_ev_bumped_consistently(self):
        layout = LeafLayout(span=16, neighborhood=8)
        view = LeafNodeView.blank(layout)
        view.write_entry(5, 1, 2)
        view.write_entry(5, 3, 4)
        evs = set(entry_evs(view, 5))
        assert evs == {2}  # two writes, all EV positions in lockstep

    def test_clear_entry_keeps_bitmap(self):
        layout = LeafLayout(span=16, neighborhood=8)
        view = LeafNodeView.blank(layout)
        view.write_entry(5, 1, 2, bitmap=0b11)
        view.clear_entry(5)
        entry = view.entry(5)
        assert not entry.occupied
        assert entry.bitmap == 0b11

    def test_items_and_occupancy(self):
        layout = LeafLayout(span=16, neighborhood=8)
        view = LeafNodeView.blank(layout)
        view.write_entry(2, 10, 100)
        view.write_entry(7, 20, 200)
        assert view.items() == [(2, 10, 100), (7, 20, 200)]
        occupancy = view.occupancy()
        assert occupancy[2] and occupancy[7]
        assert sum(occupancy) == 2

    def test_argmax(self):
        layout = LeafLayout(span=16, neighborhood=8)
        view = LeafNodeView.blank(layout)
        view.write_entry(2, 10, 0)
        view.write_entry(9, 999, 0)
        view.write_entry(12, 500, 0)
        assert view.argmax_key() == 9

    def test_fence_key_mode_replicas(self):
        layout = LeafLayout(span=16, neighborhood=8, fence_keys=True)
        view = LeafNodeView.blank(layout, sibling=1, fence_low=5,
                                  fence_high=50)
        for block in range(layout.num_blocks):
            assert view.replica_fences(block) == (5, 50)


def random_leaf_image(layout, seed, torn):
    """A full raw leaf image: random occupancy, bitmaps and (when *torn*)
    an independent random version byte at every line and entry."""
    rng = random.Random(seed)
    view = LeafNodeView.blank(layout, sibling=rng.getrandbits(48),
                              nv=rng.randrange(16))
    value_bits = 8 * min(layout.value_size, 8)
    for index in range(layout.span):
        if rng.random() < 0.6:
            view.write_entry(index, rng.randrange(1, MAX_KEY),
                             rng.getrandbits(value_bits),
                             bitmap=rng.getrandbits(layout.neighborhood),
                             bump_ev=rng.random() < 0.5)
        elif rng.random() < 0.3:
            view.set_entry_bitmap(index, rng.getrandbits(layout.neighborhood),
                                  bump_ev=False)
    if torn:
        data = view.span.data
        for pos in range(0, len(data), LINE):
            data[pos] = rng.randrange(256)
        for index in range(layout.span):
            view.span.write_logical(layout.entry_offset(index),
                                    bytes([rng.randrange(256)]))
    return bytes(view.span.data)


def oracle(view):
    """Whole-leaf answers computed one entry at a time."""
    entries = [view.entry(i) for i in range(view.layout.span)]
    items = [(e.index, e.key, e.value) for e in entries if e.occupied]
    argmax, best = 0, -1
    for e in entries:
        if e.occupied and e.key > best:
            argmax, best = e.index, e.key
    nv = view.span.nv_nibbles() + [entry_nv(view, i)
                                   for i in range(view.layout.span)]
    return entries, items, argmax, nv


class TestLeafImageCodec:
    """The compiled image codec against the per-entry accessors."""

    @settings(max_examples=60, deadline=None)
    @given(span=st.sampled_from([8, 16, 64]),
           neighborhood=st.sampled_from([4, 8]),
           value_size=st.sampled_from([4, 8, 32, 253]),
           replicated=st.booleans(), fence_keys=st.booleans(),
           seed=st.integers(0, 2**32), torn=st.booleans())
    def test_codec_equals_per_entry_oracle(self, span, neighborhood,
                                           value_size, replicated,
                                           fence_keys, seed, torn):
        layout = LeafLayout(span=span, neighborhood=neighborhood,
                            value_size=value_size, replicated=replicated,
                            fence_keys=fence_keys)
        raw = random_leaf_image(layout, seed, torn)
        view = LeafNodeView(layout, StripedSpan(raw))
        entries, items, argmax, nv = oracle(view)
        start = random.Random(seed).choice(
            [0, 1] + [key for _i, key, _v in items])

        def check_decodes(candidate):
            assert candidate.items() == items
            assert candidate.pairs() == [(k, v) for _i, k, v in items]
            assert candidate.pairs(start) == [(k, v) for _i, k, v in items
                                              if k >= start]
            assert candidate.occupancy() == [e.occupied for e in entries]
            assert candidate.argmax_key() == argmax
            assert list(candidate.keys()) == [e.key for e in entries]
            assert list(candidate.bitmaps()) == [e.bitmap for e in entries]

        check_decodes(view)
        assert image_nv(view) == nv
        assert collect_leaf_nv(view, range(span)) == nv
        # A locked full-leaf fetch starts at the first payload byte.
        check_decodes(LeafNodeView(layout, StripedSpan(raw[1:], base=1)))
        # A wrap-around fetch has no contiguous image: the accessors
        # still answer, segment by segment.
        first = 1 + seed % (span - 1)
        spans = []
        for off, length in layout.range_segments(first, first - 1):
            raw_off, raw_len = raw_span(off, length)
            spans.append(StripedSpan(raw[raw_off:raw_off + raw_len],
                                     base=raw_off))
        segmented = LeafNodeView(layout, SpanSet(spans))
        check_decodes(segmented)
        assert collect_leaf_nv(segmented, range(span)) == (
            segmented.span.nv_nibbles() + nv[-span:])

    @pytest.mark.parametrize("cut", [1, LINE, 700])
    def test_short_image_raises(self, cut):
        layout = LeafLayout(span=64, neighborhood=8)
        raw = random_leaf_image(layout, seed=3, torn=False)
        view = LeafNodeView(layout, StripedSpan(raw[:-cut]))
        for decode in (view.items, view.pairs, view.occupancy,
                       view.argmax_key, view.keys, view.bitmaps,
                       lambda: image_nv(view),
                       lambda: collect_leaf_nv(view, range(64))):
            with pytest.raises(LayoutError):
                decode()
        # ... and so does a span that starts past the first payload byte.
        late = LeafNodeView(layout, StripedSpan(raw[LINE:], base=LINE))
        with pytest.raises(LayoutError):
            late.items()


class TestLeafImageEncoder:
    """``LeafLayout.encode_image`` against the per-entry composition of
    ``tests.oracles.compose_leaf`` (a blank view, then one ``write_entry``
    per position), and the lock word that goes with the image."""

    @staticmethod
    def _per_bit_vacancy(span, occupied):
        """The vacancy bitmap from its definition, one bit at a time: bit
        b covers entries [ceil(b * span / bits), ceil((b + 1) * span /
        bits)) and is set when all of them are occupied."""
        bits = min(VACANCY_BITS, span)
        bitmap = 0
        for bit in range(bits):
            cover = range(-(-bit * span // bits),
                          min(-(-(bit + 1) * span // bits), span))
            if all(occupied[entry] for entry in cover):
                bitmap |= 1 << bit
        return bitmap

    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (5, 5), (8, 1), (16, 2), (16, 16),
                                  (63, 7), (64, 8), (64, 16), (128, 8)]),
           value_size=st.integers(1, 64), replicated=st.booleans(),
           fence_keys=st.booleans(), nv=st.integers(0, 15),
           seed=st.integers(0, 2**32))
    def test_image_equals_per_entry_oracle(self, shape, value_size,
                                           replicated, fence_keys, nv, seed):
        span, neighborhood = shape
        layout = LeafLayout(span=span, neighborhood=neighborhood,
                            value_size=value_size, replicated=replicated,
                            fence_keys=fence_keys)
        rng = random.Random(seed)
        load = rng.choice([0.0, rng.random(), 1.0])
        keys = [rng.randrange(1, MAX_KEY + 1) if rng.random() < load else 0
                for _ in range(span)]
        value_bits = 8 * min(value_size, 8)
        values = [rng.getrandbits(value_bits) if key else 0 for key in keys]
        bitmaps = [rng.getrandbits(neighborhood) for _ in range(span)]
        meta = (rng.getrandbits(64), rng.getrandbits(64), rng.getrandbits(64))
        image = layout.encode_image(keys, values, bitmaps, *meta, nv=nv)
        reference = compose_leaf(layout, keys, values, bitmaps, *meta, nv=nv)
        assert image == bytes(reference.span.data)
        assert len(image) == layout.raw_size
        # Decoding what was encoded is the identity, vectors in any
        # sequence type.
        view = LeafNodeView(layout, StripedSpan(image))
        assert list(view.keys()) == keys
        assert list(view.values()) == values
        assert list(view.bitmaps()) == bitmaps
        assert set(image_nv(view)) == {nv}
        assert layout.encode_image(tuple(keys), tuple(values),
                                   tuple(bitmaps), *meta, nv=nv) == image
        # The lock word that accompanies the image.
        vmap = VacancyBitmap(span)
        locked, argmax, vacancy = unpack_lock_word(vmap.lock_word(keys))
        assert not locked
        assert argmax == keys.index(max(keys)) == view.argmax_key()
        assert vacancy == self._per_bit_vacancy(span, [bool(k) for k in keys])
        assert vacancy == vmap.compose(view.occupancy())
        for bit in range(vmap.bits):
            assert [vmap.bit_of(entry) for entry in vmap.coverage(bit)] == (
                [bit] * len(vmap.coverage(bit)))

    @pytest.mark.parametrize("replicated", [True, False])
    @pytest.mark.parametrize("neighborhood", range(1, 17),
                             ids=lambda h: f"H={h}-{-(-h // 8)}B-bitmap")
    def test_every_neighborhood_equals_per_entry_oracle(self, neighborhood,
                                                        replicated):
        """Every H a ``ChimeConfig`` admits, across the bitmap's width
        boundary (one byte through H = 8, two from H = 9): the encoder,
        the per-entry writes and the oracle compose one image, and the
        column decoders and entry accessors read back what went in."""
        span = 4 * neighborhood
        layout = LeafLayout(span=span, neighborhood=neighborhood,
                            replicated=replicated)
        assert layout.bitmap_size == (1 if neighborhood <= 8 else 2)
        assert layout.entry_off_key == 1 + layout.bitmap_size
        rng = random.Random(neighborhood)
        keys = [rng.randrange(1, MAX_KEY + 1) if rng.random() < 0.7 else 0
                for _ in range(span)]
        values = [rng.getrandbits(64) if key else 0 for key in keys]
        bitmaps = [rng.getrandbits(neighborhood) for _ in range(span)]
        bitmaps[0] = (1 << neighborhood) - 1  # every flag of an H-bit bitmap
        image = layout.encode_image(keys, values, bitmaps, 7, nv=3)
        assert image == bytes(compose_leaf(layout, keys, values, bitmaps, 7,
                                           nv=3).span.data)
        written = LeafNodeView.blank(layout, 7, nv=3)
        for pos in range(span):
            written.write_entry(pos, keys[pos], values[pos],
                                bitmap=bitmaps[pos], bump_ev=False)
        assert bytes(written.span.data) == image
        view = LeafNodeView(layout, StripedSpan(image))
        assert list(view.bitmaps()) == bitmaps
        assert list(view.keys()) == keys and list(view.values()) == values
        assert [(entry.bitmap, entry.key, entry.value) for entry in
                map(view.entry, range(span))] == list(zip(bitmaps, keys,
                                                          values))
        assert [view.entry_bitmap(pos) for pos in range(span)] == bitmaps
        assert [view.entry_key(pos) for pos in range(span)] == keys
        # A bitmap one byte wider than the entry holds does not fit.
        bitmaps[1] = 1 << 8 * layout.bitmap_size
        with pytest.raises(LayoutError):
            layout.encode_image(keys, values, bitmaps, 7, nv=3)

    @pytest.mark.parametrize("vector", [0, 1, 2])
    @pytest.mark.parametrize("length", [0, 63, 65])
    def test_vector_of_the_wrong_length_raises(self, vector, length):
        layout = LeafLayout(span=64, neighborhood=8)
        vectors = [[0] * 64, [0] * 64, [0] * 64]
        vectors[vector] = [0] * length
        with pytest.raises(LayoutError):
            layout.encode_image(*vectors)

    @pytest.mark.parametrize("value_size,value", [
        (1, 256), (3, 1 << 24), (7, 1 << 56), (8, 1 << 64), (64, 1 << 64),
        (8, -1), (4, -1)])
    def test_value_that_does_not_fit_raises(self, value_size, value):
        layout = LeafLayout(span=8, neighborhood=4, value_size=value_size)
        vectors = ([7] + [0] * 7, [value] + [0] * 7, [1] + [0] * 7)
        with pytest.raises(LayoutError):
            layout.encode_image(*vectors)
        # The widest value that does fit is accepted.
        vectors[1][0] = (1 << 8 * min(value_size, 8)) - 1
        view = LeafNodeView(layout, StripedSpan(layout.encode_image(*vectors)))
        assert view.items() == [(0, 7, vectors[1][0])]

    @pytest.mark.parametrize("field,value", [
        ("keys", MAX_KEY + 1), ("keys", -1), ("bitmaps", 1 << 16),
        ("sibling", 1 << 64), ("fence_low", MAX_KEY + 1),
        ("fence_high", -1)])
    def test_field_that_does_not_fit_raises(self, field, value):
        layout = LeafLayout(span=8, neighborhood=4, fence_keys=True)
        fields = dict(keys=[0] * 8, values=[0] * 8, bitmaps=[0] * 8,
                      sibling=0, fence_low=0, fence_high=0, nv=0)
        if field in ("keys", "bitmaps"):
            fields[field][3] = value
        else:
            fields[field] = value
        with pytest.raises(LayoutError):
            layout.encode_image(**fields)

    def test_vacancy_compose_rejects_wrong_length(self):
        with pytest.raises(LayoutError):
            VacancyBitmap(16).compose([True] * 15)


def hopscotch_leaf_image(layout, seed):
    """A raw leaf image a reader may find at rest: keys placed by
    hopscotch hashing with truthful bitmaps, one NV everywhere, and EVs
    bumped a random number of times per entry.  Returns (raw, keys)."""
    rng = random.Random(seed)
    table = HopscotchTable(layout.span, layout.neighborhood)
    for _ in range(int(layout.span * 0.7)):
        try:
            table.insert(rng.randrange(1, MAX_KEY), 0)
        except HashTableFullError:
            break
    view = LeafNodeView.blank(
        layout, sibling=rng.getrandbits(48), nv=rng.randrange(16),
        fence_low=rng.getrandbits(32), fence_high=rng.getrandbits(63))
    value_bits = 8 * min(layout.value_size, 8)
    for pos in range(layout.span):
        key, bitmap = table._keys[pos], table.bitmap(pos)
        for _ in range(rng.randrange(3)):
            view.bump_entry_ev(pos)
        if key is not None:
            view.write_entry(pos, key, rng.getrandbits(value_bits),
                             bitmap=bitmap, bump_ev=False)
        elif bitmap:
            view.set_entry_bitmap(pos, bitmap, bump_ev=False)
    return bytes(view.span.data), [k for k in table._keys if k is not None]


def torn_level(check):
    """(result, level): *check*'s result and None, or None and the level
    of the one ``sync.torn`` event it emitted before raising."""
    levels = []
    watch = BUS.subscribe(lambda event: levels.append(event.data["level"]),
                          kinds=["sync.torn"])
    try:
        return check(), None
    except TornReadError:
        level, = levels
        return None, level
    finally:
        watch.unsubscribe()


class TestReadShape:
    """The compiled read shapes against the per-entry checks of
    ``tests/oracles.py`` and the ``LeafNodeView`` accessors."""

    @staticmethod
    def fetched(shape, raw):
        """The payloads *shape* fetches out of leaf image *raw*."""
        return [raw[off:off + length]
                for group in shape.rounds for off, length in group]

    @staticmethod
    def oracle_neighborhood(layout, shape, payloads, home, hash_home, key):
        """(sibling, valid, fences, (position, value)) through a view
        over the same bytes, checked entry by entry."""
        spans = [StripedSpan(data, base=off) for data, (off, _length)
                 in zip(payloads, [r for g in shape.rounds for r in g])]
        view = LeafNodeView(layout, SpanSet(spans))
        indices = [(home + o) % layout.span
                   for o in range(layout.neighborhood)]
        check_nv_uniform(collect_leaf_nv(view, indices))
        check_entry_evs(view, indices)
        check_hopscotch_bitmap(view, home, hash_home)
        position = HopscotchLeafOpsMixin._find_in_neighborhood(
            types.SimpleNamespace(layout=layout), view, home, key)
        block = layout.neighborhood_replica_block(home)
        return (view.replica_sibling(block), view.replica_valid(block),
                view.replica_fences(block) if layout.fence_keys else None,
                position if position is None
                else (position, view.entry(position).value))

    @staticmethod
    def shape_neighborhood(layout, shape, payloads, hash_home, key):
        read = shape.decode(b"".join(payloads), hash_home)
        return (read.sibling, read.valid,
                read.fences if layout.fence_keys else None, read.find(key))

    @staticmethod
    def oracle_entry(layout, shape, payloads, index, key):
        (off, _length), = shape.rounds[0]
        view = LeafNodeView(layout, StripedSpan(payloads[0], base=off))
        check_nv_uniform(collect_leaf_nv(view, [index]))
        check_entry_evs(view, [index])
        entry = view.entry(index)
        if entry.occupied and entry.key == key:
            return index, entry.value
        return None

    layouts = dict(span=st.sampled_from([8, 16, 64]),
                   neighborhood=st.sampled_from([4, 8]),
                   value_size=st.sampled_from([4, 8, 32, 253]),
                   replicated=st.booleans(), fence_keys=st.booleans(),
                   seed=st.integers(0, 2**32))

    @settings(max_examples=40, deadline=None)
    @given(**layouts)
    def test_shape_equals_per_entry_oracle(self, span, neighborhood,
                                           value_size, replicated,
                                           fence_keys, seed):
        layout = LeafLayout(span=span, neighborhood=neighborhood,
                            value_size=value_size, replicated=replicated,
                            fence_keys=fence_keys)
        raw, keys = hopscotch_leaf_image(layout, seed)
        hash_home = functools.partial(default_hash, capacity=span)
        homes = {}
        for key in keys:
            homes.setdefault(hash_home(key), key)
        for home in range(span):  # wrap-around homes included
            shape = layout.neighborhood_shape(home)
            assert layout.neighborhood_shape(home) is shape  # memoised
            segments = layout.neighborhood_segments(home)
            if not replicated:  # the dedicated header READ goes first
                assert shape.rounds[0] == (raw_span(0, layout.replica_size),)
            assert shape.rounds[-1] == tuple(raw_span(off, length)
                                             for off, length in segments)
            payloads = self.fetched(shape, raw)
            absent = (seed + home) % MAX_KEY + 1
            for key in (homes.get(home, absent), absent):
                assert self.shape_neighborhood(
                    layout, shape, payloads, hash_home, key
                ) == self.oracle_neighborhood(
                    layout, shape, payloads, home, hash_home, key)
        view = LeafNodeView(layout, StripedSpan(raw))
        for index in range(span):  # every speculative entry read
            shape = layout.entry_shape(index)
            assert shape.rounds == ((raw_span(layout.entry_offset(index),
                                              layout.entry_size),),)
            payloads = self.fetched(shape, raw)
            read = shape.decode(payloads[0])
            assert (read.sibling, read.valid) == (None, None)
            for key in (view.entry_key(index), 0, seed % MAX_KEY + 1):
                assert read.find(key) == self.oracle_entry(
                    layout, shape, payloads, index, key)

    @settings(max_examples=40, deadline=None)
    @given(home=st.integers(0, 63), **layouts)
    def test_torn_bytes_fail_at_the_oracles_level(self, home, span,
                                                  neighborhood, value_size,
                                                  replicated, fence_keys,
                                                  seed):
        layout = LeafLayout(span=span, neighborhood=neighborhood,
                            value_size=value_size, replicated=replicated,
                            fence_keys=fence_keys)
        home %= span
        raw, _keys = hopscotch_leaf_image(layout, seed)
        hash_home = functools.partial(default_hash, capacity=span)
        shape = layout.neighborhood_shape(home)
        requests = [r for group in shape.rounds for r in group]

        def outcomes(image):
            payloads = self.fetched(shape, image)
            return (torn_level(lambda: self.shape_neighborhood(
                        layout, shape, payloads, hash_home, 1)),
                    torn_level(lambda: self.oracle_neighborhood(
                        layout, shape, payloads, home, hash_home, 1)))

        def flipped(raw_off, mask):
            image = bytearray(raw)
            image[raw_off] ^= mask
            return bytes(image)

        got, expected = outcomes(raw)
        assert got == expected and got[1] is None
        # Every fetched version byte: the line bytes inside the fetched
        # segments and the version byte of each neighbourhood entry.
        version_bytes = [pos for off, length in requests
                         for pos in range(off, off + length) if pos % LINE == 0]
        version_bytes += [layout._entry_ev_ranges[(home + o) % span][0]
                          for o in range(neighborhood)]
        for raw_off in version_bytes:
            got, expected = outcomes(flipped(raw_off, 0x10))  # NV nibble
            assert got == expected and got[1] == 1
            # EV nibble: torn (level 2) iff an entry spans this byte and
            # another version byte; shape and oracle must agree which.
            got, expected = outcomes(flipped(raw_off, 0x01))
            assert got == expected and got[1] in (None, 2)
        straddling = [r for r in (layout._entry_ev_ranges[(home + o) % span]
                                  for o in range(neighborhood))
                      if r[1] < r[2]]
        for entry_byte, line_byte, _end in straddling:
            for raw_off in (entry_byte, line_byte):
                assert outcomes(flipped(raw_off, 0x01))[0][1] == 2
        # The stored home bitmap (first payload byte after the home
        # entry's version byte; never a line byte for these layouts).
        bitmap_at = raw_span(layout.entry_offset(home) + 1, 1)[0]
        got, expected = outcomes(flipped(bitmap_at, 0x01))
        assert got == expected and got[1] == 3

    @staticmethod
    def oracle_whole(layout, shape, payloads, hash_home, start):
        """(sibling, valid, fences, pairs >= start) through a view over
        the same bytes: every entry checked on its own, every home's
        bitmap rebuilt by hashing its neighbourhood's keys."""
        (off, _length), = shape.rounds[0]
        view = LeafNodeView(layout, StripedSpan(payloads[0], base=off))
        every = range(layout.span)
        check_nv_uniform(collect_leaf_nv(view, every))
        check_entry_evs(view, every)
        for home in every:
            check_hopscotch_bitmap(view, home, hash_home)
        return (view.replica_sibling(0), view.replica_valid(0),
                view.replica_fences(0) if layout.fence_keys else None,
                view.pairs(start))

    @staticmethod
    def shape_whole(layout, shape, payloads, hash_home, start):
        read = shape.decode(payloads[0], hash_home)
        return (read.sibling, read.valid,
                read.fences if layout.fence_keys else None, read.pairs(start))

    @settings(max_examples=40, deadline=None)
    @given(**layouts)
    def test_whole_leaf_shape_equals_per_entry_oracle(
            self, span, neighborhood, value_size, replicated, fence_keys,
            seed):
        layout = LeafLayout(span=span, neighborhood=neighborhood,
                            value_size=value_size, replicated=replicated,
                            fence_keys=fence_keys)
        raw, keys = hopscotch_leaf_image(layout, seed)
        hash_home = functools.partial(default_hash, capacity=span)
        shape = layout.full_shape()
        assert layout.full_shape() is shape  # memoised
        assert shape.rounds == ((raw_span(0, layout.logical_size),),)

        def outcomes(image, start=1):
            payloads = self.fetched(shape, image)
            return (torn_level(lambda: self.shape_whole(
                        layout, shape, payloads, hash_home, start)),
                    torn_level(lambda: self.oracle_whole(
                        layout, shape, payloads, hash_home, start)))

        def flipped(raw_off, mask):
            image = bytearray(raw)
            image[raw_off] ^= mask
            return bytes(image)

        for start in [0, 1, seed % MAX_KEY + 1] + keys[:2]:
            got, expected = outcomes(raw, start)
            assert got == expected and got[1] is None
        (off, length), = shape.rounds[0]
        version_bytes = [pos for pos in range(off, off + length)
                         if pos % LINE == 0]
        version_bytes += [entry for entry, _f, _e in layout._entry_ev_ranges]
        for raw_off in version_bytes:
            got, expected = outcomes(flipped(raw_off, 0x10))  # NV nibble
            assert got == expected and got[1] == 1
            got, expected = outcomes(flipped(raw_off, 0x01))  # EV nibble
            assert got == expected and got[1] in (None, 2)
        for entry_byte, line_byte, end in layout._entry_ev_ranges:
            if line_byte < end:  # the entry straddles a line
                for raw_off in (entry_byte, line_byte):
                    assert outcomes(flipped(raw_off, 0x01))[0][1] == 2
        for home in range(span):  # a flag more or less in any bitmap
            bitmap_at = raw_span(layout.entry_offset(home) + 1, 1)[0]
            got, expected = outcomes(flipped(bitmap_at, 0x01))
            assert got == expected and got[1] == 3

    @pytest.mark.parametrize("span,neighborhood", [
        (64, 8), (64, 16), (16, 4), (16, 8), (16, 16), (8, 4)])
    def test_whole_leaf_bitmap_rule_equals_the_hashed_oracle_mid_hop(
            self, span, neighborhood):
        """An insert's entry writes land in position order.  After
        every strict prefix of them (each entry whole: levels 1 and 2
        see nothing) the whole-leaf rule — flags = occupied entries,
        each once, no key twice, wrapped flags hashed — must say what
        hashing every key of every neighbourhood says.  Never agreeing
        by accident: a hop chain that wraps past the table's end leaves
        a key under another home's flag with every count right."""
        layout = LeafLayout(span=span, neighborhood=neighborhood)
        hash_home = functools.partial(default_hash, capacity=span)
        shape = layout.full_shape()
        rng = random.Random(span * 100 + neighborhood)
        caught = wrapped = 0

        def state(table):
            return ([key or 0 for key in table._keys], list(table._bitmaps))

        def level(keys, bitmaps, check):
            image = layout.encode_image(keys, [0] * span, bitmaps)
            payloads = self.fetched(shape, image)
            return torn_level(lambda: check(layout, shape, payloads,
                                            hash_home, 1) and None)[1]

        for _table in range(60):
            table = HopscotchTable(span, neighborhood)
            for _insert in range(span):
                old_keys, old_bitmaps = state(table)
                try:
                    table.insert(rng.randrange(1, 1 << 40), 0)
                except HashTableFullError:
                    break
                new_keys, new_bitmaps = state(table)
                written = [pos for pos in range(span)
                           if (old_keys[pos], old_bitmaps[pos])
                           != (new_keys[pos], new_bitmaps[pos])]
                for landed in range(1, len(written)):
                    keys, bitmaps = list(old_keys), list(old_bitmaps)
                    for pos in written[:landed]:
                        keys[pos], bitmaps[pos] = new_keys[pos], new_bitmaps[pos]
                    expected = level(keys, bitmaps, self.oracle_whole)
                    assert level(keys, bitmaps, self.shape_whole) == expected
                    assert expected == 3  # no prefix is a resting state
                    caught += 1
                    # The flag-count rule alone would have passed it:
                    flags = [0] * span
                    for home, bitmap in enumerate(bitmaps):
                        for offset in range(neighborhood):
                            if bitmap >> offset & 1:
                                flags[(home + offset) % span] += 1
                    wrapped += flags == [int(bool(key)) for key in keys]
        assert caught > 200
        assert wrapped or neighborhood == span  # no hop when every entry is near

    def test_short_payload_raises_instead_of_shifting(self):
        layout = LeafLayout(span=64, neighborhood=8)
        raw, _keys = hopscotch_leaf_image(layout, seed=5)
        hash_home = functools.partial(default_hash, capacity=64)
        for shape in (layout.neighborhood_shape(3),    # one segment
                      layout.neighborhood_shape(60),   # wrap-around: two
                      layout.entry_shape(9)):
            data = b"".join(self.fetched(shape, raw))
            shape.decode(data, hash_home)
            for bad in (data[:-1], data[1:], data + b"\0"):
                with pytest.raises(LayoutError):
                    shape.decode(bad, hash_home)

    def test_memo_is_bounded_by_twice_the_span(self):
        layout = LeafLayout(span=16, neighborhood=8)
        for _ in range(3):
            for index in range(16):
                layout.neighborhood_shape(index)
                layout.entry_shape(index)
        assert len(layout._neighborhood_shapes) == 16
        assert len(layout._entry_shapes) == 16
        with pytest.raises(LayoutError):
            layout.entry_shape(16)
        with pytest.raises(LayoutError):
            layout.neighborhood_shape(-1)


class TestBulkLoadImage:
    """Bulk load places every key once; the MN image it writes is pinned
    to the bytes the two-pass loader produced (re-recorded when hopscotch
    bitmaps shrank to ⌈H/8⌉ bytes)."""

    PINNED = {
        False: "5176697c7e8702930b285826e19bb424"
               "5e46597e46cb4d21878821905dab55d8",
        True: "0a69415e87a5e68f8c69161877284777"
              "0f1b072fe5973a86e7ca553efce6d0ed",
    }

    @pytest.mark.parametrize("indirect", [False, True])
    def test_mn_regions_byte_identical(self, indirect):
        cluster = Cluster(ClusterConfig(num_cns=1, num_mns=2,
                                        clients_per_cn=1, seed=5))
        index = ChimeIndex(cluster, ChimeConfig(indirect_values=indirect))
        pairs = [(k * 7 + 1, k * 13 + 5) for k in range(3000)]
        index.bulk_load(pairs)
        digest = hashlib.sha256()
        for mn_id in sorted(cluster.mns):
            mn = cluster.mns[mn_id]
            digest.update(mn.region.read(0, mn.allocator.bytes_used))
        assert digest.hexdigest() == self.PINNED[indirect]
        assert index.collect_items() == pairs
