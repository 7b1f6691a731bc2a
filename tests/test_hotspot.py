"""Unit tests for the hotspot buffer (speculative read support)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotspot import ENTRY_BYTES, HotspotBuffer
from repro.layout.codec import fingerprint16
from tests.oracles import ExactLfuOracle


class TestHotspotBuffer:
    def test_record_and_lookup(self):
        buffer = HotspotBuffer(1024)
        buffer.record_access(0x100, 5, key=42)
        record = buffer.lookup(0x100, home=0, neighborhood=8, span=64, key=42)
        assert record is not None
        assert record.key_index == 5
        assert record.fingerprint == fingerprint16(42)

    def test_lookup_requires_neighborhood_membership(self):
        buffer = HotspotBuffer(1024)
        buffer.record_access(0x100, 20, key=42)
        # Home 0 with H=8 covers indices 0..7; index 20 is outside.
        assert buffer.lookup(0x100, 0, 8, 64, 42) is None

    def test_lookup_wraps_neighborhood(self):
        buffer = HotspotBuffer(1024)
        buffer.record_access(0x100, 1, key=42)
        # Home 62 with H=8 over span 64 covers 62,63,0..5.
        assert buffer.lookup(0x100, 62, 8, 64, 42) is not None

    def test_fingerprint_excludes_wrong_keys(self):
        buffer = HotspotBuffer(1024)
        buffer.record_access(0x100, 5, key=42)
        assert buffer.lookup(0x100, 0, 8, 64, key=43) is None

    def test_counter_tracks_frequency(self):
        buffer = HotspotBuffer(1024)
        for _ in range(5):
            buffer.record_access(0x100, 5, key=42)
        record = buffer.lookup(0x100, 0, 8, 64, 42)
        assert record.counter >= 5

    def test_stale_record_refreshed_on_fingerprint_change(self):
        buffer = HotspotBuffer(1024)
        for _ in range(5):
            buffer.record_access(0x100, 5, key=42)
        buffer.record_access(0x100, 5, key=99)  # entry now holds key 99
        record = buffer.lookup(0x100, 0, 8, 64, 99)
        assert record.counter == 1
        assert buffer.lookup(0x100, 0, 8, 64, 42) is None

    def test_hottest_record_wins(self):
        buffer = HotspotBuffer(1024)
        # Same key fingerprint recorded at two positions (after a hop, the
        # old position goes stale but may linger).
        buffer.record_access(0x100, 3, key=42)
        for _ in range(10):
            buffer.record_access(0x100, 6, key=42)
        record = buffer.lookup(0x100, 0, 8, 64, 42)
        assert record.key_index == 6

    def test_lfu_eviction(self):
        buffer = HotspotBuffer(4 * ENTRY_BYTES)
        for index in range(4):
            for _ in range(index + 2):  # index 0 is coldest
                buffer.record_access(0x100, index, key=index + 1)
        buffer.record_access(0x200, 0, key=99)  # forces one eviction
        assert len(buffer) == 4
        assert buffer.lookup(0x100, 0, 8, 64, key=1) is None  # coldest gone
        assert buffer.lookup(0x100, 0, 8, 64, key=4) is not None

    def test_capacity_zero_disables(self):
        buffer = HotspotBuffer(0)
        buffer.record_access(0x100, 5, key=42)
        assert len(buffer) == 0
        assert buffer.lookup(0x100, 0, 8, 64, 42) is None

    def test_invalidate(self):
        buffer = HotspotBuffer(1024)
        buffer.record_access(0x100, 5, key=42)
        buffer.invalidate(0x100, 5)
        assert buffer.lookup(0x100, 0, 8, 64, 42) is None

    def test_bytes_accounting(self):
        buffer = HotspotBuffer(10 * ENTRY_BYTES)
        for index in range(10):
            buffer.record_access(0x100, index, key=index + 1)
        assert buffer.bytes_used == 10 * ENTRY_BYTES

    def test_hit_ratio(self):
        buffer = HotspotBuffer(1024)
        buffer.record_access(0x100, 5, key=42)
        buffer.lookup(0x100, 0, 8, 64, 42)   # hit
        buffer.lookup(0x100, 8, 8, 64, 77)   # miss
        assert buffer.hit_ratio == 0.5

    def test_eviction_spares_early_hot_records(self):
        # The oldest records are the hot ones: an eviction that only
        # looks at the front of the buffer would take one of them.
        buffer = HotspotBuffer(64 * ENTRY_BYTES)
        for index in range(64):
            buffer.record_access(0x100, index, key=index + 1)
        for index in range(32):
            for _ in range(3):
                buffer.record_access(0x100, index, key=index + 1)
        buffer.record_access(0x200, 0, key=999)
        assert len(buffer) == 64
        for index in range(32):
            assert buffer.lookup(0x100, index, 1, 64, key=index + 1) is not None
        # The victim is the cold record that has held counter 1 longest.
        assert buffer.lookup(0x100, 32, 1, 64, key=33) is None
        assert buffer.lookup(0x200, 0, 1, 64, key=999) is not None


_SLOTS = st.tuples(st.sampled_from((0x100, 0x200)), st.integers(0, 7))
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("record"), _SLOTS, st.integers(1, 4)),
    st.tuples(st.just("invalidate"), _SLOTS, st.just(0)),
    st.tuples(st.just("lookup"), _SLOTS, st.integers(1, 4))), max_size=80)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(0, 6), steps=_STEPS)
def test_buffer_is_exact_lfu(capacity, steps):
    """Same victims, counters and lookups as a brute-force exact LFU."""
    buffer = HotspotBuffer(capacity * ENTRY_BYTES)
    oracle = ExactLfuOracle(capacity * ENTRY_BYTES)
    for action, (leaf_addr, index), key in steps:
        if action == "record":
            before = set(buffer._records)
            victim = oracle.record_access(leaf_addr, index, key)
            buffer.record_access(leaf_addr, index, key)
            assert before - set(buffer._records) == ({victim} if victim else set())
        elif action == "invalidate":
            oracle.invalidate(leaf_addr, index)
            buffer.invalidate(leaf_addr, index)
        else:
            record = buffer.lookup(leaf_addr, index, 4, 8, key)
            found = None if record is None else (record.key_index, record.counter)
            assert found == oracle.lookup(leaf_addr, index, 4, 8, key)
        assert {slot: [held.fingerprint, held.counter]
                for slot, held in buffer._records.items()} == {
            slot: entry[:2] for slot, entry in oracle.records.items()}
