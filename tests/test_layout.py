"""Unit and property tests for the layout layer (codec + striped versions)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.layout import (
    LINE,
    MAX_KEY,
    PAYLOAD_PER_LINE,
    StripedSpan,
    bump_nibble,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
    fingerprint8,
    fingerprint16,
    line_version_positions,
    logical_of,
    pack_version,
    raw_of,
    raw_size,
    raw_span,
    unpack_version,
)


class TestCodec:
    def test_key_roundtrip(self):
        for key in (0, 1, 12345, MAX_KEY - 1):
            assert decode_key(encode_key(key)) == key

    def test_key_encoding_preserves_order(self):
        keys = [0, 1, 255, 256, 1 << 20, 1 << 40, MAX_KEY]
        encoded = [encode_key(k) for k in keys]
        assert encoded == sorted(encoded)

    @given(st.integers(min_value=0, max_value=MAX_KEY),
           st.integers(min_value=0, max_value=MAX_KEY))
    def test_key_order_property(self, a, b):
        assert (a < b) == (encode_key(a) < encode_key(b))

    def test_key_out_of_range(self):
        with pytest.raises(LayoutError):
            encode_key(-1)
        with pytest.raises(LayoutError):
            encode_key(1 << 64)

    def test_value_roundtrip_various_sizes(self):
        for size in (1, 4, 8, 32, 512):
            value = 0xAB
            data = encode_value(value, size)
            assert len(data) == size
            assert decode_value(data, size=size) == value

    def test_value_too_large_for_width(self):
        with pytest.raises(LayoutError):
            encode_value(300, size=1)

    def test_fingerprints_are_bounded(self):
        for key in range(1000):
            assert 0 <= fingerprint16(key) < (1 << 16)
            assert 0 <= fingerprint8(key) < (1 << 8)

    def test_fingerprints_spread(self):
        values = {fingerprint16(k) for k in range(4096)}
        assert len(values) > 3000  # well-mixed, few collisions


class TestVersionByte:
    def test_pack_unpack(self):
        assert unpack_version(pack_version(5, 9)) == (5, 9)
        assert unpack_version(pack_version(15, 15)) == (15, 15)

    def test_nibble_wraps(self):
        assert bump_nibble(14) == 15
        assert bump_nibble(15) == 0


class TestStripingMath:
    def test_raw_size(self):
        assert raw_size(0) == 0
        assert raw_size(1) == 2
        assert raw_size(PAYLOAD_PER_LINE) == LINE
        assert raw_size(PAYLOAD_PER_LINE + 1) == LINE + 2

    def test_raw_of_skips_version_bytes(self):
        assert raw_of(0) == 1
        assert raw_of(PAYLOAD_PER_LINE - 1) == LINE - 1
        assert raw_of(PAYLOAD_PER_LINE) == LINE + 1

    @given(st.integers(min_value=0, max_value=100_000))
    def test_raw_logical_roundtrip(self, logical):
        assert logical_of(raw_of(logical)) == logical

    def test_logical_of_rejects_version_positions(self):
        with pytest.raises(LayoutError):
            logical_of(0)
        with pytest.raises(LayoutError):
            logical_of(LINE)

    def test_raw_span_within_line(self):
        off, length = raw_span(0, 10)
        assert (off, length) == (1, 10)

    def test_raw_span_crossing_line(self):
        off, length = raw_span(PAYLOAD_PER_LINE - 2, 4)
        assert off == raw_of(PAYLOAD_PER_LINE - 2)
        # Includes the version byte of the second line.
        assert off + length == raw_of(PAYLOAD_PER_LINE + 1) + 1
        positions = line_version_positions(off, length)
        assert positions == [LINE]

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=1_000))
    def test_raw_span_covers_all_payload(self, off, length):
        span_off, span_len = raw_span(off, length)
        assert span_off <= raw_of(off)
        assert span_off + span_len > raw_of(off + length - 1)


class TestStripedSpan:
    def test_logical_roundtrip_full_region(self):
        span = StripedSpan.blank(1000)
        payload = bytes(range(256)) * 3 + b"oddtail"
        span.write_logical(0, payload)
        assert span.read_logical(0, len(payload)) == payload

    def test_logical_write_preserves_version_bytes(self):
        span = StripedSpan.blank(200)
        span.set_all_versions(nv=7, ev=3)
        span.write_logical(0, b"\xAA" * 200)
        for _pos, byte in span.line_versions():
            assert unpack_version(byte) == (7, 3)

    @given(st.integers(min_value=0, max_value=500),
           st.binary(min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_partial_write_read_roundtrip(self, off, payload):
        span = StripedSpan.blank(1000)
        span.write_logical(off, payload)
        assert span.read_logical(off, len(payload)) == payload

    def test_sub_span_extracts_writable_bytes(self):
        full = StripedSpan.blank(1000)
        full.write_logical(100, b"hello")
        raw_off, raw_bytes = full.sub_span(100, 5)
        # Reconstructing a partial span from those bytes sees the payload.
        partial = StripedSpan(raw_bytes, base=raw_off)
        assert partial.read_logical(100, 5) == b"hello"

    def test_set_all_versions(self):
        span = StripedSpan.blank(300)
        span.set_all_versions(nv=4)
        assert span.nv_nibbles() == [4] * len(span.line_versions())

    def test_bump_entry_versions_only_touches_entry_lines(self):
        span = StripedSpan.blank(10 * PAYLOAD_PER_LINE)
        span.set_all_versions(nv=1, ev=0)
        # An "entry" spanning logical [120, 190) crosses line boundaries.
        span.bump_entry_versions(120, 70)
        touched = set(line_version_positions(*raw_span(120, 70)))
        for pos, byte in span.line_versions():
            nv, ev = unpack_version(byte)
            assert nv == 1
            assert ev == (1 if pos in touched else 0)

    def test_entry_ev_nibbles_consistent_after_bump(self):
        span = StripedSpan.blank(10 * PAYLOAD_PER_LINE)
        span.set_all_versions(nv=2, ev=5)
        span.bump_entry_versions(100, 80)
        raw_off, raw_len = raw_span(100, 80)
        lines = line_version_positions(raw_off, raw_len)  # inside the entry
        assert lines and {span.data[pos] & 0xF for pos in lines} == {6}

    def test_partial_span_view(self):
        full = StripedSpan.blank(1000)
        full.write_logical(200, b"x" * 50)
        full.set_all_versions(nv=9)
        raw_off, raw_bytes = full.sub_span(200, 50)
        view = StripedSpan(raw_bytes, base=raw_off)
        assert view.read_logical(200, 50) == b"x" * 50
        assert all(nv == 9 for nv in view.nv_nibbles())

    def test_out_of_span_access_raises(self):
        span = StripedSpan(bytes(64), base=64)
        with pytest.raises(LayoutError):
            span.read_logical(0, 10)  # logical 0 is raw 1, below base

    def test_torn_node_write_detectable_via_nv(self):
        """Simulates the chunk-at-a-time landing of a node write."""
        old = StripedSpan.blank(300)
        old.set_all_versions(nv=1)
        new = StripedSpan.blank(300)
        new.set_all_versions(nv=2)
        # Land only the first 64-byte chunk of the new image.
        torn = bytearray(old.data)
        torn[:LINE] = new.data[:LINE]
        observed = StripedSpan(bytes(torn), base=0)
        assert len(set(observed.nv_nibbles())) > 1  # mismatch => retry
