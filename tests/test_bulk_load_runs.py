"""Bulk loads compose runs, not keys — held to the per-key loaders.

Three loaders stopped paying Python per key, and each must leave the
memory pool exactly as its per-key predecessor (``tests/oracles.py``)
did — same addresses, same bytes, same allocator state:

* ``FamilyIndexBase._host_alloc_blocks`` against one ``alloc`` + one
  write per block, over any MN count, value width, run length and
  starting ``_host_rr``, with other allocations between the runs;
* ``SortedNodeView.compose`` (the compiled encoder) against the
  field-by-field composition, with and without the level byte, and what
  it wrote decodes — whole (``items`` / ``parse``) and entry by entry —
  to what it was given; the raw consistency scan against ``nv_values``
  on images torn at a random line;
* ``SmartIndex.bulk_load`` (index ranges of the sorted keys) against the
  recursive build over ``(key bytes, key, value)`` tuples, on key sets
  made to hit path compression: keys sharing 7-byte prefixes, keys
  differing only in their first byte, a single key.
"""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.smart import SmartConfig, SmartIndex
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.family import FamilyIndexBase
from repro.core.node_layout import SortedNodeLayout
from repro.core.nodes import SortedNodeView
from repro.errors import LayoutError
from repro.layout import MAX_KEY, StripedSpan
from tests.oracles import (
    alloc_blocks_per_key,
    compose_sorted_leaf,
    smart_bulk_load_per_key,
)
from tests.test_golden_bulk_load import _digest

U64 = st.integers(0, MAX_KEY)
KEYS = st.integers(1, MAX_KEY - 1)


def _cluster(num_mns):
    return Cluster(ClusterConfig(num_cns=1, clients_per_cn=1,
                                 num_mns=num_mns, seed=1))


def _values(draw, count, value_size):
    """*count* values that fill a *value_size*-byte field (or a word)."""
    top = (1 << 8 * min(value_size, 8)) - 1
    return draw(st.lists(st.integers(0, top), min_size=count, max_size=count))


# -- block runs ---------------------------------------------------------------

@st.composite
def block_runs(draw):
    num_mns = draw(st.integers(1, 4))
    value_size = draw(st.integers(1, 64))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.sampled_from([0, 1, 2, 3, 5, 44, 300])
                     | st.integers(0, 300))
        keys = draw(st.lists(U64, min_size=count, max_size=count))
        # What else a loader allocates between two runs: nodes, leaves.
        others = draw(st.lists(st.integers(1, 1500), max_size=3))
        runs.append((keys, _values(draw, count, value_size), others))
    return num_mns, value_size, draw(st.integers(0, 9)), runs


@settings(max_examples=60, deadline=None)
@given(block_runs())
def test_a_block_run_is_the_per_key_call_sequence(case):
    num_mns, value_size, start_rr, runs = case
    config = types.SimpleNamespace(value_size=value_size)
    by_run, per_key = (FamilyIndexBase(_cluster(num_mns), config)
                       for _ in range(2))
    by_run._host_rr = per_key._host_rr = start_rr
    for keys, values, others in runs:
        addrs = by_run._host_alloc_blocks(keys, values)
        assert addrs == alloc_blocks_per_key(per_key, keys, values)
        assert [by_run._host_read_block(addr) for addr in addrs] == list(
            zip(keys, values))
        for size in others:
            assert by_run._host_alloc(size) == per_key._host_alloc(size)
    assert by_run._host_rr == per_key._host_rr
    assert _digest(by_run.cluster) == _digest(per_key.cluster)


@pytest.mark.parametrize("keys,values,value_size", [
    ([1, 2], [5, 1 << 24], 3),      # a value wider than its field
    ([1, 2], [5, 1 << 64], 8),
    ([1, 2], [5, -1], 8),
    ([1, MAX_KEY + 1], [5, 6], 8),  # a key wider than a word
])
def test_a_block_run_rejects_what_does_not_fit(keys, values, value_size):
    index = FamilyIndexBase(_cluster(2),
                            types.SimpleNamespace(value_size=value_size))
    with pytest.raises(LayoutError):
        index._host_alloc_blocks(keys, values)


# -- sorted-node images -------------------------------------------------------

@st.composite
def sorted_nodes(draw):
    """A sorted leaf (any value width) or an internal node (the level
    byte; a child pointer is an 8-byte value)."""
    span = draw(st.sampled_from([1, 2, 5, 16, 64]))
    level_byte = draw(st.booleans())
    value_size = 8 if level_byte else draw(st.integers(1, 64))
    keys = sorted(draw(st.sets(KEYS, max_size=span)))
    items = list(zip(keys, _values(draw, len(keys), value_size)))
    level = draw(st.integers(1, 255)) if level_byte else 0
    return (SortedNodeLayout(span, 8, value_size, level_byte), items,
            draw(U64), draw(U64), draw(U64), draw(st.integers(0, 15)), level)


@settings(max_examples=150, deadline=None)
@given(sorted_nodes())
def test_compiled_sorted_leaf_is_the_field_by_field_one(case):
    layout, items, sibling, fence_low, fence_high, nv, level = case
    view = SortedNodeView.compose(layout, items, sibling, fence_low,
                                  fence_high, nv, level)
    oracle = compose_sorted_leaf(layout, items, sibling, fence_low,
                                 fence_high, nv, level)
    assert bytes(view.span.data) == bytes(oracle.span.data)
    assert len(view.span.data) == layout.raw_size
    # decode . encode = identity, through a fresh view of the raw bytes.
    decoded = SortedNodeView(layout, StripedSpan(bytes(view.span.data), 0))
    assert decoded.is_consistent()
    assert decoded.items() == items
    parsed = decoded.parse(0)
    assert (decoded.count, decoded.sibling, decoded.fence_low,
            decoded.fence_high, decoded.nv, parsed.level, parsed.valid) == (
        len(items), sibling, fence_low, fence_high, nv, level, True)
    assert all(decoded.find(key) == position
               for position, (key, _value) in enumerate(items))
    held = {key for key, _value in items}
    assert all(decoded.find(key) is None
               for key in (0, fence_low, fence_high, MAX_KEY)
               if key not in held)


@settings(max_examples=150, deadline=None)
@given(sorted_nodes(), st.data())
def test_whole_node_decode_is_the_per_entry_one(case, data):
    """``items`` / ``parse`` decode columns of the whole payload, the raw
    ``is_consistent`` scans version bytes in place: both are held to the
    per-entry accessors, on intact images and on images whose tail —
    from a random cache line on — is an older node write."""
    layout, items, sibling, fence_low, fence_high, nv, level = case
    raw = SortedNodeView.compose(layout, items, sibling, fence_low,
                                 fence_high, nv, level).span.data
    older = sorted(data.draw(st.sets(KEYS, max_size=layout.span)))
    stale = SortedNodeView.compose(
        layout, [(key, 0) for key in older], 0, 0, MAX_KEY,
        data.draw(st.integers(0, 15))).span.data
    lines = range(0, len(raw) + 1, 64)
    cut = data.draw(st.sampled_from(lines))
    view = SortedNodeView(layout, StripedSpan(raw[:cut] + stale[cut:], 0))
    assert view.is_consistent() == (len(set(view.nv_values())) <= 1)
    entries = [view.entry(index) for index in range(view.count)]
    assert view.items() == entries
    parsed = view.parse(0x40)
    assert list(zip(parsed.pivots, parsed.children)) == entries
    assert (parsed.addr, parsed.count, parsed.fence_low, parsed.fence_high,
            parsed.sibling, parsed.nv) == (
        0x40, view.count, view.fence_low, view.fence_high, view.sibling,
        view.nv)
    # A view not based at the image's first byte has no raw fast path.
    shifted = SortedNodeView(layout, StripedSpan(view.span.data[1:], 1))
    assert shifted.is_consistent() == view.is_consistent()


def test_a_sorted_leaf_rejects_what_does_not_fit():
    layout = SortedNodeLayout(4, 8, 3)
    with pytest.raises(LayoutError):  # more items than entries
        SortedNodeView.compose(layout, [(k, 0) for k in range(1, 6)],
                               0, 0, MAX_KEY, 0)
    with pytest.raises(LayoutError):  # a value wider than its field
        SortedNodeView.compose(layout, [(1, 1 << 24)], 0, 0, MAX_KEY, 0)
    with pytest.raises(LayoutError):  # a sibling wider than a word
        SortedNodeView.compose(layout, [(1, 1)], 1 << 64, 0, MAX_KEY, 0)


# -- SMART over key ranges ----------------------------------------------------

@st.composite
def radix_key_sets(draw):
    """Sparse keys plus relatives made to share structure with them."""
    seeds = draw(st.lists(KEYS, min_size=1, max_size=12))
    keys = set(seeds)
    for seed in seeds:
        # Same first 7 bytes (a full bottom-level node at up to 256).
        keys.update(seed & ~0xFF | low
                    for low in draw(st.lists(st.integers(0, 255), max_size=20)))
        # Same last 7 bytes: the root tells them apart, nothing else.
        keys.update(seed & (1 << 56) - 1 | first << 56
                    for first in draw(st.lists(st.integers(0, 255),
                                               max_size=4)))
        # Same bytes around a middle one: a compressed path on each side.
        keys.update(seed ^ flip << 24
                    for flip in draw(st.lists(st.integers(0, 255), max_size=3)))
    keys = sorted(key for key in keys if 1 <= key < MAX_KEY)
    value_size = draw(st.sampled_from([3, 8, 64]))
    return (draw(st.integers(1, 3)), value_size,
            list(zip(keys, _values(draw, len(keys), value_size))))


def _observed(index):
    return (_digest(index.cluster), index.root_addr, index.root_type,
            index._internal_count, index._internal_bytes, index._host_rr,
            index.loaded_items, index.height(), index.cache_bytes_needed(),
            index.collect_items())


@settings(max_examples=60, deadline=None)
@given(radix_key_sets())
def test_range_built_smart_is_the_recursive_build(case):
    num_mns, value_size, pairs = case
    ranged, recursive = (
        SmartIndex(_cluster(num_mns), SmartConfig(value_size=value_size))
        for _ in range(2))
    ranged.bulk_load(pairs)
    smart_bulk_load_per_key(recursive, pairs)
    assert _observed(ranged) == _observed(recursive)
    assert ranged.collect_items() == pairs


@pytest.mark.parametrize("keys", [
    [1], [MAX_KEY - 1], [7, 8],                    # a single key; one node
    [1 << 56, 2 << 56, 255 << 56],                 # first byte only
    [0x0102030405060700 + low for low in range(256)],   # one full Node256
    [0x0102030405060700, 0x0102030405060701, 0x0102030405070000],
    list(range(1, 700)),                           # dense, two levels
])
def test_range_built_smart_on_the_shapes_that_matter(keys):
    pairs = [(key, key % 997) for key in keys]
    ranged, recursive = (SmartIndex(_cluster(2)) for _ in range(2))
    ranged.bulk_load(pairs)
    smart_bulk_load_per_key(recursive, pairs)
    assert _observed(ranged) == _observed(recursive)
