"""§4.5's remote-memory-consumption claims, checked against real layouts.

The paper derives, per 256-byte KV item: ~8.3 bytes of metadata (bitmap
+ versions + replicas), i.e. ~3 % of the KV data, plus the hash-table
load-factor overhead (~1.1x at H=8, closable to ~1.002x at H=16).
"""

from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core.chime import ChimeIndex
from repro.core.node_layout import LeafLayout
from repro.layout.versions import raw_size


def leaf_metadata_per_item(value_size: int, span: int = 64,
                           neighborhood: int = 8) -> float:
    """Bytes of metadata per *entry* in the striped leaf image: entry
    version byte + hopscotch bitmap + cache-line version share + replica
    share (the paper's 3 + size/63 + 10/H formula)."""
    layout = LeafLayout(span=span, neighborhood=neighborhood,
                        value_size=value_size)
    kv_bytes = span * (layout.key_size + value_size)
    total = raw_size(layout.logical_size)
    return (total - kv_bytes) / span


class TestMetadataOverhead:
    def test_256_byte_items_close_to_paper_figure(self):
        # Paper: 3 + 264/63 + 10/8 ~= 8.5 bytes per 256 B item (~3 %).
        per_item = leaf_metadata_per_item(value_size=248)  # 8 B key + 248
        assert 6.0 < per_item < 12.0
        assert per_item / 256 < 0.05

    def test_small_items_higher_relative_overhead(self):
        small = leaf_metadata_per_item(value_size=8) / 16
        large = leaf_metadata_per_item(value_size=248) / 256
        assert small > large

    def test_larger_neighborhood_smaller_replica_share(self):
        # One replica per block of H entries: its bytes per item fall as
        # H grows.  (Total metadata per item does not: past H = 8 the
        # bitmap takes a second byte, 3.56 -> 3.94 B from H = 8 to 16.)
        def replica_per_item(neighborhood):
            layout = LeafLayout(span=64, neighborhood=neighborhood)
            return layout.replica_size * layout.num_blocks / layout.span

        shares = [replica_per_item(h) for h in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(shares, shares[1:])), shares

    def test_bitmap_takes_one_byte_per_item_per_eight_slots(self):
        # An entry's hopscotch bitmap is H bits wide: ⌈H/8⌉ bytes.
        for h in range(1, 17):
            layout = LeafLayout(span=64, neighborhood=h, replicated=False)
            assert layout.bitmap_size == (1 if h <= 8 else 2), h
            assert layout.entry_size == 1 + layout.bitmap_size + 8 + 8, h


class TestRemoteMemoryConsumption:
    def test_total_overhead_dominated_by_load_factor(self):
        """End-to-end: the memory pool holds KV bytes / load_factor plus
        a few percent of metadata — not multiples of the data."""
        cluster = Cluster(ClusterConfig(region_bytes=1 << 26))
        config = ChimeConfig(value_size=56, bulk_load_factor=0.85)
        index = ChimeIndex(cluster, config)
        num_keys = 20_000
        index.bulk_load([(k, k) for k in range(1, num_keys + 1)])
        kv_bytes = num_keys * (8 + 56)
        used = index.remote_memory_bytes()
        # Leaves + internals + lock lines + alignment, at 85 % leaf load.
        assert used < kv_bytes / 0.85 * 1.5
        assert used > kv_bytes  # no magic compression either

    def test_higher_load_factor_less_memory(self):
        def bytes_at(load_factor):
            cluster = Cluster(ClusterConfig(region_bytes=1 << 26))
            index = ChimeIndex(cluster, ChimeConfig(
                bulk_load_factor=load_factor))
            index.bulk_load([(k, k) for k in range(1, 20_001)])
            return index.remote_memory_bytes()

        assert bytes_at(0.85) < bytes_at(0.5)
