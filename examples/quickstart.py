"""Quickstart: build a simulated DM cluster, load CHIME, run operations.

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core.chime import ChimeIndex


def main() -> None:
    # A small disaggregated-memory cluster: 2 compute nodes with 8 client
    # cores each, 1 memory node, a 4 MB per-CN index cache.
    cluster = Cluster(ClusterConfig(
        num_cns=2, num_mns=1, clients_per_cn=8,
        cache_bytes=4 << 20, region_bytes=1 << 26))

    # CHIME with the paper's defaults: span 64, neighborhood 8.
    index = ChimeIndex(cluster, ChimeConfig())

    # Bulk load 100k key-value pairs host-side (off the simulated path).
    pairs = [(key, key * 7) for key in range(1, 100_001)]
    index.bulk_load(pairs)
    print(f"loaded {len(pairs):,} items; tree height {index.root_level}, "
          f"{len(index.leaf_addrs()):,} hopscotch leaves, "
          f"avg leaf load {index.average_leaf_load():.2f}")

    # Client operations are generator coroutines driven by the simulator.
    client = index.client(cluster.cns[0].clients[0])
    log = []

    def workload():
        value = yield from client.search(4242)
        log.append(f"search(4242)        -> {value}")
        yield from client.insert(1_000_001, 123)
        value = yield from client.search(1_000_001)
        log.append(f"insert+search       -> {value}")
        yield from client.update(4242, 999)
        value = yield from client.search(4242)
        log.append(f"update+search       -> {value}")
        ok = yield from client.delete(4243)
        log.append(f"delete(4243)        -> {ok}")
        rows = yield from client.scan(50_000, 5)
        log.append(f"scan(50000, 5)      -> {rows}")

    cluster.engine.process(workload())
    cluster.run()

    for line in log:
        print(line)
    stats = client.qp.stats
    print(f"\nsimulated time: {cluster.engine.now * 1e6:.1f} us, "
          f"{stats.rtts} round trips, {stats.bytes_read} bytes read")
    print(f"CN cache in use: {cluster.cns[0].cache.bytes_used:,} bytes "
          f"(full internal structure needs "
          f"{index.cache_bytes_needed():,} bytes)")


if __name__ == "__main__":
    main()
