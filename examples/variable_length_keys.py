"""Variable-length byte-string keys on CHIME (paper §4.5).

The leaf stores an order-preserving 8-byte fingerprint per entry; the
full key and value live in an indirect block, and fingerprint collisions
(keys sharing their first 8 bytes) chain blocks behind one entry.

Run:  python examples/variable_length_keys.py
"""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.varkey import VarKeyChimeIndex
from repro.core.varkey import fingerprint_of


def main() -> None:
    cluster = Cluster(ClusterConfig(num_cns=1, num_mns=1, clients_per_cn=4,
                                    cache_bytes=4 << 20,
                                    region_bytes=1 << 26))
    index = VarKeyChimeIndex(cluster)
    pairs = [(f"user:{i:06d}:profile".encode(), f"<profile {i}>".encode())
             for i in range(1, 20_001)]
    index.bulk_load_var(pairs)
    print(f"loaded {len(pairs):,} string-keyed items")

    client = index.client(cluster.cns[0].clients[0])
    log = []

    def ops():
        value = yield from client.search_var(b"user:004242:profile")
        log.append(f"search long key        -> {value}")
        # These two keys share their first 8 bytes ("colliding-a/b"):
        # one fingerprint, a two-block chain.
        yield from client.insert_var(b"colliding-key-a", b"alpha")
        yield from client.insert_var(b"colliding-key-b", b"beta")
        a = yield from client.search_var(b"colliding-key-a")
        b = yield from client.search_var(b"colliding-key-b")
        log.append(f"colliding chain        -> {a}, {b}")
        yield from client.update_var(b"colliding-key-a", b"ALPHA2")
        a2 = yield from client.search_var(b"colliding-key-a")
        log.append(f"update in chain        -> {a2}")
        yield from client.delete_var(b"colliding-key-b")
        gone = yield from client.search_var(b"colliding-key-b")
        log.append(f"delete from chain      -> {gone}")

    cluster.engine.process(ops())
    cluster.run()
    for line in log:
        print(line)
    same_fp = fingerprint_of(b"colliding-key-a") == \
        fingerprint_of(b"colliding-key-b")
    print(f"\nfingerprint collision exercised: {same_fp}")


if __name__ == "__main__":
    main()
