"""Golden digests of the memory pool right after a bulk load.

Every point of every figure starts from a bulk-loaded tree, so the bytes
a loader leaves on the MNs are the simulated starting state: leaf
images (every line / entry / replica version byte, hopscotch placement
and bitmaps), lock lines (argmax, vacancy bitmap, fence keys), internal
levels, indirect blocks and — through the bump allocators — the order
everything was allocated in.  :data:`GOLDEN` pins the SHA-256 of every
MN's allocated prefix for the hopscotch-leaf loaders: CHIME at the
default layout and under the seven non-default layouts of
``tests/test_golden_families.py`` (``CHIME_LAYOUTS``), ``chime-indirect``
(block allocation order — leaf order, then position order — is part of
the image), ``chime-learned``, ``core.varkey``'s ``bulk_load_var`` and a
4-MN x 4-shard ``ShardedIndex``.

The last rows take the digest after a short run instead, for the leaf
images clients compose on the data path: both halves of every split (an
all-insert YCSB LOAD run) and the two images of a CHIME-Learned synonym
append (inserts of keys the model was not trained on).

Recorded at 973d87f with :func:`_digest`, while leaves were still
composed entry by entry through ``LeafNodeView``; a loader refactor that
moves one byte, or allocates in another order, fails here.  Rows are
only ever added.
"""

import hashlib

import pytest

from repro.bench.runner import PointSpec, run_workload
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.learned import LearnedChimeIndex
from repro.core.varkey import VarKeyChimeIndex
from repro.memory.region import make_addr
from repro.registry import build_index
from repro.workloads.ycsb import dataset
from tests.test_golden_families import CHIME_LAYOUTS

NUM_KEYS = 6000
SEED = 20240229


def _digest(cluster) -> str:
    """SHA-256 over every MN's allocated bytes, in MN order."""
    sha = hashlib.sha256()
    for mn_id in sorted(cluster.mns):
        mn = cluster.mns[mn_id]
        used = mn.allocator.bytes_used
        sha.update(f"mn{mn_id}:{used}:".encode())
        sha.update(mn.mem_read(make_addr(mn_id, 0), used))
    return sha.hexdigest()


def _loaded(index_name, key_space=0, chime_overrides=None, **cluster_fields):
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1, seed=SEED,
                                    **cluster_fields))
    index = build_index(index_name, cluster, chime_overrides=chime_overrides)
    pairs = dataset(NUM_KEYS, key_space=key_space, seed=SEED)
    if index.registry_family.model_routed:
        index.bulk_load(pairs, future_keys=range(NUM_KEYS + 1, NUM_KEYS + 65))
    else:
        index.bulk_load(pairs)
    assert index.collect_items() == pairs
    return cluster


def _loaded_varkey():
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1, seed=SEED))
    index = VarKeyChimeIndex(cluster)
    # Every fourth key shares its 8-byte prefix with its predecessor, so
    # fingerprint chains of length two are part of the image.
    pairs = [(b"user%08d" % (number - number % 4 // 3)
              + b"/profile" * (number % 3) + b"#%d" % number,
              b"v" * (1 + number % 40))
             for number in range(NUM_KEYS // 4)]
    index.bulk_load_var(pairs)
    assert index.collect_var_items() == sorted(pairs)
    return cluster


def _after_splits(**point_fields):
    """An all-insert run over a small tree: 1 200 inserts into 1 500
    loaded keys split most leaves, some more than once."""
    spec = PointSpec("chime", "LOAD", 1500, 300,
                     ClusterConfig(num_cns=2, clients_per_cn=2, seed=SEED),
                     **point_fields)
    cluster, index, context = spec.prepare()
    leaves = len(index.leaf_addrs())
    result = run_workload(cluster, index, "LOAD", spec.ops_per_client,
                          context)
    assert result.ops_completed == 1200
    assert len(index.leaf_addrs()) > 1.5 * leaves
    return cluster


def _after_synonym_appends():
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1, seed=SEED))
    index = LearnedChimeIndex(cluster)
    pairs = [(key, key * 7) for key in range(10, 4000, 10)]
    index.bulk_load(pairs)
    client = index.client(cluster.cns[0].clients[0])
    used = cluster.mns[0].allocator.bytes_used
    fresh = [key for key in range(1001, 1400) if key % 10]

    def inserts():
        for key in fresh:
            yield from client.insert(key, key + 1)

    cluster.engine.process(inserts())
    cluster.run()
    assert cluster.mns[0].allocator.bytes_used > used  # synonym leaves
    assert index.collect_items() == sorted(
        pairs + [(key, key + 1) for key in fresh])
    return cluster


#: row -> how to build its loaded cluster.
ROWS = {
    "chime": lambda: _loaded("chime"),
    "chime sparse": lambda: _loaded("chime", key_space=1 << 40),
    **{f"chime {knob}={value}": (lambda knob=knob, value=value: _loaded(
        "chime", chime_overrides={knob: value}))
       for knob, value in CHIME_LAYOUTS},
    # Narrower than a word: the one value shape CHIME_LAYOUTS lacks.
    "chime value_size=3": lambda: _loaded(
        "chime", chime_overrides={"value_size": 3}),
    "chime-indirect": lambda: _loaded("chime-indirect"),
    "chime-learned": lambda: _loaded("chime-learned"),
    "chime-learned sparse": lambda: _loaded("chime-learned",
                                            key_space=1 << 40),
    "varkey": _loaded_varkey,
    "chime 4 MNs x 4 shards": lambda: _loaded("chime", num_mns=4,
                                              num_shards=4),
    "chime 2 MNs striped": lambda: _loaded("chime", num_mns=2),
    "chime after splits": _after_splits,
    "chime neighborhood=2 after splits": lambda: _after_splits(
        chime_overrides={"neighborhood": 2}),
    "chime value_size=64 after splits": lambda: _after_splits(value_size=64),
    "chime-learned after synonym appends": _after_synonym_appends,
}

GOLDEN = {
    'chime':
        '694a8c5b233a1f45aae5c93fb6be57ab1cab3c1628bd90c4c87c682fb5bff456',
    'chime sparse':
        '0fd5d76c655b75e2b5eb05f48ed671584bb16404c1d7235e566ba6eb9438c1a8',
    'chime metadata_replication=False':
        '93a9c64e5fb33a65e0d125b019a870d3e88bf2983b066aa66e372030ede4acfd',
    'chime sibling_validation=False':
        '6c6a0318bd02a735eeb85d947bfb37060421168d288aae51a1d05fffd40100bc',
    'chime neighborhood=2':
        'd6ddaf21ca9a065aa74ec42d67a36b4796383de21469cc80e886dc5e22ad6d7e',
    'chime neighborhood=16':
        'e265ba07c47299c8a2c7996f6956a0926a9d0cb3dfc0bdaf160703c6453db287',
    'chime span=16':
        '7fe39a39977d6b26314705c1f1cd8c3b44e613480cb0436af662dbc157317c06',
    'chime value_size=64':
        'ec5ba154dad42a751826274a9dcf287dc999966c89f43e07a9029b66a7c1e434',
    'chime speculative_read=False':
        '694a8c5b233a1f45aae5c93fb6be57ab1cab3c1628bd90c4c87c682fb5bff456',
    'chime value_size=3':
        '43bd0fdc63583392bb61fc1e3170f8e2e1003a010869d1e9d0919a9625cdf17b',
    'chime-indirect':
        'ee2e027e1a80bb0a72b50379214fafbac99505625bdb3277f6a70664c34abcf8',
    'chime-learned':
        '43d856e23cac632e3a20b41d590d924f78a8a0698c3160cf64ac3b16525a1a2c',
    'chime-learned sparse':
        'fba29ef13b1c5a50c28b0e704d9531cf57a45f19789ebec9788ab1a6c5e11be9',
    'varkey':
        '6634cf7146422e3e60af7e7a85149f3dc94fb805b627d9dc887d221a667e223f',
    'chime 4 MNs x 4 shards':
        '98bb1bc2bd756454541b7322af8a2c4ce1e45226d1203dd9dbdf44fe7a5b94d4',
    'chime 2 MNs striped':
        'a67b2fd962d2f6e6152e7fc18e16e84d4f59b27cdeead3f49bf14c53ca49ae81',
    'chime after splits':
        '07d668e0d7683683fc341d2295278ec31f227681e828b7804347d0bb7c3ee132',
    'chime neighborhood=2 after splits':
        '72b323e432f429f8ee45a3a40385c0dd1602c0eb2367861ba017c5dd526364fa',
    'chime value_size=64 after splits':
        'b450784855836b7d753049cc7c9ede2bbfa567d6dbfaf31f2a8b42f7e9abdc3d',
    'chime-learned after synonym appends':
        'dcfb8c8d93130304b983f454e30a4ee95ad3b926f9d714dc921888e306b26af4',
}


@pytest.mark.parametrize("row", list(ROWS))
def test_bulk_load_digest(row):
    assert _digest(ROWS[row]()) == GOLDEN[row]


def test_golden_table_has_no_stale_rows():
    assert set(GOLDEN) == set(ROWS)
