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

ISSUE 22 added, at 4956f95 (every loader below still per key: one
``alloc`` + one ``mem_write`` per KV block, one ``write_logical`` per
sorted-leaf field), the :data:`BASELINES` — SMART and its variants,
Sherman, Marlin, ROLEX, ``rolex-indirect``, FlexKV — each on 1 MN, on 2
striped MNs (the ``_host_rr`` interleave of nodes and blocks), at
``value_size`` 3 and 64 and on a x16-sparse key space, plus after-run
rows for the sorted-leaf images ``ShermanLeafView.compose`` builds on
the data path: Sherman / Marlin insert runs that split leaves, a
Sherman run of deletes and upserts, ROLEX synonym appends.

ISSUE 24 added, at 7f84ee9 (internal nodes and sorted leaves still two
layouts and two views, ROLEX's and CHIME-Learned's locked chain walks
still two), what nothing pinned by bytes: ROLEX, ``rolex-indirect`` and
CHIME-Learned after deletes and updates inside a synonym chain (YCSB
has no deletes), and a span-8 CHIME tree whose root grows three times
(the other split rows stop at one internal split).

``chime neighborhood=16 after splits`` was added at 43682c7, while every
hopscotch bitmap was still a 16-bit word: H = 16 keeps two-byte bitmaps,
so its split halves must not move when narrower neighbourhoods shrink
theirs.  Storing each bitmap in ⌈H/8⌉ bytes re-recorded every
hopscotch-leaf row at H <= 8 (``varkey`` included); the two
``neighborhood=16`` rows and every baseline row hold.  An insert that
chases past a last child's high fence dropping its stale cached parent
re-recorded the five CHIME ``after splits`` rows; every other row holds.
"""

import hashlib

import pytest

from repro.bench.runner import PointSpec, run_workload
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.baselines.rolex import RolexConfig, RolexIndex
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


def _loaded(index_name, key_space=0, chime_overrides=None, value_size=8,
            **cluster_fields):
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1, seed=SEED,
                                    **cluster_fields))
    index = build_index(index_name, cluster, value_size=value_size,
                        chime_overrides=chime_overrides)
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


def _after_splits(index_name="chime", num_keys=1500, levels_grown=0,
                  **point_fields):
    """An all-insert run over a small tree: 1 200 inserts into
    *num_keys* loaded keys split most leaves, some more than once, and
    grow the root at least *levels_grown* times."""
    spec = PointSpec(index_name, "LOAD", num_keys, 300,
                     ClusterConfig(num_cns=2, clients_per_cn=2, seed=SEED),
                     **point_fields)
    cluster, index, context = spec.prepare()
    leaves = len(index.leaf_addrs())
    level = index.root_level
    result = run_workload(cluster, index, "LOAD", spec.ops_per_client,
                          context)
    assert result.ops_completed == 1200
    assert len(index.leaf_addrs()) > 1.5 * leaves
    assert index.root_level >= level + levels_grown
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


def _run_ops(cluster, index, ops):
    """Drive ``(method, *args)`` *ops* through one client, in order."""
    client = index.client(cluster.cns[0].clients[0])

    def body():
        for method, *args in ops:
            yield from getattr(client, method)(*args)

    cluster.engine.process(body())
    cluster.run()


def _sherman_after_rewrites():
    """Deletes and upserts rewrite whole leaves without splitting them
    (item counts 0..span through ``compose``, at bumped NVs)."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1, seed=SEED))
    index = build_index("sherman", cluster, value_size=20)
    pairs = [(key, key * 7) for key in range(10, 3000, 10)]
    index.bulk_load(pairs)
    gone = [key for key, _ in pairs[:60]]  # empties the first leaf
    fresh = [key + 3 for key, _ in pairs[100:140]]
    _run_ops(cluster, index,
             [("delete", key) for key in gone]
             + [("insert", key, key + 1) for key in fresh]
             + [("insert", key, key + 2) for key, _ in pairs[200:210]])
    expected = dict(pairs[60:])
    expected.update((key, key + 1) for key in fresh)
    expected.update((key, key + 2) for key, _ in pairs[200:210])
    assert index.collect_items() == sorted(expected.items())
    return cluster


def _rolex_after_synonym_appends(indirect=False):
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1, seed=SEED))
    index = RolexIndex(cluster, RolexConfig(indirect_values=indirect))
    pairs = [(key, key * 7) for key in range(10, 4000, 10)]
    index.bulk_load(pairs)
    used = cluster.mns[0].allocator.bytes_used
    fresh = [key for key in range(1001, 1400) if key % 10]
    _run_ops(cluster, index, [("insert", key, key + 1) for key in fresh])
    assert max(index.synonym_chain_lengths()) > 1
    assert cluster.mns[0].allocator.bytes_used > used
    assert index.collect_items() == sorted(
        pairs + [(key, key + 1) for key in fresh])
    return cluster


def _after_chain_deletes_and_updates(make_index):
    """Synonym appends, then what only a functional test ran inside a
    chain: deletes and updates of keys in base and synonym tables, a
    delete and an update of an absent key (the whole chain walked, then
    unlocked), and inserts back into the first table with room."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1, seed=SEED))
    index = make_index(cluster)
    pairs = [(key, key * 7) for key in range(10, 4000, 10)]
    index.bulk_load(pairs)
    used = cluster.mns[0].allocator.bytes_used
    fresh = [key for key in range(1001, 1400) if key % 10]
    loaded = [key for key, _ in pairs[100:140]]
    gone = fresh[::3] + loaded[::2]
    changed = fresh[1::3] + loaded[1::2]
    _run_ops(cluster, index,
             [("insert", key, key + 1) for key in fresh]
             + [("delete", key) for key in gone]
             + [("update", key, key + 2) for key in changed]
             + [("delete", gone[0]), ("update", gone[1], 5)]
             + [("insert", key, key + 3) for key in gone[:20]])
    assert cluster.mns[0].allocator.bytes_used > used  # synonym tables
    expected = dict(pairs)
    expected.update((key, key + 1) for key in fresh)
    for key in gone:
        del expected[key]
    expected.update((key, key + 2) for key in changed)
    expected.update((key, key + 3) for key in gone[:20])
    assert index.collect_items() == sorted(expected.items())
    return cluster


#: Families whose loaders ISSUE 22 rewrote (FlexKV rides along as the
#: per-key loader it left alone).
BASELINES = ("smart", "smart-opt", "smart-rcu", "sherman", "marlin", "rolex",
             "rolex-indirect", "flexkv")

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
    "chime neighborhood=16 after splits": lambda: _after_splits(
        chime_overrides={"neighborhood": 16}),
    "chime value_size=64 after splits": lambda: _after_splits(value_size=64),
    "chime-learned after synonym appends": _after_synonym_appends,
    **{f"{name}{label}": (lambda name=name, fields=fields: _loaded(
        name, **fields))
       for name in BASELINES
       for label, fields in (("", {}),
                             (" 2 MNs striped", {"num_mns": 2}),
                             (" value_size=3", {"value_size": 3}),
                             (" value_size=64", {"value_size": 64}),
                             (" sparse x16", {"key_space": 16 * NUM_KEYS}))},
    "smart sparse": lambda: _loaded("smart", key_space=1 << 40),
    "sherman after splits": lambda: _after_splits("sherman"),
    "sherman value_size=64 after splits": lambda: _after_splits(
        "sherman", value_size=64),
    "marlin after splits": lambda: _after_splits("marlin"),
    "sherman after deletes and upserts": _sherman_after_rewrites,
    "rolex after synonym appends": _rolex_after_synonym_appends,
    "rolex-indirect after synonym appends": lambda:
        _rolex_after_synonym_appends(indirect=True),
    "chime span=8 after splits": lambda: _after_splits(
        num_keys=40, levels_grown=3, chime_overrides={"span": 8}),
    "rolex after deletes and updates inside a synonym chain": lambda:
        _after_chain_deletes_and_updates(RolexIndex),
    "rolex-indirect after deletes and updates inside a synonym chain": lambda:
        _after_chain_deletes_and_updates(lambda cluster: RolexIndex(
            cluster, RolexConfig(indirect_values=True))),
    "chime-learned after deletes and updates inside a synonym chain": lambda:
        _after_chain_deletes_and_updates(LearnedChimeIndex),
}

GOLDEN = {
    'chime':
        'f7aa3e22ca4dbd0d713d5800f428a5a6f77e4128c4386fe356f73d258a48befb',
    'chime sparse':
        '3622352c4bb34de24bf04fb6e7c7f30c380d61d4aab67c2b32104c6023367b40',
    'chime metadata_replication=False':
        '19c35532c6e86b9e4754817e0c47907217138bea22ccab9abdd00b096ce51f09',
    'chime sibling_validation=False':
        '11fab1cc75408ac1e55318cd25d3018c40e73f73b22ebd372768609a7e1d7c44',
    'chime neighborhood=2':
        '21d61bf592b3616df77190995af7daedaefa27264fd0e4ca7726078b0a26aed1',
    'chime neighborhood=16':
        'e265ba07c47299c8a2c7996f6956a0926a9d0cb3dfc0bdaf160703c6453db287',
    'chime span=16':
        '220da1e2d6caa64780b5e842d000497cb3a2d57253e33484156bdd9994a36d8c',
    'chime value_size=64':
        '2e8a8bf69cb3c98e28698ad450d9b61230cfa3d54b64e9829317c0c0c422ed94',
    'chime speculative_read=False':
        'f7aa3e22ca4dbd0d713d5800f428a5a6f77e4128c4386fe356f73d258a48befb',
    'chime value_size=3':
        '978a37a6c0324d241e6f8d11a9a311c87b31f2b394501c31b048ea1cac45211c',
    'chime-indirect':
        '1bdfc2b9726ee01b8e2b5cf6fb07c5b6a25ffa82ec023e3423b288ed893da03c',
    'chime-learned':
        'c474a48e6bbb1a600b486cb1954235f486ed2878233f4c61da6a24d22a34f661',
    'chime-learned sparse':
        '0cb72afaeafffeb56992d02042d0a158b3f25665642c4474bc75be51d2bb1453',
    'varkey':
        '6ce614ea4a384f1762779b3c862fcac44d64360e3a853f3f6f7ced1eb307e065',
    'chime 4 MNs x 4 shards':
        'e5af6f881b488dcc2bf3ea3eb5741b657778ce2ef5d7f3ef15b23780dd9c0c98',
    'chime 2 MNs striped':
        '05e4554ec120eb5d60d5f7b064904970963ed57a4c783915bac702091fca6196',
    'chime after splits':
        '4e685b4d7a16c96421c2b540eaadce0692ea9ad0e24b8e674add62a856df7c54',
    'chime neighborhood=2 after splits':
        'c867d444bf318b5564344532e3b59c0ba1cd5e2a0da39fbc38a6307f78a9eaf7',
    'chime neighborhood=16 after splits':
        'a0d632f0f5b4656fcd2679c25923725dcd1713d33ed3f9be13834decb0896efb',
    'chime value_size=64 after splits':
        '75544df6bd989982831c4b8486530a0397f36fe9fa9d7163c372a2b275bf9ee3',
    'chime-learned after synonym appends':
        'ea33e85692b466c181ebb30193dad2888988db34bf91d4c0a804507403d70110',
    'smart':
        '8c5af5e4894c80a3c8ed03d23c448806218ba84ef30003ad25cce045713f04b7',
    'smart 2 MNs striped':
        'fc89524819c75f6dbf2264357167d2a88bbfc9d6e21a204e1a4f2ebe74c9ea92',
    'smart value_size=3':
        '8c5af5e4894c80a3c8ed03d23c448806218ba84ef30003ad25cce045713f04b7',
    'smart value_size=64':
        '97ccaf2510a8956dc11636bdaceb91cefd739f363f74c87e91f8d10423df00f2',
    'smart sparse x16':
        '8e2b445ad5e8382811e18664648c0233e15d75132fafc98e079f251c3816dcbf',
    'smart-opt':
        '8c5af5e4894c80a3c8ed03d23c448806218ba84ef30003ad25cce045713f04b7',
    'smart-opt 2 MNs striped':
        'fc89524819c75f6dbf2264357167d2a88bbfc9d6e21a204e1a4f2ebe74c9ea92',
    'smart-opt value_size=3':
        '8c5af5e4894c80a3c8ed03d23c448806218ba84ef30003ad25cce045713f04b7',
    'smart-opt value_size=64':
        '97ccaf2510a8956dc11636bdaceb91cefd739f363f74c87e91f8d10423df00f2',
    'smart-opt sparse x16':
        '8e2b445ad5e8382811e18664648c0233e15d75132fafc98e079f251c3816dcbf',
    'smart-rcu':
        '8c5af5e4894c80a3c8ed03d23c448806218ba84ef30003ad25cce045713f04b7',
    'smart-rcu 2 MNs striped':
        'fc89524819c75f6dbf2264357167d2a88bbfc9d6e21a204e1a4f2ebe74c9ea92',
    'smart-rcu value_size=3':
        '8c5af5e4894c80a3c8ed03d23c448806218ba84ef30003ad25cce045713f04b7',
    'smart-rcu value_size=64':
        '97ccaf2510a8956dc11636bdaceb91cefd739f363f74c87e91f8d10423df00f2',
    'smart-rcu sparse x16':
        '8e2b445ad5e8382811e18664648c0233e15d75132fafc98e079f251c3816dcbf',
    'sherman':
        'e361355f5e8ae745aa08a913877ae2316f503f1aaf2a5da097e665b147f3fc02',
    'sherman 2 MNs striped':
        '90b3e680c00d394e07a0da74db38515deaba8db8d8c50e6526c3d937e9d005be',
    'sherman value_size=3':
        '128a3c6cbd8fc5622d4f3bb6780cd8d4cac201d063c305ba1f61634ef5f7452f',
    'sherman value_size=64':
        'be6c196e878c03b3f11383a04338468a9ee492772ed27fc233262c1882094ed0',
    'sherman sparse x16':
        '0e2c28703fd576ec5f75f1e1cbbfe0028af8fcd74d0cb8dc93322a0fed6d607e',
    'marlin':
        '6f11f1eb43cb53cff08aabc6b03d795cca6aa27c9fce7aeda92ba487cb69161c',
    'marlin 2 MNs striped':
        'edd2f03154bfc7077aa265bc5fbec56020b568217266d84109d117bcd0f2582e',
    'marlin value_size=3':
        '6f11f1eb43cb53cff08aabc6b03d795cca6aa27c9fce7aeda92ba487cb69161c',
    'marlin value_size=64':
        'af87b5c6f95a1f041496ccccd16194734f8f78c9e18b00ea95ac6daaa42cfd28',
    'marlin sparse x16':
        '357a3f0fe21ca6541727cf54fe99d3779fe10b4fdd0e1a99714de8eefc95f76a',
    'rolex':
        'f73dadc8ae834f84bae841617825c47f9d37601d8cf2a2ff826d97bc1532e300',
    'rolex 2 MNs striped':
        '8ea11ee1ec2cd0250737c5af95e93ece2c24f8c33ebac97a9e3d3a6f38271058',
    'rolex value_size=3':
        '6f55bfbb50bced5ddf3e4c96afe61645862efcbf76c3061871f98bd8d7acc4c3',
    'rolex value_size=64':
        'f706ce3b0c7dd6e3df8056a43265cdb9cda28bb1b96eb97dd4efc9c217f340d4',
    'rolex sparse x16':
        '826597a86943891f3c1667271361a2797a8f890203cec338c1ea950d27f43ef9',
    'rolex-indirect':
        'ddb87e42414fb3e6de8baa082453c3fc46edb71a06d77bf3a0eb7c601e9ec244',
    'rolex-indirect 2 MNs striped':
        '5c8b98c777e67f79961603d46d1ceeb28df4c35efa93a66b4c4389c2e7a91cf5',
    'rolex-indirect value_size=3':
        '7c75dd2e4195ed43576048179f05be3b0d2bad6554c2592507e84c32cc1f681b',
    'rolex-indirect value_size=64':
        '7c84997607f9f95584e7abe82f49698c18ac436c04d2d39f0a68efd0145b6370',
    'rolex-indirect sparse x16':
        'eb14476e261f76bc6223196960bbf57e7fc194f9501f20267f8b3d50e63f46f4',
    'flexkv':
        'a1afadead1e1202aff3d4437a910a0a9d21590b3fdbe1503677b214a4a65b333',
    'flexkv 2 MNs striped':
        'a56fbb1dd10faa0219d4688b7caf7aa8262706f3db956e4d1dfa58daeb7852b8',
    'flexkv value_size=3':
        '1e18ecb3d11e5f1487f52967293e4999916fbfe0d8be41a24019aedd0a14ca60',
    'flexkv value_size=64':
        '2b918f252561329bf8cdf8c967fea015822b92b2354756e8c98e6a704788e930',
    'flexkv sparse x16':
        'd06affe21f860b3c4eef8771d94259e682ac89b667299d72f5d5d65c634ece7e',
    'smart sparse':
        '6e31185baf4c161e038ea2e20d3f1642042ebcc30586047ca5d4bdb0e5d6b905',
    'sherman after splits':
        '0fd345444c7c4992da41b7123921fed3b75d7579c886f15a12c4955a9b4b4088',
    'sherman value_size=64 after splits':
        '5d729555c91ad12a859cc9323642f23f9f3a1aa9e6aa3908dc5e21f25bbed30d',
    'marlin after splits':
        'fa628112638c53cdc2acaad1b3e2590c5d81548b4cb42dcf7fe31d0acd9274e6',
    'sherman after deletes and upserts':
        '8cc54aa81dfd93e7937d262ffba079ea3360bf8f873dd3b96def01b88ef7e548',
    'rolex after synonym appends':
        '774731a690a51f54af4978814bfd565c9ef19fb67aa323701a3520480a2bce22',
    'rolex-indirect after synonym appends':
        '0881e2e18aea449da9ac522746f33e4a7b9e675c720e27d789b032e830c3bcf0',
    'chime span=8 after splits':
        'fb1b7cd5485d10b980f15e6354087d909353f42eaa7a4099b40b2b154b36e646',
    'rolex after deletes and updates inside a synonym chain':
        '6ea833c3c31a238b741273928d5865d3bcf19337e3606e4a17c75abd4c0a70e6',
    'rolex-indirect after deletes and updates inside a synonym chain':
        '349cef08d6cdc6056a4879a613e39bf99c712e68a7fedc9d0b748983a31b3698',
    'chime-learned after deletes and updates inside a synonym chain':
        'a63bab67d8fcb845ee45c8e7ca226544bb4afe3ca8e0a3c5990185b554378a53',
}


@pytest.mark.parametrize("row", list(ROWS))
def test_bulk_load_digest(row):
    assert _digest(ROWS[row]()) == GOLDEN[row]


def test_golden_table_has_no_stale_rows():
    assert set(GOLDEN) == set(ROWS)
