"""Golden fingerprints for every registered index family.

The simulation is deterministic, so one seeded run of a family is
summarised exactly by ``(events_processed, ops_completed,
traffic_totals(), repr(engine.now))``.  The table below pins that tuple
for every ``family_names()`` entry on YCSB A and D (and E where the
family scans), plus CHIME under the non-default knobs that reach its
lock path (pipeline depth, lock leases, the pessimistic ticket queue) and
under the ``ChimeConfig`` layouts its lock-free leaf reads must survive
(dedicated header READ, fence-key replicas, narrow and wrapping
neighbourhoods, a small span, entries straddling cache lines, no
speculation), and the verb-layer paths nothing else configures
(:data:`VERB_PATHS`) — so a refactor of the shared client plumbing or
of the verb layer that moves *any* family's simulated events fails here.

``GOLDEN`` was recorded at commit 28828c4 with :func:`_observe`; rows are
only ever *added* (a family, a knob, a configuration that used to fail).  An intentional protocol change
re-records the affected rows in the same commit and says so: ISSUE 21
(scans sized from the parent's pivots and checked at all three levels;
Marlin allocates before locking) re-recorded seven — the six ``E`` rows
of chime, chime-indirect, sherman and marlin, and ``marlin D`` — listed
before -> after in CHANGES.md.  The shared model-routed scan and
CHIME-Learned's coalesced hop write-back re-recorded ``rolex E``,
``rolex-indirect E`` and ``chime-learned D`` the same way, and added
``chime-learned E``.  Storing each hopscotch bitmap in ⌈H/8⌉ bytes
instead of a 16-bit word (one byte less per entry at H <= 8) re-recorded
every chime, chime-indirect and chime-learned row but the two
``neighborhood=16`` ones, which keep two-byte bitmaps and hold, and the
event counts of :func:`test_shard_sweep_mops_rise_with_mns`.  Deleting
the static placement knob deleted the one row that can no longer be
built, ``flexkv A placement=mn``; the ``cache_bytes=512`` FlexKV rows,
recorded before that deletion, reach the MN-side RPCs through the
cache-pressure policy instead.  Reading only the blocks a scan's first
leaf can hold keys in (§4.4 entry exclusion) re-recorded the four chime
and chime-indirect ``E`` rows, and reading only the entries of the
candidates' neighbourhoods in those blocks re-recorded them again.
SMART's tombstone (a delete or RCU update WRITEs key 0 over the leaf it
unlinked; a search that reads it walks again uncached) re-recorded
``smart-rcu A``, the one row that deletes or updates out of place.
Marlin's update taking the leaf lock (its lock-free pointer CAS lost
updates to concurrent inserts) re-recorded ``marlin A``, the one Marlin
row that updates.  Read delegation joining only a read issued at the
instant the follower arrived (a late follower had been handed values
overwritten before it was invoked) re-recorded the 39 rows whose runs
delegate a search, and the event counts of the pinned points below.
Reading a scan's last leaf (and a first leaf the range ends in) only
for its candidate keys below ``start + count``, the batch ending at
that leaf on dense keys, re-recorded the three chime and
chime-indirect ``E`` rows again.

The second half pins what the deleted ``repro perf --check`` enforced:
the event counts of twelve YCSB-C points at the :data:`PINNED` scale,
and the four simulated properties those points exist to show.  Every
point is built the way perfbench builds its own — a literal ``Scale``,
``PointSpec.prepare`` and ``run_workload`` — so ambient ``REPRO_*``
knobs cannot reach it.  Wall-clock speed is perfbench's job.
"""

import collections
import dataclasses
import functools

import pytest

from repro.baselines.flexkv import FlexKVIndex
from repro.bench.runner import run_workload
from repro.bench.scale import Scale
from repro.config import ChimeConfig
from repro.core.btree_base import BTreeClientBase
from repro.core.chime import ChimeClient
from repro.rdma import NicSpec
from repro.registry import family_names, get_family
from tests.test_event_queue import _golden_run


def _observe(index_name, workload, monkeypatch, **knobs):
    """*knobs* naming a ``ChimeConfig`` field configure the index, the
    rest the cluster (the two configs share no field name)."""
    chime = {name: knobs.pop(name) for name in list(knobs)
             if name in ChimeConfig.__dataclass_fields__}
    run = _golden_run(index_name, workload, monkeypatch, heap_oracle=False,
                      chime_overrides=chime or None, **knobs)
    return (run["events"], run["ops"],
            dataclasses.astuple(run["traffic"]), repr(run["now"]))


#: (family, workload, knobs) -> (events, ops, TrafficStats fields, now).
GOLDEN = {
    ('chime', 'A', ()):
        (2016, 120, (246, 314, 135, 110, 69, 0, 16495, 1440, 14), '0.000225466080000001'),
    ('chime', 'D', ()):
        (1234, 120, (131, 153, 140, 8, 5, 0, 16567, 125, 1), '0.0001091901066666667'),
    ('chime', 'E', ()):
        (1852, 120, (148, 329, 296, 18, 15, 0, 228750, 256, 6), '0.00014663960000000007'),
    ('chime-indirect', 'A', ()):
        (2828, 120, (376, 439, 197, 162, 80, 4, 17347, 2278, 26), '0.0003755026800000002'),
    ('chime-indirect', 'D', ()):
        (2201, 120, (254, 273, 255, 12, 6, 3, 18270, 189, 2), '0.00021109934666666756'),
    ('chime-indirect', 'E', ()):
        (37842, 120, (4650, 4827, 4791, 27, 9, 4, 300670, 400, 0), '0.003893298866666789'),
    ('sherman', 'A', ()):
        (1964, 120, (246, 301, 122, 110, 69, 0, 138352, 1384, 14), '0.00022816920000000106'),
    ('sherman', 'D', ()):
        (1298, 120, (131, 135, 122, 8, 5, 0, 138351, 4568, 1), '0.00011180845333333352'),
    ('sherman', 'E', ()):
        (1850, 120, (148, 252, 219, 18, 15, 0, 248350, 10278, 6), '0.0001467895733333338'),
    ('marlin', 'A', ()):
        (2707, 120, (366, 417, 183, 165, 69, 4, 137090, 2264, 14), '0.00032431760000000055'),
    ('marlin', 'D', ()):
        (2251, 120, (252, 253, 237, 12, 4, 3, 140191, 4632, 0), '0.000206924440000001'),
    ('marlin', 'E', ()):
        (37832, 120, (4649, 4749, 4713, 27, 9, 4, 319135, 10422, 0), '0.003893523506666782'),
    ('smart', 'A', ()):
        (2621, 120, (339, 339, 285, 54, 0, 0, 210768, 432, 0), '0.0003254292666666671'),
    ('smart', 'D', ()):
        (1786, 120, (216, 213, 154, 6, 53, 3, 36864, 2144, 0), '0.00031155610666666676'),
    ('smart', 'E', ()):
        (23200, 120, (468, 5337, 5270, 10, 57, 4, 248608, 2208, 0), '0.00041581085333334454'),
    ('smart-opt', 'A', ()):
        (2621, 120, (339, 339, 285, 54, 0, 0, 210768, 432, 0), '0.0003254292666666671'),
    ('smart-opt', 'D', ()):
        (1786, 120, (216, 213, 154, 6, 53, 3, 36864, 2144, 0), '0.00031155610666666676'),
    ('smart-opt', 'E', ()):
        (23200, 120, (468, 5337, 5270, 10, 57, 4, 248608, 2208, 0), '0.00041581085333334454'),
    ('smart-rcu', 'A', ()):
        (3503, 120, (491, 487, 321, 110, 56, 4, 260304, 1328, 0), '0.00048758602666666587'),
    ('smart-rcu', 'D', ()):
        (1786, 120, (216, 213, 154, 6, 53, 3, 36864, 2144, 0), '0.00031155610666666676'),
    ('smart-rcu', 'E', ()):
        (23200, 120, (468, 5337, 5270, 10, 57, 4, 248608, 2208, 0), '0.00041581085333334454'),
    ('rolex', 'A', ()):
        (3452, 120, (284, 630, 463, 108, 59, 0, 141215, 1361, 5), '0.0002733363333333347'),
    ('rolex', 'D', ()):
        (2506, 120, (132, 462, 449, 8, 5, 0, 136945, 1252, 1), '0.00011540733333333367'),
    ('rolex', 'E', ()):
        (4859, 120, (255, 955, 924, 18, 13, 0, 281820, 2817, 4), '0.00022487213333333627'),
    ('rolex-indirect', 'A', ()):
        (4246, 120, (411, 753, 526, 162, 65, 4, 142223, 2225, 11), '0.00038977279999999966'),
    ('rolex-indirect', 'D', ()):
        (3473, 120, (255, 582, 564, 12, 6, 3, 138785, 1316, 2), '0.00021740046666666833'),
    ('rolex-indirect', 'E', ()):
        (40850, 120, (4758, 5453, 5417, 27, 9, 4, 353419, 2961, 0), '0.003978662706666759'),
    ('chime-learned', 'A', ()):
        (2860, 120, (346, 424, 245, 110, 69, 0, 104769, 1441, 14), '0.0003025012533333338'),
    ('chime-learned', 'D', ()):
        (2065, 120, (226, 266, 252, 8, 6, 0, 46916, 122, 2), '0.0001887326533333339'),
    ('chime-learned', 'E', ()):
        (2359, 120, (242, 360, 333, 18, 9, 0, 448093, 253, 0), '0.00023257233333333406'),
    ('outback', 'A', ()):
        (1196, 120, (177, 177, 120, 57, 0, 0, 1920, 912, 0), '0.00014773333333333358'),
    ('outback', 'D', ()):
        (1048, 120, (130, 126, 126, 0, 0, 4, 2304, 0, 0), '0.00010653333333333335'),
    ('flexkv', 'A', ()):
        (1260, 120, (185, 185, 128, 57, 0, 0, 8192, 456, 0), '0.00015675833333333365'),
    ('flexkv', 'D', ()):
        (1104, 120, (140, 140, 132, 4, 4, 0, 8448, 32, 0), '0.00011165000000000003'),
    ('chime', 'A', (('pipeline_depth', 4),)):
        (2132, 120, (261, 324, 141, 100, 83, 0, 29166, 1310, 33), '9.605885333333336e-05'),
    ('chime', 'A', (('lock_leases', True),)):
        (2606, 120, (304, 426, 201, 165, 60, 0, 18501, 1880, 12), '0.0002857038133333343'),
    ('chime', 'A', (('sync_mode', 'pessimistic'),)):
        (2834, 120, (345, 460, 199, 158, 103, 0, 19339, 1824, 17), '0.0003470153930099381'),
    # Recorded after Sherman's unlocks were routed through the lease- and
    # ticket-aware release (at 28828c4 both configurations failed to finish).
    ('sherman', 'A', (('lock_leases', True),)):
        (2558, 120, (304, 414, 189, 165, 60, 0, 140496, 1824, 12), '0.0002883942000000009'),
    ('sherman', 'A', (('sync_mode', 'pessimistic'),)):
        (2856, 120, (353, 457, 194, 159, 104, 0, 141808, 1776, 23), '0.0003433783680445866'),
    # The CHIME_LAYOUTS rows, recorded at cb475a0 (before the compiled
    # read shapes replaced the per-entry checks on lock-free reads).
    ('chime', 'A', (('metadata_replication', False),)):
        (2584, 120, (317, 385, 206, 110, 69, 0, 16490, 1443, 14), '0.00028639062666666753'),
    ('chime', 'D', (('metadata_replication', False),)):
        (1843, 120, (206, 230, 218, 8, 4, 0, 16196, 124, 0), '0.00017227496000000046'),
    ('chime', 'A', (('sibling_validation', False),)):
        (2016, 120, (246, 314, 135, 110, 69, 0, 17648, 1441, 14), '0.00022549228000000098'),
    ('chime', 'D', (('sibling_validation', False),)):
        (1234, 120, (131, 153, 140, 8, 5, 0, 17861, 122, 1), '0.0001092228266666667'),
    ('chime', 'A', (('neighborhood', 2),)):
        (1928, 120, (239, 297, 125, 108, 64, 0, 8700, 1428, 10), '0.0002560426666666678'),
    ('chime', 'D', (('neighborhood', 2),)):
        (1198, 120, (131, 144, 131, 8, 5, 0, 7942, 105, 1), '0.00010898661333333337'),
    ('chime', 'A', (('neighborhood', 16),)):
        (2040, 120, (246, 320, 141, 110, 69, 0, 28081, 1506, 14), '0.0002257870133333344'),
    ('chime', 'D', (('neighborhood', 16),)):
        (1270, 120, (131, 162, 149, 8, 5, 0, 28986, 129, 1), '0.00010952646666666676'),
    ('chime', 'A', (('span', 16),)):
        (2072, 120, (239, 330, 163, 108, 59, 0, 14801, 1415, 5), '0.00022160661333333432'),
    ('chime', 'D', (('span', 16),)):
        (1354, 120, (136, 178, 165, 8, 5, 0, 15226, 106, 1), '0.0001152513333333334'),
    ('chime', 'A', (('value_size', 64),)):
        (2136, 120, (246, 314, 135, 110, 69, 0, 51480, 4570, 14), '0.0002262438000000008'),
    ('chime', 'D', (('value_size', 64),)):
        (1246, 120, (131, 153, 140, 8, 5, 0, 54780, 408, 1), '0.00011011513333333339'),
    ('chime', 'A', (('speculative_read', False),)):
        (2028, 120, (246, 317, 138, 110, 69, 0, 22990, 1440, 14), '0.00022555125333333423'),
    ('chime', 'D', (('speculative_read', False),)):
        (1266, 120, (131, 161, 148, 8, 5, 0, 22494, 125, 1), '0.00010924626666666668'),
    # The VERB_PATHS rows, recorded at 366387e (before verb timelines
    # replaced the coroutine verb bodies).
    ('chime', 'A', (('mn_nic', NicSpec(lanes=2)),)):
        (2012, 120, (246, 313, 134, 110, 69, 0, 16357, 1440, 14), '0.0002251565866666676'),
    ('chime', 'E', (('num_mns', 2),)):
        (1863, 120, (150, 330, 295, 18, 17, 0, 228731, 256, 8), '0.00014357049333333342'),
    ('smart', 'A', (('num_mns', 2),)):
        (2621, 120, (339, 339, 285, 54, 0, 0, 210768, 432, 0), '0.0003254292666666671'),
    ('chime', 'A', (('torn_writes', False), ('value_size', 64))):
        (2016, 120, (246, 314, 135, 110, 69, 0, 51480, 4570, 14), '0.00022624380000000076'),
    # FlexKV with room for one partition directory of four: the policy
    # flips partitions to MN-side mid-run (search / update RPCs on A,
    # insert RPCs on D).
    ('flexkv', 'A', (('cache_bytes', 512),)):
        (1400, 120, (191, 136, 102, 34, 0, 55, 6528, 272, 0), '0.0004883916666666659'),
    ('flexkv', 'D', (('cache_bytes', 512),)):
        (1186, 120, (148, 79, 77, 1, 1, 69, 4928, 8, 0), '0.0005912249999999988'),
}


#: Leaf layouts and read paths the default ``ChimeConfig`` does not reach.
CHIME_LAYOUTS = (
    ("metadata_replication", False),  # dedicated header READ (Fig. 15)
    ("sibling_validation", False),    # 26-byte fence-key replicas (Fig. 16)
    ("neighborhood", 2),              # Fig. 18f, narrow end
    ("neighborhood", 16),             # ... wide end: 15 of 64 homes wrap
    ("span", 16),
    ("value_size", 64),               # entries straddle two cache lines
    ("speculative_read", False),
)

#: Verb paths no other row, experiment or CLI flag reaches: multi-lane
#: MN NICs, doorbell batches and atomics spanning the
#: MNs of a legacy striped pool, multi-chunk WRITEs landing unchunked,
#: RPCs charging a plan-derived service time to the MN CPU (FlexKV
#: partitions the cache-pressure policy flips MN-side mid-run).
VERB_PATHS = (
    ("chime", "A", (("mn_nic", NicSpec(lanes=2)),)),
    ("chime", "E", (("num_mns", 2),)),
    ("smart", "A", (("num_mns", 2),)),
    ("chime", "A", (("torn_writes", False), ("value_size", 64))),
    ("flexkv", "A", (("cache_bytes", 512),)),
    ("flexkv", "D", (("cache_bytes", 512),)),
)


def _rows():
    for name in family_names():
        workloads = ("A", "D", "E") if get_family(name).supports_scan \
            else ("A", "D")
        for workload in workloads:
            yield name, workload, ()
    yield "chime", "A", (("pipeline_depth", 4),)
    yield "chime", "A", (("lock_leases", True),)
    yield "chime", "A", (("sync_mode", "pessimistic"),)
    yield "sherman", "A", (("lock_leases", True),)
    yield "sherman", "A", (("sync_mode", "pessimistic"),)
    for knob in CHIME_LAYOUTS:
        for workload in ("A", "D"):  # D reads fresh inserts: the sibling chase
            yield "chime", workload, (knob,)
    yield from VERB_PATHS


def _knob_id(value):
    """``NicSpec(lanes=2)``, not the full repr: non-default fields only."""
    if not dataclasses.is_dataclass(value):
        return str(value)
    fields = ",".join(f"{f.name}={getattr(value, f.name)}"
                      for f in dataclasses.fields(value)
                      if getattr(value, f.name) != f.default)
    return f"{type(value).__name__}({fields})"


@pytest.mark.parametrize("index_name,workload,knobs", list(_rows()),
                         ids=lambda v: v if isinstance(v, str) else
                         ",".join(f"{k}={_knob_id(x)}" for k, x in v)
                         or "default")
def test_family_fingerprint(index_name, workload, knobs, monkeypatch):
    observed = _observe(index_name, workload, monkeypatch, **dict(knobs))
    assert observed == GOLDEN[(index_name, workload, knobs)]


def test_golden_table_has_no_stale_rows():
    assert set(GOLDEN) == set(_rows())


# -- pinned YCSB-C points ---------------------------------------------------

#: Heavier NIC scaling than the ``quick`` preset: one MN NIC saturates
#: around 16 clients, so each point simulates a saturated regime.
PINNED = Scale(name="pinned", num_keys=8000, ops_per_client=200,
               client_sweep=[], clients=16, nic_scale=32.0, seed=1234)


Observed = collections.namedtuple("Observed", "events mops notes")


@functools.lru_cache(maxsize=None)
def _pinned_point(index_name, theta=0.99, **config_fields):
    """One YCSB-C run at PINNED: engine events, simulated Mops and the
    result notes; *config_fields* go to ``Scale.cluster_config``."""
    spec = PINNED.point(index_name, "C",
                        PINNED.cluster_config(**config_fields), theta=theta)
    cluster, index, context = spec.prepare()
    before = cluster.engine.events_processed
    result = run_workload(cluster, index, "C", spec.ops_per_client, context)
    return Observed(cluster.engine.events_processed - before,
                    result.throughput_mops, result.notes)


@pytest.mark.parametrize("index_name,events", [
    ("chime", 29775), ("rolex", 63043), ("sherman", 29063),
    ("smart", 49055)])
def test_perf_point_event_count(index_name, events):
    assert _pinned_point(index_name).events == events


@pytest.mark.parametrize("index_name,events", [
    ("chime", 30464), ("outback", 25632)])
def test_perf_placement_event_count(index_name, events):
    assert _pinned_point(index_name, theta=0.0).events == events


def test_outback_beats_chime_on_uniform_reads():
    # Outback's claim: one-RTT hash routing beats a cached tree
    # traversal on uniform read-only YCSB-C (3.7357 vs 1.8418 Mops).
    assert (_pinned_point("outback", theta=0.0).mops
            > _pinned_point("chime", theta=0.0).mops)


def test_perf_flexkv_constrained_event_count():
    # A CN cache of a tenth of the directory footprint must push
    # partitions to MN-side execution (FlexKV's cache-pressure policy).
    footprint = FlexKVIndex.directory_bytes(PINNED.num_keys, PINNED.num_mns)
    point = _pinned_point(
        "flexkv", theta=0.0, cache_bytes=max(1024, footprint // 10))
    assert point.events == 25760
    assert point.notes["placement.switches"] == 4
    assert point.notes["placement.switches"] >= 1  # the property, if re-pinned


def test_shard_sweep_mops_rise_with_mns():
    # DEX's claim: past the one-NIC wall (24 clients here) every added
    # MN brings its own NIC, so aggregate Mops rise with each shard
    # (2.4289 -> 4.1667 -> 5.9339).
    points = [_pinned_point("chime", clients=24, num_mns=mns, num_shards=mns)
              for mns in (1, 2, 4)]
    assert [point.events for point in points] == [44581, 44529, 44249]
    assert points[0].mops < points[1].mops < points[2].mops


def test_depth_sweep_hides_verb_latency():
    # With NIC headroom (4 clients) four op coroutines per client hide
    # verb latency: 1.0175 -> 1.8372 Mops.  At the saturated 16-client
    # point depth cannot help, which is why the sweep runs below it.
    shallow, deep = (_pinned_point("chime", clients=4, pipeline_depth=depth)
                     for depth in (1, 4))
    assert (shallow.events, deep.events) == (7544, 7736)
    assert deep.mops > shallow.mops


def test_scans_read_the_leaves_they_need(monkeypatch):
    # YCSB-E at PINNED.  A scan's first batch is sized from the cached
    # parent's pivots and the client's running mean of keys per leaf:
    # ~2.2 leaves hold a scan's answer (<= 100 pairs, 44 to a
    # bulk-loaded leaf) and 2.15 are fetched — the constant guess
    # ``count // (span // 2) + 2`` fetched 3.07 — without paying for it
    # in sibling chases: 3,076 round trips for 3,011 scans, where the
    # guess took 3,069.
    counts = collections.Counter()
    decode, scan = ChimeClient._scan_leaf, BTreeClientBase.scan

    def counted_leaf(client, raw, key, *first):
        counts["leaves"] += 1
        return decode(client, raw, key, *first)

    def counted_scan(client, key, count):
        before = client.qp.stats.rtts
        result = yield from scan(client, key, count)
        counts["scans"] += 1
        counts["rtts"] += client.qp.stats.rtts - before
        return result

    monkeypatch.setattr(ChimeClient, "_scan_leaf", counted_leaf)
    monkeypatch.setattr(BTreeClientBase, "scan", counted_scan)
    spec = PINNED.point("chime", "E", PINNED.cluster_config())
    cluster, index, context = spec.prepare()
    run_workload(cluster, index, "E", spec.ops_per_client, context)
    assert counts["scans"] == 3011
    assert counts["leaves"] <= 2.5 * counts["scans"]
    assert counts["rtts"] <= 1.10 * 3069
