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
before -> after in CHANGES.md.

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
        (2014, 120, (246, 314, 134, 110, 70, 0, 16954, 1500, 15), '0.0002254798400000011'),
    ('chime', 'D', ()):
        (1185, 120, (126, 147, 134, 8, 5, 0, 16718, 127, 1), '0.00010627070666666671'),
    ('chime', 'E', ()):
        (1604, 120, (148, 267, 234, 18, 15, 0, 278281, 262, 6), '0.00014703101333333365'),
    ('chime-indirect', 'A', ()):
        (2811, 120, (374, 437, 195, 162, 80, 4, 17927, 2337, 26), '0.0003755146000000001'),
    ('chime-indirect', 'D', ()):
        (2143, 120, (248, 266, 246, 12, 8, 3, 18514, 191, 4), '0.00021260917333333423'),
    ('chime-indirect', 'E', ()):
        (37594, 120, (4650, 4765, 4729, 27, 9, 4, 350201, 406, 0), '0.0038943903733334533'),
    ('sherman', 'A', ()):
        (1972, 120, (247, 302, 121, 110, 71, 0, 137218, 1384, 16), '0.00022139194666666762'),
    ('sherman', 'D', ()):
        (1260, 120, (127, 131, 117, 8, 6, 0, 132681, 4568, 2), '0.00011216746666666675'),
    ('sherman', 'E', ()):
        (1850, 120, (148, 252, 219, 18, 15, 0, 248350, 10278, 6), '0.0001467895733333338'),
    ('marlin', 'A', ()):
        (2276, 120, (312, 311, 189, 64, 58, 4, 145014, 1006, 4), '0.0002944190400000008'),
    ('marlin', 'D', ()):
        (2199, 120, (246, 247, 230, 12, 5, 3, 136725, 4632, 2), '0.00020448812000000083'),
    ('marlin', 'E', ()):
        (37832, 120, (4649, 4749, 4713, 27, 9, 4, 319135, 10422, 0), '0.003893523506666782'),
    ('smart', 'A', ()):
        (2612, 120, (338, 338, 284, 54, 0, 0, 210752, 432, 0), '0.0003254292666666671'),
    ('smart', 'D', ()):
        (1725, 120, (209, 206, 147, 6, 53, 3, 34672, 2144, 0), '0.0002934327600000002'),
    ('smart', 'E', ()):
        (23200, 120, (468, 5337, 5270, 10, 57, 4, 248608, 2208, 0), '0.00041581085333334454'),
    ('smart-opt', 'A', ()):
        (2612, 120, (338, 338, 284, 54, 0, 0, 210752, 432, 0), '0.0003254292666666671'),
    ('smart-opt', 'D', ()):
        (1725, 120, (209, 206, 147, 6, 53, 3, 34672, 2144, 0), '0.0002934327600000002'),
    ('smart-opt', 'E', ()):
        (23200, 120, (468, 5337, 5270, 10, 57, 4, 248608, 2208, 0), '0.00041581085333334454'),
    ('smart-rcu', 'A', ()):
        (3338, 120, (444, 440, 326, 57, 57, 4, 269888, 912, 0), '0.00043644083999999975'),
    ('smart-rcu', 'D', ()):
        (1725, 120, (209, 206, 147, 6, 53, 3, 34672, 2144, 0), '0.0002934327600000002'),
    ('smart-rcu', 'E', ()):
        (23200, 120, (468, 5337, 5270, 10, 57, 4, 248608, 2208, 0), '0.00041581085333334454'),
    ('rolex', 'A', ()):
        (3431, 120, (283, 626, 459, 108, 59, 0, 139995, 1361, 5), '0.0002733363333333347'),
    ('rolex', 'D', ()):
        (2433, 120, (129, 448, 434, 8, 6, 0, 132370, 1252, 2), '0.00011610773333333387'),
    ('rolex', 'E', ()):
        (5249, 120, (290, 1017, 988, 18, 11, 0, 301340, 2817, 2), '0.00025442366666666955'),
    ('rolex-indirect', 'A', ()):
        (4208, 120, (410, 746, 516, 162, 68, 4, 139751, 2225, 14), '0.0003963837333333329'),
    ('rolex-indirect', 'D', ()):
        (3375, 120, (249, 565, 545, 12, 8, 3, 134146, 1316, 4), '0.00021895206666666827'),
    ('rolex-indirect', 'E', ()):
        (41250, 120, (4794, 5517, 5481, 27, 9, 4, 373228, 2961, 0), '0.004009363066666751'),
    ('chime-learned', 'A', ()):
        (2827, 120, (342, 420, 243, 110, 67, 0, 109354, 1500, 12), '0.0003058514000000004'),
    ('chime-learned', 'D', ()):
        (2018, 120, (222, 259, 245, 9, 5, 0, 48626, 129, 1), '0.0001855354000000004'),
    ('outback', 'A', ()):
        (1196, 120, (177, 177, 120, 57, 0, 0, 1920, 912, 0), '0.00014773333333333358'),
    ('outback', 'D', ()):
        (1048, 120, (130, 126, 126, 0, 0, 4, 2304, 0, 0), '0.00010653333333333335'),
    ('flexkv', 'A', ()):
        (1260, 120, (185, 185, 128, 57, 0, 0, 8192, 456, 0), '0.00015675833333333365'),
    ('flexkv', 'D', ()):
        (1104, 120, (140, 140, 132, 4, 4, 0, 8448, 32, 0), '0.00011165000000000003'),
    ('chime', 'A', (('pipeline_depth', 4),)):
        (2105, 120, (258, 321, 138, 100, 83, 0, 29448, 1363, 33), '9.606429333333334e-05'),
    ('chime', 'A', (('lock_leases', True),)):
        (2588, 120, (302, 424, 199, 165, 60, 0, 18934, 1940, 12), '0.00028571565333333424'),
    ('chime', 'A', (('sync_mode', 'pessimistic'),)):
        (2834, 120, (345, 460, 199, 158, 103, 0, 19948, 1884, 17), '0.000347030193009938'),
    # Recorded after Sherman's unlocks were routed through the lease- and
    # ticket-aware release (at 28828c4 both configurations failed to finish).
    ('sherman', 'A', (('lock_leases', True),)):
        (2540, 120, (302, 412, 187, 165, 60, 0, 138228, 1824, 12), '0.0002883942000000009'),
    ('sherman', 'A', (('sync_mode', 'pessimistic'),)):
        (2856, 120, (353, 457, 194, 159, 104, 0, 141808, 1776, 23), '0.0003433783680445866'),
    # The CHIME_LAYOUTS rows, recorded at cb475a0 (before the compiled
    # read shapes replaced the per-entry checks on lock-free reads).
    ('chime', 'A', (('metadata_replication', False),)):
        (2572, 120, (316, 384, 203, 110, 71, 0, 16923, 1492, 16), '0.00028640292000000093'),
    ('chime', 'D', (('metadata_replication', False),)):
        (1787, 120, (200, 223, 211, 8, 4, 0, 16497, 130, 0), '0.0001722890400000005'),
    ('chime', 'A', (('sibling_validation', False),)):
        (2014, 120, (246, 314, 134, 110, 70, 0, 18092, 1500, 15), '0.00022549857333333431'),
    ('chime', 'D', (('sibling_validation', False),)):
        (1185, 120, (126, 147, 134, 8, 5, 0, 17962, 129, 1), '0.00010630181333333338'),
    ('chime', 'A', (('neighborhood', 2),)):
        (1917, 120, (238, 296, 123, 108, 65, 0, 8806, 1469, 11), '0.0002560426666666678'),
    ('chime', 'D', (('neighborhood', 2),)):
        (1153, 120, (126, 139, 126, 8, 5, 0, 7953, 111, 1), '0.00010602844000000004'),
    ('chime', 'A', (('neighborhood', 16),)):
        (2038, 120, (246, 320, 140, 110, 70, 0, 27762, 1506, 15), '0.0002257870133333344'),
    ('chime', 'D', (('neighborhood', 16),)):
        (1221, 120, (126, 156, 143, 8, 5, 0, 27992, 129, 1), '0.00010658914666666675'),
    ('chime', 'A', (('span', 16),)):
        (2070, 120, (239, 330, 162, 108, 60, 0, 15294, 1471, 6), '0.00022161805333333434'),
    ('chime', 'D', (('span', 16),)):
        (1318, 120, (132, 174, 161, 8, 5, 0, 15705, 109, 1), '0.00011526493333333339'),
    ('chime', 'A', (('value_size', 64),)):
        (2158, 120, (246, 314, 134, 110, 70, 0, 51498, 4637, 15), '0.00022626020000000085'),
    ('chime', 'D', (('value_size', 64),)):
        (1202, 120, (127, 148, 134, 8, 6, 0, 53466, 412, 2), '0.00011056446666666666'),
    ('chime', 'A', (('speculative_read', False),)):
        (2026, 120, (246, 317, 137, 110, 70, 0, 23783, 1500, 15), '0.0002255795866666677'),
    ('chime', 'D', (('speculative_read', False),)):
        (1217, 120, (126, 155, 142, 8, 5, 0, 22663, 127, 1), '0.0001063314266666667'),
    # The VERB_PATHS rows, recorded at 366387e (before verb timelines
    # replaced the coroutine verb bodies).
    ('chime', 'A', (('cn_nic', NicSpec()),)):
        (2998, 120, (246, 314, 134, 110, 70, 0, 16954, 1500, 15), '0.00022697534666666825'),
    ('chime', 'E', (('cn_nic', NicSpec()),)):
        (2215, 120, (150, 268, 233, 18, 17, 0, 278262, 262, 8), '0.00015218640000000066'),
    ('chime', 'A', (('mn_nic', NicSpec(lanes=2)),)):
        (2010, 120, (246, 313, 133, 110, 70, 0, 16809, 1500, 15), '0.00022516858666666765'),
    ('chime', 'E', (('num_mns', 2),)):
        (1615, 120, (150, 268, 233, 18, 17, 0, 278262, 262, 8), '0.0001439541733333336'),
    ('smart', 'A', (('num_mns', 2),)):
        (2621, 120, (339, 339, 285, 54, 0, 0, 210768, 432, 0), '0.0003254292666666671'),
    ('chime', 'A', (('torn_writes', False), ('value_size', 64))):
        (2014, 120, (246, 314, 134, 110, 70, 0, 51498, 4637, 15), '0.00022626020000000085'),
    ('flexkv', 'A', (('placement', 'mn'),)):
        (968, 120, (120, 0, 0, 0, 0, 120, 0, 0, 0), '0.0009630166666666647'),
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

#: Verb paths no other row, experiment or CLI flag reaches: CN-side NIC
#: hops, multi-lane MN NICs, doorbell batches and atomics spanning the
#: MNs of a legacy striped pool, multi-chunk WRITEs landing unchunked,
#: RPCs charging a plan-derived service time to the MN CPU.
VERB_PATHS = (
    ("chime", "A", (("cn_nic", NicSpec()),)),
    ("chime", "E", (("cn_nic", NicSpec()),)),
    ("chime", "A", (("mn_nic", NicSpec(lanes=2)),)),
    ("chime", "E", (("num_mns", 2),)),
    ("smart", "A", (("num_mns", 2),)),
    ("chime", "A", (("torn_writes", False), ("value_size", 64))),
    ("flexkv", "A", (("placement", "mn"),)),
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
    ("chime", 27339), ("rolex", 57447), ("sherman", 26579),
    ("smart", 45686)])
def test_perf_point_event_count(index_name, events):
    assert _pinned_point(index_name).events == events


@pytest.mark.parametrize("index_name,events", [
    ("chime", 30437), ("outback", 25632)])
def test_perf_placement_event_count(index_name, events):
    assert _pinned_point(index_name, theta=0.0).events == events


def test_outback_beats_chime_on_uniform_reads():
    # Outback's claim: one-RTT hash routing beats a cached tree
    # traversal on uniform read-only YCSB-C (3.7357 vs 1.7785 Mops).
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
    # (2.4974 -> 4.4234 -> 6.1413).
    points = [_pinned_point("chime", clients=24, num_mns=mns, num_shards=mns)
              for mns in (1, 2, 4)]
    assert [point.events for point in points] == [39551, 39405, 39329]
    assert points[0].mops < points[1].mops < points[2].mops


def test_depth_sweep_hides_verb_latency():
    # With NIC headroom (4 clients) four op coroutines per client hide
    # verb latency: 1.0224 -> 1.8542 Mops.  At the saturated 16-client
    # point depth cannot help, which is why the sweep runs below it.
    shallow, deep = (_pinned_point("chime", clients=4, pipeline_depth=depth)
                     for depth in (1, 4))
    assert (shallow.events, deep.events) == (7423, 7238)
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

    def counted_leaf(client, raw, key):
        counts["leaves"] += 1
        return decode(client, raw, key)

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
