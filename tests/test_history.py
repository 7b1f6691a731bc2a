"""The history checker (``repro.faults.history``): each rule fires on a
hand-built history with one planted bug, a legal history passes, and a
recording turns an op that never answered into a pending one."""

import pytest

from repro import obs
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import IndexError_
from repro.faults import FaultPlan
from repro.faults.history import INF, Op, check_history, history
from repro.registry import build_index

LOADED = [(1, 10), (2, 20), (3, 30)]


def op(name, args, begin, end=INF, result=None, client="c1"):
    """An op invoked at *begin* µs that answered at *end* µs."""
    return Op(client, name, args, begin * 1e-6, end * 1e-6, result)


UPDATE_1 = op("update", (1, 11), 1, 3, True, client="c0")
LATER = op("update", (1, 12), 4, 7, True, client="c2")
AFTER = [(1, 11), *LOADED[1:]]

#: id -> (ops, final state, the violations they must raise).
CASES = {
    "legal": ([UPDATE_1, op("search", (1,), 2, 4, 10),  # overlaps: either
               op("search", (1,), 5, 6, 11), op("delete", (2,), 7, 8, True),
               op("search", (2,), 9, 10, None), op("update", (2, 9), 11, 12, False),
               op("scan", (1, 5), 13, 14, [(1, 11), (3, 30)])],
              [(1, 11), (3, 30)], []),
    "superseded value": ([UPDATE_1, op("search", (1,), 5, 6, 10)], AFTER,
                         ["c1 search(1,) [5.000-6.000 us]: key 1 read 10, legal [11]"]),
    "overlapping writer does not supersede": (
        [UPDATE_1, LATER, op("search", (1,), 5, 6, 11)], [(1, 12), *AFTER[1:]], []),
    "answered writer supersedes": (
        [UPDATE_1, LATER, op("search", (1,), 8, 9, 11)], [(1, 12), *AFTER[1:]],
        ["c1 search(1,) [8.000-9.000 us]: key 1 read 11, legal [12]"]),
    "value nobody wrote": ([op("search", (2,), 1, 2, 99)], LOADED,
                           ["c1 search(2,) [1.000-2.000 us]: key 2 read 99, legal [20]"]),
    "absent answer for a present key": (
        [op("update", (3, 31), 1, 2, False)], LOADED,
        ["c1 update(3, 31) [1.000-2.000 us]: key 3 read None, legal [30]"]),
    "pending write read": ([op("insert", (4, 40), 1), op("search", (4,), 2, 3, 40)],
                           [*LOADED, (4, 40)], []),
    "pending write not read": ([op("insert", (4, 40), 1), op("search", (4,), 2, 3, None)],
                               LOADED, []),
    "scan key out of order": ([op("scan", (1, 5), 1, 2, [(2, 20), (1, 10), (3, 30)])],
                              LOADED, ["c1 scan(1, 5) [1.000-2.000 us]: key 1 after 2"]),
    "scan key twice": ([op("scan", (1, 5), 1, 2, [(1, 10), (1, 10), (2, 20), (3, 30)])],
                       LOADED, ["c1 scan(1, 5) [1.000-2.000 us]: key 1 twice"]),
    "final key twice": ([], [*LOADED, (3, 30)], ["final state: key 3 twice"]),
    "scan skip": ([op("scan", (1, 5), 1, 2, [(1, 10), (3, 30)])], LOADED,
                  ["c1 scan(1, 5) [1.000-2.000 us]: skipped key 2"]),
    # Past the count's last key nothing is owed, nor a key a pending
    # delete may have removed.
    "no skip": ([op("scan", (1, 1), 1, 2, [(1, 10)]), op("delete", (2,), 0),
                 op("scan", (1, 5), 1, 2, [(1, 10), (3, 30)])], [LOADED[0], LOADED[2]], []),
    "scan past its count and start": (
        [op("scan", (2, 1), 1, 2, [(1, 10), (2, 20)])], LOADED,
        ["c1 scan(2, 1) [1.000-2.000 us]: 2 keys from 1, asked for 1 from 2"]),
    "update of an absent key answers True": (
        [op("update", (4, 41), 1, 2, True)], [*LOADED, (4, 41)],
        ["c1 update(4, 41) [1.000-2.000 us]: key 4 found, legal [None]"]),
    "delete of a deleted key answers True": (
        [op("delete", (2,), 1, 2, True), op("delete", (2,), 3, 4, True)],
        [LOADED[0], LOADED[2]], ["c1 delete(2,) [3.000-4.000 us]: key 2 found, legal [None]"]),
    "overlapping deletes may both find the key": (
        [op("delete", (2,), 1, 4, True), op("delete", (2,), 2, 3, True)],
        [LOADED[0], LOADED[2]], []),
    "committed key missing at rest": ([op("insert", (4, 40), 1, 2, True)], LOADED,
                                      ["final state: skipped key 4"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_rule_fires_on_its_planted_bug(case):
    ops, final, violations = CASES[case]
    assert check_history(ops, LOADED, final) == violations


def test_an_op_that_never_answered_is_pending():
    """A CN that crashes before its insert's value WRITE parks the op
    for good, and an op that raises (FlexKV refuses value 0, its
    claimed-slot mark) has no answer either: both are pending writes."""
    cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=1))
    index = build_index("flexkv", cluster)
    loaded = [(key, key) for key in range(1, 100)]
    index.bulk_load(loaded)
    victim, survivor = (index.client(ctx) for ctx in cluster.clients())
    cluster.install_faults(FaultPlan(seed=1).crash("cn0/c0", kinds=("write",)))

    def survive():
        for refused in (survivor.insert(7, 0), survivor.update(5, 0)):
            with pytest.raises(IndexError_, match="values must be >= 1"):
                yield from refused
        yield from survivor.search(500)

    with obs.recording() as rec:
        cluster.engine.process(victim.insert(500, 5))
        cluster.engine.process(survive())
        cluster.run()
    ops = history(rec)
    assert [(o.client, o.name, o.args, o.end == INF) for o in ops] == [
        ("cn0/c0", "insert", (500, 5), True), ("cn1/c0", "insert", (7, 0), True),
        ("cn1/c0", "update", (5, 0), True), ("cn1/c0", "search", (500,), False)]
    assert index.collect_items() == loaded  # the claimed slot reads absent
    assert check_history(ops, loaded, index.collect_items()) == []
