"""Hot-key histories: every family on a small, dense, skewed key set,
every answer judged by :func:`repro.faults.history.check_history`.

The chaos grid draws keys uniformly over 800 and repeats its values per
key, so it cannot see an answer that a same-key write had already
overwritten.  Here 2 CNs × 6 clients run 60 YCSB ops each over 200
dense keys at θ 0.99 with a 64 KiB cache: same-key ops overlap across
CNs all the time, and YCSB writes draw fresh values.  Read delegation
once handed a late follower its leader's overwritten answer here
(``chime-indirect`` A, depth 1, seed 2: ``cn1/c0 search(90)``).
"""

import pytest

from repro.bench.runner import PointSpec, run_workload
from repro.config import ClusterConfig
from repro.faults.history import check_history, history
from repro.obs import recording
from repro.registry import families
from repro.workloads.ycsb import dataset

KEYS, OPS = 200, 60

#: SMART's scan over radix nodes another CN's install left stale in its
#: cache skips a key (ROADMAP item 5(c), as in ``test_stateful.py``).
_SMART_SCAN = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5(c): a SMART scan skips a key another CN installed"))


def _cases():
    for family in families():
        workloads = ("A", "D", "F") + (("E",) if family.supports_scan else ())
        for workload in workloads:
            marks = (_SMART_SCAN,) if (
                workload == "E" and family.family == "smart") else ()
            for depth in (1, 4):
                for seed in (1, 2):
                    yield pytest.param(
                        family.name, workload, depth, seed, marks=marks,
                        id=f"{family.name}-{workload}-depth{depth}-seed{seed}")


@pytest.mark.parametrize("index_name,workload,depth,seed", _cases())
def test_hot_key_history_is_legal(index_name, workload, depth, seed):
    config = ClusterConfig(num_cns=2, clients_per_cn=6,
                           cache_bytes=64 * 1024, pipeline_depth=depth,
                           seed=seed)
    cluster, index, context = PointSpec(
        index_name, workload, num_keys=KEYS, ops_per_client=OPS,
        cluster_config=config, theta=0.99).prepare()
    with recording() as record:
        run_workload(cluster, index, workload, OPS, context)
    assert check_history(history(record), dataset(KEYS, seed=seed),
                         index.collect_items()) == []
