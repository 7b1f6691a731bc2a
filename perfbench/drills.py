"""Six layer drills: one layer's public API, timed alone.

A drill answers "did this layer get faster or slower by itself" without
the rest of the stack in the way; the workloads then say whether that
reached ``host_ops_per_s``.  Each drill does a fixed amount of work
(about 0.12 s on the reference box — the driver's time cap leaves ~4 s
for all six), is repeated :data:`REPEATS` times, and reports the median
rate.  Inputs are seeded; nothing here reads ``REPRO_*``.

Prints one JSON object: ``{"<layer>.drill_<what>_per_s": rate, ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from typing import Callable, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.cluster.cache import IndexCache  # noqa: E402
from repro.core.node_layout import LeafLayout  # noqa: E402
from repro.core.nodes import LeafNodeView  # noqa: E402
from repro.hashing.hopscotch import HopscotchTable  # noqa: E402
from repro.layout import StripedSpan  # noqa: E402
from repro.memory import MemoryNode  # noqa: E402
from repro.rdma.verbs import RdmaQp  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.workloads.ycsb import WORKLOADS, OpStream, WorkloadContext  # noqa: E402

REPEATS = 5
#: Work multiplier: full size, and the tests' size (numbers mean nothing).
FULL_SCALE = 60
SMOKE_SCALE = 3


def drill_sim(scale: int) -> int:
    """``Engine.timeout`` resumes spread over 64 processes."""
    engine = Engine()
    per_process = 25 * scale

    def ticker(step: float):
        for _ in range(per_process):
            yield engine.timeout(step)

    for i in range(64):
        engine.process(ticker(1e-6 + i * 1e-9))
    engine.run()
    return 64 * per_process


def drill_rdma(scale: int) -> int:
    """64 B ``RdmaQp.read`` verbs against one ``MemoryNode``."""
    engine = Engine()
    node = MemoryNode(engine, 0, 1 << 20)
    qp = RdmaQp(engine, {0: node})
    addr = node.allocator.alloc(4096)
    reads = 120 * scale

    def reader():
        for i in range(reads):
            yield from qp.read(addr + (i & 63) * 64, 64)

    engine.process(reader())
    engine.run()
    return reads


def drill_layout(scale: int) -> int:
    """Decode a 70 %-full hopscotch leaf image through the node views."""
    layout = LeafLayout(span=64, neighborhood=8)
    leaf = LeafNodeView.blank(layout)
    for index in range(45):
        leaf.write_entry(index, 1000 + index, 7, bitmap=1)
    raw = bytes(leaf.span.data)
    decodes = 70 * scale
    for _ in range(decodes):
        view = LeafNodeView(layout, StripedSpan(raw))
        view.items()
        view.argmax_key()
    return decodes


def drill_hashing(scale: int) -> int:
    """Hopscotch insert to half load, then one lookup per key."""
    rng = random.Random(1)
    ops = 0
    for _ in range(max(1, scale // 2)):
        table = HopscotchTable(capacity=2048, neighborhood=16)
        keys = rng.sample(range(1, 1 << 30), 1024)
        for key in keys:
            table.insert(key, key)
        for key in keys:
            table.lookup(key)
        ops += 2 * len(keys)
    return ops


def drill_cluster(scale: int) -> int:
    """``IndexCache.get``/``put`` over a working set twice the capacity."""
    cache = IndexCache(capacity_bytes=512 * 1024)
    rng = random.Random(2)
    working_set = 2 * 512  # 1 KiB nodes: twice what fits
    ops = 2500 * scale
    for _ in range(ops):
        addr = rng.randrange(working_set) * 1024 + 64
        if cache.get(addr) is None:
            cache.put(addr, addr, 1024)
    return ops


def drill_workloads(scale: int) -> int:
    """``OpStream`` generation for YCSB-E (scan + insert, zipf 0.99)."""
    context = WorkloadContext(WORKLOADS["E"], range(1, 100_001), seed=3, theta=0.99)
    ops = 800 * scale
    return sum(1 for _op in OpStream(context, 0, ops))


DRILLS: Dict[str, Callable[[int], int]] = {
    "sim.drill_events_per_s": drill_sim,
    "rdma.drill_reads_per_s": drill_rdma,
    "layout.drill_leaf_decodes_per_s": drill_layout,
    "hashing.drill_ops_per_s": drill_hashing,
    "cluster.drill_cache_ops_per_s": drill_cluster,
    "workloads.drill_ops_per_s": drill_workloads,
}


def run_drills(scale: int) -> Dict[str, float]:
    rates = {}
    for name, drill in DRILLS.items():
        samples = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            work = drill(scale)
            samples.append(work / (time.perf_counter() - started))
        rates[name] = statistics.median(samples)
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="a twentieth of the work; the numbers mean nothing")
    args = parser.parse_args(argv)
    print(json.dumps(run_drills(SMOKE_SCALE if args.smoke else FULL_SCALE)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
