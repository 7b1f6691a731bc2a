"""Chaos acceptance tests: CN crash mid-operation, recovery, determinism.

Marked ``chaos`` so CI can run them as a dedicated smoke job
(``pytest -m chaos``); they also run in the default suite.
"""

import dataclasses
import json

import pytest

from repro.faults import ChaosConfig, check_tree_invariants, run_chaos

pytestmark = pytest.mark.chaos

#: The canonical campaign: kill cn0/c0's CN right before its first WRITE
#: verb — after the lock-acquiring CAS, before the unlocking WRITE.
CANONICAL = ChaosConfig()


class TestCrashRecovery:
    def test_without_leases_orphaned_lock_wedges_survivors(self):
        result = run_chaos(dataclasses.replace(CANONICAL, lock_leases=False))
        # The victim CN died holding at least one leaf lock...
        assert result.dead_cns == [0]
        assert result.fault_counters["fault.crash"] == 1
        assert any("lock bit still set" in violation
                   for violation in result.invariants.violations)
        # ...and survivors that needed that leaf burned their whole retry
        # budget and surfaced the typed error.
        assert result.errors
        assert {e["error"] for e in result.errors} == {"RetryExhaustedError"}
        assert all(e["client"].startswith("cn1/") for e in result.errors)

    def test_with_leases_survivors_steal_and_complete(self):
        result = run_chaos(CANONICAL)
        assert result.dead_cns == [0]
        assert result.errors == []
        # Every survivor client finished its full op stream.
        for name, count in result.completed.items():
            expected = 0 if name.startswith("cn0/") else \
                CANONICAL.ops_per_client
            assert count == expected, name
        # Recovery showed up in the observability metrics...
        assert result.metrics.get("obs.lock.steal", 0) >= 1
        assert result.metrics.get("obs.lock.repair", 0) >= 1
        assert result.metrics.get("obs.fault.crash", 0) == 1
        # ...and the tree is structurally clean, locks released, every
        # committed key readable.
        assert result.invariants.ok, result.invariants.violations

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic",
                                      "adaptive"])
    def test_lossy_fabric_without_leases_gives_every_lock_back(self, mode):
        """No crash, no leases, 2 % of verbs lost: a lost releasing batch
        is restored and a lost queue verb re-issued, so no lock, lease
        or ticket leaks.  Every seed failed this (a lost unlock wedged
        its leaf) while releases gave the lock up at build time."""
        cfg = dataclasses.replace(CANONICAL, crash_owner="", sync_mode=mode,
                                  lock_leases=False, loss_probability=0.02)
        result = run_chaos(cfg)
        assert result.fault_counters.get("fault.loss", 0) > 0
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations

    def test_lossy_fabric_with_leases_stays_consistent(self):
        cfg = dataclasses.replace(
            CANONICAL, loss_probability=0.02, delay_probability=0.05,
            mn_outages=((0, 100e-6, 200e-6),))
        result = run_chaos(cfg)
        assert result.fault_counters.get("fault.loss", 0) > 0
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations


class TestSyncModes:
    """The canonical crash campaign must recover in every lock mode."""

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic",
                                      "adaptive"])
    def test_canonical_crash_recovers(self, mode):
        result = run_chaos(dataclasses.replace(CANONICAL, sync_mode=mode))
        assert result.dead_cns == [0]
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations
        # survivors drained anything the dead CN left in a queue
        assert all(not t["cn_dead"] for t in result.stranded_tickets)
        if mode == "pessimistic":
            assert result.metrics.get("obs.queue.enqueue", 0) > 0

    def test_cn_crash_while_queued_is_drained_by_survivors(self):
        """Kill the victim right after its ticket-claiming FAA: the
        ticket is claimed on the MN but its owner is gone.  Survivors
        watch the serving word stall, CAS it past the dead tickets
        (``queue.drop``), and every surviving op completes."""
        cfg = dataclasses.replace(CANONICAL, sync_mode="pessimistic",
                                  crash_kinds=("faa",),
                                  crash_when="after")
        result = run_chaos(cfg)
        assert result.dead_cns == [0]
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations
        dead_tickets = [t for t in result.stranded_tickets if t["cn_dead"]]
        assert dead_tickets, "crash-after-faa left no stranded ticket"
        assert result.metrics.get("obs.queue.drop", 0) >= 1

    @pytest.mark.parametrize("mode", ["pessimistic", "adaptive"])
    def test_modes_are_deterministic(self, mode):
        cfg = dataclasses.replace(CANONICAL, sync_mode=mode)
        first = json.dumps(run_chaos(cfg).to_dict(), sort_keys=True)
        second = json.dumps(run_chaos(cfg).to_dict(), sort_keys=True)
        assert first == second


class TestDeterminism:
    def test_same_seeds_give_byte_identical_results(self):
        first = json.dumps(run_chaos(CANONICAL).to_dict(), sort_keys=True)
        second = json.dumps(run_chaos(CANONICAL).to_dict(), sort_keys=True)
        assert first == second

    def test_different_seed_gives_a_different_run(self):
        other = dataclasses.replace(CANONICAL, seed=8)
        first = json.dumps(run_chaos(CANONICAL).to_dict(), sort_keys=True)
        second = json.dumps(run_chaos(other).to_dict(), sort_keys=True)
        assert first != second


class TestInvariantChecker:
    def test_clean_run_without_faults_passes(self):
        cfg = dataclasses.replace(CANONICAL, crash_owner="")
        result = run_chaos(cfg)
        assert result.dead_cns == []
        assert result.errors == []
        assert result.invariants.ok
        assert result.invariants.leaves > 1
        assert result.invariants.keys >= CANONICAL.initial_keys

    def test_checker_catches_a_planted_stuck_lock(self):
        from repro.cluster import Cluster
        from repro.config import ChimeConfig, ClusterConfig
        from repro.core import ChimeIndex
        from repro.core.node_layout import LOCK_BIT
        from repro.layout import encode_u64

        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = ChimeIndex(cluster, ChimeConfig())
        index.bulk_load([(k, k) for k in range(1, 200)])
        assert check_tree_invariants(index).ok
        addr = index.leaf_addrs()[0]
        lock_addr = addr + index.leaf_layout.lock_offset
        word = int.from_bytes(index._host_read(lock_addr, 8), "little")
        index._host_write(lock_addr, encode_u64(word | LOCK_BIT))
        report = check_tree_invariants(index)
        assert not report.ok
        assert any("lock bit" in v for v in report.violations)

    def test_checker_catches_a_stuck_internal_node_lock(self):
        """Split propagation locks internal nodes; the checker used to
        walk leaves only, so a leaked parent lock went unseen."""
        from repro.cluster import Cluster
        from repro.config import ChimeConfig, ClusterConfig
        from repro.core import ChimeIndex
        from repro.core.node_layout import LOCK_BIT
        from repro.layout import encode_u64

        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = ChimeIndex(cluster, ChimeConfig())
        index.bulk_load([(k, k) for k in range(1, 200)])
        root_lock = index.root_addr + index.internal_layout.lock_offset
        index._host_write(root_lock, encode_u64(LOCK_BIT))
        report = check_tree_invariants(index)
        assert report.violations == [
            f"internal node {index.root_addr:#x}: lock bit still set "
            f"after the run"]

    def test_checker_catches_a_missing_committed_key(self):
        from repro.cluster import Cluster
        from repro.config import ChimeConfig, ClusterConfig
        from repro.core import ChimeIndex

        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = ChimeIndex(cluster, ChimeConfig())
        index.bulk_load([(k, k) for k in range(1, 100)])
        report = check_tree_invariants(index, expected_keys={1, 50, 5000})
        assert any("5000" in v and "unreadable" in v
                   for v in report.violations)
