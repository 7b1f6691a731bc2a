"""Chaos acceptance tests: CN crash mid-operation, recovery, determinism.

Marked ``chaos`` so CI can run them as a dedicated smoke job
(``pytest -m chaos``); they also run in the default suite.
"""

import json

import pytest

from repro.baselines.smart import HEADER_SIZE, SEAL_BIT, decode_node, node_size
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.node_layout import (
    LOCK_BIT,
    LOCK_LEASE_OFFSET,
    LOCK_TICKET_OFFSET,
    pack_lease,
)
from repro.faults import (
    CHAOS_CLUSTER,
    FaultPlan,
    check_index_invariants,
    run_chaos,
)
from repro.layout import decode_u64, encode_u64
from repro.registry import build_index, families, get_family
from tests.test_family_base import LOCK_WORD_FAMILIES

pytestmark = pytest.mark.chaos

#: The canonical campaign, ``run_chaos()``: kill cn0/c0's CN right before
#: its first WRITE verb — after the lock-acquiring CAS, before the
#: unlocking WRITE.  Without leases, and with a lossy fabric instead:
NO_LEASES = CHAOS_CLUSTER.scaled(lock_leases=False)


def lossy(probability=0.02, seed=7):
    """A plan that loses *probability* of the verbs and crashes nothing."""
    return FaultPlan(seed=seed).drop(probability)


class TestCrashRecovery:
    def test_without_leases_orphaned_lock_wedges_survivors(self):
        result = run_chaos(NO_LEASES)
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
        result = run_chaos()
        assert result.dead_cns == [0]
        assert result.errors == []
        # Every survivor client finished its full op stream.
        for name, count in result.completed.items():
            expected = 0 if name.startswith("cn0/") else \
                result.config["ops_per_client"]
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
        result = run_chaos(NO_LEASES.scaled(sync_mode=mode), lossy())
        assert result.fault_counters.get("fault.loss", 0) > 0
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations

    def test_lossy_fabric_with_leases_stays_consistent(self):
        plan = (FaultPlan(seed=7).crash("cn0/c0").drop(0.02)
                .spike(0.05, 5e-6).outage(0, 100e-6, 200e-6))
        result = run_chaos(plan=plan)
        assert result.fault_counters.get("fault.loss", 0) > 0
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations


#: Every family × every sync mode it declares.
_FAMILY_MODES = [(family.name, mode) for family in families()
                 for mode in family.sync_modes]


class TestEveryFamily:
    """One seed of the CI campaigns over every family × declared mode:
    a crash with leases on, and a lossy fabric with leases off.  The
    harness used to refuse 9 of the 12 families."""

    @pytest.mark.parametrize("index_name,mode", _FAMILY_MODES)
    def test_crash_with_leases_recovers(self, index_name, mode):
        result = run_chaos(CHAOS_CLUSTER.scaled(sync_mode=mode),
                           index=index_name)
        assert result.dead_cns == [0]
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations

    @pytest.mark.parametrize("index_name,mode", _FAMILY_MODES)
    def test_lossy_fabric_without_leases_stays_clean(self, index_name, mode):
        result = run_chaos(NO_LEASES.scaled(sync_mode=mode), lossy(),
                           index_name)
        assert result.fault_counters.get("fault.loss", 0) > 0
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations


class TestSyncModes:
    """The canonical crash campaign must recover in every lock mode."""

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic",
                                      "adaptive"])
    def test_canonical_crash_recovers(self, mode):
        result = run_chaos(CHAOS_CLUSTER.scaled(sync_mode=mode))
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
        result = run_chaos(
            CHAOS_CLUSTER.scaled(sync_mode="pessimistic"),
            FaultPlan(seed=7).crash("cn0/c0", kinds=("faa",), when="after"))
        assert result.dead_cns == [0]
        assert result.errors == []
        assert result.invariants.ok, result.invariants.violations
        dead_tickets = [t for t in result.stranded_tickets if t["cn_dead"]]
        assert dead_tickets, "crash-after-faa left no stranded ticket"
        assert result.metrics.get("obs.queue.drop", 0) >= 1

    @pytest.mark.parametrize("mode", ["pessimistic", "adaptive"])
    def test_modes_are_deterministic(self, mode):
        config = CHAOS_CLUSTER.scaled(sync_mode=mode)
        first = json.dumps(run_chaos(config).to_dict(), sort_keys=True)
        second = json.dumps(run_chaos(config).to_dict(), sort_keys=True)
        assert first == second


class TestDeterminism:
    def test_same_seeds_give_byte_identical_results(self):
        first = json.dumps(run_chaos().to_dict(), sort_keys=True)
        second = json.dumps(run_chaos().to_dict(), sort_keys=True)
        assert first == second

    def test_different_seed_gives_a_different_run(self):
        other = CHAOS_CLUSTER.scaled(seed=8)
        first = json.dumps(run_chaos().to_dict(), sort_keys=True)
        second = json.dumps(run_chaos(other).to_dict(), sort_keys=True)
        assert first != second

    @pytest.mark.parametrize("index_name", ["chime", "sherman"])
    def test_max_attempts_reaches_the_family(self, index_name):
        # Only CHIME read the budget once; Sherman's run was the same
        # byte for byte at 2 attempts and at 256.
        config = NO_LEASES.scaled(seed=3)
        tight = run_chaos(config, lossy(0.05, seed=3), index_name,
                          max_attempts=2)
        roomy = run_chaos(config, lossy(0.05, seed=3), index_name,
                          max_attempts=256)
        assert roomy.ok
        assert {error["error"] for error in tight.errors} == {
            "RetryExhaustedError"}


class TestInvariantChecker:
    def test_clean_run_without_faults_passes(self):
        result = run_chaos(plan=FaultPlan(seed=7))
        assert result.dead_cns == []
        assert result.errors == []
        assert result.invariants.ok
        assert result.invariants.leaves > 1
        assert result.invariants.keys >= result.config["keys"]

    def test_checker_catches_a_planted_stuck_lock(self):
        from repro.cluster import Cluster
        from repro.config import ChimeConfig, ClusterConfig
        from repro.core.chime import ChimeIndex
        from repro.core.node_layout import LOCK_BIT
        from repro.layout import encode_u64

        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = ChimeIndex(cluster, ChimeConfig())
        index.bulk_load([(k, k) for k in range(1, 200)])
        assert check_index_invariants(index).ok
        addr = index.leaf_addrs()[0]
        lock_addr = addr + index.leaf_layout.lock_offset
        word = int.from_bytes(index._host_read(lock_addr, 8), "little")
        index._host_write(lock_addr, encode_u64(word | LOCK_BIT))
        report = check_index_invariants(index)
        assert not report.ok
        assert any("lock bit" in v for v in report.violations)

    def test_checker_catches_a_stuck_internal_node_lock(self):
        """Split propagation locks internal nodes; the checker used to
        walk leaves only, so a leaked parent lock went unseen."""
        from repro.cluster import Cluster
        from repro.config import ChimeConfig, ClusterConfig
        from repro.core.chime import ChimeIndex
        from repro.core.node_layout import LOCK_BIT
        from repro.layout import encode_u64

        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = ChimeIndex(cluster, ChimeConfig())
        index.bulk_load([(k, k) for k in range(1, 200)])
        root_lock = index.root_addr + index.internal_layout.lock_offset
        index._host_write(root_lock, encode_u64(LOCK_BIT))
        report = check_index_invariants(index)
        assert report.violations == [
            f"internal node {index.root_addr:#x}: lock bit still set "
            f"after the run"]

    def test_checker_catches_a_missing_committed_key(self):
        from repro.cluster import Cluster
        from repro.config import ChimeConfig, ClusterConfig
        from repro.core.chime import ChimeIndex

        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = ChimeIndex(cluster, ChimeConfig())
        index.bulk_load([(k, k) for k in range(1, 100)])
        report = check_index_invariants(index, expected_keys={1, 50, 5000})
        assert any("5000" in v and "unreadable" in v
                   for v in report.violations)


#: What a planted claim writes on a lock line (offset, word; None: the
#: line's own word with the lock bit set), and how its violation starts.
_PLANTED = {
    "lock": (0, None, "lock bit still set after the run"),
    "lease": (LOCK_LEASE_OFFSET, pack_lease(owner=99, epoch=5, expiry_us=0),
              "orphaned lease (owner 99, expired 0us <= now "),
    "ticket": (LOCK_TICKET_OFFSET, 1,
               "1 unserved queue ticket(s) at rest (serving 0, next 1)"),
}


def _loaded(index_name):
    """A bulk-loaded *index_name* whose last lock line is its rightmost
    leaf — for the model-routed families, a synonym table hung off the
    last leaf by inserts past every loaded key."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index(index_name, cluster)
    pairs = [(key, key) for key in range(1, 400)]
    if not get_family(index_name).model_routed:
        index.bulk_load(pairs)
        return index
    index.bulk_load(pairs, future_keys=range(1, 400))
    client = index.client(next(iter(cluster.clients())))

    def overflow():
        for key in range(10_000, 10_080):
            yield from client.insert(key, key)

    cluster.engine.process(overflow())
    cluster.run()
    assert max(index.synonym_chain_lengths()) > 1
    return index


class TestPlantedClaims:
    """The audit reports a claim left at rest on any family's lock line,
    and a seal on a SMART slot."""

    @pytest.mark.parametrize("claim", sorted(_PLANTED))
    @pytest.mark.parametrize("index_name", LOCK_WORD_FAMILIES)
    def test_a_planted_claim_is_reported(self, index_name, claim):
        index = _loaded(index_name)
        assert check_index_invariants(index).ok
        node, addr = list(index.lock_lines())[-1]
        offset, word, message = _PLANTED[claim]
        if word is None:
            word = decode_u64(index._host_read(addr, 8)) | LOCK_BIT
        index._host_write(addr + offset, encode_u64(word))
        violations = check_index_invariants(index).violations
        assert len(violations) == 1
        assert violations[0].startswith(f"{node}: {message}"), violations

    def test_a_planted_seal_is_reported(self):
        index = _loaded("smart")
        node = decode_node(index.root_addr, index._host_read(
            index.root_addr, node_size(index.root_type)))
        slot = next(i for i, word in enumerate(node.slots) if word)
        index._host_write(node.addr + HEADER_SIZE + 8 * slot,
                          encode_u64(node.slots[slot] | SEAL_BIT))
        assert check_index_invariants(index).violations == [
            f"node {node.addr:#x} slot {slot}: still sealed after the run"]
