"""Contention-adaptive synchronization (repro.core.adaptive).

Unit tests for the per-leaf estimate of :class:`SyncState` and the
delegation primitives, plus integration runs exercising the pessimistic
ticket queue and the adaptive auto-switch on a live CHIME tree.
"""

import ast
import pathlib

import pytest

import repro

from repro import obs
from repro.bench.runner import run_point
from repro.cluster import Cluster
from repro.config import KNOBS, ChimeConfig, ClusterConfig
from repro.core.chime import ChimeIndex
from repro.core.adaptive import (
    HANDOFF_CHAIN_LIMIT,
    MIN_DWELL,
    DelegationEntry,
    HandoffToken,
    SyncState,
)
from repro.core.node_layout import LOCK_SERVING_OFFSET, LOCK_TICKET_OFFSET
from repro.errors import ConfigError, QueueWaitTimeoutError
from repro.layout import encode_u64
from repro.retry import RetryPolicy


class TestResolveMode:
    """A sync mode is validated once, by the knob table: spelled freely
    on a command line, exactly in a config field or a bare string."""

    def test_canonicalizes(self):
        knob = KNOBS["sync_mode"]
        assert knob.parse(" Pessimistic ", "--sync-mode") == "pessimistic"

    def test_rejects_unknown(self):
        for build in (lambda: ClusterConfig(sync_mode="eventual"),
                      lambda: SyncState("eventual")):
            with pytest.raises(ConfigError, match="must be one of optimistic"):
                build()


#: When a leaf heated by :func:`_heat` may switch back: the dwell after
#: its up-switch has passed.
COOLED = 10 * MIN_DWELL


def _heat(state, failures=5, rounds=10):
    """Feed leaf 0x100 CAS failures one ``MIN_DWELL`` apart, so an
    adaptive state flips it at the first observation past the dwell."""
    for i in range(rounds):
        state.note_optimistic(0x100, failures=failures, now=i * MIN_DWELL)


class TestContentionEstimator:
    """The per-leaf switch of an adaptive :class:`SyncState`."""

    def _state(self):
        return SyncState("adaptive")

    def test_quiet_leaf_allocates_no_state(self):
        state = self._state()
        assert state.note_optimistic(0x100, failures=0, now=0.0) is None
        assert not state.is_pessimistic(0x100)
        assert not state._leaves

    def test_up_switch_after_sustained_cas_failures(self):
        state = self._state()
        with obs.recording() as rec:
            switched = None
            for i in range(10):
                switched = switched or state.note_optimistic(
                    0x100, failures=3, now=i * MIN_DWELL)
        assert switched == "pessimistic"
        assert state.is_pessimistic(0x100)
        assert rec.notes().get("obs.sync.mode_switch.up") == 1

    def test_min_dwell_blocks_immediate_switch(self):
        state = self._state()
        for i in range(10):
            assert state.note_optimistic(0x100, failures=5,
                                         now=i * MIN_DWELL / 20) is None
        # past the dwell the accumulated EWMA flips it at once
        assert state.note_optimistic(0x100, failures=5,
                                     now=2 * MIN_DWELL) == "pessimistic"

    def test_down_switch_when_queue_drains(self):
        state = self._state()
        _heat(state)
        assert state.is_pessimistic(0x100)
        with obs.recording() as rec:
            switched = None
            for i in range(40):
                switched = switched or state.note_queue(
                    0x100, depth=0, now=COOLED + i * 1e-6)
        assert switched == "optimistic"
        assert rec.notes().get("obs.sync.mode_switch.down") == 1
        # the failure estimate was reset: no instant re-flip
        assert state.note_optimistic(0x100, failures=0, now=1.0) is None

    def test_others_queued_vetoes_down_switch(self):
        """A leaf never flips back while other clients hold tickets:
        they would face a fresh CAS storm with no FIFO priority."""
        state = self._state()
        _heat(state)
        state.register(0, "cn0/c0", 0x100, 1)
        state.register(1, "cn1/c0", 0x100, 2)
        for i in range(60):
            assert state.note_queue(0x100, depth=0,
                                    now=COOLED + i * 1e-6) is None
        assert state.is_pessimistic(0x100)
        # the lone-waiter observation is what flips it
        state.acquired(1, "cn1/c0", 0x100)
        assert state.note_queue(0x100, depth=0, now=1.0) == "optimistic"

    def test_unknown_leaf_queue_observation_is_ignored(self):
        assert self._state().note_queue(0x200, depth=4, now=0.0) is None

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
    def test_fixed_modes_never_switch(self, mode):
        state = SyncState(mode)
        for i in range(10):
            assert state.note_optimistic(0x100, failures=5,
                                         now=i * MIN_DWELL) is None
        assert state.is_pessimistic(0x100) == (mode == "pessimistic")
        assert not state._leaves


class TestDelegation:
    def test_take_token_counts_handoffs_and_chain(self):
        entry = DelegationEntry()
        assert entry.take_token() is None
        entry.token = HandoffToken(ticket=3, word=0, lease=0)
        token = entry.take_token()
        assert token is not None and token.ticket == 3
        assert entry.token is None
        assert entry.handoffs == 1 and entry.chain == 1

    def test_chain_limit_is_small(self):
        # Bounds a remote waiter's extra wait to a few lock tenures.
        assert 1 <= HANDOFF_CHAIN_LIMIT <= 8


class TestSyncState:
    def test_ticket_registry_round_trip(self):
        state = SyncState("pessimistic")
        state.register(0, "cn0/c0", 0x100, 5)
        state.register(1, "cn1/c0", 0x100, 6)
        state.acquired(0, "cn0/c0", 0x100)
        rows = state.stranded(dead_cns=(1,))
        assert rows == [{"cn": 1, "owner": "cn1/c0", "lock_addr": 0x100,
                         "ticket": 6, "cn_dead": True}]
        state.abandon(1, "cn1/c0", 0x100)
        assert state.stranded() == []
        assert state.wait_timeouts == 1

    def test_note_queue_sees_other_pending_tickets(self):
        state = SyncState("adaptive")
        _heat(state)
        assert state.is_pessimistic(0x100)
        # two clients pending on the same address: down-switch vetoed
        state.register(0, "cn0/c0", 0x100, 1)
        state.register(1, "cn1/c0", 0x100, 2)
        for i in range(60):
            assert state.note_queue(0x100, 0, COOLED + i * 1e-6) is None
        assert state.is_pessimistic(0x100)
        # lone pending client: allowed
        state.acquired(1, "cn1/c0", 0x100)
        assert state.note_queue(0x100, 0, 1.0) == "optimistic"


def _contended_config(mode, **overrides):
    base = dict(num_cns=2, clients_per_cn=8, cache_bytes=1 << 22,
                region_bytes=1 << 26, sync_mode=mode, lock_leases=True,
                seed=11)
    base.update(overrides)
    return ClusterConfig(**base)


class TestPessimisticRuns:
    def test_contended_write_run_completes_through_the_queue(self):
        with obs.recording() as rec:
            result = run_point("chime", "A", num_keys=200,
                               ops_per_client=40,
                               cluster_config=_contended_config(
                                   "pessimistic"))
        assert result.ops_completed == 640
        notes = rec.notes()
        assert notes.get("obs.queue.enqueue", 0) > 0
        assert notes.get("obs.queue.handoff", 0) > 0
        # pure pessimistic writers never CAS-spin on the lock bit
        assert notes.get("obs.lock.cas_fail", 0) == 0

    def test_results_match_optimistic_mode(self):
        """Both modes serialize writers; the surviving key/value state
        must be identical for an identical seeded op stream."""
        values = {}
        for mode in ("optimistic", "pessimistic"):
            config = _contended_config(mode)
            cluster = Cluster(config)
            index = ChimeIndex(cluster, ChimeConfig())
            index.bulk_load([(k, k) for k in range(1, 201)])
            client = index.client(cluster.cns[0].clients[0])
            out = []

            def gen():
                for key in range(1, 51):
                    yield from client.update(key, key * 13)
                for key in range(1, 51):
                    value = yield from client.search(key)
                    out.append(value)

            cluster.engine.process(gen())
            cluster.run()
            values[mode] = out
        assert values["optimistic"] == values["pessimistic"]
        assert values["pessimistic"] == [k * 13 for k in range(1, 51)]

    def test_stalled_queue_times_out_without_leases(self):
        """A planted dispenser/serving gap is an undetectable dead
        waiter with leases off: the typed timeout fires."""
        config = _contended_config("pessimistic", num_cns=1,
                                   clients_per_cn=1, lock_leases=False)
        cluster = Cluster(config)
        index = ChimeIndex(cluster, ChimeConfig())
        index.retry_policy = RetryPolicy(max_attempts=32)
        index.bulk_load([(k, k) for k in range(1, 201)])
        lock_addr = index.leaf_addrs()[0] + index.leaf_layout.lock_offset
        index._host_write(lock_addr + LOCK_TICKET_OFFSET, encode_u64(3))
        errors = []
        client = index.client(cluster.cns[0].clients[0])

        def gen():
            try:
                yield from client.update(1, 99)
            except QueueWaitTimeoutError as exc:
                errors.append(exc)

        cluster.engine.process(gen())
        cluster.run()
        assert len(errors) == 1
        assert "never served" in str(errors[0])
        assert cluster.sync_state.wait_timeouts == 1

    def test_stalled_queue_drains_dead_tickets_with_leases(self):
        """Same planted gap with leases on: the waiter watches the
        serving word stall, drops the dead tickets, and completes."""
        config = _contended_config("pessimistic", num_cns=1,
                                   clients_per_cn=1)
        cluster = Cluster(config)
        index = ChimeIndex(cluster, ChimeConfig())
        index.bulk_load([(k, k) for k in range(1, 201)])
        lock_addr = index.leaf_addrs()[0] + index.leaf_layout.lock_offset
        index._host_write(lock_addr + LOCK_TICKET_OFFSET, encode_u64(3))
        client = index.client(cluster.cns[0].clients[0])
        done = []

        def gen():
            yield from client.update(1, 99)
            done.append(True)
            value = yield from client.search(1)
            done.append(value)

        with obs.recording() as rec:
            cluster.engine.process(gen())
            cluster.run()
        assert done == [True, 99]
        assert rec.notes().get("obs.queue.drop", 0) >= 3
        serving = index._host_read(lock_addr + LOCK_SERVING_OFFSET, 8)
        assert int.from_bytes(serving, "little") >= 3


class TestAdaptiveRuns:
    def test_hot_leaves_switch_and_run_completes(self):
        with obs.recording() as rec:
            result = run_point("chime", "A", num_keys=200,
                               ops_per_client=40,
                               cluster_config=_contended_config(
                                   "adaptive"))
        assert result.ops_completed == 640
        notes = rec.notes()
        # hot leaves flipped pessimistic and were used as such...
        assert notes.get("obs.sync.mode_switch.up", 0) > 0
        assert notes.get("obs.queue.enqueue", 0) > 0
        # ...while cold leaves kept optimistic CAS acquisition
        assert notes.get("obs.lock.cas_fail", 0) > 0

    def test_uncontended_run_stays_optimistic(self):
        config = _contended_config("adaptive", num_cns=1, clients_per_cn=1)
        with obs.recording() as rec:
            result = run_point("chime", "C", num_keys=500,
                               ops_per_client=60, cluster_config=config)
        assert result.ops_completed == 60
        notes = rec.notes()
        assert notes.get("obs.sync.mode_switch", 0) == 0
        assert notes.get("obs.queue.enqueue", 0) == 0


class TestOptimisticDefaultUnchanged:
    def test_default_run_emits_no_queue_events(self):
        config = ClusterConfig(num_cns=2, clients_per_cn=4,
                               cache_bytes=1 << 22, region_bytes=1 << 26)
        with obs.recording() as rec:
            run_point("chime", "A", num_keys=200, ops_per_client=20,
                      cluster_config=config)
        notes = rec.notes()
        assert notes.get("obs.queue.enqueue", 0) == 0
        assert notes.get("obs.sync.mode_switch", 0) == 0


#: What one lock path deleted: the second lock pairing (the tree base's
#: override of the family base's), the estimator class folded into
#: SyncState with its hooks and test-only counters, the sharded index's
#: merged sync state, and the invariant checker's copy of the lock-line
#: fence offsets.
DELETED = {
    "ContentionEstimator", "_lock_adaptive", "_remote_acquire",
    "_note_optimistic", "_note_queue", "_MergedSyncState", "switches_up",
    "switches_down", "_FENCE_LOW_OFF", "_FENCE_HIGH_OFF",
}


def test_no_module_reaches_for_the_deleted_lock_names():
    """No ``src/repro`` module defines, imports or touches a name of
    the deleted second lock path."""
    used = []
    package = pathlib.Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant):
                names = [node.value]
            else:
                continue
            used.extend((path.name, node.lineno, name) for name in names
                        if isinstance(name, str) and name in DELETED)
    assert not used
