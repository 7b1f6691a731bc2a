"""Unit tests for retry policies, lease encoding, and fault injection."""

import inspect
import random
import re

import pytest

from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core.chime import ChimeIndex
from repro.core.node_layout import (
    lease_expiry_us,
    pack_lease,
    sim_us,
    unpack_lease,
)
from repro.errors import (
    ConfigError,
    FaultInjectedError,
    LayoutError,
    LockLeaseExpiredError,
    ReproError,
    RetryExhaustedError,
)
from repro.faults import FaultPlan
from repro.faults.plan import VERB_KINDS
from repro.memory import make_addr
from repro.rdma import verbs
from repro.retry import (
    BASE_BACKOFF,
    DEFAULT_RETRY_POLICY,
    LINEAR_CAP,
    RetryPolicy,
)
from repro.sim import Engine
from repro.workloads.ycsb import dataset


def drive(engine, gen):
    """Run one coroutine to completion, returning its value."""
    holder = []

    def wrapper():
        value = yield from gen
        holder.append(value)

    engine.process(wrapper())
    engine.run()
    return holder[0] if holder else None


class TestRetryPolicy:
    def test_default_matches_legacy_constants(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 256
        # Legacy backoff_delay(attempt) = 0.2us * min(attempt + 1, 16).
        for attempt in range(20):
            expected = 0.2e-6 * min(attempt + 1, 16)
            assert DEFAULT_RETRY_POLICY.delay(attempt) == \
                pytest.approx(expected)

    def test_linear_cap_applies(self):
        policy = DEFAULT_RETRY_POLICY
        capped = BASE_BACKOFF * LINEAR_CAP
        assert policy.delay(LINEAR_CAP - 2) < capped
        assert policy.delay(LINEAR_CAP - 1) == pytest.approx(capped)
        assert policy.delay(10 * LINEAR_CAP) == pytest.approx(capped)

    def test_jitter_is_seeded_and_bounded(self):
        policy = DEFAULT_RETRY_POLICY
        values = [policy.delay(0, random.Random(7), jitter=0.5)
                  for _ in range(3)]
        assert values[0] == values[1] == values[2]
        assert 0.5 * BASE_BACKOFF <= values[0] <= 1.5 * BASE_BACKOFF
        assert values[0] != pytest.approx(BASE_BACKOFF)
        # No rng, or no jitter: the bare curve, and no draw.
        assert policy.delay(0, None, jitter=0.5) == BASE_BACKOFF
        rng = random.Random(7)
        assert policy.delay(0, rng) == BASE_BACKOFF
        assert rng.random() == random.Random(7).random()

    def test_attempts_exhaust_with_typed_error(self):
        engine = Engine()
        state = RetryPolicy(max_attempts=3).start("op", engine, None)
        assert state.check() and state.check() and state.check()
        with pytest.raises(RetryExhaustedError, match="3 attempts"):
            state.check()

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_a_budget_that_allows_no_attempt_is_refused(self, attempts):
        with pytest.raises(ConfigError, match="max_attempts"):
            RetryPolicy(max_attempts=attempts)

    def test_backoff_generator_matches_delay(self):
        engine = Engine()
        policy = RetryPolicy(max_attempts=4)

        def loop():
            state = policy.start("op", engine, None)
            while True:
                try:
                    state.check()
                except RetryExhaustedError:
                    return engine.now
                yield from state.backoff()

        # Attempts 1..4 back off with delay(0..3) = 1,2,3,4 x the base.
        assert drive(engine, loop()) == pytest.approx(10 * BASE_BACKOFF)


class TestLeaseWord:
    def test_pack_unpack_roundtrip(self):
        word = pack_lease(0xABC, 0x54321, 0xDEADBEEF)
        assert unpack_lease(word) == (0xABC, 0x54321, 0xDEADBEEF)

    def test_owner_must_fit_twelve_bits(self):
        with pytest.raises(LayoutError):
            pack_lease(1 << 12, 0, 0)

    def test_epoch_wraps_instead_of_overflowing(self):
        owner, epoch, _ = unpack_lease(pack_lease(1, (1 << 20) + 5, 0))
        assert owner == 1
        assert epoch == 5

    def test_expiry_helpers_use_microsecond_grain(self):
        assert sim_us(1.5e-6) == 1
        assert lease_expiry_us(0.0, 200e-6) == 201


class TestErrorHierarchy:
    def test_all_fault_errors_are_repro_errors(self):
        for exc_type in (RetryExhaustedError, LockLeaseExpiredError,
                         FaultInjectedError):
            assert issubclass(exc_type, ReproError)


class TestFaultPlan:
    def test_crash_when_validated(self):
        with pytest.raises(ValueError):
            FaultPlan().crash("cn0/c0", when="during")

    def test_crash_nth_is_one_based(self):
        with pytest.raises(ValueError):
            FaultPlan().crash("cn0/c0", nth=0)

    @pytest.mark.parametrize("build", [
        lambda plan: plan.drop(1.5),
        lambda plan: plan.drop(-0.5),
        lambda plan: plan.spike(-1.0, 5e-6),
        lambda plan: plan.drop(0.1, kinds=("reed",)),
        lambda plan: plan.crash("cn0/c0", kinds=("reed",)),
        lambda plan: plan.outage(0, 300e-6, 100e-6),
        lambda plan: plan.outage(0, 100e-6, 100e-6),
        lambda plan: plan.spike(0.1, 5e-6, start=1.0, end=0.5),
    ], ids=["loss>1", "loss<0", "spike<0", "loss-kind", "crash-kind",
            "outage-reversed", "outage-empty", "spike-window"])
    def test_a_spec_that_can_never_fire_is_refused(self, build):
        """Like ``when="during"`` and ``nth=0``: a probability outside
        [0, 1], a verb the queue pair never reports or an empty window
        would be accepted and never fire."""
        with pytest.raises(ConfigError):
            build(FaultPlan())

    def test_verb_kinds_are_the_ones_the_queue_pair_reports(self):
        source = inspect.getsource(verbs)
        assert VERB_KINDS == set(re.findall(
            r'injector\.before_verb\(self, "(\w+)"', source))

    @pytest.mark.parametrize("plan,complaint", [
        (FaultPlan().crash("cn9/c0"), "'cn9/c0' names no client"),
        (FaultPlan().drop(0.1, owner="cn0/c7"), "'cn0/c7' names no client"),
        (FaultPlan().outage(5, 10e-6, 20e-6), "outage MN 5"),
    ], ids=["crash-owner", "loss-owner", "outage-mn"])
    def test_install_refuses_a_client_or_mn_the_cluster_lacks(
            self, plan, complaint):
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=2))
        with pytest.raises(ConfigError, match=complaint):
            cluster.install_faults(plan)

    def test_builders_chain_and_fill_lists(self):
        plan = (FaultPlan(seed=3).drop(0.5).spike(0.1, 1e-6)
                .outage(0, 0.0, 1.0).crash("cn0/c0"))
        assert not plan.empty
        assert len(plan.losses) == len(plan.delays) == 1
        assert len(plan.outages) == len(plan.crashes) == 1


def make_injected_cluster(plan, clients=1):
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=clients))
    injector = cluster.install_faults(plan)
    return cluster, injector


class TestInjection:
    def test_certain_loss_times_out_without_memory_effect(self):
        plan = FaultPlan(seed=1, verb_timeout=10e-6)
        plan.drop(1.0, kinds=("write",), max_count=1)
        cluster, injector = make_injected_cluster(plan)
        ctx = next(cluster.clients())
        addr = make_addr(0, 4096)

        def client():
            try:
                yield from ctx.qp.write(addr, b"x" * 8)
            except FaultInjectedError:
                pass
            data = yield from ctx.qp.read(addr, 8)
            return data

        assert drive(cluster.engine, client()) == bytes(8)
        assert injector.counters["fault.loss"] == 1
        assert cluster.engine.now >= 10e-6

    def test_delay_spike_slows_but_completes(self):
        plan = FaultPlan(seed=1).spike(1.0, 50e-6, kinds=("read",))
        cluster, injector = make_injected_cluster(plan)
        ctx = next(cluster.clients())
        addr = make_addr(0, 4096)

        def client():
            data = yield from ctx.qp.read(addr, 8)
            return data

        assert drive(cluster.engine, client()) == bytes(8)
        assert injector.counters["fault.delay"] == 1
        assert cluster.engine.now >= 50e-6

    def test_outage_window_bounds_injection(self):
        plan = FaultPlan(seed=1, verb_timeout=10e-6)
        plan.outage(0, start=0.0, end=30e-6)
        cluster, injector = make_injected_cluster(plan)
        ctx = next(cluster.clients())
        addr = make_addr(0, 4096)
        outcomes = []

        def client():
            try:
                yield from ctx.qp.read(addr, 8)
                outcomes.append("ok")
            except FaultInjectedError:
                outcomes.append("fault")
            yield cluster.engine.timeout(100e-6)
            try:
                yield from ctx.qp.read(addr, 8)
                outcomes.append("ok")
            except FaultInjectedError:
                outcomes.append("fault")

        drive(cluster.engine, client())
        assert outcomes == ["fault", "ok"]
        assert injector.counters["fault.outage"] == 1

    def test_crash_parks_whole_cn_forever(self):
        plan = FaultPlan(seed=1).crash("cn0/c0", kinds=("write",), nth=1)
        cluster, injector = make_injected_cluster(plan, clients=2)
        contexts = list(cluster.clients())
        addr = make_addr(0, 4096)
        progress = []

        def victim():
            yield from contexts[0].qp.write(addr, b"x" * 8)
            progress.append("victim finished")

        def sibling():
            yield cluster.engine.timeout(5e-6)
            yield from contexts[1].qp.read(addr, 8)
            progress.append("sibling finished")

        cluster.engine.process(victim())
        cluster.engine.process(sibling())
        cluster.run()
        assert progress == []  # both parked, heap drained anyway
        assert injector.dead_cns == {0}
        assert injector.counters["fault.crash"] == 1
        # Victim parks through the crash path, sibling through dead-CN.
        assert injector.counters["fault.dead_cn_verb"] == 2

    def test_a_crashed_lane_keeps_its_cn_local_lock(self):
        """A lane whose CN dies inside a locked section stays parked: the
        injector holds what it waits on, so it is not reclaimed and its
        ``finally`` blocks (which free the CN-local lock) never run."""
        plan = FaultPlan(seed=1).crash("cn0/c0")  # before its first WRITE
        cluster, injector = make_injected_cluster(plan)
        index = ChimeIndex(cluster)
        index.bulk_load(dataset(200))
        client = index.client(next(cluster.clients()))
        cluster.engine.process(client.update(100, 7))
        cluster.run()
        assert injector.dead_cns == {0}
        lock, = cluster.cns[0]._local_locks.values()
        assert lock.locked

    def test_crash_after_lets_the_verb_land(self):
        plan = FaultPlan(seed=1).crash("cn0/c0", kinds=("write",),
                                       nth=1, when="after")
        cluster, _ = make_injected_cluster(plan, clients=1)
        ctx = next(cluster.clients())
        addr = make_addr(0, 4096)

        def victim():
            yield from ctx.qp.write(addr, b"landed!!")

        cluster.engine.process(victim())
        cluster.run()
        assert cluster.mns[0].mem_read(addr, 8) == b"landed!!"

    def test_draws_are_seed_deterministic(self):
        def campaign():
            plan = FaultPlan(seed=5).drop(0.3)
            cluster, injector = make_injected_cluster(plan)
            ctx = next(cluster.clients())
            addr = make_addr(0, 4096)

            def client():
                for _ in range(50):
                    try:
                        yield from ctx.qp.read(addr, 8)
                    except FaultInjectedError:
                        pass

            drive(cluster.engine, client())
            return injector.counters.get("fault.loss", 0)

        first, second = campaign(), campaign()
        assert first == second
        assert first > 0


class TestBulkLoadBound:
    def test_degenerate_span_raises_instead_of_spinning(self):
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = ChimeIndex(cluster, ChimeConfig(span=1, neighborhood=1))
        with pytest.raises(RetryExhaustedError, match="64 internal levels"):
            index.bulk_load([(k, k) for k in range(1, 50)])
