"""Unit tests for the three-level optimistic synchronization checks."""

from types import SimpleNamespace

import pytest

from repro.core.family import QUEUE_POLL_JITTER, FamilyClientBase
from repro.core.node_layout import LeafLayout
from repro.core.nodes import LeafNodeView
from repro.errors import TornReadError
from repro.hashing.hopscotch import default_hash
from repro.retry import BASE_BACKOFF, DEFAULT_RETRY_POLICY, LINEAR_CAP
from repro.sim import Engine
from tests.oracles import (
    check_entry_evs,
    check_hopscotch_bitmap,
    check_nv_uniform,
    collect_leaf_nv,
    reconstruct_bitmap,
    set_all_nv,
)


def make_view(span=16, neighborhood=8):
    layout = LeafLayout(span=span, neighborhood=neighborhood)
    return layout, LeafNodeView.blank(layout)


def home_fn(span):
    return lambda key: default_hash(key, span)


class TestNvCheck:
    def test_uniform_passes(self):
        check_nv_uniform([3, 3, 3])
        check_nv_uniform([])
        check_nv_uniform([7])

    def test_mismatch_raises(self):
        with pytest.raises(TornReadError):
            check_nv_uniform([3, 4, 3])

    def test_collect_leaf_nv_covers_lines_and_entries(self):
        layout, view = make_view()
        set_all_nv(view, 5)
        values = collect_leaf_nv(view, range(layout.span))
        assert set(values) == {5}
        assert len(values) > layout.span  # line bytes + entry bytes


class TestEvCheck:
    def test_consistent_entry_passes(self):
        layout, view = make_view()
        view.write_entry(3, 10, 20)
        check_entry_evs(view, [3])

    def test_torn_entry_detected(self):
        # An entry spanning a line boundary with mismatched EV nibbles.
        layout = LeafLayout(span=64, neighborhood=8, value_size=64)
        view = LeafNodeView.blank(layout)
        view.write_entry(1, 10, 20)  # EVs -> 1 everywhere in the entry
        # Manually desynchronize one line EV inside the entry's span.
        off = layout.entry_offset(1)
        view.span.set_entry_line_versions(off, layout.entry_size, nv=0, ev=9)
        with pytest.raises(TornReadError):
            check_entry_evs(view, [1])


class TestBitmapCheck:
    def test_reconstruct_matches_placed_keys(self):
        layout, view = make_view()
        span = layout.span
        key = 12345
        home = default_hash(key, span)
        view.write_entry(home, key, 1, bitmap=0b1)
        assert reconstruct_bitmap(view, home, home_fn(span)) == 0b1
        check_hopscotch_bitmap(view, home, home_fn(span))

    def test_missing_key_detected(self):
        """Bitmap says a key is there but the entry is empty: in-flight
        hop observed (the middle rows of Figure 7b)."""
        layout, view = make_view()
        span = layout.span
        key = 999
        home = default_hash(key, span)
        view.set_entry_bitmap(home, 0b10)  # claims home+1 holds our key
        with pytest.raises(TornReadError):
            check_hopscotch_bitmap(view, home, home_fn(span))

    def test_unflagged_key_detected(self):
        layout, view = make_view()
        span = layout.span
        key = 999
        home = default_hash(key, span)
        pos = (home + 2) % span
        view.write_entry(pos, key, 1)  # present but bitmap not updated
        with pytest.raises(TornReadError):
            check_hopscotch_bitmap(view, home, home_fn(span))

    def test_foreign_keys_ignored(self):
        """Keys homed elsewhere inside the neighborhood don't confuse the
        reconstruction."""
        layout, view = make_view()
        span = layout.span
        key = 999
        home = default_hash(key, span)
        # Find a key homed at home+1 and place it there.
        other = next(k for k in range(1, 10_000)
                     if default_hash(k, span) == (home + 1) % span)
        view.write_entry((home + 1) % span, other, 5)
        view.set_entry_bitmap((home + 1) % span, 0b1, bump_ev=False)
        check_hopscotch_bitmap(view, home, home_fn(span))


class TestBackoff:
    """The retry curve as the queued lock's poll sleeps it: the one call
    that jitters (a next-in-line waiter's poll)."""

    def test_grows_then_caps(self):
        delays = queue_poll_delays(None, 32)
        assert delays[1] > delays[0]
        assert delays[31] == delays[16]
        assert all(d > 0 for d in delays)

    def test_legacy_constants_mirror_the_default_policy(self):
        """The historical retry constants live only in repro.retry; their
        values are pinned — a change there silently re-times every index
        family."""
        assert DEFAULT_RETRY_POLICY.max_attempts == 256
        assert BASE_BACKOFF == 0.2e-6
        assert LINEAR_CAP == 16
        assert queue_poll_delays(None, 4)[3] == DEFAULT_RETRY_POLICY.delay(3)

    def test_no_rng_is_byte_identical_to_historical(self):
        assert queue_poll_delays(None, 20) == [
            0.2e-6 * min(attempt + 1, 16) for attempt in range(20)]

    def test_jitter_is_bounded_and_reproducible(self):
        import random
        assert queue_poll_delays(random.Random(7), 20) == \
            queue_poll_delays(random.Random(7), 20)
        bare = queue_poll_delays(None, 100)
        jittered = queue_poll_delays(random.Random(3), 100)
        assert jittered != bare
        for base, delay in zip(bare, jittered):
            assert (1 - QUEUE_POLL_JITTER) * base <= delay <= \
                (1 + QUEUE_POLL_JITTER) * base

    def test_retry_policy_jitter_matches(self):
        import random
        rng = random.Random(7)
        assert queue_poll_delays(random.Random(7), 20) == [
            DEFAULT_RETRY_POLICY.delay(attempt, rng, QUEUE_POLL_JITTER)
            for attempt in range(20)]

    def test_seeded_poll_is_the_historical_list(self):
        """Frozen from the retired ``repro.core.sync.backoff_delay(attempt,
        rng, jitter=0.25)``, one shared ``random.Random(7)``: the poll
        draws the same one ``rng.random()`` per sleep and computes the
        same float."""
        import random
        assert queue_poll_delays(random.Random(7), 20) == HISTORICAL_POLL


#: ``backoff_delay(i, rng, jitter=0.25)`` for i in 0..19, rng = Random(7).
HISTORICAL_POLL = [
    1.8238327648331623e-07, 3.3016983478490036e-07, 6.452803419119562e-07,
    6.289745146670171e-07, 1.0179410021533446e-06, 1.1194133501475512e-06,
    1.0905992473422948e-06, 1.6059485865515362e-06, 1.3837460925977862e-06,
    1.933645683662386e-06, 1.726840965932081e-06, 1.908855616012638e-06,
    2.501874945885268e-06, 3.2575929745408535e-06, 2.4357029417244683e-06,
    2.7571823433712233e-06, 3.403893155848943e-06, 3.916334307931209e-06,
    3.3233647177879978e-06, 3.034688759441248e-06,
]


def queue_poll_delays(rng, attempts):
    """What :meth:`FamilyClientBase._queue_backoff` sleeps, attempt by
    attempt, for the next-in-line waiter of a queue sequence seeded with
    *rng*."""
    delays = []
    poller = SimpleNamespace(engine=SimpleNamespace(timeout=delays.append),
                             ctx=SimpleNamespace(rng=rng))
    retry = DEFAULT_RETRY_POLICY.start("queue", Engine(), rng)
    for _ in range(attempts):
        retry.check()
        next(FamilyClientBase._queue_backoff(poller, retry, 1))
    return delays
