"""Unit tests for the three-level optimistic synchronization checks."""

import pytest

from repro.core.node_layout import LeafLayout
from repro.core.nodes import LeafNodeView
from repro.core.sync import backoff_delay
from repro.errors import TornReadError
from repro.hashing.hopscotch import default_hash
from tests.oracles import (
    check_entry_evs,
    check_hopscotch_bitmap,
    check_nv_uniform,
    collect_leaf_nv,
    reconstruct_bitmap,
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
        view.set_all_nv(5)
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
    def test_grows_then_caps(self):
        delays = [backoff_delay(i) for i in range(32)]
        assert delays[1] > delays[0]
        assert delays[31] == delays[16]
        assert all(d > 0 for d in delays)

    def test_legacy_constants_mirror_the_default_policy(self):
        """The historical retry constants live only in repro.retry now;
        their values are pinned — a change there silently re-times every
        index family."""
        from repro.retry import DEFAULT_RETRY_POLICY
        assert DEFAULT_RETRY_POLICY.max_attempts == 256
        assert DEFAULT_RETRY_POLICY.base_backoff == 0.2e-6
        assert DEFAULT_RETRY_POLICY.linear_cap == 16
        assert backoff_delay(3) == DEFAULT_RETRY_POLICY.delay(3)

    def test_no_rng_is_byte_identical_to_historical(self):
        assert backoff_delay(5) == backoff_delay(5, rng=None, jitter=0.5)

    def test_jitter_is_bounded_and_reproducible(self):
        import random
        base = backoff_delay(5)
        first = [backoff_delay(5, rng=random.Random(7), jitter=0.25)
                 for _ in range(1)]
        second = [backoff_delay(5, rng=random.Random(7), jitter=0.25)
                  for _ in range(1)]
        assert first == second  # seeded rng -> reproducible
        rng = random.Random(3)
        for _ in range(100):
            delay = backoff_delay(5, rng=rng, jitter=0.25)
            assert 0.75 * base <= delay <= 1.25 * base

    def test_retry_policy_jitter_matches(self):
        import random
        from repro.retry import RetryPolicy
        policy = RetryPolicy(jitter=0.25)
        assert policy.delay(5, rng=random.Random(7)) == \
            backoff_delay(5, rng=random.Random(7), jitter=0.25)
