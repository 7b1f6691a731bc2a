"""Unit + property tests for the hashing schemes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashTableFullError
from repro.hashing import (
    AssociativeTable,
    FarmTable,
    HopscotchTable,
    RaceTable,
    distance,
    figure_3d_schemes,
    find_first_empty,
    default_hash,
    measure_max_load_factor,
    place_fresh,
    plan_insert,
)


class TestHopscotchPrimitives:
    def test_distance_circular(self):
        assert distance(0, 5, 16) == 5
        assert distance(14, 2, 16) == 4
        assert distance(5, 5, 16) == 0

    def test_find_first_empty_wraps(self):
        occupied = {0, 1, 2, 14, 15}
        result = find_first_empty(lambda p: p in occupied, home=14, capacity=16)
        assert result == 3

    def test_find_first_empty_full_table(self):
        assert find_first_empty(lambda p: True, 0, 8) is None

    def test_plan_insert_direct_placement(self):
        plan = plan_insert(home=0, empty=3, capacity=16, neighborhood=4,
                           home_of=lambda p: None)
        assert plan is not None
        assert plan.target == 3
        assert plan.moves == []

    def test_plan_insert_one_hop(self):
        # empty at 5, home 0, H=4: key at 2 (home 2) can move to 5.
        homes = {2: 2, 3: 0, 4: 0}
        plan = plan_insert(home=0, empty=5, capacity=16, neighborhood=4,
                           home_of=homes.get)
        assert plan is not None
        assert plan.moves == [(2, 5)]
        assert plan.target == 2

    def test_plan_insert_prefers_farthest(self):
        # Both 3 and 4 could hop to 5; the farthest (3) must be chosen.
        homes = {3: 3, 4: 4}
        plan = plan_insert(home=0, empty=5, capacity=16, neighborhood=4,
                           home_of=homes.get)
        assert plan.moves[0][0] == 3

    def test_plan_insert_infeasible(self):
        # All candidates have homes too far back to reach the empty slot.
        homes = {3: 0, 4: 0, 5: 1}
        plan = plan_insert(home=0, empty=6, capacity=16, neighborhood=3,
                           home_of=homes.get)
        assert plan is None


class TestHopscotchTable:
    def test_insert_lookup_roundtrip(self):
        table = HopscotchTable(64, neighborhood=8)
        for key in range(40):
            table.insert(key * 7919, key)
        for key in range(40):
            assert table.lookup(key * 7919) == key

    def test_missing_key_raises(self):
        table = HopscotchTable(64)
        table.insert(1, "a")
        with pytest.raises(KeyError):
            table.lookup(2)

    def test_update_in_place(self):
        table = HopscotchTable(64)
        table.insert(5, "old")
        table.insert(5, "new")
        assert table.lookup(5) == "new"
        assert table.size == 1

    def test_delete(self):
        table = HopscotchTable(64)
        table.insert(5, "x")
        table.delete(5)
        assert 5 not in table
        with pytest.raises(KeyError):
            table.delete(5)

    def test_neighborhood_constraint_maintained(self):
        table = HopscotchTable(128, neighborhood=8)
        rng = random.Random(3)
        inserted = []
        try:
            for _ in range(128):
                key = rng.getrandbits(48)
                table.insert(key, key)
                inserted.append(key)
        except HashTableFullError:
            pass
        # Every key is within H of its home, per bitmap-driven lookup.
        for key in inserted:
            assert table.lookup(key) == key
        table.check_invariants()

    def test_full_table_raises(self):
        table = HopscotchTable(8, neighborhood=8, hash_fn=lambda k, c: 0)
        for key in range(8):
            table.insert(key, key)
        with pytest.raises(HashTableFullError):
            table.insert(100, 100)

    def test_hop_preserves_all_items(self):
        """Force hops via a colliding hash and verify nothing is lost."""
        table = HopscotchTable(32, neighborhood=4,
                               hash_fn=lambda k, c: (k % 4) % c)
        stored = []
        try:
            for key in range(40):
                table.insert(key, f"v{key}")
                stored.append(key)
        except HashTableFullError:
            pass
        # Homes all land in {0..3}, so occupancy is capped near H + 3.
        assert len(stored) >= 6
        for key in stored:
            assert table.lookup(key) == f"v{key}"
        table.check_invariants()

    @given(st.lists(st.integers(min_value=0, max_value=1 << 48),
                    unique=True, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_property_all_inserted_items_findable(self, keys):
        table = HopscotchTable(128, neighborhood=8)
        inserted = []
        for key in keys:
            try:
                table.insert(key, key * 2)
                inserted.append(key)
            except HashTableFullError:
                break
        for key in inserted:
            assert table.lookup(key) == key * 2
        table.check_invariants()

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=50)),
                    max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_dict_model(self, ops):
        table = HopscotchTable(128, neighborhood=8)
        model = {}
        for is_insert, key in ops:
            if is_insert:
                try:
                    table.insert(key, key + 1)
                    model[key] = key + 1
                except HashTableFullError:
                    pass
            elif key in model:
                table.delete(key)
                del model[key]
        for key, value in model.items():
            assert table.lookup(key) == value
        assert table.size == len(model)


class TestPlaceFresh:
    """``place_fresh`` over flat lists lands every key exactly where the
    reference table's ``insert`` does, and says "does not fit" on the
    same key without having touched anything."""

    @staticmethod
    def _keys(rng, kind, count, capacity):
        if kind == "dense":
            first = rng.randrange(1, 1 << 40)
            return list(range(first, first + count))
        if kind == "sparse":
            return rng.sample(range(1, 1 << 62), count)
        # Adversarial: (nearly) every key hashes to one home entry.
        home = rng.randrange(capacity)
        keys, key = [], rng.randrange(1, 1 << 30)
        while len(keys) < count:
            if default_hash(key, capacity) == home or rng.random() < 0.05:
                keys.append(key)
            key += 1
        return keys

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.sampled_from([1, 2, 5, 16, 64, 100]),
           neighborhood=st.integers(1, 16),
           kind=st.sampled_from(["dense", "sparse", "same-home"]),
           fill=st.floats(0.05, 1.1), seed=st.integers(0, 2**32))
    def test_matches_reference_table(self, capacity, neighborhood, kind,
                                     fill, seed):
        neighborhood = min(neighborhood, capacity)
        rng = random.Random(seed)
        keys = self._keys(rng, kind, max(1, int(capacity * fill)), capacity)
        table = HopscotchTable(capacity, neighborhood)
        slots, homes, bitmaps = ([0] * capacity, [0] * capacity,
                                 [0] * capacity)
        refused = 0
        for token, key in enumerate(keys, 1):
            before = (list(slots), list(homes), list(bitmaps))
            try:
                table.insert(key, token)
                fits = True
            except HashTableFullError:
                fits = False
            assert place_fresh(slots, homes, bitmaps,
                               default_hash(key, capacity), neighborhood,
                               token) is fits
            if not fits:
                refused += 1
                assert (slots, homes, bitmaps) == before
            assert slots == [token or 0 for token in table._values]
            assert bitmaps == table._bitmaps
            assert all(homes[pos] == table.home_of_pos(pos)
                       for pos in range(capacity) if slots[pos])
        table.check_invariants()
        assert table.size == len(keys) - refused

    def test_same_home_keys_fill_exactly_one_neighbourhood(self):
        capacity, neighborhood = 64, 4
        slots, homes, bitmaps = [0] * 64, [0] * 64, [0] * 64
        placed = [place_fresh(slots, homes, bitmaps, 62, neighborhood, token)
                  for token in range(1, 7)]
        assert placed == [True] * 4 + [False] * 2
        assert slots[62:] + slots[:2] == [1, 2, 3, 4]  # wraps around
        assert bitmaps[62] == 0b1111 and sum(bitmaps) == 0b1111


class TestBucketSchemes:
    @pytest.mark.parametrize("factory", [
        lambda: AssociativeTable(128, 4),
        lambda: RaceTable(120, 4),
        lambda: FarmTable(128, 4),
    ])
    def test_roundtrip(self, factory):
        table = factory()
        rng = random.Random(11)
        stored = {}
        try:
            for _ in range(200):
                key = rng.getrandbits(40)
                table.insert(key, key ^ 0xFF)
                stored[key] = key ^ 0xFF
        except HashTableFullError:
            pass
        assert stored, "expected at least some inserts to succeed"
        for key, value in stored.items():
            assert table.lookup(key) == value

    @pytest.mark.parametrize("factory", [
        lambda: AssociativeTable(128, 4),
        lambda: RaceTable(120, 4),
        lambda: FarmTable(128, 4),
    ])
    def test_delete_and_reinsert(self, factory):
        table = factory()
        table.insert(42, "a")
        table.delete(42)
        assert 42 not in table
        table.insert(42, "b")
        assert table.lookup(42) == "b"

    def test_amplification_factors(self):
        assert AssociativeTable(128, 4).amplification_factor == 4
        assert RaceTable(120, 4).amplification_factor == 16
        assert FarmTable(128, 4).amplification_factor == 8


class TestLoadFactors:
    """The quantitative heart of Figure 3d."""

    def test_hopscotch_load_factor_grows_with_neighborhood(self):
        small = measure_max_load_factor(lambda: HopscotchTable(128, 2), trials=10)
        large = measure_max_load_factor(lambda: HopscotchTable(128, 16), trials=10)
        assert large > small

    def test_hopscotch_h8_reaches_high_load(self):
        factor = measure_max_load_factor(lambda: HopscotchTable(128, 8), trials=10)
        assert factor > 0.80  # paper: ~90% at H=8

    def test_hopscotch_h16_near_full(self):
        factor = measure_max_load_factor(lambda: HopscotchTable(128, 16), trials=10)
        assert factor > 0.95  # paper: 99.8% at H=16

    def test_associative_much_worse_than_hopscotch(self):
        associative = measure_max_load_factor(
            lambda: AssociativeTable(128, 4), trials=10)
        hopscotch = measure_max_load_factor(
            lambda: HopscotchTable(128, 4), trials=10)
        assert hopscotch > associative

    def test_figure_3d_matrix_shape(self):
        results = figure_3d_schemes(capacity=128)
        schemes = {r.scheme for r in results}
        assert any(s.startswith("hopscotch") for s in schemes)
        assert any(s.startswith("associative") for s in schemes)
        assert any(s.startswith("race") for s in schemes)
        assert any(s.startswith("farm") for s in schemes)
        for result in results:
            assert 0.0 < result.max_load_factor <= 1.0

    def test_figure_3d_hopscotch_dominates(self):
        """Hopscotch achieves the best load factor per amplification unit."""
        results = figure_3d_schemes(capacity=128)
        hop8 = next(r for r in results if r.scheme == "hopscotch(H=8)")
        for result in results:
            if result.scheme.startswith("hopscotch"):
                continue
            if result.amplification_factor <= hop8.amplification_factor:
                assert hop8.max_load_factor >= result.max_load_factor
