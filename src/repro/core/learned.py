"""CHIME-Learned: hopscotch leaf nodes under a learned model (§5.3).

The paper's factor analysis applies CHIME's techniques to ROLEX too: the
end state replaces ROLEX's sorted leaf tables with CHIME's hopscotch leaf
nodes, routed by PLA models instead of B+-tree internal nodes.  The paper
calls the result *CHIME-Learned* and observes that CHIME proper beats it
because the model's ±error window makes searches fetch **one neighborhood
per candidate leaf** (usually two) instead of one — which settles the
design choice of combining the B+ tree, not the learned index, with
hopscotch hashing.

Implementation notes: leaves use the fence-key replica layout (the model
gives no parent to validate siblings against); keys that overflow their
leaf go to chained synonym leaves via the replica sibling pointer, with
the chain guarded by the base leaf's lock (as in our ROLEX); the model is
pre-trained like ROLEX's (§5.1 fn. 3).  Scans are not implemented — the
paper evaluates CHIME-Learned on point workloads only.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.baselines.pla import PlaModel
from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.chime import LockGuard
from repro.core.family import FamilyClientBase, FamilyIndexBase
from repro.core.leaf_ops import HopscotchLeafOpsMixin, place_items
from repro.core.node_layout import LeafLayout, VacancyBitmap
from repro.core.nodes import LeafNodeView
from repro.hashing.hopscotch import default_hash, distance, plan_insert
from repro.layout import MAX_KEY, StripedSpan, encode_key, encode_u64
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR

#: Cached bytes per leaf address (like ROLEX's leaf table).
LEAF_ADDR_BYTES = 8


class LearnedChimeIndex(FamilyIndexBase):
    """Host-side state: PLA model + flat array of hopscotch leaves."""

    def __init__(self, cluster: Cluster, span: int = 64,
                 neighborhood: int = 8, error: int = 16,
                 value_size: int = 8,
                 bulk_load_factor: float = 0.7) -> None:
        super().__init__(cluster)
        self.span = span
        self.neighborhood = neighborhood
        self.error = error
        self.value_size = value_size
        self.bulk_load_factor = bulk_load_factor
        self.leaf_layout = LeafLayout(span=span, neighborhood=neighborhood,
                                      value_size=value_size,
                                      replicated=True, fence_keys=True)
        self.vacancy_map = VacancyBitmap(span)
        self.model: Optional[PlaModel] = None
        self.leaf_addrs: List[int] = []
        self._items_per_leaf = 1

    def client(self, ctx: ClientContext) -> "LearnedChimeClient":
        return LearnedChimeClient(self, ctx)

    def home_of(self, key: int) -> int:
        return default_hash(key, self.span)

    # -- bulk load ------------------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]],
                  future_keys: Sequence[int] = ()) -> None:
        pairs = self._checked_pairs(pairs)
        loaded = dict(pairs)
        all_keys = sorted(set(loaded) | set(future_keys))
        self.model = PlaModel.train(all_keys, self.error)
        per_leaf = max(1, int(self.span * self.bulk_load_factor))
        self._items_per_leaf = per_leaf
        chunks = [all_keys[i:i + per_leaf]
                  for i in range(0, len(all_keys), per_leaf)] or [[]]
        self.leaf_addrs = [self._host_alloc(self.leaf_layout.total_size)
                           for _ in chunks]
        bounds = [0] + [c[0] for c in chunks[1:]] + [MAX_KEY]
        for index, chunk in enumerate(chunks):
            items = [(key, loaded[key]) for key in chunk if key in loaded]
            self._host_write_leaf(self.leaf_addrs[index], items,
                                  bounds[index], bounds[index + 1])
        self.loaded_items = len(pairs)

    def _host_write_leaf(self, addr: int, items: Sequence[Tuple[int, int]],
                         fence_low: int, fence_high: int) -> None:
        """Compose + write one leaf; the items hopscotch cannot place in
        a model-sized chunk go to a synonym leaf chained from the
        sibling pointer (what an insert does at run time)."""
        layout = self.leaf_layout
        keys, values, bitmaps, spilled = place_items(items, layout,
                                                     self.home_of)
        synonym = NULL_ADDR
        if spilled:
            synonym = self._host_alloc(layout.total_size)
            self._host_write_leaf(synonym, spilled, fence_low, fence_high)
        self._host_write(addr, layout.encode_image(
            keys, values, bitmaps, synonym, fence_low, fence_high))
        self._host_write(addr + layout.lock_offset,
                         encode_u64(self.vacancy_map.lock_word(keys))
                         + encode_key(fence_low) + encode_key(fence_high))

    # -- prediction / accounting ---------------------------------------------------

    def candidate_leaves(self, key: int) -> List[int]:
        window = self.model.position_range(key)
        lo = window.start // self._items_per_leaf
        hi = min((window.stop - 1) // self._items_per_leaf,
                 len(self.leaf_addrs) - 1)
        return list(range(lo, hi + 1))

    def cache_bytes_needed(self) -> int:
        model_bytes = self.model.cache_bytes if self.model else 0
        return model_bytes + LEAF_ADDR_BYTES * len(self.leaf_addrs)

    def collect_items(self) -> List[Tuple[int, int]]:
        layout = self.leaf_layout
        out: List[Tuple[int, int]] = []
        for addr in self.leaf_addrs:
            chain = addr
            while chain != NULL_ADDR:
                raw = self._host_read(chain, layout.raw_size)
                view = LeafNodeView(layout, StripedSpan(raw, 0))
                for _pos, key, value in view.items():
                    out.append((key, value))
                chain = view.replica_sibling(0)  # synonym pointer
        out.sort()
        return out


class LearnedChimeClient(FamilyClientBase, HopscotchLeafOpsMixin):
    """Point operations routed by the model onto hopscotch leaves."""

    def __init__(self, index: LearnedChimeIndex, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        self.layout = index.leaf_layout
        self.home_of = index.home_of

    # ---------------------------------------------------------------- search

    def _search(self, key: int) -> Generator:
        """Fetch one neighborhood from *each* candidate leaf (the defining
        cost of CHIME-Learned, §5.3), then the covering leaf's synonym
        chain.  One pass answers: leaves never split here, so fences
        never move and a key no candidate covers is simply absent."""
        home = self.home_of(key)
        reads = []
        for leaf_index in self.index.candidate_leaves(key):
            leaf_addr = self.index.leaf_addrs[leaf_index]
            read = yield from self._read_neighborhood_checked(leaf_addr, home)
            reads.append(read)
        for read in reads:
            hit = read.find(key)
            if hit is not None:
                return hit[1]
            low, high = read.fences
            if low <= key < high:
                synonym = read.sibling
                while synonym != NULL_ADDR:
                    chained = yield from self._read_neighborhood_checked(
                        synonym, home)
                    hit = chained.find(key)
                    if hit is not None:
                        return hit[1]
                    synonym = chained.sibling
        return None

    # ---------------------------------------------------------------- writes

    def _insert(self, key: int, value: int) -> Generator:
        return self._locked_write(key, value, delete=False, upsert=True)

    def _update(self, key: int, value: int) -> Generator:
        return self._locked_write(key, value, delete=False, upsert=False)

    def _delete(self, key: int) -> Generator:
        return self._locked_write(key, 0, delete=True, upsert=False)

    def _locate_base_leaf(self, key: int) -> Generator:
        """The candidate leaf whose fences cover *key* (fence replicas
        ride along with a neighborhood read)."""
        home = self.home_of(key)
        for leaf_index in self.index.candidate_leaves(key):
            leaf_addr = self.index.leaf_addrs[leaf_index]
            read = yield from self._read_neighborhood_checked(leaf_addr, home)
            low, high = read.fences
            if low <= key < high:
                return leaf_addr
        return None

    def _locked_write(self, key: int, value: int, delete: bool,
                      upsert: bool) -> Generator:
        base_addr = yield from self._locate_base_leaf(key)
        if base_addr is None:
            return False
        layout = self.layout
        lock_addr = base_addr + layout.lock_offset
        old_word = yield from self._lock(lock_addr)
        guard = LockGuard(lock_addr, old_word)
        try:
            result = yield from self._write_chain(guard, base_addr, key,
                                                  value, delete, upsert)
            return result
        except GeneratorExit:
            raise  # reclaimed while parked: must not yield restore verbs
        except BaseException:
            if guard.held:
                yield from self._restore_unlock(lock_addr,
                                                guard.release_word())
            raise
        finally:
            self._release_local(lock_addr)

    def _write_chain(self, guard: LockGuard, base_addr: int, key: int,
                     value: int, delete: bool, upsert: bool) -> Generator:
        """Walk base + synonym chain under the base lock.

        The base leaf's lock covers the whole chain; synonym leaves' own
        lock words only carry their vacancy metadata.
        """
        layout = self.layout
        home = self.home_of(key)
        block = layout.neighborhood_replica_block(home)
        chain_addr = base_addr
        tail_addr = base_addr
        tail_view = None
        spacious: Optional[int] = None
        while chain_addr != NULL_ADDR:
            view = yield from self._fetch_whole(chain_addr)
            position = self._find_in_neighborhood(view, home, key)
            if position is not None:
                result = yield from self._modify_entry(
                    guard, base_addr, chain_addr, view, position, home, key,
                    value, delete)
                return result
            if spacious is None and not all(view.occupancy()):
                spacious = chain_addr
            tail_addr, tail_view = chain_addr, view
            chain_addr = view.replica_sibling(block)
        if delete or not upsert:
            yield from self._unlock_remote(guard.lock_addr,
                                           guard.release_word())
            return False
        target = spacious if spacious is not None else None
        if target is not None:
            view = yield from self._fetch_whole(target)
            done = yield from self._hop_insert(guard, base_addr, target,
                                               view, home, key, value)
            if done:
                return True
        # Chain full (or hop infeasible): append a fresh synonym leaf.
        result = yield from self._append_synonym(guard, base_addr, tail_addr,
                                                 tail_view, block, key, value)
        return result

    def _modify_entry(self, guard: LockGuard, base_addr: int,
                      leaf_addr: int, view: LeafNodeView, position: int,
                      home: int, key: int, value: int,
                      delete: bool) -> Generator:
        layout = self.layout
        writes: List[Tuple[int, bytes]] = []
        if delete:
            view.clear_entry(position)
            offset = distance(home, position, layout.span)
            view.set_entry_bitmap(home,
                                  view.entry(home).bitmap & ~(1 << offset))
            for pos in {position, home}:
                off = layout.entry_offset(pos)
                raw_off, raw_bytes = view.span.sub_span(off,
                                                        layout.entry_size)
                writes.append((leaf_addr + raw_off, raw_bytes))
        else:
            view.write_entry(position, key, value)
            off = layout.entry_offset(position)
            raw_off, raw_bytes = view.span.sub_span(off, layout.entry_size)
            writes.append((leaf_addr + raw_off, raw_bytes))
        writes.extend(self._unlock_writes(guard.lock_addr,
                                          guard.release_word()))
        yield from self.qp.write_batch(writes)
        return True

    def _hop_insert(self, guard: LockGuard, base_addr: int, leaf_addr: int,
                    view: LeafNodeView, home: int, key: int,
                    value: int) -> Generator:
        """Hopscotch insertion into a fully fetched leaf image."""
        layout = self.layout
        occupancy = view.occupancy()
        empty = None
        for step in range(layout.span):
            pos = (home + step) % layout.span
            if not occupancy[pos]:
                empty = pos
                break
        if empty is None:
            return False

        def home_of_pos(pos: int) -> Optional[int]:
            entry = view.entry(pos)
            return self.home_of(entry.key) if entry.occupied else None

        plan = plan_insert(home, empty, layout.span, layout.neighborhood,
                           home_of_pos)
        if plan is None:
            return False
        modified = self._apply_plan(view, plan, home, key, value)
        writes: List[Tuple[int, bytes]] = []
        for pos in sorted(modified):
            off = layout.entry_offset(pos)
            raw_off, raw_bytes = view.span.sub_span(off, layout.entry_size)
            writes.append((leaf_addr + raw_off, raw_bytes))
        writes.extend(self._unlock_writes(guard.lock_addr,
                                          guard.release_word()))
        yield from self.qp.write_batch(writes)
        return True

    def _append_synonym(self, guard: LockGuard, base_addr: int,
                        tail_addr: int, tail_view: LeafNodeView, block: int,
                        key: int, value: int) -> Generator:
        layout = self.layout
        low, high = tail_view.replica_fences(0)
        new_addr = yield from self._alloc(layout.total_size)
        keys, values, bitmaps, _none = place_items([(key, value)], layout,
                                                   self.home_of)
        yield from self.qp.write_batch([
            (new_addr, layout.encode_image(keys, values, bitmaps, NULL_ADDR,
                                           low, high)),
            (new_addr + layout.lock_offset,
             encode_u64(self.index.vacancy_map.lock_word(keys))
             + encode_key(low) + encode_key(high)),
        ])
        # Publish the synonym in every replica of the tail via a full
        # node write (NV bumped, EVs reset), batched with the unlock.
        old_nv = tail_view.span.nv_nibbles()[0]
        rebuilt = layout.encode_image(
            tail_view.keys(), tail_view.values(), tail_view.bitmaps(),
            new_addr, low, high, nv=bump_nibble(old_nv))
        yield from self.qp.write_batch(
            [(tail_addr, rebuilt)]
            + self._unlock_writes(guard.lock_addr, guard.release_word()))
        return True
