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

from typing import Generator, List, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.baselines.model_routed import (
    ModelRoutedClientBase,
    ModelRoutedIndexBase,
)
from repro.core.chime import LockGuard
from repro.core.leaf_ops import HopscotchLeafOpsMixin, place_items
from repro.core.node_layout import LeafLayout, VacancyBitmap
from repro.core.nodes import LeafNodeView
from repro.hashing.hopscotch import (
    default_hash,
    find_first_empty,
    plan_insert,
)
from repro.layout import StripedSpan, encode_key, encode_u64
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR


class LearnedChimeIndex(ModelRoutedIndexBase):
    """Host-side state: PLA model + flat array of hopscotch leaves."""

    def __init__(self, cluster: Cluster, span: int = 64,
                 neighborhood: int = 8, error: int = 16,
                 value_size: int = 8,
                 bulk_load_factor: float = 0.7) -> None:
        super().__init__(
            cluster, None,
            LeafLayout(span=span, neighborhood=neighborhood,
                       value_size=value_size, replicated=True,
                       fence_keys=True),
            error, bulk_load_factor)
        self.vacancy_map = VacancyBitmap(span)

    def client(self, ctx: ClientContext) -> "LearnedChimeClient":
        return LearnedChimeClient(self, ctx)

    def home_of(self, key: int) -> int:
        return default_hash(key, self.leaf_layout.span)

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

    def _host_table(self, addr: int) -> Tuple[List[Tuple[int, int]], int]:
        layout = self.leaf_layout
        view = LeafNodeView(layout, StripedSpan(
            self._host_read(addr, layout.raw_size), 0))
        return view.pairs(), view.replica_sibling(0)  # the synonym pointer


class LearnedChimeClient(ModelRoutedClientBase, HopscotchLeafOpsMixin):
    """Point operations routed by the model onto hopscotch leaves."""

    def __init__(self, index: LearnedChimeIndex, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
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

    def _locate_base(self, key: int) -> Generator:
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

    # Synonym leaves' own lock words only carry their vacancy metadata;
    # the base leaf's lock covers the whole chain.

    def _probe(self, addr: int, key: int) -> Generator:
        view = yield from self._fetch_whole(addr)
        return (view, self._find_in_neighborhood(view, self.home_of(key), key),
                not all(view.occupancy()), view.replica_sibling(0))

    def _write_entries(self, guard: LockGuard, leaf_addr: int,
                       view: LeafNodeView, positions) -> Generator:
        """WRITE each entry of *positions* as edited in *view* (one
        WRITE per entry), with the unlock batched behind them."""
        layout = self.layout
        writes = []
        for pos in positions:
            raw_off, raw_bytes = view.span.sub_span(layout.entry_offset(pos),
                                                    layout.entry_size)
            writes.append((leaf_addr + raw_off, raw_bytes))
        yield from self.qp.write_batch(
            writes + self._unlock_writes(guard.lock_addr,
                                         guard.release_word()))

    def _modify_entry(self, guard: LockGuard, leaf_addr: int,
                      view: LeafNodeView, position: int, key: int,
                      value: int, delete: bool) -> Generator:
        positions = [position]
        if delete:
            home = self.home_of(key)
            self._remove_entry(view, home, position)
            positions = {position, home}
        else:
            view.write_entry(position, key, value)
        yield from self._write_entries(guard, leaf_addr, view, positions)

    def _insert_into(self, guard: LockGuard, leaf_addr: int,
                     _walked: LeafNodeView, key: int,
                     value: int) -> Generator:
        """Hopscotch insertion into the leaf, fetched afresh; False when
        no hop sequence frees an entry of the key's neighbourhood."""
        layout = self.layout
        view = yield from self._fetch_whole(leaf_addr)
        home = self.home_of(key)
        empty = find_first_empty(view.occupancy().__getitem__, home,
                                 layout.span)
        plan = None if empty is None else plan_insert(
            home, empty, layout.span, layout.neighborhood,
            self._make_home_of(view))
        if plan is None:
            return False
        modified = self._apply_plan(view, plan, home, key, value)
        yield from self._write_entries(guard, leaf_addr, view,
                                       sorted(modified))
        return True

    def _append_synonym(self, guard: LockGuard, tail_addr: int,
                        tail_view: LeafNodeView, key: int,
                        value: int) -> Generator:
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
