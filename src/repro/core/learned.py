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
pre-trained like ROLEX's (§5.1 fn. 3).  Scans are the model-routed
group's walk over CHIME's scan decoder, and entry write-backs CHIME's
coalescing ones (:mod:`repro.core.leaf_ops`): no scan code lives here.
"""

from __future__ import annotations

from typing import Generator, List, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.baselines.model_routed import (
    ModelRoutedClientBase,
    ModelRoutedIndexBase,
)
from repro.core.family import LockGuard
from repro.core.leaf_ops import HopscotchLeafOpsMixin, place_items
from repro.core.node_layout import LeafLayout, VacancyBitmap
from repro.core.nodes import LeafNodeView
from repro.hashing.hopscotch import (
    find_first_empty,
    home_hash,
    plan_insert,
)
from repro.layout import StripedSpan, encode_key, encode_u64
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR

#: The PLA model's error bound (ROLEX's, §5.1).
MODEL_ERROR = 16
#: Target leaf fill fraction for bulk loading (CHIME's).
BULK_LOAD_FACTOR = 0.7


class LearnedChimeIndex(ModelRoutedIndexBase):
    """Host-side state: PLA model + flat array of hopscotch leaves."""

    def __init__(self, cluster: Cluster, span: int = 64,
                 neighborhood: int = 8, value_size: int = 8) -> None:
        super().__init__(
            cluster, None,
            LeafLayout(span=span, neighborhood=neighborhood,
                       value_size=value_size, replicated=True,
                       fence_keys=True),
            MODEL_ERROR, BULK_LOAD_FACTOR)
        self.vacancy_map = VacancyBitmap(span)
        self.home_of = home_hash(span)

    def client(self, ctx: ClientContext) -> "LearnedChimeClient":
        return LearnedChimeClient(self, ctx)

    def _host_write_leaf(self, addr: int, items: Sequence[Tuple[int, int]],
                         fence_low: int, fence_high: int) -> None:
        """Compose + write one leaf; the items hopscotch cannot place in
        a model-sized chunk go to a synonym leaf chained from the
        sibling pointer (what an insert does at run time)."""
        layout = self.leaf_layout
        keys, values, bitmaps, spilled = place_items(items, layout)
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
        cost of CHIME-Learned, §5.3), then walk to the leaf whose fences
        cover *key* (:meth:`_covering`; the window itself, for a trained
        key) and along its synonym chain."""
        home = self.home_of(key)
        reads = []
        for leaf_index in self.index.candidate_leaves(key):
            leaf_addr = self.index.leaf_addrs[leaf_index]
            read = yield from self._read_neighborhood_checked(leaf_addr, home)
            reads.append(read)
        _leaf_index, read = yield from self._covering(key, reads)
        while True:
            hit = read.find(key)
            if hit is not None:
                return hit[1]
            if read.sibling == NULL_ADDR:
                return None
            read = yield from self._read_neighborhood_checked(read.sibling,
                                                              home)

    # ---------------------------------------------------------------- writes

    def _read_fenced(self, addr: int, key: int) -> Generator:
        """One neighborhood READ: the fence replicas ride along."""
        return self._read_neighborhood_checked(addr, self.home_of(key))

    # Synonym leaves' own lock words only carry their vacancy metadata;
    # the base leaf's lock covers the whole chain.

    def _probe(self, addr: int, key: int) -> Generator:
        view = yield from self._fetch_whole(addr)
        return (view, self._find_in_neighborhood(view, self.home_of(key), key),
                not all(view.occupancy()), view.replica_sibling(0))

    def _modify_entry(self, guard: LockGuard, leaf_addr: int,
                      view: LeafNodeView, position: int, key: int,
                      value: int, delete: bool) -> Generator:
        positions = {position}
        if delete:
            home = self.home_of(key)
            self._remove_entry(view, home, position)
            positions.add(home)
        else:
            view.write_entry(position, key, value)
        yield from self._release(
            guard, self._entry_writes(leaf_addr, view, positions))

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
        yield from self._release(
            guard, self._entry_writes(leaf_addr, view, modified))
        return True

    def _append_synonym(self, guard: LockGuard, tail_addr: int,
                        tail_view: LeafNodeView, key: int,
                        value: int) -> Generator:
        low, high = tail_view.replica_fences(0)
        new_addr = yield from self._write_fresh_leaf([(key, value)], NULL_ADDR,
                                                     low, high)
        # Publish the synonym in every replica of the tail via a full
        # node write (NV bumped, EVs reset), batched with the unlock.
        old_nv = tail_view.span.nv_nibbles()[0]
        rebuilt = self.layout.encode_image(
            tail_view.keys(), tail_view.values(), tail_view.bitmaps(),
            new_addr, low, high, nv=bump_nibble(old_nv))
        yield from self._release(guard, [(tail_addr, rebuilt)])
