"""Shared B-link-tree machinery for DM indexes.

CHIME keeps the internal-node structure of a B+ tree (paper §3.2) and its
node-split / up-propagation protocol follows Sherman's (§4.2.2, §4.4), so
this module hosts everything above the leaf level:

* internal-node reads with optimistic version checks and sibling chasing,
* the per-CN internal-node cache and cached traversal,
* the split of an overfull sorted-array node (any level, sorted leaves
  included) and split-key up-propagation,
* root growth via a remote CAS on the global root pointer,
* host-side construction of sorted-array levels for bulk loading.

Leaf formats and leaf operations are index-specific and live in
subclasses (:mod:`repro.core.chime`, :mod:`repro.baselines.sherman`);
allocation, the public-operation templates and the lock path come from
:mod:`repro.core.family`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Generator, Iterator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.family import FamilyClientBase, FamilyIndexBase, LockGuard
from repro.core.node_layout import SortedNodeLayout
from repro.core.nodes import ParsedInternal, SortedNodeView
from repro.errors import IndexError_, RetryExhaustedError
from repro.layout import MAX_KEY, StripedSpan
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR, addr_mn, addr_offset

#: Remote offset (on MN 0) of the 8-byte global root pointer.
ROOT_PTR_OFFSET = 8

#: Bound on sibling chases during traversal / half-split validation.
MAX_CHASE = 64


class TraversalError(IndexError_):
    """Remote traversal failed to converge (exceeded retry budget)."""


@dataclass
class LeafRef:
    """Where traversal landed: a leaf address plus validation context."""

    leaf_addr: int
    parent: ParsedInternal
    parent_index: int
    trusted: List[int]  #: the parent's address, if it came from the cache


class BTreeIndexBase(FamilyIndexBase):
    """Host-side state shared by all clients of one tree index."""

    #: The leaf format's view over ``leaf_layout`` (CHIME's differs).
    leaf_view = SortedNodeView

    def __init__(self, cluster: Cluster, config) -> None:
        super().__init__(cluster, config)
        self.internal_layout = SortedNodeLayout(config.span, level_byte=True)
        #: Host-visible hints; the authoritative root pointer lives at
        #: ``root_ptr_addr`` (by default ``ROOT_PTR_OFFSET`` on MN 0 —
        #: note ``make_addr(0, 8) == 8``, so the legacy constant *is* a
        #: global address) and is updated via remote CAS.  Sharded
        #: sub-trees point this at their per-shard root slot on the
        #: shard's home MN (see :class:`repro.memory.PartitionedAllocator`).
        #: (Shortcut: hint propagation to other CNs is instantaneous;
        #: root growth is rare and the remote CAS still serializes it.)
        self.root_ptr_addr = ROOT_PTR_OFFSET
        self.root_addr = NULL_ADDR
        self.root_level = 0

    # -- bulk load (host-side, off the simulated data path) -------------------

    def _host_write_level(self, layout: SortedNodeLayout,
                          entries: List[Tuple[int, int]], per_node: int,
                          level: int = 0, stored=None) -> List[Tuple[int, int]]:
        """Pack the sorted *entries* into nodes of at most *per_node*,
        chained left to right by their sibling pointers; returns each
        node's ``(fence_low, addr)`` — the entries of the level above.
        *stored* maps a node's entries to what it holds of them."""
        groups = [entries[i:i + per_node]
                  for i in range(0, len(entries), per_node)] or [[]]
        addrs = [self._host_alloc(layout.total_size) for _ in groups]
        bounds = [0] + [group[0][0] for group in groups[1:]] + [MAX_KEY]
        for index, group in enumerate(groups):
            sibling = addrs[index + 1] if index + 1 < len(addrs) else NULL_ADDR
            view = SortedNodeView.compose(
                layout, stored(group) if stored else group, sibling,
                bounds[index], bounds[index + 1], level=level)
            self._host_write(addrs[index], bytes(view.span.data))
        return list(zip(bounds, addrs))

    def _build_internal_levels(self, entries: List[Tuple[int, int]]) -> None:
        """Pack ``(fence_low, child)`` *entries* into full internal nodes,
        level by level, and install the root."""
        layout = self.internal_layout
        # Each level shrinks the entry list by a factor of span; 64 levels
        # bounds any realistic tree (span=1 would otherwise loop forever).
        for level in range(1, 65):
            entries = self._host_write_level(layout, entries, layout.span,
                                             level)
            if len(entries) == 1:
                self._set_root(entries[0][1], level)
                return
        raise RetryExhaustedError(
            "bulk load built 64 internal levels without converging on a "
            "root (span too small for the dataset?)")

    def _set_root(self, addr: int, level: int) -> None:
        self.root_addr = addr
        self.root_level = level
        ptr = self.root_ptr_addr
        self.cluster.mns[addr_mn(ptr)].region.write_u64(addr_offset(ptr),
                                                        addr)

    # -- host-side tree inspection ---------------------------------------------

    def _host_internal(self, addr: int) -> ParsedInternal:
        layout = self.internal_layout
        raw = self._host_read(addr, layout.raw_size)
        return SortedNodeView(layout, StripedSpan(raw, 0)).parse(addr)

    def internal_nodes(self) -> List[Tuple[int, ParsedInternal]]:
        """Walk every internal node host-side (tests, cache accounting)."""
        out: List[Tuple[int, ParsedInternal]] = []
        if self.root_addr == NULL_ADDR:
            return out
        frontier = [self.root_addr]
        seen = set()
        while frontier:
            addr = frontier.pop()
            if addr in seen or addr == NULL_ADDR:
                continue
            seen.add(addr)
            parsed = self._host_internal(addr)
            out.append((addr, parsed))
            if parsed.level > 1:
                frontier.extend(parsed.children[:parsed.count])
        return out

    def leftmost_leaf(self) -> int:
        """Host-side descent through ``children[0]`` to the leftmost
        leaf (``NULL_ADDR`` without a root).  The sibling chain from
        there is the authoritative leaf set: :meth:`leaf_addrs` relies
        on parent entries, which a half-split bypasses."""
        addr = self.root_addr
        for _level in range(64):
            if addr == NULL_ADDR:
                break
            parsed = self._host_internal(addr)
            addr = parsed.children[0]
            if parsed.level == 1:
                return addr
        return NULL_ADDR

    def leaf_addrs(self) -> List[int]:
        """Addresses of every leaf, in key order (host-side)."""
        addrs: List[int] = []
        for _addr, parsed in self.internal_nodes():
            if parsed.level == 1:
                addrs.extend(parsed.children[:parsed.count])
        return addrs

    def leaf_chain(self) -> Iterator[Tuple[int, object]]:
        """``(addr, leaf_view)`` of every leaf from :meth:`leftmost_leaf`
        along the sibling chain — :meth:`leaf_addrs` misses a half-split
        whose parent entry was never written (a lost verb ended its
        propagation)."""
        layout = self.leaf_layout
        addr, seen = self.leftmost_leaf(), set()
        while addr != NULL_ADDR and addr not in seen:
            seen.add(addr)
            view = self.leaf_view(layout, StripedSpan(
                self._host_read(addr, layout.raw_size), 0))
            yield addr, view
            addr = view.sibling

    def lock_lines(self) -> Iterator[Tuple[str, int]]:
        for addr, _parsed in self.internal_nodes():
            yield (f"internal node {addr:#x}",
                   addr + self.internal_layout.lock_offset)
        for addr, _view in self.leaf_chain():
            yield f"leaf {addr:#x}", addr + self.leaf_layout.lock_offset

    def cache_bytes_needed(self) -> int:
        """Bytes required to cache the full internal structure on one CN."""
        total = self.internal_layout.total_size
        return len(self.internal_nodes()) * total

    def height(self) -> int:
        return self.root_level


class BTreeClientBase(FamilyClientBase):
    """Per-client machinery above the leaf level."""

    scan = FamilyClientBase._scan_op

    def __init__(self, index: BTreeIndexBase, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        self.layout = index.leaf_layout
        #: Running mean of keys per leaf as this client's scans find them
        #: (sizes a scan's first batch), seeded with a bulk-loaded leaf's.
        self._leaf_keys = index.config.bulk_load_factor * index.config.span

    # -- internal node IO --------------------------------------------------------------

    def _read_internal(self, addr: int) -> Generator:
        """READ + optimistically validate + parse an internal node."""
        layout = self.index.internal_layout
        view = yield from self._read_sorted_node(addr, layout)
        parsed = view.parse(addr)
        self.ctx.cache.put(addr, parsed, layout.total_size)
        return parsed

    def _read_internal_covering(self, addr: int, key: int) -> Generator:
        """Read an internal node, chasing siblings until it covers *key*."""
        for _hop in range(MAX_CHASE):
            parsed = yield from self._read_internal(addr)
            if parsed.covers(key):
                return parsed
            if key >= parsed.fence_high and parsed.sibling != NULL_ADDR:
                addr = parsed.sibling
                continue
            return None  # stale path (key below fences): restart from root
        raise TraversalError(f"sibling chase exceeded {MAX_CHASE} hops")

    # -- traversal ------------------------------------------------------------------------

    def _locate_leaf(self, key: int) -> Generator:
        """Descend to the leaf covering *key*, preferring cached nodes."""
        retry = self.retry.start("traversal key={}", self.engine,
                                 self.ctx.rng, key)
        while retry.check():
            addr = self.index.root_addr
            if addr == NULL_ADDR:
                raise TraversalError("index has no root; bulk_load first")
            result = yield from self._descend(addr, key, target_level=0)
            if result is not None:
                return result
            yield from retry.backoff()

    def _descend(self, addr: int, key: int, target_level: int) -> Generator:
        """One root-to-target descent; None means restart from the root.

        ``target_level=0`` returns a :class:`LeafRef`; higher targets
        return the :class:`ParsedInternal` at that level (used by split
        up-propagation to find ancestors).
        """
        for _depth in range(MAX_CHASE):
            cached = self.ctx.cache.get(addr)
            if cached is not None and cached.valid and cached.covers(key):
                parsed, trusted = cached, [addr]
            else:
                parsed = yield from self._read_internal_covering(addr, key)
                trusted = []
                if parsed is None:
                    return None
            if parsed.level == target_level:
                return parsed
            if parsed.level < max(target_level, 1):
                return None  # stale hints routed us below the target
            index, child = parsed.find_child(key)
            if parsed.level == 1 and target_level == 0:
                return LeafRef(child, parsed, index, trusted)
            addr = child
        raise TraversalError(f"descent exceeded {MAX_CHASE} levels "
                             "(corrupt level pointers?)")

    def _stale_route(self, ref: LeafRef, key: int, sibling: int,
                     fences: Optional[Tuple[int, int]] = None,
                     nth: int = 0) -> bool:
        """Whether a leaf read contradicts the route *ref* (§4.2.3): *key*
        outside the *fences* ``(low, high)`` when it saw them, else a
        *sibling* not the parent's next child after the leaf *ref* names
        (or after the one *nth* children right of it: a scan's batch)."""
        if fences is not None:
            return not fences[0] <= key < fences[1]
        expected = ref.parent.next_child(ref.parent_index + nth)
        return expected is not None and sibling != expected

    # -- range scan ---------------------------------------------------------------------------

    def _scan_once(self, key: int, count: int) -> Generator:
        """Candidate leaves from the (possibly cached) parent in one
        doorbell batch (§4.4), each by its plan, then the sibling chain;
        a leaf read only below ``key + count`` whose pairs fall short (a
        deleted key, a split the parent predates) is read again whole."""
        ref = yield from self._phase("traverse", self._locate_leaf(key))
        addrs, plans = self._scan_batch(ref, key, count)
        results: List[Tuple[int, int]] = []
        while True:  # the chain ends: the last leaf's sibling is null
            leaves = yield from self._phase(
                "leaf_read", self._read_scan_leaves(addrs, key, plans))
            for index, (pairs, read) in enumerate(leaves):
                results.extend(pairs)
                sibling = read.sibling
                if plans[index] is None and addrs[index] != ref.leaf_addr:
                    self._note_leaf_keys(len(pairs))  # every key >= *key*
                if index + 1 < len(addrs) and self._stale_route(
                        ref, key, sibling, nth=index):
                    # The parent predates a split of this leaf: its next
                    # child is not the next leaf.  Follow the chain.
                    self._drop_stale(ref.trusted, True)
                    break
            cut = getattr(plans[index], "cut", False)
            if len(results) >= count or sibling == NULL_ADDR and not cut:
                return results
            if cut:  # read it whole
                del results[len(results) - len(pairs):]
            addrs, plans = addrs[index:] if cut else [sibling], [None]

    def _scan_batch(self, ref: LeafRef, key: int, count: int) -> tuple:
        """The scan's first batch and each leaf's plan (None: read it
        whole, as a sorted leaf always is).  On dense keys — pivot ranges
        of at most ``span`` keys on average — the parent's children up to
        the one holding ``key + count - 1``; else the leaf holding *key*,
        then children by :meth:`_more_leaves`, the first leaf expected to
        hold the share of its pivot range at or above *key*."""
        parent, at, end = ref.parent, ref.parent_index, key + count
        bounds = parent.pivots[:parent.count] + [parent.fence_high]
        low, high = bounds[at:at + 2]
        last = max(bisect_right(bounds, end - 1, at, parent.count) - 1, at)
        addrs = parent.children[at:last + 1]
        if not (self.reads_candidates and end <= bounds[last + 1] and (
                bounds[last + 1] - low <= (last + 1 - at) * self.layout.span)):
            last, end, addrs = at, high, [ref.leaf_addr]
            if at + 1 < parent.count:
                addrs += self._more_leaves(
                    self._leaf_keys * (high - max(key, low)) / (high - low),
                    count, parent.children[at + 1:parent.count])
        plans = [None] * len(addrs)
        if self.reads_candidates:  # the first and last leaves' candidates
            plans[0] = self._candidate_read(key, min(end, high), low, high)
            if last > at:
                plans[last - at] = self._candidate_read(
                    bounds[last], end, *bounds[last:last + 2])
        return addrs, plans

    # -- split up-propagation --------------------------------------------------------------

    def _propagate_split(self, parent_hint: Optional[ParsedInternal],
                         level: int, old_addr: int, split_key: int,
                         new_addr: int) -> Generator:
        """Insert ``(split_key -> new_addr)`` into the parent level.

        *level* is the level the new entry belongs to (1 for leaf splits).
        Follows the paper's Step 1-3 (§4.4): lock parent (one
        :meth:`_locked` section per parent on the chase), insert or split
        recursively, grow the root when the split node was the root.
        """
        if old_addr == self.index.root_addr:
            yield from self._grow_root(old_addr, split_key, new_addr, level)
            return
        layout = self.index.internal_layout
        parent_addr = parent_hint.addr if parent_hint is not None else NULL_ADDR
        if parent_addr == NULL_ADDR:
            parent = yield from self._descend(self.index.root_addr, split_key,
                                              target_level=level)
            if parent is None or isinstance(parent, LeafRef):
                raise TraversalError("no parent found for split propagation")
            parent_addr = parent.addr
        for _hop in range(MAX_CHASE):
            parent_addr = yield from self._locked(
                parent_addr + layout.lock_offset, self._insert_into_internal,
                parent_addr, split_key, new_addr, level, zero_rest=False)
            if parent_addr is None:
                return
            if parent_addr == NULL_ADDR:
                raise TraversalError("split key fell off the parent chain")
        raise TraversalError(f"parent chase exceeded {MAX_CHASE} hops")

    def _split_if_full(self, layout: SortedNodeLayout,
                       items: List[Tuple[int, int]], sibling: int,
                       fence_high: int, level: int = 0) -> Generator:
        """With a locked node about to hold the sorted *items*: if they
        overflow it, first WRITE their right half to a fresh sibling.
        Returns ``(items, sibling, fence_high, split)`` — what the node
        now holds, and ``(pivot, new_addr, right view)`` or None."""
        if len(items) <= layout.span:
            return items, sibling, fence_high, None
        mid = len(items) // 2
        pivot = items[mid][0]
        new_addr, right = yield from self._write_fresh_node(
            layout, items[mid:], sibling, pivot, fence_high, level)
        return items[:mid], new_addr, pivot, (pivot, new_addr, right)

    def _insert_into_internal(self, guard: LockGuard, addr: int,
                              split_key: int, new_addr: int,
                              level: int) -> Generator:
        """With *addr* locked: add the entry, splitting the node if full;
        None, or the sibling to chase when the node no longer covers
        *split_key* (it split concurrently)."""
        layout = self.index.internal_layout
        parsed = yield from self._read_internal(addr)
        if not parsed.covers(split_key):
            yield from self._release(guard)
            return parsed.sibling
        entries = list(zip(parsed.pivots, parsed.children))
        entries.insert(bisect_right(parsed.pivots, split_key),
                       (split_key, new_addr))
        entries, sibling, fence_high, split = yield from self._split_if_full(
            layout, entries, parsed.sibling, parsed.fence_high, parsed.level)
        if split is not None:
            up_key, new_node_addr, right = split
            self.ctx.cache.put(new_node_addr, right.parse(new_node_addr),
                               layout.total_size)
        # The node itself — its sibling pointer publishes a new right
        # half — with the unlock batched behind it (one round trip).
        view = SortedNodeView.compose(
            layout, entries, sibling, parsed.fence_low, fence_high,
            nv=bump_nibble(parsed.nv), level=parsed.level)
        yield from self._release(guard, [(addr, bytes(view.span.data))])
        self.ctx.cache.put(addr, view.parse(addr), layout.total_size)
        if split is not None:
            yield from self._propagate_split(None, level + 1, addr, up_key,
                                             new_node_addr)

    def _grow_root(self, old_root: int, split_key: int, new_addr: int,
                   level: int) -> Generator:
        """Allocate a new root pointing at the two halves and CAS the
        global root pointer (§4.4 Step 3)."""
        layout = self.index.internal_layout
        root_addr, view = yield from self._write_fresh_node(
            layout, [(0, old_root), (split_key, new_addr)], NULL_ADDR, 0,
            MAX_KEY, level=level)
        old, swapped = yield from self.qp.cas(self.index.root_ptr_addr,
                                              old_root, root_addr)
        if swapped:
            self.index.root_addr = root_addr
            self.index.root_level = level
            self.ctx.cache.put(root_addr, view.parse(root_addr),
                               layout.total_size)
        else:
            # Someone else grew the root first (our hint was stale): adopt
            # theirs and insert our entry through the normal path.
            self.index.root_addr = old
            self.index.root_level = max(self.index.root_level, level)
            yield from self._propagate_split(None, level, NULL_ADDR,
                                             split_key, new_addr)
