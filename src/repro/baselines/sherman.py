"""Sherman (SIGMOD '22): the state-of-the-art B+ tree on DM.

Re-implemented from its paper's description, with the enhancement the
CHIME authors apply for fairness (§5.1): the original bookend versioning
is replaced by **two-level cache-line versions** (the same scheme CHIME
uses, shared via :mod:`repro.layout.versions`).

Structure: a B-link tree whose leaves are *sorted arrays* of KV entries.
Reads fetch the **entire leaf node** — the defining read amplification of
KV-contiguous indexes that CHIME attacks.  Updates are fine-grained
(entry write + EV bump, combined with the unlocking WRITE); inserts shift
the sorted array and therefore rewrite the node (a node write with NV
bump).  Sherman's CN-local lock table is modelled through
:class:`~repro.cluster.compute.ComputeNode.local_lock`, shared by every
index here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.btree_base import (
    BTreeClientBase,
    BTreeIndexBase,
    LeafRef,
    MAX_CHASE,
    TraversalError,
)
from repro.core.node_layout import SortedNodeLayout
from repro.core.nodes import SortedNodeView
from repro.errors import TornReadError
from repro.layout import StripedSpan
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR


@dataclass(frozen=True)
class ShermanConfig:
    """Sherman parameters (paper default: span 64, 8 B keys/values)."""

    span: int = 64
    key_size: int = 8
    value_size: int = 8
    #: Store an 8-byte pointer per entry with the value in an indirect
    #: block (the Marlin baseline layers on this).
    indirect_values: bool = False
    #: Target leaf fill fraction for bulk loading.
    bulk_load_factor: float = 0.7


class ShermanIndex(BTreeIndexBase):
    """Host-side state of a Sherman tree."""

    def __init__(self, cluster: Cluster,
                 config: Optional[ShermanConfig] = None) -> None:
        super().__init__(cluster, config or ShermanConfig())
        config = self.config
        entry_value = 8 if config.indirect_values else config.value_size
        self.leaf_layout = SortedNodeLayout(config.span, config.key_size,
                                            entry_value)

    def client(self, ctx: ClientContext) -> "ShermanClient":
        return ShermanClient(self, ctx)

    # -- bulk load ----------------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        config = self.config
        pairs = self._checked_pairs(pairs)
        per_leaf = max(1, int(config.span * config.bulk_load_factor))
        level1 = self._host_write_level(self.leaf_layout, pairs, per_leaf,
                                        stored=self._host_stored)
        self.loaded_items = len(pairs)
        self._build_internal_levels(level1)

    # -- host-side inspection --------------------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        layout = self.leaf_layout
        out: List[Tuple[int, int]] = []
        for addr in self.leaf_addrs():
            raw = self._host_read(addr, layout.raw_size)
            view = SortedNodeView(layout, StripedSpan(raw, 0))
            for key, value in view.items():
                if self.config.indirect_values:
                    value = self._host_read_block(value)[1]
                out.append((key, value))
        out.sort()
        return out


class ShermanClient(BTreeClientBase):
    """Per-client Sherman operations."""

    # -------------------------------------------------------------- leaf IO

    def _leaf_for(self, ref: LeafRef, key: int) -> Generator:
        """Fetch the leaf, applying cache and half-split validation."""
        leaf_addr = ref.leaf_addr
        from_cache = ref.from_cache
        for _hop in range(MAX_CHASE):
            view = yield from self._read_sorted_node(leaf_addr, self.layout)
            if view.fence_low <= key < view.fence_high:
                return leaf_addr, view
            if key < view.fence_low:
                if from_cache and ref.parent is not None:
                    self.ctx.cache.invalidate(ref.parent.addr)
                return None, None  # stale route: retraverse
            if view.sibling == NULL_ADDR:
                return leaf_addr, view
            if from_cache and ref.parent is not None:
                self.ctx.cache.invalidate(ref.parent.addr)
            leaf_addr = view.sibling
            from_cache = False
        raise TraversalError("leaf sibling chase exceeded bound")

    # -------------------------------------------------------------- search

    def _search(self, key: int) -> Generator:
        retry = self.retry.start("search({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            ref = yield from self._locate_leaf(key)
            leaf_addr, view = yield from self._leaf_for(ref, key)
            if view is None:
                continue
            index = view.find(key)
            if index is None:
                return None
            _k, value = view.entry(index)
            if self.config.indirect_values:
                value = yield from self._read_block(value, key)
            return value

    # -------------------------------------------------------------- writes

    def _insert(self, key: int, value: int) -> Generator:
        return self._write_leaf(key, value, "insert")

    def _update(self, key: int, value: int) -> Generator:
        return self._write_leaf(key, value, "update")

    def _delete(self, key: int) -> Generator:
        """Clear by rewriting the leaf without the key (no merges)."""
        return self._write_leaf(key, 0, "delete")

    def _write_leaf(self, key: int, value: int, op: str) -> Generator:
        """One locked leaf write.

        ``update`` is fine-grained (entry write + EV bump); ``insert``
        (an upsert) and ``delete`` shift the sorted array and therefore
        rewrite the node (NV bump), splitting it first when full.  The
        data write and the unlock ride one doorbell batch.
        """
        layout = self.layout
        stored = value
        if op != "delete" and self.config.indirect_values:
            # Before the lock, not under it: an allocation RPC can queue
            # on the MN CPU for most of a lock lease.
            stored = yield from self._write_block(key, value)
        retry = self.retry.start("{}({})", self.engine, self.ctx.rng, op,
                                 key)
        while retry.check():
            ref = yield from self._locate_leaf(key)
            lock_addr = ref.leaf_addr + layout.lock_offset
            yield from self._lock(lock_addr, zero_rest=False)
            held = True
            try:
                leaf_addr, view = yield from self._leaf_for(ref, key)
                moved = view is None or leaf_addr != ref.leaf_addr
                index = None if moved else view.find(key)
                if moved or (index is None and op != "insert"):
                    held = False
                    yield from self._unlock_remote(lock_addr)
                    if moved:
                        # Routed elsewhere while locking this node:
                        # retry from the top (rare).
                        continue
                    return False
                split = None
                if op == "update":
                    raw_off, raw_bytes = view.write_entry_value(
                        index, key, stored)
                    writes = [(leaf_addr + raw_off, raw_bytes)]
                else:
                    items = view.items()
                    if op == "delete":
                        items.pop(index)
                    elif index is not None:
                        items[index] = (key, stored)
                    else:
                        items.append((key, stored))
                        items.sort()
                    # The left half publishes a new right sibling.
                    fitted = yield from self._split_if_full(
                        layout, items, view.sibling, view.fence_high)
                    items, sibling, fence_high, split = fitted
                    new_view = SortedNodeView.compose(
                        layout, items, sibling, view.fence_low, fence_high,
                        nv=bump_nibble(view.nv))
                    writes = [(leaf_addr, bytes(new_view.span.data))]
                writes.extend(self._unlock_writes(lock_addr))
                held = False
                yield from self.qp.write_batch(writes)
                if split is None:
                    return True
                yield from self._propagate_split(ref.parent, 1, leaf_addr,
                                                 *split[:2])
                # ... and retry the insert after the split.
            except GeneratorExit:
                # A parked (crashed) client being reclaimed must not
                # yield restore verbs — its node is dead.
                raise
            except BaseException:
                if held:
                    yield from self._restore_unlock(lock_addr)
                raise
            finally:
                self._release_local(lock_addr)

    # -------------------------------------------------------------- scan

    def _scan_leaf(self, raw: bytes, key: int):
        """One leaf of :meth:`BTreeClientBase._scan_once`'s batch."""
        view = SortedNodeView(self.layout, StripedSpan(raw, 0))
        if not view.is_consistent():
            raise TornReadError("leaf node-level versions disagree")
        return [pair for pair in view.items() if pair[0] >= key], view.sibling
