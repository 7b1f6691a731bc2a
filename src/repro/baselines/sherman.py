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
from repro.core.family import LockGuard
from repro.core.leaf_ops import SortedLeafOpsMixin
from repro.core.node_layout import SortedNodeLayout
from repro.core.nodes import SortedNodeView
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR


@dataclass(frozen=True)
class ShermanConfig:
    """Sherman parameters (paper default: span 64, 8 B keys/values)."""

    span: int = 64
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
        self.leaf_layout = SortedNodeLayout(config.span,
                                            value_size=entry_value)

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
        out: List[Tuple[int, int]] = []
        for _addr, view in self.leaf_chain():
            for key, value in view.items():
                if self.config.indirect_values:
                    value = self._host_read_block(value)[1]
                out.append((key, value))
        out.sort()
        return out


class ShermanClient(BTreeClientBase, SortedLeafOpsMixin):
    """Per-client Sherman operations."""

    # -------------------------------------------------------------- leaf IO

    def _leaf_for(self, ref: LeafRef, key: int) -> Generator:
        """Fetch the leaf, chasing siblings while *key* is past its fences."""
        leaf_addr = ref.leaf_addr
        for _hop in range(MAX_CHASE):
            view = yield from self._read_sorted_node(leaf_addr, self.layout)
            if not self._stale_route(ref, key, view.sibling, view.fences):
                return leaf_addr, view
            self._drop_stale(ref.trusted, True)
            if key < view.fence_low:
                return None, None  # stale route: retraverse
            if view.sibling == NULL_ADDR:
                return leaf_addr, view
            leaf_addr = view.sibling
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
        stored = value
        if op != "delete" and self.config.indirect_values:
            # Before the lock, not under it: an allocation RPC can queue
            # on the MN CPU for most of a lock lease.
            stored = yield from self._write_block(key, value)
        retry = self.retry.start("{}({})", self.engine, self.ctx.rng, op,
                                 key)
        while retry.check():
            ref = yield from self._locate_leaf(key)
            done = yield from self._locked(
                ref.leaf_addr + self.layout.lock_offset, self._write_locked,
                ref, key, stored, op, zero_rest=False)
            if done is not None:
                return done

    def _write_locked(self, guard: LockGuard, ref: LeafRef, key: int,
                      stored: int, op: str) -> Generator:
        """:meth:`_write_leaf` under the leaf lock: True / False, or None
        to retry from the top (routed elsewhere, or split first)."""
        layout = self.layout
        leaf_addr, view = yield from self._leaf_for(ref, key)
        moved = view is None or leaf_addr != ref.leaf_addr
        index = None if moved else view.find(key)
        if moved or (index is None and op != "insert"):
            yield from self._release(guard)
            # Routed elsewhere while locking this node (rare): retry.
            return None if moved else False
        split = None
        if op == "update":
            raw_off, raw_bytes = view.write_entry_value(index, key, stored)
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
            items, sibling, fence_high, split = yield from self._split_if_full(
                layout, items, view.sibling, view.fence_high)
            new_view = SortedNodeView.compose(
                layout, items, sibling, view.fence_low, fence_high,
                nv=bump_nibble(view.nv))
            writes = [(leaf_addr, bytes(new_view.span.data))]
        yield from self._release(guard, writes)
        if split is None:
            return True
        yield from self._propagate_split(ref.parent, 1, leaf_addr, *split[:2])
        return None  # ... and retry the insert after the split
