"""ROLEX (FAST '23): the state-of-the-art learned index on DM.

Machine-learning models (PLA segments, :mod:`repro.baselines.pla`) live
on each CN as the "cache": they map a key to a predicted position, whose
±error window covers up to two span-16 *leaf tables* that are fetched
per lookup — the 2× read amplification the CHIME paper measures (§3.1.1,
§5.2).  Leaf tables reuse Sherman's sorted-array layout, with the sibling
pointer repurposed as a **synonym pointer**: keys that do not fit their
predicted leaf go to chained synonym tables (insertion with bias and
data-movement constraints keep the model valid without retraining).

Following the paper's methodology (§5.1 footnote 3), models are
pre-trained on all keys — bulk loading accepts ``future_keys`` so
workloads with inserts (YCSB D) have model coverage and reserved slots,
and ROLEX is excluded from the 100 %-insert LOAD workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.chime import LockGuard
from repro.core.family import FamilyClientBase
from repro.baselines.model_routed import (
    ModelRoutedClientBase,
    ModelRoutedIndexBase,
)
from repro.core.node_layout import SortedNodeLayout
from repro.core.nodes import SortedNodeView
from repro.layout import StripedSpan
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR


@dataclass(frozen=True)
class RolexConfig:
    """ROLEX parameters (paper defaults: span 16, model error 16)."""

    span: int = 16
    error: int = 16
    key_size: int = 8
    value_size: int = 8
    indirect_values: bool = False
    #: Reserved slack per leaf for pre-trained future inserts.
    bulk_load_factor: float = 0.75


class RolexIndex(ModelRoutedIndexBase):
    """Host-side state of one ROLEX index."""

    def __init__(self, cluster: Cluster,
                 config: Optional[RolexConfig] = None) -> None:
        config = config or RolexConfig()
        entry_value = 8 if config.indirect_values else config.value_size
        super().__init__(
            cluster, config,
            SortedNodeLayout(config.span, config.key_size, entry_value),
            config.error, config.bulk_load_factor)

    def client(self, ctx: ClientContext) -> "RolexClient":
        return RolexClient(self, ctx)

    def _host_write_leaf(self, addr: int, items: Sequence[Tuple[int, int]],
                         fence_low: int, fence_high: int) -> None:
        view = SortedNodeView.compose(
            self.leaf_layout, self._host_stored(items), NULL_ADDR, fence_low,
            fence_high)
        self._host_write(addr, bytes(view.span.data))

    def _host_table(self, addr: int) -> Tuple[List[Tuple[int, int]], int]:
        layout = self.leaf_layout
        view = SortedNodeView(layout, StripedSpan(
            self._host_read(addr, layout.raw_size), 0))
        items = view.items()
        if self.config.indirect_values:
            items = [(key, self._host_read_block(block)[1])
                     for key, block in items]
        return items, view.sibling  # the synonym pointer


class RolexClient(ModelRoutedClientBase):
    """Per-client ROLEX operations."""

    scan = FamilyClientBase._scan_op
    #: The lock word carries nothing but the lock bit.
    zero_rest = False

    # -------------------------------------------------------------- plumbing

    def _read_leaf_batch(self, addrs: Sequence[int]) -> Generator:
        """Batched whole-leaf READs with per-leaf consistency retries."""
        layout = self.layout
        payloads = yield from self.qp.read_batch(
            [(addr, layout.raw_size) for addr in addrs])
        views = []
        for addr, data in zip(addrs, payloads):
            view = yield from self._read_sorted_node(addr, layout, raw=data)
            views.append(view)
        return views

    def _fetch_table(self, addr: int) -> Generator:
        views = yield from self._read_leaf_batch([addr])
        return views[0]

    def _locate(self, key: int) -> Generator:
        """Fetch the model's candidate leaves; returns (leaf_index, views)
        where leaf_index is the candidate whose fences cover *key*."""
        candidates = self.index.candidate_leaves(key)
        addrs = [self.index.leaf_addrs[i] for i in candidates]
        views = yield from self._read_leaf_batch(addrs)
        for leaf_index, view in zip(candidates, views):
            if view.fence_low <= key < view.fence_high:
                return leaf_index, view
        # The window missed (only possible for untrained keys).
        return None, None

    def _locate_base(self, key: int) -> Generator:
        leaf_index, _view = yield from self._locate(key)
        return None if leaf_index is None \
            else self.index.leaf_addrs[leaf_index]

    # -------------------------------------------------------------- search

    def _search(self, key: int) -> Generator:
        leaf_index, view = yield from self._locate(key)
        if view is None:
            return None
        while True:
            position = view.find(key)
            if position is not None:
                _k, value = view.entry(position)
                if self.config.indirect_values:
                    value = yield from self._read_block(value, key)
                return value
            synonym = view.sibling
            if synonym == NULL_ADDR:
                return None
            view = yield from self._fetch_table(synonym)

    # -------------------------------------------------------------- writes

    def _probe(self, addr: int, key: int) -> Generator:
        table = yield from self._fetch_table(addr)
        return (table, table.find(key), table.count < self.layout.span,
                table.sibling)

    def _stored(self, key: int, value: int) -> Generator:
        """What a leaf entry holds for *value*: the value, or the
        address of the fresh block it is written to."""
        if self.config.indirect_values:
            value = yield from self._write_block(key, value)
        return value

    def _modify_entry(self, guard: LockGuard, addr: int,
                      table: SortedNodeView, position: int, key: int,
                      value: int, delete: bool) -> Generator:
        if delete:
            items = table.items()
            items.pop(position)
            yield from self._rewrite_table(guard, addr, table, items,
                                           table.sibling)
            return
        stored = yield from self._stored(key, value)
        raw_off, raw_bytes = table.write_entry_value(position, key, stored)
        yield from self.qp.write_batch(
            [(addr + raw_off, raw_bytes)]
            + self._unlock_writes(guard.lock_addr, guard.release_word()))

    def _insert_into(self, guard: LockGuard, addr: int,
                     table: SortedNodeView, key: int,
                     value: int) -> Generator:
        stored = yield from self._stored(key, value)
        items = table.items()
        items.append((key, stored))
        items.sort()
        yield from self._rewrite_table(guard, addr, table, items,
                                       table.sibling)
        return True

    def _append_synonym(self, guard: LockGuard, tail_addr: int,
                        tail: SortedNodeView, key: int,
                        value: int) -> Generator:
        stored = yield from self._stored(key, value)
        new_addr, _view = yield from self._write_fresh_node(
            self.layout, [(key, stored)], NULL_ADDR, tail.fence_low,
            tail.fence_high)
        # Publish: tail.sibling -> new table, then unlock (ordered batch).
        yield from self._rewrite_table(guard, tail_addr, tail, tail.items(),
                                       new_addr)

    def _rewrite_table(self, guard: LockGuard, addr: int,
                       table: SortedNodeView, items: List[Tuple[int, int]],
                       sibling: int) -> Generator:
        """Node-write *table* holding *items*, batched with the unlock."""
        new_view = SortedNodeView.compose(
            self.layout, items, sibling, table.fence_low, table.fence_high,
            nv=bump_nibble(table.nv))
        yield from self.qp.write_batch(
            [(addr, bytes(new_view.span.data))]
            + self._unlock_writes(guard.lock_addr, guard.release_word()))

    # -------------------------------------------------------------- scan

    def _scan(self, key: int, count: int) -> Generator:
        """Read consecutive leaf tables (plus synonym chains) in key
        order; ROLEX's small span makes this its best workload (§5.2)."""
        leaf_index, first_view = yield from self._locate(key)
        if first_view is None:
            return []
        results: List[Tuple[int, int]] = []
        per_leaf = max(1, self.index._items_per_leaf)
        cursor = leaf_index
        views = [first_view]
        pending = [first_view.sibling] if first_view.sibling != NULL_ADDR \
            else []
        while True:
            for view in views:
                results.extend((k, v) for k, v in view.items() if k >= key)
            if pending:
                views = yield from self._read_leaf_batch(pending)
                pending = [v.sibling for v in views
                           if v.sibling != NULL_ADDR]
                continue
            if len(results) >= count or cursor + 1 >= len(self.index.leaf_addrs):
                break
            take = max(1, (count - len(results)) // per_leaf + 1)
            nxt = self.index.leaf_addrs[cursor + 1:cursor + 1 + take]
            cursor += len(nxt)
            views = yield from self._read_leaf_batch(nxt)
            pending = [v.sibling for v in views if v.sibling != NULL_ADDR]
        results.sort()
        results = results[:count]
        if self.config.indirect_values:
            results = yield from self._resolve_indirect(results)
        return results
