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

from repro.baselines.pla import PlaModel
from repro.baselines.sherman import ShermanLeafLayout, ShermanLeafView
from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.family import FamilyClientBase, FamilyIndexBase
from repro.layout import MAX_KEY, StripedSpan, encode_u64
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR

#: Cached bytes per leaf-table address entry.
LEAF_ADDR_BYTES = 8


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


class RolexIndex(FamilyIndexBase):
    """Host-side state of one ROLEX index."""

    def __init__(self, cluster: Cluster,
                 config: Optional[RolexConfig] = None) -> None:
        super().__init__(cluster, config or RolexConfig())
        entry_value = 8 if self.config.indirect_values \
            else self.config.value_size
        self.leaf_layout = ShermanLeafLayout(self.config.span,
                                             self.config.key_size,
                                             entry_value)
        self.model: Optional[PlaModel] = None
        self.leaf_addrs: List[int] = []

    def client(self, ctx: ClientContext) -> "RolexClient":
        return RolexClient(self, ctx)

    # -- bulk load -------------------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]],
                  future_keys: Sequence[int] = ()) -> None:
        """Load *pairs* and pre-train the model on their keys plus
        *future_keys* (keys that workloads will insert later)."""
        config = self.config
        layout = self.leaf_layout
        pairs = self._checked_pairs(pairs)
        loaded = {k for k, _ in pairs}
        all_keys = sorted(loaded | set(future_keys))
        self.model = PlaModel.train(all_keys, config.error)
        per_leaf = max(1, int(config.span * config.bulk_load_factor))
        # Partition the *trained* key space so predicted positions align
        # with leaves; loaded pairs land in their partition, future keys
        # reserve slack.
        key_chunks = [all_keys[i:i + per_leaf]
                      for i in range(0, len(all_keys), per_leaf)] or [[]]
        loaded_values = dict(pairs)
        self.leaf_addrs = [self._host_alloc(layout.total_size)
                           for _ in key_chunks]
        bounds = [0] + [c[0] for c in key_chunks[1:]] + [MAX_KEY]
        for index, chunk in enumerate(key_chunks):
            keys = [key for key in chunk if key in loaded_values]
            values = [loaded_values[key] for key in keys]
            if config.indirect_values:
                values = self._host_alloc_blocks(keys, values)
            items = list(zip(keys, values))
            view = ShermanLeafView.compose(
                layout, items, NULL_ADDR, bounds[index], bounds[index + 1],
                nv=0)
            self._host_write(self.leaf_addrs[index],
                             bytes(view.span.data))
        self.loaded_items = len(pairs)
        self._items_per_leaf = per_leaf

    # -- prediction ---------------------------------------------------------------------

    def candidate_leaves(self, key: int) -> List[int]:
        """Leaf indices covering the model's +-error window for *key*."""
        window = self.model.position_range(key)
        lo = window.start // self._items_per_leaf
        hi = (window.stop - 1) // self._items_per_leaf
        hi = min(hi, len(self.leaf_addrs) - 1)
        return list(range(lo, hi + 1))

    def cache_bytes_needed(self) -> int:
        """CN-side cache: model segments + the leaf address table."""
        model_bytes = self.model.cache_bytes if self.model else 0
        return model_bytes + LEAF_ADDR_BYTES * len(self.leaf_addrs)

    # -- host-side inspection --------------------------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        layout = self.leaf_layout
        out: List[Tuple[int, int]] = []
        for addr in self.leaf_addrs:
            chain = addr
            while chain != NULL_ADDR:
                raw = self._host_read(chain, layout.raw_size)
                view = ShermanLeafView(layout, StripedSpan(raw, 0))
                for key, value in view.items():
                    if self.config.indirect_values:
                        value = self._host_read_block(value)[1]
                    out.append((key, value))
                chain = view.sibling  # synonym pointer
        out.sort()
        return out

    def synonym_chain_lengths(self) -> List[int]:
        """Chain length per leaf (diagnostics for insert behaviour)."""
        layout = self.leaf_layout
        lengths = []
        for addr in self.leaf_addrs:
            length = 0
            chain = addr
            while chain != NULL_ADDR:
                raw = self._host_read(chain, layout.raw_size)
                chain = ShermanLeafView(layout, StripedSpan(raw, 0)).sibling
                length += 1
            lengths.append(length)
        return lengths


class RolexClient(FamilyClientBase):
    """Per-client ROLEX operations."""

    scan = FamilyClientBase._scan_op

    def __init__(self, index: RolexIndex, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        self.layout = index.leaf_layout

    # -------------------------------------------------------------- plumbing

    def _read_leaf_batch(self, addrs: Sequence[int]) -> Generator:
        """Batched whole-leaf READs with per-leaf consistency retries."""
        layout = self.layout
        requests = [(addr, layout.raw_size) for addr in addrs]
        payloads = yield from self.qp.read_batch(requests)
        views = []
        for addr, data in zip(addrs, payloads):
            view = ShermanLeafView(layout, StripedSpan(data, 0))
            if not view.is_consistent():
                view = yield from self._reread_torn(addr)
            views.append(view)
        return views

    def _reread_torn(self, addr: int) -> Generator:
        """Back off and re-READ a leaf until it is consistent."""
        layout = self.layout
        retry = self.retry.start("leaf read {:#x}", self.engine,
                                 self.ctx.rng, addr)
        while retry.check():
            self.qp.stats.retries += 1
            yield from retry.backoff()
            data = yield from self.qp.read(addr, layout.raw_size)
            view = ShermanLeafView(layout, StripedSpan(data, 0))
            if view.is_consistent():
                return view

    def _read_leaf(self, addr: int) -> Generator:
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
        # The window missed (only possible for untrained keys): fall back
        # to widening around the prediction.
        return None, None

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
            view = yield from self._read_leaf(synonym)

    # -------------------------------------------------------------- writes

    def _insert(self, key: int, value: int) -> Generator:
        return self._modify(key, value, delete=False, upsert=True)

    def _update(self, key: int, value: int) -> Generator:
        return self._modify(key, value, delete=False, upsert=False)

    def _delete(self, key: int) -> Generator:
        return self._modify(key, 0, delete=True, upsert=False)

    def _modify(self, key: int, value: int, delete: bool,
                upsert: bool) -> Generator:
        """Locked write on the leaf group covering *key*.

        The base leaf's lock covers its whole synonym chain.
        """
        layout = self.layout
        leaf_index, _view = yield from self._locate(key)
        if leaf_index is None:
            return False
        base_addr = self.index.leaf_addrs[leaf_index]
        lock_addr = base_addr + layout.lock_offset
        yield from self._lock(lock_addr, zero_rest=False)
        try:
            result = yield from self._modify_locked(
                base_addr, lock_addr, key, value, delete, upsert)
            return result
        except GeneratorExit:
            raise  # reclaimed while parked: must not yield restore verbs
        except BaseException:
            yield from self._restore_unlock(lock_addr)
            raise
        finally:
            self._release_local(lock_addr)

    def _modify_locked(self, base_addr: int, lock_addr: int, key: int,
                       value: int, delete: bool, upsert: bool) -> Generator:
        """Owns the base-leaf lock; every path releases it."""
        layout = self.layout
        # Walk the chain: find the key, or the first table with space.
        chain_addr = base_addr
        spacious: Optional[Tuple[int, ShermanLeafView]] = None
        tail_addr = base_addr
        tail_view = None
        while chain_addr != NULL_ADDR:
            view = yield from self._read_leaf(chain_addr)
            position = view.find(key)
            if position is not None:
                if delete:
                    items = view.items()
                    items.pop(position)
                    result = yield from self._rewrite_table(
                        chain_addr, lock_addr, view, items)
                    return result
                stored = value
                if self.config.indirect_values:
                    stored = yield from self._write_block(key, value)
                view.write_entry_value(position, key, stored)
                raw_off, raw_bytes = view.entry_sub_span(position)
                yield from self.qp.write_batch(
                    [(chain_addr + raw_off, raw_bytes)]
                    + self._unlock_writes(lock_addr))
                return True
            if spacious is None and view.count < layout.span:
                spacious = (chain_addr, view)
            tail_addr, tail_view = chain_addr, view
            chain_addr = view.sibling
        if delete or not upsert:
            yield from self._unlock_remote(lock_addr)
            return False
        stored = value
        if self.config.indirect_values:
            stored = yield from self._write_block(key, value)
        if spacious is not None:
            table_addr, view = spacious
            items = view.items()
            items.append((key, stored))
            items.sort()
            result = yield from self._rewrite_table(table_addr, lock_addr,
                                                    view, items)
            return result
        # Whole group full: append a synonym table at the chain tail.
        new_addr = yield from self._alloc(layout.total_size)
        new_view = ShermanLeafView.compose(
            layout, [(key, stored)], NULL_ADDR, tail_view.fence_low,
            tail_view.fence_high, nv=0)
        yield from self.qp.write_batch([
            (new_addr, bytes(new_view.span.data)),
            (new_addr + layout.lock_offset, encode_u64(0)),
        ])
        # Publish: tail.sibling -> new table, then unlock (ordered batch).
        tail_items = tail_view.items()
        rewritten = ShermanLeafView.compose(
            layout, tail_items, new_addr, tail_view.fence_low,
            tail_view.fence_high, nv=bump_nibble(tail_view.nv))
        yield from self.qp.write_batch(
            [(tail_addr, bytes(rewritten.span.data))]
            + self._unlock_writes(lock_addr))
        return True

    def _rewrite_table(self, table_addr: int, lock_addr: int,
                       view: ShermanLeafView,
                       items: List[Tuple[int, int]]) -> Generator:
        layout = self.layout
        new_view = ShermanLeafView.compose(
            layout, items, view.sibling, view.fence_low, view.fence_high,
            nv=bump_nibble(view.nv))
        yield from self.qp.write_batch(
            [(table_addr, bytes(new_view.span.data))]
            + self._unlock_writes(lock_addr))
        return True

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
