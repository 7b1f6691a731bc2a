"""The model-routed leaf group: what ROLEX and CHIME-Learned share.

Both route a key through a PLA model (:mod:`repro.baselines.pla`) onto a
flat array of leaves; the model's ±error window names the *candidate*
leaves, and the one whose fences cover the key heads a **leaf group** —
a base leaf plus the chain of synonym tables hung off its sibling
pointer, all guarded by the base leaf's lock.  Models are pre-trained
on loaded ∪ future keys (§5.1 fn. 3), so leaves never split and fences
never move — which lets a key the model never saw be found by walking
the fences from the window.  Training, chunking, the candidate window,
the fence walk, cache accounting, the host-side chain walk, the scan
and the locked write are written here once; a family supplies how a
table is laid out, fetched and written, and its leaf format
(:mod:`repro.core.leaf_ops`) how a scan decodes one.
"""

from __future__ import annotations

from itertools import islice
from typing import Generator, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.pla import PlaModel
from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.btree_base import TraversalError
from repro.core.family import FamilyClientBase, FamilyIndexBase, LockGuard
from repro.layout import MAX_KEY
from repro.memory import NULL_ADDR

#: Cached bytes per leaf address (the CN-side leaf table).
LEAF_ADDR_BYTES = 8


class ModelRoutedIndexBase(FamilyIndexBase):
    """Host-side state: PLA model + flat array of base leaves.

    A family sets ``leaf_layout`` and supplies ``_host_write_leaf(addr,
    items, fence_low, fence_high)`` and ``_host_table(addr) -> (pairs,
    synonym address)``.
    """

    def __init__(
        self, cluster: Cluster, config, leaf_layout, error: int, bulk_load_factor: float
    ) -> None:
        super().__init__(cluster, config)
        self.leaf_layout = leaf_layout
        self.error = error
        #: Trained keys per leaf: the rest of the span is slack for
        #: synonyms and untrained inserts.
        self._items_per_leaf = max(1, int(leaf_layout.span * bulk_load_factor))
        self.model: Optional[PlaModel] = None
        self.leaf_addrs: List[int] = []

    # -- bulk load ------------------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]], future_keys: Sequence[int] = ()) -> None:
        """Load *pairs* and pre-train the model on their keys plus
        *future_keys* (keys that workloads will insert later)."""
        pairs = self._checked_pairs(pairs)
        loaded = dict(pairs)
        all_keys = sorted(set(loaded) | set(future_keys))
        self.model = PlaModel.train(all_keys, self.error)
        per_leaf = self._items_per_leaf
        # Partition the *trained* key space so predicted positions align
        # with leaves; loaded pairs land in their partition, future keys
        # reserve slack.
        chunks = [all_keys[i : i + per_leaf] for i in range(0, len(all_keys), per_leaf)] or [[]]
        self.leaf_addrs = [self._host_alloc(self.leaf_layout.total_size) for _ in chunks]
        bounds = [0] + [chunk[0] for chunk in chunks[1:]] + [MAX_KEY]
        for index, chunk in enumerate(chunks):
            items = [(key, loaded[key]) for key in chunk if key in loaded]
            self._host_write_leaf(self.leaf_addrs[index], items, bounds[index], bounds[index + 1])
        self.loaded_items = len(pairs)

    # -- prediction / accounting ---------------------------------------------------

    def candidate_leaves(self, key: int) -> List[int]:
        """Leaf indices covering the model's +-error window for *key*."""
        window = self.model.position_range(key)
        lo = window.start // self._items_per_leaf
        hi = min((window.stop - 1) // self._items_per_leaf, len(self.leaf_addrs) - 1)
        return list(range(lo, hi + 1))

    def cache_bytes_needed(self) -> int:
        """CN-side cache: model segments + the leaf address table."""
        model_bytes = self.model.cache_bytes if self.model else 0
        return model_bytes + LEAF_ADDR_BYTES * len(self.leaf_addrs)

    # -- host-side inspection --------------------------------------------------------

    def _host_chains(self) -> List[List[List[Tuple[int, int]]]]:
        """Per leaf group, the pairs of each table along its chain."""
        chains = []
        for addr in self.leaf_addrs:
            chain = []
            while addr != NULL_ADDR:
                pairs, addr = self._host_table(addr)
                chain.append(pairs)
            chains.append(chain)
        return chains

    def collect_items(self) -> List[Tuple[int, int]]:
        return sorted(pair for chain in self._host_chains() for pairs in chain for pair in pairs)

    def lock_lines(self) -> Iterator[Tuple[str, int]]:
        """Every table's line along every chain: a base leaf's lock
        guards its chain, and a synonym's is never taken."""
        for addr in self.leaf_addrs:
            while addr != NULL_ADDR:
                yield f"leaf {addr:#x}", addr + self.leaf_layout.lock_offset
                _pairs, addr = self._host_table(addr)

    def synonym_chain_lengths(self) -> List[int]:
        """Chain length per leaf (diagnostics for insert behaviour)."""
        return [len(chain) for chain in self._host_chains()]


class ModelRoutedClientBase(FamilyClientBase):
    """The fence walk to a key's leaf group, the scan from it, and the
    locked write on it — lock, walk the chain (key found: modify; else
    remember the first table with room, and the tail), then insert into
    the roomy table or append a synonym — over per-family hooks:

    * ``_read_fenced(addr, key)`` — read one base leaf; the read's
      ``fences`` are its ``(fence_low, fence_high)``;
    * ``_probe(addr, key)`` — read one table of the chain under the lock:
      ``(table, position of key or None, has room, synonym address)``;
    * ``_modify_entry(guard, addr, table, position, key, value, delete)``,
      ``_insert_into(guard, addr, table, key, value) -> bool`` (False:
      the table turned out not to take the key) and
      ``_append_synonym(guard, tail_addr, tail, key, value)`` — the
      three writes, each releasing ``guard``'s lock behind its last.
    """

    scan = FamilyClientBase._scan_op
    #: Whether the lock CAS zeroes the rest of the lock word (its holder
    #: rewrites the metadata there at unlock) or leaves it alone.
    zero_rest = True

    def __init__(self, index: ModelRoutedIndexBase, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        self.layout = index.leaf_layout
        self._leaf_keys = index._items_per_leaf  # the scans' batch rule

    def _insert(self, key: int, value: int) -> Generator:
        return self._write_group(key, value, delete=False, upsert=True)

    def _update(self, key: int, value: int) -> Generator:
        return self._write_group(key, value, delete=False, upsert=False)

    def _delete(self, key: int) -> Generator:
        return self._write_group(key, 0, delete=True, upsert=False)

    def _locate(self, key: int) -> Generator:
        """``(leaf index, read)`` of the leaf group covering *key*: the
        walk, reading the window a leaf at a time (ROLEX batches it)."""
        return self._covering(key)

    def _covering(self, key: int, fetched: Sequence = ()) -> Generator:
        """``(leaf index, read)`` of the leaf whose fences cover *key*:
        from the model's first candidate (*fetched* holds the window's
        reads already taken, ``_read_fenced`` reads any other leaf), each
        leaf that misses points the way — right while *key* is at or past
        its high fence, left otherwise — so an untrained key the window
        missed is found one read per leaf.  Fences never move, so the
        walk ends; more steps than leaves is a :class:`TraversalError`.
        """
        addrs = self.index.leaf_addrs
        leaf_index = first = self.index.candidate_leaves(key)[0]
        for _step in range(len(addrs)):
            if 0 <= leaf_index - first < len(fetched):
                read = fetched[leaf_index - first]
            else:
                read = yield from self._read_fenced(addrs[leaf_index], key)
            low, high = read.fences
            if low <= key < high:
                return leaf_index, read
            leaf_index += 1 if key >= high else -1
        raise TraversalError(f"no leaf's fences cover key {key}")

    def _write_group(self, key: int, value: int, delete: bool, upsert: bool) -> Generator:
        """Locked write on the leaf group covering *key*; the base
        leaf's lock covers its whole synonym chain."""
        leaf_index, _read = yield from self._locate(key)
        base_addr = self.index.leaf_addrs[leaf_index]
        result = yield from self._locked(
            base_addr + self.layout.lock_offset,
            lambda guard: self._write_chain(guard, base_addr, key, value, delete, upsert),
            zero_rest=self.zero_rest,
        )
        return result

    def _write_chain(
        self, guard: LockGuard, base_addr: int, key: int, value: int, delete: bool, upsert: bool
    ) -> Generator:
        """Walk base + synonym chain under the base lock: find the key,
        or the first table with room and the tail."""
        chain_addr = base_addr
        roomy = None
        while chain_addr != NULL_ADDR:
            table, position, room, synonym = yield from self._probe(chain_addr, key)
            if position is not None:
                yield from self._modify_entry(
                    guard, chain_addr, table, position, key, value, delete
                )
                return True
            if roomy is None and room:
                roomy = (chain_addr, table)
            tail_addr, tail = chain_addr, table
            chain_addr = synonym
        if delete or not upsert:
            yield from self._release(guard)
            return False
        if roomy is not None:
            done = yield from self._insert_into(guard, *roomy, key, value)
            if done:
                return True
        # Whole group full: append a synonym table at the chain tail.
        yield from self._append_synonym(guard, tail_addr, tail, key, value)
        return True

    def _scan_once(self, key: int, count: int) -> Generator:
        """The model's window in one batch, the fence walk picking the
        covering leaf out of it; then further leaves by the batch rule
        beside the synonyms of every table read."""
        addrs = self.index.leaf_addrs
        window = self.index.candidate_leaves(key)
        first, cursor = window[0], window[-1] + 1
        leaves = yield from self._phase(
            "leaf_read", self._read_scan_leaves(addrs[first:cursor], key))
        leaf_index, _read = yield from self._covering(
            key, [read for _pairs, read in leaves])
        if first <= leaf_index < cursor:
            leaves = leaves[leaf_index - first:]  # none >= *key* left of it
        else:  # an untrained key the window missed: its leaf, read whole
            leaves = yield from self._phase(
                "leaf_read", self._read_scan_leaves([addrs[leaf_index]], key))
            cursor = leaf_index + 1
        # Base leaves past the first hold only keys >= *key*: whole ones.
        whole, results = leaves[1:], []
        while True:
            for pairs, _read in leaves:
                results.extend(pairs)
            for pairs, _read in whole:
                self._note_leaf_keys(len(pairs))
            bases = self._more_leaves(len(results), count,
                                      islice(addrs, cursor, None))
            batch = bases + [read.sibling for _pairs, read in leaves
                             if read.sibling != NULL_ADDR]
            if not batch:
                return results
            cursor += len(bases)
            leaves = yield from self._phase(
                "leaf_read", self._read_scan_leaves(batch, key))
            whole = leaves[:len(bases)]
