"""Three-level optimistic synchronization — the reader-side checks (§4.1).

Writers maintain versions through :class:`~repro.core.nodes.LeafNodeView`
/ :class:`~repro.core.nodes.InternalNodeView`; this module holds what a
lock-free reader does with a fetched span:

1. **node-level check** — every NV nibble in the fetched span(s) must
   agree, else a node write was torn across the read;
2. **entry-level check** — within each fetched entry, all EV nibbles must
   agree, else an entry/hop write was torn inside the entry;
3. **bitmap check** — the hopscotch bitmap stored in the home entry must
   equal the bitmap reconstructed from the actual keys fetched, else the
   read interleaved with an in-flight hop (§4.1.2).

A failed check raises :class:`~repro.errors.TornReadError`; operations
catch it and retry with backoff.

Production reads do not come through the functions here: a lock-free
read — a neighbourhood, one speculative entry, a scan's whole leaf —
runs the same three checks through its compiled
:class:`~repro.core.node_layout.ReadShape`.  :func:`check_nv_uniform`,
:func:`collect_leaf_nv`, :func:`check_entry_evs`,
:func:`check_hopscotch_bitmap` and :func:`reconstruct_bitmap` are the
reference implementations the property tests hold the shapes to
(``tests/test_core_layout.py``, ``tests/test_scan.py``); an AST test
keeps the rest of ``src/repro`` from calling them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.core.nodes import LeafNodeView
from repro.errors import TornReadError
from repro.layout import StripedSpan
from repro.obs.bus import BUS
from repro.retry import DEFAULT_RETRY_POLICY

def backoff_delay(attempt: int, rng=None, jitter: float = 0.0) -> float:
    """:data:`~repro.retry.DEFAULT_RETRY_POLICY`'s linear backoff with an
    explicit *jitter* (the queued-lock poll path picks its own).

    With ``jitter`` > 0 and a seeded ``rng``, the delay is scaled by a
    uniform factor in ``[1 - jitter, 1 + jitter]`` so contending clients
    do not retry in lockstep convoys; jitter drawn from a per-client
    seeded rng stays reproducible run to run.
    """
    policy = DEFAULT_RETRY_POLICY
    delay = policy.base_backoff * min(attempt + 1, policy.linear_cap)
    if jitter and rng is not None:
        delay *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
    return delay


def check_nv_uniform(nv_values: Iterable[int]) -> None:
    """Level 1: all node-level version nibbles must match."""
    values = set(nv_values)
    if len(values) > 1:
        if BUS.active:
            BUS.emit("sync.torn", level=1)
        raise TornReadError(f"node-level versions disagree: {sorted(values)}")


def check_entry_evs(view: LeafNodeView, indices: Sequence[int]) -> None:
    """Level 2: EV nibbles within each fetched entry must match."""
    for index in indices:
        evs = view.entry_evs(index)
        first = evs[0]
        for ev in evs:
            if ev != first:
                if BUS.active:
                    BUS.emit("sync.torn", level=2)
                raise TornReadError(
                    f"entry {index} entry-level versions disagree: "
                    f"{sorted(set(evs))}")


def reconstruct_bitmaps(view: LeafNodeView, hash_home) -> List[int]:
    """status(keys) of every home entry at once, from a whole-leaf view."""
    layout = view.layout
    span = layout.span
    bitmaps = [0] * span
    for pos, key in enumerate(view.keys()):
        if key:
            home = hash_home(key)
            offset = (pos - home) % span
            if offset < layout.neighborhood:
                bitmaps[home] |= 1 << offset
    return bitmaps


def reconstruct_bitmap(view: LeafNodeView, home: int,
                       hash_home) -> int:
    """Rebuild status(keys): which neighborhood entries hold keys whose
    home is *home*, from the actual fetched keys."""
    layout = view.layout
    bitmap = 0
    for offset in range(layout.neighborhood):
        pos = (home + offset) % layout.span
        entry = view.entry(pos)
        if entry.occupied and hash_home(entry.key) == home:
            bitmap |= 1 << offset
    return bitmap


def check_hopscotch_bitmap(view: LeafNodeView, home: int, hash_home) -> None:
    """Level 3: fetched home bitmap must equal the reconstructed one."""
    stored = view.entry(home).bitmap
    actual = reconstruct_bitmap(view, home, hash_home)
    if stored != actual:
        if BUS.active:
            BUS.emit("sync.torn", level=3)
        raise TornReadError(
            f"hopscotch bitmap of home {home} is {stored:#06x}, keys say "
            f"{actual:#06x} (in-flight hop)")


def collect_leaf_nv(view: LeafNodeView, indices: Sequence[int]) -> List[int]:
    """NV nibbles visible in a leaf view: line bytes + the version bytes
    of the given (fully fetched) entries.

    A whole-leaf image read from raw offset 0 answers through the
    layout's image codec; partial and segmented views go entry by entry.
    """
    span = view.span
    if (type(span) is StripedSpan and span.base == 0
            and len(indices) == view.layout.span):
        return view.image_nv()
    values = list(span.nv_nibbles())
    for index in indices:
        values.append(view.entry_nv(index))
    return values
