"""Three-level optimistic synchronization — what is left of it outside
the compiled read shapes (§4.1).

A lock-free read — a neighbourhood, one speculative entry, a scan's
whole leaf — runs the node-level, entry-level and hopscotch-bitmap
checks through its compiled :class:`~repro.core.node_layout.ReadShape`;
the entry-by-entry reference implementations the property tests hold
the shapes to live in ``tests/oracles.py``.  This module keeps the two
helpers production code calls: the retry backoff with explicit jitter,
and the bitmap reconstruction a lock holder uses to repair a leaf.
"""

from __future__ import annotations

from typing import List

from repro.core.nodes import LeafNodeView
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
