"""CHIME: the paper's primary contribution.

Public entry points: :class:`~repro.core.chime.ChimeIndex` (host-side tree
state, bulk loading) and :class:`~repro.core.chime.ChimeClient` (per-client
operations, obtained via ``index.client(ctx)``).
"""

from repro.core.btree_base import BTreeClientBase, BTreeIndexBase, LeafRef, TraversalError
from repro.core.chime import ChimeClient, ChimeIndex
from repro.core.family import FamilyClientBase, FamilyIndexBase
from repro.core.hotspot import HotspotBuffer
from repro.core.learned import LearnedChimeClient, LearnedChimeIndex
from repro.core.varkey import VarKeyChimeClient, VarKeyChimeIndex
from repro.core.node_layout import (
    LeafLayout,
    SortedNodeLayout,
    VacancyBitmap,
    pack_lock_word,
    unpack_lock_word,
)
from repro.core.nodes import LeafNodeView, ParsedInternal, SortedNodeView

__all__ = [
    "BTreeClientBase",
    "BTreeIndexBase",
    "ChimeClient",
    "ChimeIndex",
    "FamilyClientBase",
    "FamilyIndexBase",
    "HotspotBuffer",
    "LeafLayout",
    "LearnedChimeClient",
    "LearnedChimeIndex",
    "LeafNodeView",
    "LeafRef",
    "ParsedInternal",
    "SortedNodeLayout",
    "SortedNodeView",
    "TraversalError",
    "VacancyBitmap",
    "VarKeyChimeClient",
    "VarKeyChimeIndex",
    "pack_lock_word",
    "unpack_lock_word",
]
