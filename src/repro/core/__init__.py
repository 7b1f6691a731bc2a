"""CHIME: the paper's primary contribution.

Public entry points: :class:`~repro.core.chime.ChimeIndex` (host-side tree
state, bulk loading) and :class:`~repro.core.chime.ChimeClient` (per-client
operations, obtained via ``index.client(ctx)``), and the two variants
:class:`~repro.core.learned.LearnedChimeIndex` (§5.3) and
:class:`~repro.core.varkey.VarKeyChimeIndex` (§4.5).
"""

from repro.core.chime import ChimeClient, ChimeIndex
from repro.core.learned import LearnedChimeIndex
from repro.core.varkey import VarKeyChimeIndex

__all__ = ["ChimeClient", "ChimeIndex", "LearnedChimeIndex", "VarKeyChimeIndex"]
