"""CHIME: the paper's primary contribution.

Entry points, imported from their own modules (this package re-exports
nothing, so a point loads only the family it builds):
:class:`repro.core.chime.ChimeIndex` (host-side tree state, bulk
loading) and :class:`repro.core.chime.ChimeClient` (per-client
operations, obtained via ``index.client(ctx)``), and the two variants
:class:`repro.core.learned.LearnedChimeIndex` (§5.3) and
:class:`repro.core.varkey.VarKeyChimeIndex` (§4.5).
"""
