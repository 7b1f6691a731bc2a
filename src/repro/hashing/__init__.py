"""Hashing schemes: hopscotch (:mod:`repro.hashing.hopscotch`, used by
CHIME's leaves) and the closed/open-addressing comparison points of
Figure 3d (:mod:`repro.hashing.loadfactor`), each imported from its own
module."""
