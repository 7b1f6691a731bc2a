"""Marlin (ICPP '23): a concurrent, write-optimized B+ tree on DM for
variable-length values.

Modelled relative to Sherman: values live in indirect blocks (an
8-byte pointer per leaf entry), written before the leaf lock is taken,
and every write — update included — runs Sherman's locked leaf path.
Marlin's lock-free update (a CAS on the entry's value pointer) is not
modelled: a locked insert rewrites the leaf from an image read before
such a CAS and puts the old pointer back (DESIGN §6).
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.sherman import ShermanConfig, ShermanIndex
from repro.cluster.cluster import Cluster


class MarlinIndex(ShermanIndex):
    """Host-side state of a Marlin tree (Sherman + indirect values)."""

    def __init__(self, cluster: Cluster,
                 config: Optional[ShermanConfig] = None) -> None:
        base = config or ShermanConfig()
        if not base.indirect_values:
            base = ShermanConfig(span=base.span, value_size=base.value_size,
                                 indirect_values=True,
                                 bulk_load_factor=base.bulk_load_factor)
        super().__init__(cluster, base)

