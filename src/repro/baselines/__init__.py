"""Baseline DM range indexes the paper compares CHIME against."""

from repro.baselines.flexkv import FlexKVClient, FlexKVConfig, FlexKVIndex
from repro.baselines.marlin import MarlinClient, MarlinIndex
from repro.baselines.model_routed import ModelRoutedClientBase, ModelRoutedIndexBase
from repro.baselines.outback import OutbackClient, OutbackConfig, OutbackIndex
from repro.baselines.pla import PlaModel, PlaSegment
from repro.baselines.rolex import RolexClient, RolexConfig, RolexIndex
from repro.baselines.sherman import ShermanClient, ShermanConfig, ShermanIndex
from repro.baselines.smart import (
    SmartClient,
    SmartConfig,
    SmartIndex,
)

__all__ = [
    "FlexKVClient",
    "FlexKVConfig",
    "FlexKVIndex",
    "MarlinClient",
    "MarlinIndex",
    "ModelRoutedClientBase",
    "ModelRoutedIndexBase",
    "OutbackClient",
    "OutbackConfig",
    "OutbackIndex",
    "PlaModel",
    "PlaSegment",
    "RolexClient",
    "RolexConfig",
    "RolexIndex",
    "ShermanClient",
    "ShermanConfig",
    "ShermanIndex",
    "SmartClient",
    "SmartConfig",
    "SmartIndex",
]
