"""Analytical power models (the SoftWatt post-processing layer)."""

from repro.power.array import ArrayEnergyModel, CAMEnergyModel
from repro.power.bitlines import CacheEnergyBreakdown, CacheEnergyModel
from repro.power.clocktree import ClockNetworkModel
from repro.power.conditional import ClockedUnit, gating_factor, unit_activity
from repro.power.dvfs import (
    DVFSEvaluation,
    OperatingPoint,
    evaluate_at,
    operating_point,
    scaled_frequency_hz,
    sweep,
)
from repro.power.thermal import ThermalModel, ThermalProfile
from repro.power.functional import FunctionalUnitEnergyModel
from repro.power.ledger import EnergyLedger
from repro.power.memory_power import MemoryEnergyModel
from repro.power.processor import (
    ProcessorPowerModel,
    r10000_max_power,
)
from repro.power.registry import (
    CATEGORIES,
    POWER_COMPONENTS,
    CoefficientTable,
    REGISTRY,
    PowerComponent,
    PowerRegistry,
)

__all__ = [
    "ArrayEnergyModel",
    "CAMEnergyModel",
    "CacheEnergyBreakdown",
    "CacheEnergyModel",
    "ClockNetworkModel",
    "ClockedUnit",
    "gating_factor",
    "unit_activity",
    "DVFSEvaluation",
    "OperatingPoint",
    "evaluate_at",
    "operating_point",
    "scaled_frequency_hz",
    "sweep",
    "ThermalModel",
    "ThermalProfile",
    "FunctionalUnitEnergyModel",
    "MemoryEnergyModel",
    "CATEGORIES",
    "CoefficientTable",
    "EnergyLedger",
    "POWER_COMPONENTS",
    "PowerComponent",
    "PowerRegistry",
    "REGISTRY",
    "ProcessorPowerModel",
    "r10000_max_power",
]
