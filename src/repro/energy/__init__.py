"""Event-based energy model (GPUWattch-style accounting).

See :mod:`repro.energy.model`.
"""

from repro.energy.model import EnergyBreakdown, EnergyModel, PASCAL_ENERGY_MODEL

__all__ = [
    "EnergyModel",
    "EnergyBreakdown",
    "PASCAL_ENERGY_MODEL",
]
