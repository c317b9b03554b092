"""Deterministic kinetic chemotaxis simulator with internal-state adaptation.

Core pieces: a validated phase-space scenario builder (`model`), a
spectral/Green-kernel signal solver (`elliptic`), an operator-split
kinetic stepper (`kinetic`), characteristic/Picard reference solvers
(`oracle`), the fast-adaptation limit model and eps study (`limit`),
norm/envelope monitors (`diagnostics`) and a CLI (`cli`).
"""

from .config import RunConfig, parse_config
from .fields import DensityField, SignalField
from .model import (AdaptationModel, InitialData, ModelSpec, PhaseGrid,
                    TurningModel, build_scenario)

__all__ = [
    "AdaptationModel",
    "DensityField",
    "InitialData",
    "ModelSpec",
    "PhaseGrid",
    "RunConfig",
    "SignalField",
    "TurningModel",
    "build_scenario",
    "parse_config",
]

__version__ = "0.1.0"
