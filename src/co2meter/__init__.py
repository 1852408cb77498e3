"""Operational + embodied carbon estimation for LLM workloads on edge devices.

The package models a device as (a) closed-form peripheral energy models,
(b) a per-layer transformer kernel graph with roofline timing, (c) a learned
two-phase graph-network energy predictor, (d) a bill-of-materials embodied
carbon model, and (e) carbon accounting that ties the pieces into per-request
footprints and break-even analyses.  The `co2meter` CLI exposes each piece.
"""

__version__ = "0.1.0"

import importlib

from . import accounting, assets, device_models, embodied, workload
from .errors import (
    CO2MeterError,
    ConfigurationError,
    FitError,
    NoBreakEvenError,
    TrainingDivergedError,
    UserInputError,
)

__all__ = [
    "accounting",
    "assets",
    "device_models",
    "embodied",
    "predictor",
    "workload",
    "CO2MeterError",
    "ConfigurationError",
    "FitError",
    "NoBreakEvenError",
    "TrainingDivergedError",
    "UserInputError",
    "__version__",
]


def __getattr__(name: str):
    """Import the numpy-backed `predictor` on first access (PEP 562)."""
    if name != "predictor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.predictor")
