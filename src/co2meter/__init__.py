"""Operational + embodied carbon estimation for LLM workloads on edge devices.

The package models a device as (a) closed-form peripheral energy models,
(b) a per-layer transformer kernel graph with roofline timing, (c) a learned
two-phase graph-network energy predictor, (d) a bill-of-materials embodied
carbon model, and (e) carbon accounting that ties the pieces into per-request
footprints and break-even analyses.  The `co2meter` CLI exposes each piece.
"""

__version__ = "0.1.0"

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


_SUBMODULES = frozenset(
    ("accounting", "assets", "device_models", "embodied", "predictor", "workload")
)


def __getattr__(name: str):
    """Import a submodule on first access (PEP 562), so that each CLI
    subcommand loads only the modules it runs."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is reported by -X importtime
    __import__(f"{__name__}.{name}")
    return globals()[name]
