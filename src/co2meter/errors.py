"""Exception hierarchy shared across the package, and the JSON input boundary.

Every JSON input file (device specs, LLM configs, BOMs, the carbon-intensity
table, pipelines, fitted-model files, params files) is read by `read_json`;
its fields are checked by `json_number`, `json_int`, `json_name` and
`json_object`, which raise ValueError naming the field.  The rule: a number
is a finite JSON number, never a bool, a string, NaN or Infinity; an integer
is an exact int; a name is a non-empty string.  Dataset lines are parsed one
by one in `predictor.data.read_dataset_jsonl` and checked with the same
helpers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


class CO2MeterError(Exception):
    """Base class for all package-specific errors."""


class UserInputError(CO2MeterError):
    """Malformed user-supplied data (bad CSV/JSON, unknown names, bad values)."""


class FitError(UserInputError):
    """A model fit could not be performed (rank-deficient or invalid samples)."""


class ConfigurationError(UserInputError):
    """A pipeline or command references a model/asset that is not available."""


class NoBreakEvenError(CO2MeterError):
    """Break-even is undefined because the energy delta is not positive."""


class TrainingDivergedError(CO2MeterError):
    """Training aborted because the loss became non-finite."""


def read_json(path: str | Path, what: str) -> object:
    """The parsed document at path, else UserInputError "cannot read <what>
    <path>" caused by the OSError (the asset readers look for it) or the parse's
    JSONDecodeError, ValueError (an int too long) or RecursionError (deep nesting)."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise UserInputError(f"cannot read {what} {path}: {exc}") from exc


def json_number(value: object, field: str) -> int | float:
    """A number field: an int or float that a finite float can hold, never a
    bool, a string, NaN or Infinity, so `true` is refused rather than read as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} {value!r} is not a number")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"{field} {value!r} is not a finite number")
    return value


def json_int(value: object, field: str) -> int:
    """An integer field: an exact int, never a float or a bool, so a count is
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} {value!r} is not an integer")
    return value


def json_name(value: object, field: str) -> str:
    """A name field: a non-empty string, so `null` is not printed as a name."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{field} {value!r} is not a non-empty string")
    return value


def json_object(value: object, field: str) -> dict:
    """An object field, or a whole document that must be one."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} is not a JSON object")
    return value
