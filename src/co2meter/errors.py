"""Exception hierarchy shared across the package, and the JSON input boundary.

Every input file is decoded as UTF-8 by `read_text`, whatever the locale, and
every JSON input file (device specs, LLM configs, BOMs, the carbon-intensity
table, pipelines, fitted-model files, params files) is parsed by `read_json`.
One rule reads a parsed document: a reader checks each object with
`json_object`, which names the keys it lacks, each array with `json_list`,
and each field with `json_number`, `json_int` or `json_name`, then builds its
records; all of them raise ValueError naming the field, the one exception a
reader turns into UserInputError.  A number is a finite JSON number, never a
bool, a string, NaN or Infinity; an integer is an exact int; a name is a
non-empty string.  Dataset lines are parsed one by one in
`predictor.data.read_dataset_jsonl` and checked with the same helpers.

`Record` is the base of the package's value classes: fields from annotations,
a generic `__init__` that binds arguments like a dataclass's and runs
`__post_init__` checks, and `replace` to rebuild one with changes.  It
generates no code, so a cold process pays no `exec` per class.  An argument
list that does not bind (a field missing, unknown or given twice, or too many
positional values) raises a plain TypeError naming the class and its fields:
a reader checks its keys before it builds a record, so that is a programming
error, never malformed input.  A field annotated with one of the aliases
`Positive`, `NonNegative` or `Finite` must hold a number in that range, never
NaN or an infinity: `__init__` refuses any other with ValueError
"<Class>.<field> must be finite and positive, got <value>" (">= 0" /
"finite" for the other two), and `check_range` applies the same rule to a
function's argument.  The aliases are `float` at run time, so the rule reads
the annotation's text, which only `from __future__ import annotations` keeps.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import ClassVar, Sequence


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


def read_text(path: str | Path, what: str) -> str:
    """The file at path decoded as UTF-8, else UserInputError "cannot read
    <what> <path>" caused by the OSError (the asset readers look for it) or
    the UnicodeDecodeError."""
    try:
        return Path(path).read_bytes().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise UserInputError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | Path, what: str) -> object:
    """The parsed document at path, else `read_text`'s UserInputError or one
    worded alike, caused by the parse's JSONDecodeError, ValueError (an int
    too long) or RecursionError (deep nesting)."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
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


def json_object(value: object, field: str, keys: Sequence[str] = ()) -> dict:
    """An object field, or a whole document that must be one, holding every
    one of keys; ValueError naming all the keys it lacks."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} is not a JSON object")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError(f"{field} is missing {', '.join(map(repr, missing))}")
    return value


def json_list(value: object, field: str) -> list:
    """An array field."""
    if not isinstance(value, list):
        raise ValueError(f"{field} is not a JSON array")
    return value


# Annotation aliases for a number's range, checked by `check_range`.
Positive = NonNegative = Finite = float

# Each alias's lower bound, whether the bound itself is in range, and wording.
_RANGES = {
    "Positive": (0.0, False, "finite and positive"),
    "NonNegative": (0.0, True, "finite and >= 0"),
    "Finite": (-math.inf, False, "finite"),
}


def check_range(value: float, alias: str, what: str) -> None:
    """ValueError "<what> must be finite and positive, got <value>" (the
    wording of the alias named `alias`) unless value lies in its range:
    0 < value < inf for Positive, 0 <= value < inf for NonNegative,
    -inf < value < inf for Finite.  NaN is in none of them."""
    low, closed, words = _RANGES[alias]
    if not (low < value < math.inf or closed and value == low):
        raise ValueError(f"{what} must be {words}, got {value}")


_NO_DEFAULT = object()


class Record:
    """A value class whose fields are its annotations, parents first (a
    `ClassVar` is not a field); a class attribute gives a field's default.

    The instance is built by a generic `__init__` that binds positional and
    keyword arguments as a dataclass's does, else raises TypeError, then calls
    `__post_init__`.  Equality is by class and field tuple, the hash is the
    field tuple's, and the repr reads `Name(field=value, ...)`.  A record is
    frozen unless its class says `frozen=False`: assigning or deleting an
    attribute raises AttributeError, and a frozen one is hashable.

    A field annotated `Positive`, `NonNegative` or `Finite` is checked by
    `check_range` once the fields are set and before `__post_init__`, so a
    class states such a range in its annotation rather than in code."""

    _fields: ClassVar[tuple[str, ...]] = ()
    _field_set: ClassVar[frozenset[str]] = frozenset()
    _defaults: ClassVar[dict[str, object]] = {}
    # (position, alias, "<Class>.<field>") of each field with a range alias
    _ranges: ClassVar[tuple[tuple[int, str, str], ...]] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        defaults: dict[str, object] = {}
        kinds: dict[str, str] = {}
        for klass in reversed(cls.__mro__):
            for name, kind in klass.__dict__.get("__annotations__", {}).items():
                if str(kind).split("[", 1)[0] not in ("ClassVar", "typing.ClassVar"):
                    defaults[name] = klass.__dict__.get(name, _NO_DEFAULT)
                    kinds[name] = str(kind)
        cls._fields, cls._field_set = tuple(defaults), frozenset(defaults)
        cls._defaults = {k: v for k, v in defaults.items() if v is not _NO_DEFAULT}
        cls._ranges = tuple((i, kinds[name], f"{cls.__qualname__}.{name}")
                            for i, name in enumerate(defaults) if kinds[name] in _RANGES)
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None  # type: ignore[assignment]

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # defaults, then positional, then keyword values, checked after
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if not (len(args) <= len(fields) and values.keys() == self._field_set
                    and kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(f"{type(self).__qualname__}{fields} cannot bind these arguments")
            args = tuple(map(values.__getitem__, fields))
        # One attribute at a time in field order, as a dataclass does, so the
        # instances of a class share one key table instead of a dict each.
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for i, alias, what in self._ranges:
            check_range(args[i], alias, what)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _values(record: Record) -> tuple:
    # From a list: tuple() over a generator here kept ~0.1 MB more allocated
    # when making 1,000 dataset samples (tracemalloc).
    return tuple([getattr(record, name) for name in record._fields])


def replace(record: Record, **changes: object) -> Record:
    """A new record of the same class with some fields changed, built (and
    checked) by its `__init__`."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})
