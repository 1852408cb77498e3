"""Loading of the inputs a user names: a bundled asset or a file.

`load_device`, `load_llm_config`, `load_bom` and `load_demo_pipeline` take
a file path or a bundled name, and only `_looks_like_path` tells them apart:
a value that ends in `.json`, contains `/` or names an existing file is a path.
A relative path is relative to the working directory, except in a pipeline
file or a dataset line: its `config` and `device` strings are read, the
existing-file test included, against that file's directory (the `base`
argument).  Those two entries may also be inline objects, the parsed JSON of
a config or a device: `load_llm_config` and `load_device` take any value that
is not a string as one, and read it with `workload.config_from_json` /
`device_from_json`, so a non-object is refused there by name.

The asset root defaults to the package's `assets/` directory and can be
overridden with the CO2METER_ASSETS environment variable, e.g. to swap in a
locally measured set of device specs without touching the install.

A bundled device, LLM config or BOM is parsed once per process and re-read
when its file's stat signature changes, CPython's rule for source-timestamp
bytecode: an edit that keeps both size and mtime goes unseen.  Pipelines, the
CI table, measurement CSVs and every file named by path are read on every call.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import UserInputError

if TYPE_CHECKING:
    from .accounting import AppPipeline, CarbonIntensity
    from .device_models import PeripheralModel
    from .embodied import SocBom
    from .workload import DeviceSpec, LlmConfig

ASSETS_ENV_VAR = "CO2METER_ASSETS"

_DEFAULT_ROOT = str(Path(__file__).parent / "assets")
_PARSED: dict[str, tuple] = {}  # asset path -> (stat signature, parsed frozen object)


def _root() -> Path:
    """The asset root, unchecked: loaders read under it first and call
    `asset_root` only when a file is missing, to say why."""
    return Path(os.environ.get(ASSETS_ENV_VAR) or _DEFAULT_ROOT)


def asset_root() -> Path:
    root = _root()
    if not root.is_dir():
        raise UserInputError(f"asset root {root} is not a directory")
    return root


def _named_json(subdir: str, name: str, loader: Callable):
    """`loader` on `<root>/<subdir>/<name>.json`.  The file is read first; the
    root and the directory are inspected only when it is missing, to say why."""
    try:
        return loader(_root() / subdir / f"{name}.json")
    except UserInputError as exc:
        missing = (FileNotFoundError, NotADirectoryError, IsADirectoryError)
        if not isinstance(exc.__cause__, missing):
            raise
    have = list_assets(subdir)  # raises when the root is not a directory
    raise UserInputError(f"no bundled {subdir} asset {name!r}; have {have}")


def _parsed_once(subdir: str, name: str, loader: Callable):
    """`_named_json`, kept while the file's stat signature holds.  A file that
    cannot be stat'ed or loaded goes through `_named_json` and is not kept."""
    path = os.path.join(os.environ.get(ASSETS_ENV_VAR) or _DEFAULT_ROOT, subdir, name + ".json")
    try:
        st = os.stat(path)
    except (OSError, ValueError):  # ValueError: a NUL in the name
        return _named_json(subdir, name, loader)
    signature = (st.st_mtime_ns, st.st_ctime_ns, st.st_size, st.st_ino, st.st_dev)
    if _PARSED.get(path, (None,))[0] != signature:
        _PARSED[path] = (signature, _named_json(subdir, name, loader))
    return _PARSED[path][1]


def list_assets(subdir: str) -> list[str]:
    return sorted(p.stem for p in (asset_root() / subdir).glob("*.json"))


def _looks_like_path(value: str, base: str = "") -> bool:
    return value.endswith(".json") or "/" in value or os.path.isfile(os.path.join(base, value))


def _path_or(bundled: Callable, subdir: str, name: str, loader: Callable, base: str = ""):
    """`loader` on the file name names (relative to the directory base),
    else `bundled`'s asset of that name."""
    if _looks_like_path(name, base):
        return loader(os.path.join(base, name))
    return bundled(subdir, name, loader)


def load_device(name: str | object, base: str = "") -> DeviceSpec:
    from .workload import device_from_json, load_device_json
    if not isinstance(name, str):
        return device_from_json(name)
    return _path_or(_parsed_once, "devices", name, load_device_json, base)


def load_bom(name: str) -> SocBom:
    from .embodied import load_bom_json
    return _path_or(_parsed_once, "boms", name, load_bom_json)


def load_llm_config(name: str | object, base: str = "") -> LlmConfig:
    from .workload import config_from_json, load_config_json
    if not isinstance(name, str):
        return config_from_json(name)
    return _path_or(_parsed_once, "llm_configs", name, load_config_json, base)


def load_carbon_intensities(path: str | None = None) -> dict[str, CarbonIntensity]:
    """The table at path, else the bundled one, or the root's error if it is no directory."""
    from .accounting import load_ci_table
    if path:
        return load_ci_table(path)
    try:
        return load_ci_table(_root() / "ci_table.json")
    except UserInputError as exc:
        if isinstance(exc.__cause__, (FileNotFoundError, NotADirectoryError)):
            asset_root()
        raise


def load_demo_pipeline(name: str = "voice_assistant") -> AppPipeline:
    from .accounting import load_pipeline_json
    return _path_or(_named_json, "pipelines", name, load_pipeline_json)


def measurement_csv(name: str) -> Path:
    path = _root() / "measurements" / f"{name}.csv"
    if not path.is_file():
        asset_root()  # raises when the root is not a directory
        raise UserInputError(f"no bundled measurement file {name!r}")
    return path


def demo_peripheral_models(names: Sequence[str] | None = None) -> dict[str, PeripheralModel]:
    """Fit the named bundled measurement CSVs (None: all six) and return
    the models by name.

    The bundled CSVs are noiseless, so the fits reproduce the generating
    parameters and the result is deterministic.
    """
    from .device_models import MODEL_NAMES, fit_by_name, load_samples_csv
    return {
        name: fit_by_name(name, load_samples_csv(measurement_csv(name))).model
        for name in (MODEL_NAMES if names is None else names)
    }
