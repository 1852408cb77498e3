"""Bundled devices, LLM configs and BOMs: parsed once per process, re-read
when their file's stat signature changes."""

import json
import os
import shutil

import pytest

from co2meter import assets
from co2meter.errors import UserInputError

_LOADERS = {
    "devices": assets.load_device,
    "llm_configs": assets.load_llm_config,
    "boms": assets.load_bom,
}


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A copy of the bundled devices under a fresh asset root."""
    root = tmp_path / "assets"
    shutil.copytree(assets.asset_root() / "devices", root / "devices")
    monkeypatch.setenv(assets.ASSETS_ENV_VAR, str(root))
    return root


def _write_device(root, name, **fields):
    doc = json.loads((assets.asset_root() / "devices" / "rk3588.json").read_text())
    doc.update(name=name, **fields)
    path = root / "devices" / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("subdir, name", [
    ("devices", "rk3588"), ("llm_configs", "tinyllama-11b"), ("boms", "agx_orin"),
])
def test_two_loads_of_a_bundled_name_return_the_same_object(subdir, name):
    load = _LOADERS[subdir]
    assert load(name) is load(name)


def test_a_rewrite_with_another_size_serves_the_new_content(root):
    path = _write_device(root, "board", idle_power=1.0)
    assert assets.load_device("board").idle_power == 1.0
    size = path.stat().st_size
    _write_device(root, "board", idle_power=1.25)
    assert path.stat().st_size != size
    assert assets.load_device("board").idle_power == 1.25


def test_a_bumped_mtime_serves_the_new_content(root):
    path = _write_device(root, "board", idle_power=1.5)
    assert assets.load_device("board").idle_power == 1.5
    before = path.stat()
    _write_device(root, "board", idle_power=2.5)
    assert path.stat().st_size == before.st_size
    mtime = before.st_mtime_ns
    os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
    assert assets.load_device("board").idle_power == 2.5


def test_a_malformed_file_is_refused_on_every_call_and_not_kept(root):
    path = root / "devices" / "broken.json"
    path.write_text("{nope")
    for _ in range(2):
        with pytest.raises(UserInputError, match="cannot read device spec"):
            assets.load_device("broken")
    _write_device(root, "bad-power", idle_power=-1.0)
    for _ in range(2):
        with pytest.raises(UserInputError, match="idle_power"):
            assets.load_device("bad-power")
    assert not any(key.startswith(str(root)) for key in assets._PARSED)


def test_switching_the_asset_root_serves_the_other_roots_file(root, tmp_path, monkeypatch):
    other = tmp_path / "other"
    shutil.copytree(root, other)
    _write_device(root, "board", idle_power=1.0)
    _write_device(other, "board", idle_power=2.0)
    assert assets.load_device("board").idle_power == 1.0
    monkeypatch.setenv(assets.ASSETS_ENV_VAR, str(other))
    assert assets.load_device("board").idle_power == 2.0
    monkeypatch.setenv(assets.ASSETS_ENV_VAR, str(root))
    assert assets.load_device("board").idle_power == 1.0
