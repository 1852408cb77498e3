"""Named inputs: a bundled device, LLM config or BOM is parsed once per
process and re-read when its file's stat signature changes; a value that
looks like a path is read from that file on every call."""

import json
import os
import shutil

import pytest

from co2meter import accounting, assets, cli
from co2meter.embodied import load_bom_json
from co2meter.errors import UserInputError
from co2meter.workload import load_config_json, load_device_json

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


# Each loader of a named input, with its bundled directory, a bundled name
# and the reader of a file
_NAME_OR_PATH = [
    (assets.load_device, "devices", "rk3588", load_device_json),
    (assets.load_llm_config, "llm_configs", "tinyllama-11b", load_config_json),
    (assets.load_bom, "boms", "agx_orin", load_bom_json),
    (assets.load_demo_pipeline, "pipelines", "voice_assistant", accounting.load_pipeline_json),
]


@pytest.mark.parametrize("load, subdir, name, read", _NAME_OR_PATH,
                         ids=[load.__name__ for load, *_ in _NAME_OR_PATH])
@pytest.mark.parametrize("form", ["absolute", "relative.json", "bare-file"])
def test_a_loader_given_a_path_reads_that_file_on_every_call(
        tmp_path, monkeypatch, load, subdir, name, read, form):
    monkeypatch.chdir(tmp_path)
    value = {"absolute": str(tmp_path / "copy.json"), "relative.json": "copy.json",
             "bare-file": "copy"}[form]
    shutil.copy(assets.asset_root() / subdir / f"{name}.json", value)
    assert load(value) == read(value) == load(name)
    assert load(value) is not load(value)


def test_a_carbon_intensity_path_reads_that_table(tmp_path):
    path = tmp_path / "ci.json"
    path.write_text(json.dumps({"lab": 0.25, "india": 0.5}))
    assert assets.load_carbon_intensities(str(path)) == accounting.load_ci_table(path)
    assert assets.load_carbon_intensities(None) == assets.load_carbon_intensities()


def test_a_pipeline_file_names_its_config_and_device_by_path(tmp_path):
    config, device = tmp_path / "model.json", tmp_path / "boards" / "board"
    device.parent.mkdir()
    shutil.copy(assets.asset_root() / "llm_configs" / "tinyllama-11b.json", config)
    shutil.copy(assets.asset_root() / "devices" / "orin_nx.json", device)
    doc = json.loads((assets.asset_root() / "pipelines" / "voice_assistant.json").read_text())
    doc["llm"].update(config=str(config), device=str(device))
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(doc))
    llm = accounting.load_pipeline_json(path).llm
    assert llm.config == load_config_json(config)
    assert llm.device == load_device_json(device)


def test_a_file_named_like_a_bundled_asset_is_read_as_a_path(tmp_path, monkeypatch, capsys):
    """The CLI and the library read a name the same way, in a pipeline too,
    where the file must sit beside the pipeline file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rk3588").write_text("not json")
    with pytest.raises(UserInputError) as exc:
        assets.load_device("rk3588")
    assert str(exc.value).startswith("cannot read device spec rk3588: ")
    argv = ["estimate", "--device", "rk3588", "--prompt-len", "8", "--output-len", "8"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    shutil.copy(assets.asset_root() / "pipelines" / "voice_assistant.json", "beside.json")
    with pytest.raises(UserInputError, match=r"^cannot read device spec rk3588: "):
        assets.load_demo_pipeline("beside.json")
    # the bundled pipeline's directory holds no such file: it reads the bundled board
    assert assets.load_demo_pipeline().llm.device == load_device_json(
        assets.asset_root() / "devices" / "rk3588.json")


@pytest.mark.parametrize("config, device", [("cfg.json", "dev.json"), ("cfg", "dev")],
                         ids=["relative.json", "bare-file"])
@pytest.mark.parametrize("cwd", ["parent", "sub"])
def test_a_pipeline_file_reads_relative_paths_against_its_directory(
        tmp_path, monkeypatch, capsys, cwd, config, device):
    sub = tmp_path / "sub"
    sub.mkdir()
    shutil.copy(assets.asset_root() / "llm_configs" / "tinyllama-11b.json", sub / config)
    shutil.copy(assets.asset_root() / "devices" / "orin_nx.json", sub / device)
    doc = json.loads((assets.asset_root() / "pipelines" / "voice_assistant.json").read_text())
    absolute = tmp_path / "absolute.json"
    absolute.write_text(json.dumps({**doc, "llm": {**doc["llm"], "config": str(sub / config),
                                                   "device": str(sub / device)}}))
    doc["llm"].update(config=config, device=device)
    (sub / "p.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path if cwd == "parent" else sub)
    path = "sub/p.json" if cwd == "parent" else "p.json"
    assert cli.main(["pipeline", "--pipeline", path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert cli.main(["pipeline", "--pipeline", str(absolute)]) == 0
    assert capsys.readouterr() == (out, "")
    llm = assets.load_demo_pipeline(path).llm
    assert llm.config == load_config_json(sub / config)
    assert llm.device == load_device_json(sub / device)
