"""Cold-start benchmarks of the CLI, kept out of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/test_cli_cold_bench.py -q

Each round is one fresh `python -m co2meter.cli` process, so a timing covers
interpreter start, imports, asset loading and the subcommand itself, over
every subcommand of perfbench's `cli_cold` cycle: `breakeven` (arithmetic
only), `embodied` (the rk3588 BOM), `estimate` (qwen15-05b on rk3588, prompt
100, output 64), `fit net` (one linear fit), `fit speaker` (grid search plus
refinement on the bundled CSV), `pipeline` (the three peripheral fits the
demo pipeline reads plus the oracle LLM stage), `roofline` (the default
request) and `whatif` (the rk-npu scenario at three prompt lengths).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from co2meter import assets

_SRC = Path(__file__).resolve().parents[1] / "src"

_ARGVS = {
    "breakeven": ["breakeven", "--delta-embodied", "1.5", "--delta-energy", "120"],
    "embodied": ["embodied", "--bom", "rk3588"],
    "estimate": ["estimate", "--prompt-len", "100", "--output-len", "64"],
    "fit_net": ["fit", "net", str(assets.measurement_csv("net"))],
    "fit_speaker": ["fit", "speaker", str(assets.measurement_csv("speaker"))],
    "pipeline": ["pipeline"],
    "roofline": ["roofline"],
    "whatif": ["whatif", "--scenario", "rk-npu"],
}


def _cold_run(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-m", "co2meter.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(_ARGVS))
def test_cold_cli(benchmark, name):
    argv = _ARGVS[name]
    # Fill the page cache, as any earlier use would.  With PYTHONDONTWRITEBYTECODE
    # set no bytecode cache is written, so every round compiles its source again.
    _cold_run(argv)
    doc = benchmark.pedantic(_cold_run, args=(argv,), rounds=9, iterations=1)
    assert doc
