"""Cold-start benchmarks of the CLI, kept out of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/test_cli_cold_bench.py -q

Each round is one fresh `python -m co2meter.cli` process, so a timing covers
interpreter start, imports, asset loading and the subcommand itself:
`breakeven` (arithmetic only), `estimate` (qwen15-05b on rk3588, prompt 100,
output 64), `fit speaker` (grid search plus refinement on the bundled CSV)
and `pipeline` (six peripheral fits plus the oracle LLM stage).
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
    "estimate": ["estimate", "--prompt-len", "100", "--output-len", "64"],
    "fit_speaker": ["fit", "speaker", str(assets.measurement_csv("speaker"))],
    "pipeline": ["pipeline"],
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
    _cold_run(argv)  # fill the bytecode and page caches, as any earlier use would
    doc = benchmark.pedantic(_cold_run, args=(argv,), rounds=9, iterations=1)
    assert doc
