"""Checkers that hold program outputs against the independent reference.

Each checker raises Mismatch naming the first field that disagrees.  Floats
must agree to RTOL relative, strings and integers exactly, lists in length.
Every key the reference has must be present; keys it does not know (a
later, richer output) are not checked.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9


class Mismatch(AssertionError):
    pass


def compare(actual, expected, path: str = "$", rtol: float = RTOL) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or not set(expected) <= set(actual):
            raise Mismatch(f"{path}: {actual!r} lacks some of {sorted(expected)}")
        for key in expected:
            compare(actual[key], expected[key], f"{path}.{key}", rtol)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            raise Mismatch(f"{path}: {actual!r} is not a list of {len(expected)}")
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, f"{path}[{i}]", rtol)
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            raise Mismatch(f"{path}: {actual!r} is not a number")
        if isinstance(expected, int) and isinstance(actual, int):
            ok = actual == expected
        else:
            ok = math.isfinite(actual) and abs(actual - expected) <= rtol * abs(expected)
        if not ok:
            raise Mismatch(f"{path}: {actual!r} != {expected!r} (rtol {rtol:g})")
    elif actual != expected:
        raise Mismatch(f"{path}: {actual!r} != {expected!r}")


def check_fit(doc: dict, model: str, truth: dict, csv_path: Path) -> None:
    """Fitted parameters equal the generating ones; residuals vanish."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    observed = max(abs(float(r["observed"])) for r in rows)
    compare(doc["model"], model, "$.model")
    compare(doc["params"], truth[model], "$.params")
    compare(doc["n_samples"], len(rows), "$.n_samples")
    for key in ("mae", "max_abs_err"):
        if not 0.0 <= doc[key] <= RTOL * observed:
            raise Mismatch(f"$.{key}: {doc[key]!r} on noiseless samples")


def check_pipeline(doc: dict, expected: dict) -> None:
    stages = doc["breakdown"]
    parts = sum(v for k, v in stages.items() if k != "total_j")
    if not abs(parts - stages["total_j"]) <= 1e-12 * stages["total_j"]:
        raise Mismatch(f"$.breakdown: stages sum to {parts!r}, total_j {stages['total_j']!r}")
    compare(doc, expected)


def check_training(history: list[dict], metrics: dict, baseline_mape: dict,
                   max_share: float) -> None:
    """Loss falls in each tower; held-out MAPE is far below a constant guess."""
    for tower in ("prefill", "total"):
        losses = [h["train_loss"] for h in history if h["tower"] == tower]
        if not losses or not losses[-1] < losses[0]:
            raise Mismatch(f"{tower} tower: loss {losses[:1]} -> {losses[-1:]} did not fall")
    for head in ("prefill", "total"):
        got, const = metrics[head].mape, baseline_mape[head]
        if not (np.isfinite(got) and got <= max_share * const):
            raise Mismatch(f"{head} head: held-out MAPE {got:.3f}% is not below "
                           f"{max_share:g} x the constant predictor's {const:.3f}%")

