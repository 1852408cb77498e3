"""Closed-form energy/power models for device peripherals, plus their fits.

Five model families cover the measurable subsystems of an edge board:

* linear-rate energy models (network, camera, microphone): a static power
  term integrated over the active duration plus a marginal energy per
  transferred unit (bit, frame, audio sample);
* an affine video-pipeline power model in the number of processed pixels;
* a saturating speaker power model in the volume setting;
* a quadratic display power model in the uniform panel grey level;
* constant background (idle) and format-conversion energies.

Fitting uses non-negative least squares for the affine models, unconstrained
least squares for the display quadratic, and a coarse grid search followed by
Levenberg-Marquardt refinement for the speaker model.  The affine designs have
two columns, so their NNLS is closed-form (Lawson & Hanson, 1974): the
least-squares solution if it is non-negative, else the better of the two
one-column fits, because the minimiser then lies on a face of the quadrant.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, FitError, UserInputError

GREY_MAX = 255
CONVERSION_TASKS = ("ocr", "stt", "tts")
SAMPLE_KINDS = ("energy", "power")
MODEL_NAMES = ("net", "camera", "mic", "video", "speaker", "display")

_CSV_HEADER = ["kind", "predictor", "duration_s", "observed"]

# Speaker fit: grid bounds for the coarse initialization stage.
_SPEAKER_ALPHA_GRID = np.linspace(-0.2, 0.2, 81)
_SPEAKER_BETA_GRID = np.linspace(-0.9, 4.0, 99)
_LM_MAX_ITER = 200
_LM_STEP_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSample:
    """One observed (predictor, duration) -> energy/power measurement."""

    kind: str
    predictor: float
    duration_s: float
    observed: float

    def __post_init__(self) -> None:
        if self.kind not in SAMPLE_KINDS:
            raise ValueError(f"unknown sample kind {self.kind!r}")
        values = (self.predictor, self.duration_s, self.observed)
        if not all(map(math.isfinite, values)):
            raise ValueError("predictor, duration_s and observed must be finite")
        if self.predictor < 0:
            raise ValueError("predictor count must be >= 0")
        if self.kind == "energy" and self.duration_s <= 0:
            raise ValueError("energy samples need a positive duration")
        if self.observed < 0:
            raise ValueError("observed value must be >= 0")


@dataclass(frozen=True)
class LinearRateModel:
    """Energy = static_power_w * duration + marginal_energy_j * units."""

    static_power_w: float
    marginal_energy_j: float

    def __post_init__(self) -> None:
        if self.static_power_w < 0 or self.marginal_energy_j < 0:
            raise ValueError("linear-rate parameters must be >= 0")

    def energy(self, duration_s: float, units: float) -> float:
        if duration_s < 0 or units < 0:
            raise ValueError("duration and unit count must be >= 0")
        return self.static_power_w * duration_s + self.marginal_energy_j * units


@dataclass(frozen=True)
class VideoPowerModel:
    """Power = static_power_w + power_per_pixel_w * pixels."""

    static_power_w: float
    power_per_pixel_w: float

    def __post_init__(self) -> None:
        if self.static_power_w < 0 or self.power_per_pixel_w < 0:
            raise ValueError("video power parameters must be >= 0")

    def power(self, pixels: float) -> float:
        if pixels < 0:
            raise ValueError("pixel count must be >= 0")
        return self.static_power_w + self.power_per_pixel_w * pixels


@dataclass(frozen=True)
class SpeakerPowerModel:
    """Power = 1 / (1 + exp(alpha * volume) + beta)."""

    alpha: float
    beta: float

    def power(self, volume: float) -> float:
        den = 1.0 + math.exp(self.alpha * volume) + self.beta
        if den <= 0:
            raise ValueError(f"speaker model denominator {den} is not positive")
        return 1.0 / den


@dataclass(frozen=True)
class DisplayPowerModel:
    """Power = a + b * grey + c * grey^2 over the uniform panel grey level."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self._min_power() <= 0:
            raise ValueError("display power must stay positive on [0, 255]")

    def _min_power(self) -> float:
        candidates = [self._eval(0.0), self._eval(float(GREY_MAX))]
        if self.c > 0:
            vertex = -self.b / (2.0 * self.c)
            if 0.0 <= vertex <= GREY_MAX:
                candidates.append(self._eval(vertex))
        return min(candidates)

    def _eval(self, grey: float) -> float:
        return self.a + self.b * grey + self.c * grey * grey

    def power(self, grey: float) -> float:
        if not 0.0 <= grey <= GREY_MAX:
            raise ValueError(f"grey level {grey} outside [0, {GREY_MAX}]")
        return self._eval(grey)


PeripheralModel = (
    LinearRateModel | VideoPowerModel | SpeakerPowerModel | DisplayPowerModel
)


@dataclass(frozen=True)
class FitReport:
    """A fitted model plus its in-sample error summary."""

    model: PeripheralModel
    mae: float
    max_abs_err: float
    n_samples: int


def background_energy(idle_power_w: float, duration_s: float) -> float:
    """Idle platform energy over the whole observation window."""
    if idle_power_w < 0 or duration_s < 0:
        raise ValueError("idle power and duration must be >= 0")
    return idle_power_w * duration_s


def conversion_energy(task: str, table: Mapping[str, float]) -> float:
    """Constant energy of a format-conversion task (ocr / stt / tts)."""
    if task not in CONVERSION_TASKS:
        raise ConfigurationError(f"unknown conversion task {task!r}")
    if task not in table:
        raise ConfigurationError(f"conversion table has no entry for {task!r}")
    value = float(table[task])
    if value < 0:
        raise ValueError("conversion energy must be >= 0")
    return value


# ---------------------------------------------------------------------------
# Fitting


def _as_arrays(
    samples: Sequence[MeasurementSample], kind: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not samples:
        raise FitError("no samples to fit")
    bad = [s for s in samples if s.kind != kind]
    if bad:
        raise FitError(f"expected {kind!r} samples, got {bad[0].kind!r}")
    predictor = np.array([s.predictor for s in samples], dtype=float)
    duration = np.array([s.duration_s for s in samples], dtype=float)
    observed = np.array([s.observed for s in samples], dtype=float)
    return predictor, duration, observed


def _error_stats(residuals: np.ndarray) -> tuple[float, float]:
    return float(np.mean(np.abs(residuals))), float(np.max(np.abs(residuals)))


def _check_rank(design: np.ndarray, needed: int, what: str) -> None:
    if design.shape[0] < needed or np.linalg.matrix_rank(design) < needed:
        raise FitError(f"rank-deficient design matrix for {what} fit")


def _nnls2(design: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Non-negative least squares for a full-rank two-column design."""
    params, *_ = np.linalg.lstsq(design, observed, rcond=None)
    if np.all(params >= 0):
        return params
    faces = np.diag(np.maximum(observed @ design / (design * design).sum(0), 0.0))
    sse = np.sum((design @ faces - observed[:, None]) ** 2, axis=0)
    return faces[:, np.argmin(sse)]


def fit_linear_rate(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit (static_power_w, marginal_energy_j) from energy samples via NNLS."""
    predictor, duration, observed = _as_arrays(samples, "energy")
    design = np.column_stack([duration, predictor])
    _check_rank(design, 2, "linear-rate")
    params = _nnls2(design, observed)
    model = LinearRateModel(float(params[0]), float(params[1]))
    mae, max_err = _error_stats(design @ params - observed)
    return FitReport(model, mae, max_err, len(samples))


def fit_video_power(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit (static_power_w, power_per_pixel_w) from power samples via NNLS."""
    pixels, _, observed = _as_arrays(samples, "power")
    design = np.column_stack([np.ones_like(pixels), pixels])
    _check_rank(design, 2, "video power")
    params = _nnls2(design, observed)
    model = VideoPowerModel(float(params[0]), float(params[1]))
    mae, max_err = _error_stats(design @ params - observed)
    return FitReport(model, mae, max_err, len(samples))


def fit_display(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit the display quadratic (a, b, c) by unconstrained least squares."""
    grey, _, observed = _as_arrays(samples, "power")
    if np.any(grey > GREY_MAX):
        raise FitError("display samples must have grey levels in [0, 255]")
    design = np.column_stack([np.ones_like(grey), grey, grey * grey])
    _check_rank(design, 3, "display")
    params, *_ = np.linalg.lstsq(design, observed, rcond=None)
    try:
        model = DisplayPowerModel(float(params[0]), float(params[1]), float(params[2]))
    except ValueError as exc:
        raise FitError(str(exc)) from exc
    mae, max_err = _error_stats(design @ params - observed)
    return FitReport(model, mae, max_err, len(samples))


def _speaker_denominator(alpha: float, beta: float, volumes: np.ndarray) -> np.ndarray:
    return 1.0 + np.exp(alpha * volumes) + beta


def _speaker_residuals(
    alpha: float, beta: float, volumes: np.ndarray, observed: np.ndarray
) -> np.ndarray:
    return 1.0 / _speaker_denominator(alpha, beta, volumes) - observed


def _speaker_sse(
    alpha: float, beta: float, volumes: np.ndarray, observed: np.ndarray
) -> float:
    r = _speaker_residuals(alpha, beta, volumes, observed)
    return float(r @ r)


def _speaker_valid(alpha: float, beta: float, volumes: np.ndarray) -> bool:
    den = _speaker_denominator(alpha, beta, volumes)
    return bool(np.all(np.isfinite(den)) and np.all(den > 1e-9))


def _speaker_grid_init(
    volumes: np.ndarray, observed: np.ndarray
) -> tuple[float, float, float]:
    """Best (alpha, beta, sse) on the grid, from one (alpha, beta, volume) array.

    A point is admissible when its denominator is finite and above 1e-9 at
    every volume; a tie goes to the first point in alpha-major order.
    """
    with np.errstate(over="ignore"):
        growth = 1.0 + np.exp(np.multiply.outer(_SPEAKER_ALPHA_GRID, volumes))
        den = growth[:, None, :] + _SPEAKER_BETA_GRID[:, None]
        admissible = np.flatnonzero(np.all(np.isfinite(den) & (den > 1e-9), axis=2))
        if admissible.size == 0:
            raise FitError("no admissible speaker parameters on the search grid")
        resid = np.subtract(np.reciprocal(den, out=den), observed, out=den)
        sse = np.einsum("abn,abn->ab", resid, resid).ravel()
    best = admissible[np.argmin(sse[admissible])]
    i, j = divmod(int(best), _SPEAKER_BETA_GRID.size)
    return float(_SPEAKER_ALPHA_GRID[i]), float(_SPEAKER_BETA_GRID[j]), float(sse[best])


def fit_speaker(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit (alpha, beta): coarse grid for the start point, then LM refinement.

    The refinement only accepts steps that keep the denominator positive over
    the sampled volume range and do not increase the squared error, so the
    returned fit is never worse than the best grid candidate.  Iteration stops
    when the step norm drops below 1e-10 or after 200 iterations.
    """
    volumes, _, observed = _as_arrays(samples, "power")
    if len(np.unique(volumes)) < 2:
        raise FitError("speaker fit needs at least two distinct volumes")
    alpha, beta, sse = _speaker_grid_init(volumes, observed)

    lam = 1e-3
    for _ in range(_LM_MAX_ITER):
        den = _speaker_denominator(alpha, beta, volumes)
        r = 1.0 / den - observed
        inv_sq = 1.0 / (den * den)
        jac = np.column_stack([-volumes * np.exp(alpha * volumes) * inv_sq, -inv_sq])
        hess = jac.T @ jac
        grad = jac.T @ r
        damped = hess + lam * np.diag(np.diag(hess)) + 1e-12 * np.eye(2)
        try:
            step = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            break
        cand = (alpha + float(step[0]), beta + float(step[1]))
        if _speaker_valid(*cand, volumes) and (
            (cand_sse := _speaker_sse(*cand, volumes, observed)) <= sse
        ):
            alpha, beta, sse = cand[0], cand[1], cand_sse
            lam = max(lam / 10.0, 1e-12)
            if float(np.linalg.norm(step)) < _LM_STEP_TOL:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break

    model = SpeakerPowerModel(alpha, beta)
    mae, max_err = _error_stats(_speaker_residuals(alpha, beta, volumes, observed))
    return FitReport(model, mae, max_err, len(samples))


# ---------------------------------------------------------------------------
# Serialization

_FITTERS = {
    "net": fit_linear_rate,
    "camera": fit_linear_rate,
    "mic": fit_linear_rate,
    "video": fit_video_power,
    "speaker": fit_speaker,
    "display": fit_display,
}


def fit_by_name(name: str, samples: Sequence[MeasurementSample]) -> FitReport:
    """Dispatch to the fitter for a named peripheral model."""
    if name not in _FITTERS:
        raise UserInputError(f"unknown model name {name!r}")
    return _FITTERS[name](samples)


def _params_dict(model: PeripheralModel) -> dict[str, float]:
    if isinstance(model, LinearRateModel):
        return {
            "static_power_w": model.static_power_w,
            "marginal_energy_j": model.marginal_energy_j,
        }
    if isinstance(model, VideoPowerModel):
        return {
            "static_power_w": model.static_power_w,
            "power_per_pixel_w": model.power_per_pixel_w,
        }
    if isinstance(model, SpeakerPowerModel):
        return {"alpha": model.alpha, "beta": model.beta}
    return {"a_w": model.a, "b_w_per_grey": model.b, "c_w_per_grey2": model.c}


def model_to_json(name: str, report: FitReport) -> dict:
    if name not in MODEL_NAMES:
        raise UserInputError(f"unknown model name {name!r}")
    return {
        "model": name,
        "params": _params_dict(report.model),
        "mae": report.mae,
    }


def model_from_json(doc: Mapping) -> tuple[str, PeripheralModel, float]:
    """Inverse of model_to_json; returns (name, model, mae)."""
    try:
        name = doc["model"]
        params = doc["params"]
        mae = float(doc["mae"])
        if name in ("net", "camera", "mic"):
            model: PeripheralModel = LinearRateModel(
                float(params["static_power_w"]), float(params["marginal_energy_j"])
            )
        elif name == "video":
            model = VideoPowerModel(
                float(params["static_power_w"]), float(params["power_per_pixel_w"])
            )
        elif name == "speaker":
            model = SpeakerPowerModel(float(params["alpha"]), float(params["beta"]))
        elif name == "display":
            model = DisplayPowerModel(
                float(params["a_w"]),
                float(params["b_w_per_grey"]),
                float(params["c_w_per_grey2"]),
            )
        else:
            raise UserInputError(f"unknown model name {name!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise UserInputError(f"malformed model document: {exc}") from exc
    return name, model, mae


def save_model_json(path: str | Path, name: str, report: FitReport) -> None:
    Path(path).write_text(json.dumps(model_to_json(name, report), sort_keys=True))


def load_model_json(path: str | Path) -> tuple[str, PeripheralModel, float]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read model file {path}: {exc}") from exc
    return model_from_json(doc)


def load_samples_csv(path: str | Path) -> list[MeasurementSample]:
    """Read `kind,predictor,duration_s,observed` rows; errors carry line numbers."""
    samples = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UserInputError(f"cannot read samples file {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _CSV_HEADER:
        raise UserInputError(
            f"{path}:1: expected header {','.join(_CSV_HEADER)!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise UserInputError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        try:
            samples.append(
                MeasurementSample(
                    kind=row[0].strip(),
                    predictor=float(row[1]),
                    duration_s=float(row[2]),
                    observed=float(row[3]),
                )
            )
        except ValueError as exc:
            raise UserInputError(f"{path}:{lineno}: {exc}") from exc
    return samples


def save_samples_csv(path: str | Path, samples: Iterable[MeasurementSample]) -> None:
    lines = [",".join(_CSV_HEADER)]
    for s in samples:
        lines.append(f"{s.kind},{s.predictor!r},{s.duration_s!r},{s.observed!r}")
    Path(path).write_text("\n".join(lines) + "\n")
