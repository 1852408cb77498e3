"""Closed-form energy/power models for device peripherals, plus their fits.

Five model families cover the measurable subsystems of an edge board:

* linear-rate energy models (network, camera, microphone): a static power
  term integrated over the active duration plus a marginal energy per
  transferred unit (bit, frame, audio sample);
* an affine video-pipeline power model in the number of processed pixels;
* a saturating speaker power model in the volume setting;
* a quadratic display power model in the uniform panel grey level;
* a constant background (idle) energy.

Fitting uses non-negative least squares for the affine models, unconstrained
least squares for the display quadratic, and a coarse grid search followed by
Levenberg-Marquardt refinement for the speaker model.  Designs have at most
three columns and a few dozen rows, so the fits are plain Python: least
squares is a Householder QR, and the affine designs' NNLS is closed-form
(Lawson & Hanson, 1974): the least-squares solution if it is non-negative,
else the better of the two one-column fits, because the minimiser then lies
on a face of the quadrant.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path
from typing import Sequence

from .errors import (Finite, FitError, NonNegative, Record, UserInputError, check_range,
                     json_number, json_object, read_json, read_text)

GREY_MAX = 255
CONVERSION_TASKS = ("ocr", "stt", "tts")
SAMPLE_KINDS = ("energy", "power")
MODEL_NAMES = ("net", "camera", "mic", "video", "speaker", "display")

_CSV_HEADER = ["kind", "predictor", "duration_s", "observed"]


def _linspace(start: float, stop: float, num: int) -> tuple[float, ...]:
    """`numpy.linspace(start, stop, num)` bit for bit: start + i * step, then stop."""
    step = (stop - start) / (num - 1)
    return tuple(start + i * step for i in range(num - 1)) + (stop,)


# Speaker fit: grid bounds for the coarse initialization stage.
_SPEAKER_ALPHA_GRID = _linspace(-0.2, 0.2, 81)
_SPEAKER_BETA_GRID = _linspace(-0.9, 4.0, 99)
_LM_MAX_ITER = 200
_LM_STEP_TOL = 1e-10


class MeasurementSample(Record):
    """One observed (predictor, duration) -> energy/power measurement."""

    kind: str
    predictor: NonNegative
    duration_s: Finite
    observed: NonNegative

    def __post_init__(self) -> None:
        if self.kind not in SAMPLE_KINDS:
            raise ValueError(f"unknown sample kind {self.kind!r}")
        if self.kind == "energy" and self.duration_s <= 0:
            raise ValueError("energy samples need a positive duration")


class LinearRateModel(Record):
    """Energy = static_power_w * duration + marginal_energy_j * units."""

    static_power_w: NonNegative
    marginal_energy_j: NonNegative

    def energy(self, duration_s: float, units: float) -> float:
        check_range(duration_s, "NonNegative", "duration_s")
        check_range(units, "NonNegative", "units")
        return self.static_power_w * duration_s + self.marginal_energy_j * units


class VideoPowerModel(Record):
    """Power = static_power_w + power_per_pixel_w * pixels."""

    static_power_w: NonNegative
    power_per_pixel_w: NonNegative

    def power(self, pixels: float) -> float:
        check_range(pixels, "NonNegative", "pixels")
        return self.static_power_w + self.power_per_pixel_w * pixels


class SpeakerPowerModel(Record):
    """Power = 1 / (1 + exp(alpha * volume) + beta)."""

    alpha: Finite
    beta: Finite

    def power(self, volume: float) -> float:
        den = 1.0 + math.exp(self.alpha * volume) + self.beta
        if den <= 0:
            raise ValueError(f"speaker model denominator {den} is not positive")
        return 1.0 / den


class DisplayPowerModel(Record):
    """Power = a + b * grey + c * grey^2 over the uniform panel grey level."""

    a: Finite
    b: Finite
    c: Finite

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


class FitReport(Record):
    """A fitted model plus its in-sample error summary."""

    model: PeripheralModel
    mae: float
    max_abs_err: float
    n_samples: int


def background_energy(idle_power_w: float, duration_s: float) -> float:
    """Idle platform energy over the whole observation window."""
    check_range(idle_power_w, "NonNegative", "idle_power_w")
    check_range(duration_s, "NonNegative", "duration_s")
    return idle_power_w * duration_s


# ---------------------------------------------------------------------------
# Fitting

Columns = Sequence[Sequence[float]]  # a design matrix, column by column


def _columns(
    samples: Sequence[MeasurementSample], kind: str
) -> tuple[list[float], list[float], list[float]]:
    """(predictor, duration_s, observed) columns of samples of one kind."""
    if not samples:
        raise FitError("no samples to fit")
    bad = [s for s in samples if s.kind != kind]
    if bad:
        raise FitError(f"expected {kind!r} samples, got {bad[0].kind!r}")
    return ([s.predictor for s in samples], [s.duration_s for s in samples],
            [s.observed for s in samples])


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    return math.fsum(a * b for a, b in zip(x, y))


def _report(model: PeripheralModel, residuals: Sequence[float]) -> FitReport:
    errors = [abs(r) for r in residuals]
    return FitReport(model, math.fsum(errors) / len(errors), max(errors), len(errors))


def _residuals(
    columns: Columns, params: Sequence[float], observed: Sequence[float]
) -> list[float]:
    return [_dot(params, row) - o for row, o in zip(zip(*columns), observed)]


def _lstsq(columns: Columns, observed: Sequence[float], what: str) -> list[float]:
    """Least-squares coefficients of a design given by its columns (Householder QR).

    FitError unless the design has full column rank.  The test is lstsq's
    cutoff max(M, N) * eps * s_max on the diagonal of R, with the largest
    column norm for s_max.  The smallest singular value is at most the
    smallest |R_jj| and s_max at least any column norm, so no design that
    lstsq finds full-rank is refused.
    """
    m, n = len(observed), len(columns)
    s_max = max(math.hypot(*col) for col in columns)
    r = [list(col) for col in columns]  # reduced to R in place, column by column
    qty = list(observed)
    for j in range(n):
        x = r[j][j:]
        norm = math.hypot(*x)
        if norm == 0.0:
            raise FitError(f"rank-deficient design matrix for {what} fit")
        diag = -math.copysign(norm, x[0])
        v = [x[0] - diag, *x[1:]]
        half_vv = -diag * v[0]  # v @ v / 2
        for target in (*r[j + 1:], qty):
            s = _dot(v, target[j:]) / half_vv
            target[j:] = [t - s * vi for t, vi in zip(target[j:], v)]
        r[j][j] = diag
    if min(abs(r[j][j]) for j in range(n)) <= max(m, n) * sys.float_info.epsilon * s_max:
        raise FitError(f"rank-deficient design matrix for {what} fit")
    coef = [0.0] * n
    for j in reversed(range(n)):  # back substitution through R
        coef[j] = (qty[j] - math.fsum(r[k][j] * coef[k] for k in range(j + 1, n))) / r[j][j]
    return coef


def _nnls2(columns: Columns, observed: Sequence[float], what: str = "NNLS") -> list[float]:
    """Non-negative least squares for a two-column design of full rank."""
    params = _lstsq(columns, observed, what)
    if min(params) >= 0:
        return params
    faces = [max(_dot(observed, col) / _dot(col, col), 0.0) for col in columns]
    sse = [math.fsum((f * c - o) ** 2 for c, o in zip(col, observed))
           for f, col in zip(faces, columns)]
    best = sse.index(min(sse))  # a tie goes to the first column
    return [f if j == best else 0.0 for j, f in enumerate(faces)]


def fit_linear_rate(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit (static_power_w, marginal_energy_j) from energy samples via NNLS."""
    units, duration, observed = _columns(samples, "energy")
    columns = (duration, units)
    params = _nnls2(columns, observed, "linear-rate")
    return _report(LinearRateModel(*params), _residuals(columns, params, observed))


def fit_video_power(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit (static_power_w, power_per_pixel_w) from power samples via NNLS."""
    pixels, _, observed = _columns(samples, "power")
    columns = ([1.0] * len(pixels), pixels)
    params = _nnls2(columns, observed, "video power")
    return _report(VideoPowerModel(*params), _residuals(columns, params, observed))


def fit_display(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit the display quadratic (a, b, c) by unconstrained least squares."""
    grey, _, observed = _columns(samples, "power")
    if max(grey) > GREY_MAX:
        raise FitError("display samples must have grey levels in [0, 255]")
    columns = ([1.0] * len(grey), grey, [g * g for g in grey])
    params = _lstsq(columns, observed, "display")
    try:
        model = DisplayPowerModel(*params)
    except ValueError as exc:
        raise FitError(str(exc)) from exc
    return _report(model, _residuals(columns, params, observed))


def _speaker_denominators(alpha: float, beta: float, volumes: Sequence[float]) -> list[float]:
    """1 + exp(alpha * volume) + beta; OverflowError when an exp overflows."""
    return [1.0 + math.exp(alpha * v) + beta for v in volumes]


def _speaker_residuals(
    alpha: float, beta: float, volumes: Sequence[float], observed: Sequence[float]
) -> list[float]:
    den = _speaker_denominators(alpha, beta, volumes)
    return [1.0 / d - o for d, o in zip(den, observed)]


def _speaker_sse(
    alpha: float, beta: float, volumes: Sequence[float], observed: Sequence[float]
) -> float:
    return math.fsum(r * r for r in _speaker_residuals(alpha, beta, volumes, observed))


def _speaker_valid(alpha: float, beta: float, volumes: Sequence[float]) -> bool:
    """The denominator is finite and above 1e-9 at every volume."""
    try:
        den = _speaker_denominators(alpha, beta, volumes)
    except OverflowError:
        return False
    return all(1e-9 < d < math.inf for d in den)


def _speaker_grid_init(
    volumes: Sequence[float], observed: Sequence[float]
) -> tuple[float, float, float]:
    """Best (alpha, beta, sse) on the grid, one 1 + exp(alpha * volume) row per alpha.

    A point is admissible when its denominator is finite and above 1e-9 at
    every volume (rounding is monotone, so the row's least entry plus beta is
    the least denominator); a tie goes to the first point in alpha-major order.
    The sse terms are >= 0 and fsum is correctly rounded, so one term, or the
    fsum of a few samples' terms, never exceeds the point's sse: a point whose
    bound already reaches the best sse cannot win (a win needs sse < best),
    and skipping it leaves the result bit for bit the same.
    """
    n = len(volumes)
    probe = list(dict.fromkeys((n - 1, 0, n // 3, 2 * n // 3)))
    best: tuple[float, float, float] | None = None
    best_sse = math.inf
    for alpha in _SPEAKER_ALPHA_GRID:
        try:
            growth = _speaker_denominators(alpha, 0.0, volumes)
        except OverflowError:
            continue
        if not all(map(math.isfinite, growth)):
            continue
        lowest = min(growth)
        pairs = list(zip(growth, observed))
        few = [pairs[i] for i in probe]
        g0, o0 = few[0]
        for beta in _SPEAKER_BETA_GRID:
            if not lowest + beta > 1e-9:
                continue
            if ((1.0 / (g0 + beta) - o0) ** 2 >= best_sse
                    or math.fsum([(1.0 / (g + beta) - o) ** 2 for g, o in few]) >= best_sse):
                continue
            sse = math.fsum([(1.0 / (g + beta) - o) ** 2 for g, o in pairs])
            if best is None or sse < best_sse:
                best, best_sse = (alpha, beta, sse), sse
    if best is None:
        raise FitError("no admissible speaker parameters on the search grid")
    return best


def fit_speaker(samples: Sequence[MeasurementSample]) -> FitReport:
    """Fit (alpha, beta): coarse grid for the start point, then LM refinement.

    The refinement only accepts steps that keep the denominator positive over
    the sampled volume range and do not increase the squared error, so the
    returned fit is never worse than the best grid candidate.  A step solves
    the damped 2x2 normal equations in closed form; iteration stops when none
    is finite, when its norm drops below 1e-10, or after 200 iterations.
    """
    volumes, _, observed = _columns(samples, "power")
    if len(set(volumes)) < 2:
        raise FitError("speaker fit needs at least two distinct volumes")
    alpha, beta, sse = _speaker_grid_init(volumes, observed)

    lam = 1e-3
    for _ in range(_LM_MAX_ITER):
        growth = [math.exp(alpha * v) for v in volumes]  # finite: the point is valid
        den = [1.0 + e + beta for e in growth]
        r = [1.0 / d - o for d, o in zip(den, observed)]
        jac_b = [-1.0 / (d * d) for d in den]
        # exp(alpha * volume) * volume overflowing makes inf * 0 = NaN
        # entries; no damping can then give a finite step, so the fit stops.
        jac_a = [v * e * q for v, e, q in zip(volumes, growth, jac_b)]
        if not all(map(math.isfinite, jac_a)):
            break
        h_ab = _dot(jac_a, jac_b)
        d_aa = (h_aa := _dot(jac_a, jac_a)) + lam * h_aa + 1e-12
        d_bb = (h_bb := _dot(jac_b, jac_b)) + lam * h_bb + 1e-12
        g_a, g_b = _dot(jac_a, r), _dot(jac_b, r)
        det = d_aa * d_bb - h_ab * h_ab
        if det == 0.0:
            break
        step = ((h_ab * g_b - d_bb * g_a) / det, (h_ab * g_a - d_aa * g_b) / det)
        if not all(map(math.isfinite, step)):
            break
        cand = (alpha + step[0], beta + step[1])
        if _speaker_valid(*cand, volumes) and (
            (cand_sse := _speaker_sse(*cand, volumes, observed)) <= sse
        ):
            alpha, beta, sse = cand[0], cand[1], cand_sse
            lam = max(lam / 10.0, 1e-12)
            if math.hypot(*step) < _LM_STEP_TOL:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break

    return _report(SpeakerPowerModel(alpha, beta),
                   _speaker_residuals(alpha, beta, volumes, observed))


# ---------------------------------------------------------------------------
# Serialization

# name -> (fitter, model family)
_MODELS = {
    "net": (fit_linear_rate, LinearRateModel),
    "camera": (fit_linear_rate, LinearRateModel),
    "mic": (fit_linear_rate, LinearRateModel),
    "video": (fit_video_power, VideoPowerModel),
    "speaker": (fit_speaker, SpeakerPowerModel),
    "display": (fit_display, DisplayPowerModel),
}

# JSON parameter names of each family, in field order.
_PARAM_KEYS = {
    LinearRateModel: ("static_power_w", "marginal_energy_j"),
    VideoPowerModel: ("static_power_w", "power_per_pixel_w"),
    SpeakerPowerModel: ("alpha", "beta"),
    DisplayPowerModel: ("a_w", "b_w_per_grey", "c_w_per_grey2"),
}


def fit_by_name(name: str, samples: Sequence[MeasurementSample]) -> FitReport:
    """Dispatch to the fitter for a named peripheral model."""
    if name not in _MODELS:
        raise UserInputError(f"unknown model name {name!r}")
    return _MODELS[name][0](samples)


def model_to_json(name: str, report: FitReport) -> dict:
    if name not in MODEL_NAMES:
        raise UserInputError(f"unknown model name {name!r}")
    model = report.model
    params = {key: getattr(model, field)
              for key, field in zip(_PARAM_KEYS[type(model)], model._fields)}
    return {"model": name, "params": params, "mae": report.mae}


def model_from_json(doc: object) -> tuple[str, PeripheralModel, float]:
    """Inverse of model_to_json; returns (name, model, mae)."""
    try:
        doc = json_object(doc, "document", ("model", "params", "mae"))
        name, mae = doc["model"], float(json_number(doc["mae"], "mae"))
        if name not in MODEL_NAMES:
            raise UserInputError(f"unknown model name {name!r}")
        family = _MODELS[name][1]
        params = json_object(doc["params"], "params", _PARAM_KEYS[family])
        model = family(*(float(json_number(params[key], key)) for key in _PARAM_KEYS[family]))
    except ValueError as exc:
        raise UserInputError(f"malformed model document: {exc}") from exc
    return name, model, mae


def load_model_json(path: str | Path) -> tuple[str, PeripheralModel, float]:
    return model_from_json(read_json(path, "model file"))


def load_samples_csv(path: str | Path) -> list[MeasurementSample]:
    """Read `kind,predictor,duration_s,observed` rows; errors carry line numbers."""
    samples = []
    # Lines end at "\n" alone, not at U+2028 & co.; csv drops a "\r" before it.
    reader = csv.reader(read_text(path, "samples file").split("\n"))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _CSV_HEADER:
            raise UserInputError(f"{path}:1: expected header {','.join(_CSV_HEADER)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise UserInputError(
                    f"{path}:{reader.line_num}: expected 4 columns, got {len(row)}")
            try:
                samples.append(MeasurementSample(kind=row[0].strip(), predictor=float(row[1]),
                                                 duration_s=float(row[2]),
                                                 observed=float(row[3])))
            except ValueError as exc:
                raise UserInputError(f"{path}:{reader.line_num}: {exc}") from exc
    except csv.Error as exc:  # a lone "\r" in a field, or a field past csv's size limit
        raise UserInputError(f"{path}:{reader.line_num}: {exc}") from exc
    return samples
