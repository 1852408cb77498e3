"""Reference peripheral fits in numpy: SVD least squares and a broadcast grid.

`co2meter.device_models` fits in plain Python (Householder QR, a loop over
the speaker grid and a closed-form 2x2 LM step); the tests hold it to these.
`speaker_grid_loop` is that loop without the library's pruning, the
reference its pruned grid must equal bit for bit.
"""

import math

import numpy as np

from co2meter.device_models import (
    _LM_MAX_ITER,
    _LM_STEP_TOL,
    _SPEAKER_ALPHA_GRID,
    _SPEAKER_BETA_GRID,
    DisplayPowerModel,
    LinearRateModel,
    SpeakerPowerModel,
    VideoPowerModel,
)
from co2meter.errors import FitError

ALPHA_GRID = np.linspace(-0.2, 0.2, 81)
BETA_GRID = np.linspace(-0.9, 4.0, 99)


def columns(samples):
    """(predictor, duration_s, observed) arrays."""
    return tuple(np.array([getattr(s, f) for s in samples], dtype=float)
                 for f in ("predictor", "duration_s", "observed"))


def lstsq(design, observed, what="NNLS"):
    """Least-squares params; FitError when lstsq's SVD finds the rank short."""
    params, _, rank, _ = np.linalg.lstsq(design, observed, rcond=None)
    if rank < design.shape[1]:
        raise FitError(f"rank-deficient design matrix for {what} fit")
    return params


def nnls2(design, observed, what="NNLS"):
    """Two-column NNLS: lstsq if non-negative, else the better one-column fit."""
    params = lstsq(design, observed, what)
    if np.all(params >= 0):
        return params
    faces = np.diag(np.maximum(observed @ design / (design * design).sum(0), 0.0))
    sse = np.sum((design @ faces - observed[:, None]) ** 2, axis=0)
    return faces[:, np.argmin(sse)]


def fit_linear_rate(samples):
    units, duration, observed = columns(samples)
    return LinearRateModel(*map(float, nnls2(np.column_stack([duration, units]), observed)))


def fit_video_power(samples):
    pixels, _, observed = columns(samples)
    design = np.column_stack([np.ones_like(pixels), pixels])
    return VideoPowerModel(*map(float, nnls2(design, observed)))


def fit_display(samples):
    grey, _, observed = columns(samples)
    design = np.column_stack([np.ones_like(grey), grey, grey * grey])
    return DisplayPowerModel(*map(float, lstsq(design, observed, "display")))


def speaker_sse(alpha, beta, volumes, observed):
    r = 1.0 / (1.0 + np.exp(alpha * volumes) + beta) - observed
    return float(r @ r)


def speaker_valid(alpha, beta, volumes):
    with np.errstate(over="ignore"):  # an overflowing denominator is invalid
        den = 1.0 + np.exp(alpha * volumes) + beta
    return bool(np.all(np.isfinite(den)) and np.all(den > 1e-9))


def speaker_grid_init(volumes, observed):
    """Best (alpha, beta, sse) on the grid from one (alpha, beta, volume) array;
    the first point in alpha-major order wins a tie."""
    with np.errstate(over="ignore"):
        growth = 1.0 + np.exp(np.multiply.outer(ALPHA_GRID, volumes))
        den = growth[:, None, :] + BETA_GRID[:, None]
        admissible = np.flatnonzero(np.all(np.isfinite(den) & (den > 1e-9), axis=2))
        if admissible.size == 0:
            raise FitError("no admissible speaker parameters on the search grid")
        resid = np.subtract(np.reciprocal(den, out=den), observed, out=den)
        sse = np.einsum("abn,abn->ab", resid, resid).ravel()
    best = admissible[np.argmin(sse[admissible])]
    i, j = divmod(int(best), BETA_GRID.size)
    return float(ALPHA_GRID[i]), float(BETA_GRID[j]), float(sse[best])


def speaker_grid_loop(volumes, observed):
    """Best (alpha, beta, sse) visiting every grid point in alpha-major order,
    each with the full fsum of its squared residuals; the first point wins a tie."""
    best = None
    for alpha in _SPEAKER_ALPHA_GRID:
        try:
            growth = [1.0 + math.exp(alpha * v) for v in volumes]
        except OverflowError:
            continue
        if not all(map(math.isfinite, growth)):
            continue
        for beta in _SPEAKER_BETA_GRID:
            if not min(growth) + beta > 1e-9:
                continue
            sse = math.fsum([(1.0 / (g + beta) - o) ** 2 for g, o in zip(growth, observed)])
            if best is None or sse < best[2]:
                best = (alpha, beta, sse)
    if best is None:
        raise FitError("no admissible speaker parameters on the search grid")
    return best


def fit_speaker(samples):
    """Grid start, then Levenberg-Marquardt with numpy's 2x2 solve."""
    volumes, _, observed = columns(samples)
    alpha, beta, sse = speaker_grid_init(volumes, observed)
    lam = 1e-3
    for _ in range(_LM_MAX_ITER):
        den = 1.0 + np.exp(alpha * volumes) + beta
        r = 1.0 / den - observed
        with np.errstate(over="ignore", invalid="ignore"):
            inv_sq = 1.0 / (den * den)
            jac = np.column_stack([-volumes * np.exp(alpha * volumes) * inv_sq, -inv_sq])
        if not np.all(np.isfinite(jac)):
            break
        hess = jac.T @ jac
        damped = hess + lam * np.diag(np.diag(hess)) + 1e-12 * np.eye(2)
        try:
            step = np.linalg.solve(damped, -(jac.T @ r))
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        cand = (alpha + float(step[0]), beta + float(step[1]))
        if speaker_valid(*cand, volumes) and (
            (cand_sse := speaker_sse(*cand, volumes, observed)) <= sse
        ):
            alpha, beta, sse = cand[0], cand[1], cand_sse
            lam = max(lam / 10.0, 1e-12)
            if float(np.linalg.norm(step)) < _LM_STEP_TOL:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return SpeakerPowerModel(alpha, beta)
