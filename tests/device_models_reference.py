"""Reference speaker grid search: one Python iteration per grid point.

`co2meter.device_models._speaker_grid_init` evaluates the whole grid in one
numpy broadcast instead; the tests hold it to this loop.
"""

import numpy as np

from co2meter.device_models import (
    _SPEAKER_ALPHA_GRID,
    _SPEAKER_BETA_GRID,
    _speaker_sse,
    _speaker_valid,
)
from co2meter.errors import FitError


def speaker_grid_init(volumes, observed):
    """Best (alpha, beta, sse) on the grid; the first point wins a tie."""
    best = None
    with np.errstate(over="ignore"):  # overflowing points are inadmissible
        for alpha in _SPEAKER_ALPHA_GRID:
            for beta in _SPEAKER_BETA_GRID:
                if not _speaker_valid(alpha, beta, volumes):
                    continue
                sse = _speaker_sse(alpha, beta, volumes, observed)
                if best is None or sse < best[2]:
                    best = (float(alpha), float(beta), sse)
    if best is None:
        raise FitError("no admissible speaker parameters on the search grid")
    return best
