"""Layer benchmarks of the peripheral fits, kept out of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/ -q

`fit_speaker` (grid search plus Levenberg-Marquardt) and `fit_linear_rate`
(two-column NNLS) on the bundled measurement CSVs.
"""

import pytest

from co2meter import assets
from co2meter import device_models as dm


def _samples(name):
    return dm.load_samples_csv(assets.measurement_csv(name))


def test_fit_speaker(benchmark):
    report = benchmark(dm.fit_speaker, _samples("speaker"))
    assert report.mae < 1e-12


@pytest.mark.parametrize("name", ["net", "camera", "mic"])
def test_fit_linear_rate(benchmark, name):
    report = benchmark(dm.fit_linear_rate, _samples(name))
    assert report.mae < 1e-12
