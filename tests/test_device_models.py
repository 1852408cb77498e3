"""Peripheral energy/power models: arithmetic, fits, invariants, I/O."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from co2meter import device_models as dm
from co2meter.errors import ConfigurationError, FitError, UserInputError
from device_models_reference import speaker_grid_init as reference_grid_init

# ---------------------------------------------------------------------------
# Direct model arithmetic


def test_linear_rate_energy_is_affine():
    model = dm.LinearRateModel(static_power_w=0.5, marginal_energy_j=1e-8)
    assert model.energy(2.0, 10.0) == 0.5 * 2.0 + 1e-8 * 10.0
    assert model.energy(0.0, 0.0) == 0.0


def test_linear_rate_rejects_negative_inputs():
    model = dm.LinearRateModel(1.0, 1.0)
    with pytest.raises(ValueError):
        model.energy(-1.0, 0.0)
    with pytest.raises(ValueError):
        dm.LinearRateModel(-0.1, 0.0)


def test_video_power_affine_in_pixels():
    model = dm.VideoPowerModel(0.2, 1e-8)
    assert model.power(384000) == pytest.approx(0.2 + 1e-8 * 384000, rel=1e-12)


def test_speaker_power_shape():
    model = dm.SpeakerPowerModel(alpha=-0.05, beta=0.2)
    # denominator 1 + exp(alpha v) + beta: increasing volume, increasing power
    assert model.power(0.0) == pytest.approx(1.0 / 2.2, rel=1e-12)
    assert model.power(60.0) > model.power(10.0)


def test_speaker_power_rejects_nonpositive_denominator():
    model = dm.SpeakerPowerModel(alpha=0.0, beta=-2.5)
    with pytest.raises(ValueError):
        model.power(10.0)


def test_display_power_quadratic_and_grey_range():
    model = dm.DisplayPowerModel(4.0, -0.012, 2e-5)
    grey = 128.0
    assert model.power(grey) == pytest.approx(4.0 - 0.012 * grey + 2e-5 * grey * grey)
    with pytest.raises(ValueError):
        model.power(-1.0)
    with pytest.raises(ValueError):
        model.power(256.0)


def test_display_model_must_be_positive_over_grey_range():
    # negative at the upper endpoint
    with pytest.raises(ValueError):
        dm.DisplayPowerModel(1.0, -0.02, 0.0)
    # negative at the interior vertex (x = 200) even though endpoints are fine
    with pytest.raises(ValueError):
        dm.DisplayPowerModel(3.0, -0.04, 1e-4)
    dm.DisplayPowerModel(5.0, -0.04, 1e-4)  # shifted up: valid


def test_background_energy():
    assert dm.background_energy(0.8, 480.0) == 384.0
    assert dm.background_energy(0.8, 0.0) == 0.0
    with pytest.raises(ValueError):
        dm.background_energy(-0.1, 10.0)


def test_conversion_energy_lookup():
    table = {"ocr": 15.0, "stt": 12.0, "tts": 9.0}
    assert dm.conversion_energy("stt", table) == 12.0
    with pytest.raises(ConfigurationError):
        dm.conversion_energy("asr", table)


# ---------------------------------------------------------------------------
# Noiseless fit recovery (bundled measurement files are noiseless by
# construction; their generating parameters are committed in truth.json)


def _bundled(name):
    from co2meter import assets

    samples = dm.load_samples_csv(assets.measurement_csv(name))
    truth = __import__("json").loads(
        (assets.asset_root() / "measurements" / "truth.json").read_text()
    )
    return samples, truth[name]


@pytest.mark.parametrize("name", ["net", "camera", "mic"])
def test_noiseless_linear_recovery(name):
    samples, truth = _bundled(name)
    model = dm.fit_linear_rate(samples).model
    assert model.static_power_w == pytest.approx(truth["static_power_w"], rel=1e-9)
    assert model.marginal_energy_j == pytest.approx(truth["marginal_energy_j"], rel=1e-9)


def test_noiseless_video_recovery():
    samples, truth = _bundled("video")
    model = dm.fit_video_power(samples).model
    assert model.static_power_w == pytest.approx(truth["static_power_w"], rel=1e-9)
    assert model.power_per_pixel_w == pytest.approx(truth["power_per_pixel_w"], rel=1e-9)


def test_noiseless_display_recovery():
    samples, truth = _bundled("display")
    model = dm.fit_display(samples).model
    assert model.a == pytest.approx(truth["a_w"], rel=1e-9)
    assert model.b == pytest.approx(truth["b_w_per_grey"], rel=1e-9)
    assert model.c == pytest.approx(truth["c_w_per_grey2"], rel=1e-9)


def test_noiseless_speaker_recovery():
    samples, truth = _bundled("speaker")
    model = dm.fit_speaker(samples).model
    assert model.alpha == pytest.approx(truth["alpha"], rel=1e-6)
    assert model.beta == pytest.approx(truth["beta"], rel=1e-6)


# ---------------------------------------------------------------------------
# Noisy fit recovery: 5% multiplicative noise, 200 samples, seed 42.
# Each family draws from its own generator so the cases are order-independent.


def _noise(rng, n=200):
    return 1.0 + rng.normal(0.0, 0.05, n)


def _energy_samples(units, durations, observed):
    return [
        dm.MeasurementSample("energy", float(u), float(d), float(o))
        for u, d, o in zip(units, durations, observed)
    ]


def _power_samples(predictors, observed):
    return [
        dm.MeasurementSample("power", float(p), 1.0, float(o))
        for p, o in zip(predictors, observed)
    ]


@pytest.mark.parametrize(
    "static_w,marginal_j,dur_range,units_hi",
    [
        (0.5, 1e-8, (1.0, 10.0), 1e9),  # network bits
        (1.0, 0.05, (1.0, 10.0), 60.0),  # camera frames
        (0.02, 3e-6, (60.0, 600.0), 5.76e6),  # microphone samples
    ],
)
def test_noisy_linear_recovery(static_w, marginal_j, dur_range, units_hi):
    rng = np.random.default_rng(42)
    dur = rng.uniform(*dur_range, 200)
    units = rng.uniform(1.0, units_hi, 200)
    observed = (static_w * dur + marginal_j * units) * _noise(rng)
    model = dm.fit_linear_rate(_energy_samples(units, dur, observed)).model
    assert model.static_power_w == pytest.approx(static_w, rel=0.05)
    assert model.marginal_energy_j == pytest.approx(marginal_j, rel=0.05)


def test_noisy_video_recovery():
    rng = np.random.default_rng(42)
    pixels = rng.uniform(5e4, 2.1e6, 200)
    observed = (0.2 + 2e-7 * pixels) * _noise(rng)
    model = dm.fit_video_power(_power_samples(pixels, observed)).model
    assert model.static_power_w == pytest.approx(0.2, rel=0.05)
    assert model.power_per_pixel_w == pytest.approx(2e-7, rel=0.05)


def test_noisy_speaker_recovery():
    rng = np.random.default_rng(42)
    volumes = np.linspace(0.0, 100.0, 200)
    observed = 1.0 / (1.0 + np.exp(-0.05 * volumes) + 0.2) * _noise(rng)
    model = dm.fit_speaker(_power_samples(volumes, observed)).model
    assert model.alpha == pytest.approx(-0.05, rel=0.05)
    assert model.beta == pytest.approx(0.2, rel=0.05)


def test_noisy_display_recovery():
    rng = np.random.default_rng(42)
    greys = rng.uniform(0.0, 255.0, 200)
    observed = (4.0 - 0.012 * greys + 2e-5 * greys**2) * _noise(rng)
    model = dm.fit_display(_power_samples(greys, observed)).model
    assert model.a == pytest.approx(4.0, rel=0.05)
    assert model.b == pytest.approx(-0.012, rel=0.05)
    assert model.c == pytest.approx(2e-5, rel=0.05)


# ---------------------------------------------------------------------------
# Fit reports and failure modes


def test_fit_report_errors_are_zero_on_noiseless_data():
    samples, _ = _bundled("net")
    report = dm.fit_linear_rate(samples)
    assert report.n_samples == len(samples)
    assert report.mae <= 1e-12
    assert report.max_abs_err <= 1e-10


def test_fit_linear_rate_rank_deficient():
    # identical rows: design has rank 1
    samples = [dm.MeasurementSample("energy", 10.0, 2.0, 5.0)] * 8
    with pytest.raises(FitError):
        dm.fit_linear_rate(samples)


def test_fit_display_rejects_out_of_range_grey():
    samples = _power_samples([0.0, 100.0, 300.0], [4.0, 3.0, 2.0])
    with pytest.raises(FitError):
        dm.fit_display(samples)


def test_fit_speaker_needs_two_distinct_volumes():
    samples = _power_samples([10.0] * 5, [0.5] * 5)
    with pytest.raises(FitError):
        dm.fit_speaker(samples)


def test_fit_speaker_refinement_never_worse_than_grid():
    # a few clean points: LM must land essentially on the generating params,
    # achieving an SSE no worse than any grid candidate
    rng = np.random.default_rng(7)
    volumes = rng.uniform(0.0, 100.0, 40)
    observed = 1.0 / (1.0 + np.exp(-0.07 * volumes) + 0.9)
    report = dm.fit_speaker(_power_samples(volumes, observed))
    assert report.mae < 1e-8


# ---------------------------------------------------------------------------
# Closed-form two-column NNLS and the one-pass speaker grid


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 25),
    log_scales=st.tuples(st.floats(0.0, 9.0), st.floats(0.0, 9.0)),
    rho=st.floats(-0.999, 0.999),
    noise=st.floats(0.0, 1.0),
    positive=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_nnls2_satisfies_kkt(seed, n, log_scales, rho, noise, positive):
    # columns with correlation rho, scaled by 1 to 1e9, and a target whose
    # generating coefficients may have either sign
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    cols = np.column_stack([z[:, 0], rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]])
    scales = 10.0 ** np.array(log_scales)
    design = (np.abs(cols) if positive else cols) * scales
    observed = design @ (rng.normal(size=2) / scales) + noise * rng.normal(size=n)
    assume(np.linalg.matrix_rank(design) == 2)
    x = dm._nnls2(design, observed)
    grad = design.T @ (design @ x - observed)
    tol = 1e-12 * np.linalg.norm(design, axis=0) * (
        np.linalg.norm(observed) + np.linalg.norm(design @ x)
    )
    assert np.all(x >= 0)
    assert np.all(grad[x == 0] >= -tol[x == 0])
    assert np.all(np.abs(grad[x > 0]) <= tol[x > 0])


def test_negative_slope_gives_zero_marginal_and_one_column_static():
    # energy falls as the unit count grows: the least-squares marginal is
    # negative, so NNLS pins it at zero and fits the static term alone
    duration = np.array([1.0, 2.0, 1.0, 2.0, 1.5])
    units = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    observed = 0.8 * duration - 0.01 * units + 0.5
    design = np.column_stack([duration, units])
    assert np.linalg.lstsq(design, observed, rcond=None)[0][1] < 0
    model = dm.fit_linear_rate(_energy_samples(units, duration, observed)).model
    assert model.marginal_energy_j == 0.0
    assert model.static_power_w == pytest.approx(
        duration @ observed / (duration @ duration), rel=1e-15
    )


def _speaker_cases():
    samples, _ = _bundled("speaker")
    volumes, _, observed = dm._as_arrays(samples, "power")
    yield volumes, observed
    rng = np.random.default_rng(42)
    volumes = np.linspace(0.0, 100.0, 200)
    yield volumes, 1.0 / (1.0 + np.exp(-0.05 * volumes) + 0.2) * _noise(rng)
    # volumes up to 5000 overflow exp(alpha * v) for alpha >= 0.145, so the
    # grid point that generated the data is not admissible
    volumes = rng.uniform(0.0, 5000.0, 30)
    with np.errstate(over="ignore"):
        yield volumes, 1.0 / (1.0 + np.exp(0.15 * volumes) + 0.2)


@pytest.mark.parametrize("case", range(3), ids=["bundled", "noisy", "overflow"])
def test_speaker_grid_matches_reference_loop(case):
    volumes, observed = list(_speaker_cases())[case]
    alpha, beta, sse = dm._speaker_grid_init(volumes, observed)
    ref_alpha, ref_beta, ref_sse = reference_grid_init(volumes, observed)
    assert (alpha, beta) == (ref_alpha, ref_beta)
    assert sse == pytest.approx(ref_sse, rel=1e-12, abs=1e-300)


def test_speaker_grid_without_admissible_point():
    volumes, observed = np.array([np.nan, 1.0]), np.array([0.5, 0.5])
    for grid_init in (dm._speaker_grid_init, reference_grid_init):
        with pytest.raises(FitError, match="no admissible"):
            grid_init(volumes, observed)


@pytest.mark.parametrize("case", range(3), ids=["bundled", "noisy", "overflow"])
def test_fit_speaker_matches_fit_from_reference_grid(case, monkeypatch):
    volumes, observed = list(_speaker_cases())[case]
    samples = _power_samples(volumes, observed)
    got = dm.fit_speaker(samples).model
    monkeypatch.setattr(dm, "_speaker_grid_init", reference_grid_init)
    want = dm.fit_speaker(samples).model
    assert got.alpha == pytest.approx(want.alpha, rel=1e-9)
    assert got.beta == pytest.approx(want.beta, rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_fit_speaker_with_overflowing_exp_warns_nothing():
    # near the fit, exp(alpha * volume) * volume overflows: the Jacobian gets
    # inf * 0 = NaN entries and candidate steps overflow the denominator
    volumes, observed = list(_speaker_cases())[2]
    model = dm.fit_speaker(_power_samples(volumes, observed)).model
    _, _, grid_sse = dm._speaker_grid_init(volumes, observed)
    assert dm._speaker_sse(model.alpha, model.beta, volumes, observed) <= grid_sse


def test_fit_by_name_dispatch():
    samples, truth = _bundled("display")
    report = dm.fit_by_name("display", samples)
    assert report.model.a == pytest.approx(truth["a_w"], rel=1e-9)
    with pytest.raises(UserInputError):
        dm.fit_by_name("toaster", samples)


# ---------------------------------------------------------------------------
# Amortization: average energy per unit decreases as the rate grows


@pytest.mark.parametrize("name", ["net", "camera", "mic"])
def test_amortization_linear_models(name):
    samples, _ = _bundled(name)
    model = dm.fit_linear_rate(samples).model
    duration = 10.0
    rates = np.array([1.0, 10.0, 100.0, 1000.0])
    per_unit = [model.energy(duration, r * duration) / (r * duration) for r in rates]
    assert all(a > b for a, b in zip(per_unit, per_unit[1:]))


def test_amortization_video_pixels():
    samples, _ = _bundled("video")
    model = dm.fit_video_power(samples).model
    pixels = np.array([1e4, 1e5, 1e6, 2e6])
    per_pixel = [model.power(p) / p for p in pixels]
    assert all(a > b for a, b in zip(per_pixel, per_pixel[1:]))


@given(
    static=st.floats(1e-3, 10.0),
    marginal=st.floats(1e-12, 1.0),
    duration=st.floats(0.1, 1e4),
    n1=st.floats(1.0, 1e9),
    factor=st.floats(1.5, 1e3),
)
@settings(max_examples=60, deadline=None)
def test_amortization_property(static, marginal, duration, n1, factor):
    model = dm.LinearRateModel(static, marginal)
    n2 = n1 * factor
    assert model.energy(duration, n1) / n1 > model.energy(duration, n2) / n2


@given(
    d1=st.floats(0.1, 1e3),
    d2=st.floats(0.1, 1e3),
    n1=st.floats(0.0, 1e6),
    n2=st.floats(0.0, 1e6),
)
@settings(max_examples=60, deadline=None)
def test_linear_rate_superposition(d1, d2, n1, n2):
    model = dm.LinearRateModel(0.37, 2.5e-4)
    whole = model.energy(d1 + d2, n1 + n2)
    parts = model.energy(d1, n1) + model.energy(d2, n2)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Serialization round trips


def test_model_json_round_trip_all_families():
    cases = {
        "net": dm.LinearRateModel(0.5, 1e-8),
        "camera": dm.LinearRateModel(1.0, 0.05),
        "mic": dm.LinearRateModel(0.02, 3e-6),
        "video": dm.VideoPowerModel(0.2, 1e-8),
        "speaker": dm.SpeakerPowerModel(-0.05, 0.2),
        "display": dm.DisplayPowerModel(4.0, -0.012, 2e-5),
    }
    for name, model in cases.items():
        report = dm.FitReport(model, 0.0, 0.0, 0)
        doc = dm.model_to_json(name, report)
        got_name, got_model, got_mae = dm.model_from_json(doc)
        assert got_name == name
        assert got_model == model
        assert got_mae == 0.0


def test_model_file_round_trip(tmp_path):
    report = dm.FitReport(dm.SpeakerPowerModel(-0.05, 0.2), 1e-3, 2e-3, 26)
    path = tmp_path / "speaker.json"
    dm.save_model_json(path, "speaker", report)
    name, model, mae = dm.load_model_json(path)
    assert (name, model, mae) == ("speaker", report.model, 1e-3)


def test_samples_csv_round_trip(tmp_path):
    samples = [
        dm.MeasurementSample("energy", 1e6, 1.5, 0.51),
        dm.MeasurementSample("power", 128.0, 1.0, 2.7917),
        dm.MeasurementSample("energy", 0.0, 3.0, 1.0 / 3.0),
    ]
    path = tmp_path / "s.csv"
    dm.save_samples_csv(path, samples)
    assert dm.load_samples_csv(path) == samples


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["energy", "power"]),
            st.floats(0.0, 1e9, allow_nan=False),
            st.floats(0.01, 1e5, allow_nan=False),
            st.floats(0.0, 1e9, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=40, deadline=None)
def test_samples_csv_round_trip_property(tmp_path_factory, rows):
    samples = [dm.MeasurementSample(k, p, d, o) for k, p, d, o in rows]
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    dm.save_samples_csv(path, samples)
    assert dm.load_samples_csv(path) == samples


def test_load_samples_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(UserInputError, match=":1:"):
        dm.load_samples_csv(path)


def test_load_samples_csv_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("kind,predictor,duration_s,observed\nenergy,1.0,1.0,2.0\nenergy,oops,1.0,2.0\n")
    with pytest.raises(UserInputError, match=":3:"):
        dm.load_samples_csv(path)


def test_load_samples_csv_invalid_value_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    for row in (
        "energy,-5.0,1.0,2.0",
        "energy,nan,1.0,2.0",
        "energy,inf,1.0,2.0",
        "energy,1.0,inf,2.0",
        "power,1.0,nan,2.0",
        "energy,1.0,1.0,nan",
        "power,1.0,1.0,-inf",
    ):
        path.write_text(f"kind,predictor,duration_s,observed\nenergy,1.0,1.0,2.0\n{row}\n")
        with pytest.raises(UserInputError, match=":3:"):
            dm.load_samples_csv(path)


def test_measurement_sample_validation():
    with pytest.raises(ValueError):
        dm.MeasurementSample("heat", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        dm.MeasurementSample("energy", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        dm.MeasurementSample("power", 1.0, 1.0, -0.5)
    # power samples may have any duration tag
    dm.MeasurementSample("power", 1.0, 0.0, 0.5)


def test_speaker_fit_math_against_closed_form():
    # with two distinct volumes and two parameters the fit is exact
    volumes = np.array([0.0, 50.0, 100.0])
    alpha, beta = -0.03, 1.1
    observed = 1.0 / (1.0 + np.exp(alpha * volumes) + beta)
    model = dm.fit_speaker(_power_samples(volumes, observed)).model
    assert model.alpha == pytest.approx(alpha, abs=1e-7)
    assert model.beta == pytest.approx(beta, abs=1e-7)
    for v in (0.0, 25.0, 75.0):
        expected = 1.0 / (1.0 + math.exp(alpha * v) + beta)
        assert model.power(v) == pytest.approx(expected, rel=1e-6)
