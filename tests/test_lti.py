"""Frequency-domain classification, the model library, and discretization.

Expected values come from five kinds of oracle: the frequency response
evaluated directly on the imaginary axis (`ni_index`), coefficient ratios
read straight off the model library, dense numerical integration of the
continuous state-space realization (for step responses), scipy's own
bilinear realization, which the simulator does not import, and the
bilinear map's frequency warp.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.integrate import solve_ivp

from niformation import cli, lti
from niformation.scenario import load_scenario, shipped_scenarios
from test_controller import one_nan

LAG = lti.TransferFunction((1.0,), (1.0, 1.0), label="unit lag")          # 1/(s+1)
DIFF = lti.TransferFunction((1.0, 0.0), (1.0,), label="differentiator")   # s
VELOCITY_MODELS = ("ugv_velx", "ugv_vely", "uav_velx", "uav_vely")


@pytest.fixture(scope="module")
def models():
    return lti.load_model_library()


def ni_index(tfn, omega):
    """-2*Im P(j*omega), P evaluated directly at each frequency."""
    s = 1j * np.asarray(omega, dtype=float)
    return -2.0 * (np.polyval(tfn.numerator, s) / np.polyval(tfn.denominator, s)).imag


# -------------------------------------------------------------------- bands

@pytest.mark.parametrize("band", [(1.0,), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0),
                                  (0.0, np.nan)])
def test_band_validation_rejects_bad_inputs(band):
    with pytest.raises(ValueError):
        lti.classify_ni(LAG, band)


def test_classification_propagates_pole_on_grid():
    osc = lti.TransferFunction((1.0,), (1.0, 0.0, 1.0))
    with pytest.raises(lti.PoleOnAxisError):
        lti.classify_ni(osc, band=(0.5, 1.5))


def test_pole_outside_the_band_is_classified():
    # 1/(s^2+1) is real on the axis away from its poles at +-j: the index
    # vanishes everywhere, so it is NI, and the band's open end excludes w=1
    osc = lti.TransferFunction((1.0,), (1.0, 0.0, 1.0))
    assert lti.classify_ni(osc, band=(1.0, np.inf)) == lti.NI


# ----------------------------------------------------------- classification

def test_unit_lag_is_sni_on_default_grid():
    assert lti.classify_ni(LAG) == lti.SNI


def test_constant_gain_is_ni_but_not_sni():
    assert lti.classify_ni(lti.TransferFunction(-0.7, 1.0)) == lti.NI
    assert lti.classify_ni(lti.TransferFunction(2.0, 1.0)) == lti.NI


def test_nonminimum_phase_allpass_is_neither():
    # P = (s-1)/(s+1): Im P(jw) = 2w/(1+w^2) > 0, so the index is negative
    # at every positive frequency.
    allpass = lti.TransferFunction((1.0, -1.0), (1.0, 1.0))
    assert lti.classify_ni(allpass, band=(1e-3, 1e4)) == lti.NEITHER


def test_velocity_models_classify_sni_on_default_grid(models):
    # minima frozen from an independent sweep of the frequency response on
    # 400 log-spaced points over 1e-3 .. 2 rad/s
    sweep = np.logspace(-3.0, np.log10(2.0), 400)
    expected_min = {"ugv_velx": 0.094391, "ugv_vely": 0.142429,
                    "uav_velx": 0.062850, "uav_vely": 0.039261}
    for name in VELOCITY_MODELS:
        m = models[name]
        assert lti.classify_ni(m) == lti.SNI, name
        assert ni_index(m, sweep).min() == pytest.approx(expected_min[name], abs=1e-5), name


def test_velocity_models_lose_sni_above_the_certified_band(models):
    # Index sign flips bracket frozen from an independent root search; each
    # model drops out of the SNI class a little above the default grid edge.
    brackets = {"ugv_velx": (3.89, 3.90), "ugv_vely": (5.25, 5.26),
                "uav_velx": (8.56, 8.58), "uav_vely": (3.33, 3.34)}
    for name, (lo, hi) in brackets.items():
        m = models[name]
        assert ni_index(m, lo) > 0.0, name
        assert ni_index(m, hi) < 0.0, name
        assert lti.classify_ni(m, band=(1e-3, 10.0)) == lti.NEITHER, name


def test_velocity_models_are_sni_up_to_the_first_index_root(models):
    # the sign-flip brackets above, and the first positive root of the index
    # polynomial to 4 decimals
    brackets = {"ugv_velx": (3.89, 3.90, 3.8957), "ugv_vely": (5.25, 5.26, 5.2505),
                "uav_velx": (8.56, 8.58, 8.5677), "uav_vely": (3.33, 3.34, 3.3335)}
    for name, (lo, hi, root) in brackets.items():
        m = models[name]
        assert lti.classify_ni(m, band=(0.0, lo)) == lti.SNI, name
        assert lti.classify_ni(m, band=(0.0, hi)) == lti.NEITHER, name
        assert lti.classify_ni(m, band=(0.0, root - 1e-4)) == lti.SNI, name
        assert lti.classify_ni(m, band=(0.0, root + 1e-4)) == lti.NEITHER, name


def test_dip_between_sample_points_is_neither():
    # a lag minus a faint, sharp resonance at w0: the index dips to about -9
    # over a few 1e-4 rad/s around w0, which falls between the points of a
    # 400-point log sweep over 1e-3 .. 2 rad/s
    w0 = 0.9978
    resonance = (1.0, 2e-4 * w0, w0 ** 2)
    dip = lti.TransferFunction(np.polyadd(resonance, np.polymul(-1e-3, (1.0, 1.0))),
                               np.polymul((1.0, 1.0), resonance))
    assert ni_index(dip, w0) == pytest.approx(-9.04, abs=0.01)
    assert ni_index(dip, np.logspace(-3.0, np.log10(2.0), 400)).min() > 0.0
    assert lti.classify_ni(dip) == lti.NEITHER
    assert lti.classify_ni(dip, band=(0.0, 0.99)) == lti.SNI


@pytest.mark.parametrize("w0", [0.5, 0.77, 1.0, 1.3])
def test_index_touching_zero_is_ni_not_sni(w0):
    # P = (s^2 + w0^2)^2 / (s + 1) has index polynomial w*(w0^2 - w^2)^2: a
    # double root at w0, where the index touches zero without changing sign
    touch = lti.TransferFunction(np.polymul((1.0, 0.0, w0 ** 2), (1.0, 0.0, w0 ** 2)), (1.0, 1.0))
    assert lti.classify_ni(touch) == lti.NI
    assert lti.classify_ni(touch, band=(0.0, 0.99 * w0)) == lti.SNI


@given(a=st.floats(0.05, 10.0), c=st.floats(-1.0, 1.0),
       zeta=st.floats(0.01, 1.0), w=st.floats(0.05, 5.0))
@settings(max_examples=60, deadline=None)
def test_exact_class_agrees_with_dense_sampling(a, c, zeta, w):
    # oracle: the index sampled on 20000 points of the default band; a
    # negative sample rules out NI, and an NI or SNI class rules out any
    # negative sample (up to rounding)
    lag, resonance = (1.0, a), (1.0, 2.0 * zeta * w, w * w)
    plant = lti.TransferFunction(np.polyadd(resonance, np.polymul(c, lag)),
                                 np.polymul(lag, resonance))
    cls = lti.classify_ni(plant)
    idx = ni_index(plant, np.linspace(2.0 / 20000, 2.0, 20000))
    if idx.min() < -1e-9:
        assert cls == lti.NEITHER
    if cls == lti.SNI:
        assert idx.min() > -1e-9


# ------------------------------------------------------------------ dc gain

def test_dc_gains_are_coefficient_ratios(models):
    for name in VELOCITY_MODELS:
        m = models[name]
        assert lti.dc_gain(m) == pytest.approx(m.numerator[-1] / m.denominator[-1])
    assert lti.dc_gain(models["uav_velx"]) == pytest.approx(28.58, abs=0.01)
    assert lti.dc_gain(lti.TransferFunction(-0.7, 1.0)) == pytest.approx(-0.7)
    assert lti.dc_gain(LAG) == pytest.approx(1.0)


def test_response_at_zero_equals_dc_gain(models):
    m = models["uav_velx"]
    at_zero = np.polyval(m.numerator, 0.0) / np.polyval(m.denominator, 0.0)
    assert at_zero == pytest.approx(lti.dc_gain(m))


def test_dc_gain_of_integrator_raises():
    with pytest.raises(lti.IntegratorError):
        lti.dc_gain(lti.TransferFunction((1.0,), (1.0, 0.0)))


# -------------------------------------------------------------- composition

# every prediction horizon in use: each shipped scenario's, and the grid
# `niformation sweep` runs by default
SHIPPED = [load_scenario(name) for name in shipped_scenarios()]
HORIZONS = sorted({scn.control.prediction_horizon_steps for scn in SHIPPED}
                  | set(cli.SWEEP_HORIZONS))


@pytest.mark.parametrize("horizon", HORIZONS)
def test_prediction_composites_are_sni_at_the_shipped_horizons(models, horizon):
    # the plant plus its prediction branch, (1 + dt*h*s)*P: the head's
    # predicted travel over h steps, at every shipped scenario's dt
    for dt in {scn.dt for scn in SHIPPED}:
        for name in VELOCITY_MODELS:
            m = models[name]
            composite = lti.TransferFunction(np.polymul((dt * horizon, 1.0), m.numerator),
                                             m.denominator)
            assert lti.classify_ni(composite) == lti.SNI, (name, dt, horizon)


@given(a=st.floats(0.05, 50.0), b=st.floats(0.05, 50.0))
@settings(max_examples=25, deadline=None)
def test_two_first_order_lags_compose_to_sni(a, b):
    # 1/(s+a) + 1/(s+b)
    two_lags = lti.TransferFunction(np.polyadd((1.0, b), (1.0, a)),
                                    np.polymul((1.0, a), (1.0, b)))
    assert lti.classify_ni(two_lags) == lti.SNI


# ------------------------------------------------------------ discretization

def test_constant_gain_discretizes_to_memoryless_map():
    plant = lti.discretize(lti.TransferFunction(2.0, 1.0), 0.02)
    assert plant.step(3.0) == pytest.approx(6.0)
    assert plant.step(-1.0) == pytest.approx(-2.0)


def test_unit_lag_step_response_matches_continuous_solution():
    plant = lti.discretize(LAG, 0.02)
    ys = [plant.step(1.0) for _ in range(51)]
    assert ys[50] == pytest.approx(1.0 - np.exp(-1.0), abs=0.01)


def test_improper_transfer_function_cannot_be_discretized():
    with pytest.raises(ValueError):
        lti.discretize(DIFF, 0.02)


@pytest.mark.parametrize("tfn", [lti.TransferFunction(2.0, 1.0), LAG])
@pytest.mark.parametrize("sample_time", [0.0, -0.02, math.nan, math.inf])
def test_sample_time_must_be_finite_and_positive(tfn, sample_time):
    with pytest.raises(ValueError, match="sample_time"):
        lti.discretize(tfn, sample_time)


def test_velocity_model_step_response_matches_dense_integration(models):
    # oracle: adaptive dense integration of the continuous realization,
    # sampled at the discrete instants
    m = models["ugv_velx"]
    a, b, c, d = signal.tf2ss(m.numerator, m.denominator)

    def deriv(_t, x):
        return (a @ x.reshape(-1, 1) + b).ravel()

    tgrid = np.arange(0.0, 6.0 + 1e-12, 0.02)
    sol = solve_ivp(deriv, (0.0, 6.0), np.zeros(a.shape[0]), t_eval=tgrid,
                    rtol=1e-10, atol=1e-12, method="LSODA")
    y_cont = (c @ sol.y).ravel() + float(np.asarray(d).ravel()[0])

    plant = lti.discretize(m, 0.02)
    y_disc = np.array([plant.step(1.0) for _ in range(len(tgrid))])
    assert np.max(np.abs(y_disc - y_cont)) < 0.05


def test_discretization_preserves_dc_gain(models):
    # oracle: the discrete realization's gain at z = 1, C (I - A)^-1 B + D
    for name, tfn in models.items():
        dc = lti.dc_gain(tfn)
        for dt in (0.01, 0.02, 0.05):
            plant = lti.discretize(tfn, dt)
            eye = np.eye(plant.a.shape[0])
            got = float((plant.c @ np.linalg.solve(eye - plant.a, plant.b))[0, 0]) + plant.d
            assert abs(got - dc) <= 1e-9 * abs(dc), (name, dt)


def test_zero_input_from_rest_stays_at_zero(models):
    plant = lti.discretize(models["uav_vely"], 0.02)
    assert all(plant.step(0.0) == 0.0 for _ in range(100))


def test_noise_requires_rng_and_is_reproducible(models):
    m = models["ugv_velx"]
    with pytest.raises(ValueError, match="rng"):
        lti.PlantBank([lti.discretize(m, 0.02)], noise_std=1.0)
    one, two = (lti.PlantBank([lti.discretize(m, 0.02)], 1.0, np.random.default_rng(7))
                for _ in range(2))
    seq_one = [one.step([1.0]) for _ in range(20)]
    seq_two = [two.step([1.0]) for _ in range(20)]
    assert seq_one == seq_two


@given(data=st.data(), names=st.lists(st.sampled_from(VELOCITY_MODELS + ("lag",)),
                                      min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_plant_bank_equals_stepping_each_plant_in_turn(data, names, seed):
    # mixed orders (the lag is first order) and the bank's noise on or off:
    # the noise oracle is each plant stepped noise-free in turn plus
    # noise_std times one draw per step from a generator seeded alike
    library = lti.load_model_library()
    noise_std = data.draw(st.sampled_from((0.0, 0.5)))

    def build():
        return [lti.discretize(LAG if name == "lag"
                               else library[name], 0.02)
                for name in names]

    one_by_one, rng = build(), np.random.default_rng(seed)
    bank = lti.PlantBank(build(), noise_std, np.random.default_rng(seed))
    for _ in range(25):
        u = np.array(data.draw(st.lists(st.floats(-200.0, 200.0),
                                        min_size=len(names),
                                        max_size=len(names))))
        want = np.array([plant.step(float(v)) for plant, v in zip(one_by_one, u)])
        if noise_std:
            want += noise_std * rng.standard_normal(len(names))
        assert np.array(bank.step(u)).tobytes() == want.tobytes()


def numpy_bank_step(bank, state, u):
    """`PlantBank.step` as it was on numpy arrays, from the stacked `state`:
    the oracle of the float step.  Returns the outputs and the next state."""
    y = (bank.c @ state).ravel() + np.asarray(bank.d) * u
    if bank.noise_std:
        y += bank.noise_std * bank.rng.standard_normal(y.size)
    state = bank.a @ state
    state += bank.b * u.reshape(-1, 1, 1)
    return y, state


@given(data=st.data(),
       names=st.one_of(st.lists(st.sampled_from(VELOCITY_MODELS + ("lag",)),
                                min_size=1, max_size=6),
                       st.lists(st.just("lag"), min_size=1, max_size=6)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_float_plant_bank_step_equals_the_numpy_step_bit_for_bit(data, names, seed):
    # mixed orders (the lag is first order), or lags alone, which step on
    # floats; the bank's noise on or off, inputs that hold signed zeros, NaN
    # and infinities, and states that start at signed zeros: c * -0.0 and
    # a * -0.0 are -0.0, which the dot's `+ 0.0` turns positive
    library = lti.load_model_library()
    noise_std = data.draw(st.sampled_from((0.0, 0.5)))
    starts = data.draw(st.lists(st.lists(st.sampled_from((0.0, -0.0)), min_size=4,
                                         max_size=4),
                                min_size=len(names), max_size=len(names)))

    def build():
        plants = [lti.discretize(LAG if name == "lag" else library[name], 0.02)
                  for name in names]
        for plant, start in zip(plants, starts):
            plant.state = np.reshape(start[: plant.a.shape[0]], (-1, 1))
        return lti.PlantBank(plants, noise_std, np.random.default_rng(seed))

    bank, oracle = build(), build()
    state = oracle.state
    # half the examples step finite inputs alone: a NaN or an infinity stays
    # in the states and would mask a rounding difference in later steps
    inputs = st.floats(-200.0, 200.0)
    if data.draw(st.booleans()):
        inputs |= st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
    for _ in range(25):
        u = data.draw(st.lists(inputs, min_size=len(names), max_size=len(names)))
        with np.errstate(all="ignore"):
            want, state = numpy_bank_step(oracle, state, np.array(u))
            got = bank.step(u)
        assert one_nan(got).tobytes() == one_nan(want).tobytes()
        assert bank.state.tobytes() == state.tobytes()


@pytest.mark.parametrize("start, u", [(-0.0, -0.0), (-math.nan, math.nan)])
def test_a_first_order_bank_steps_as_numpy_on_signed_zeros_and_nan(start, u):
    # c * -0.0 and a * -0.0 are -0.0, which numpy's dot adds to +0.0; where
    # two NaNs meet, numpy's in-place add keeps the first's sign in its
    # vector lanes and the second's in the rest (9 plants: 8 and 1), which
    # no float order repeats, so a NaN state steps on numpy
    def build():
        plants = [lti.discretize(LAG, 0.02) for _ in range(9)]
        for plant in plants:
            plant.state = np.array([[start]])
        return lti.PlantBank(plants)

    bank, oracle = build(), build()
    with np.errstate(all="ignore"):
        want, state = numpy_bank_step(oracle, oracle.state, np.full(9, u))
        got = bank.step([u] * 9)
    assert one_nan(got).tobytes() == one_nan(want).tobytes()
    assert bank.state.tobytes() == state.tobytes()


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("dt", [0.02, 0.005])
def test_shared_realizations_equal_a_direct_discretization(models, dt):
    lti._bilinear.cache_clear()
    for _ in ("cold", "warm"):
        for name, tfn in models.items():
            want = signal.cont2discrete(signal.tf2ss(tfn.numerator, tfn.denominator),
                                        dt, method="bilinear")
            plant = lti.discretize(tfn, dt)
            for got, ref in zip((plant.a, plant.b, plant.c, plant.d), want):
                assert np.shape(got) == np.shape(ref) or np.size(ref) == 1
                assert bits(got) == bits(ref), (name, dt)
    assert lti._bilinear.cache_info().hits == len(models)


# proper transfer functions for the scipy oracle: coefficients of either
# sign between 0.01 and 100, a quarter of them signed zeros (a zero scale
# keeps the sign), and nonzero leading coefficients
NONZERO = st.builds(operator.mul, st.sampled_from((1.0, -1.0)),
                    st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))
COEFFICIENTS = st.builds(operator.mul, st.sampled_from((0.0, 1.0, 1.0, 1.0)), NONZERO)


@st.composite
def proper_transfer_functions(draw, lo, hi):
    """A proper transfer function of order lo..hi, and a sample time."""
    order = draw(st.integers(lo, hi))
    den = [draw(NONZERO)] + draw(st.lists(COEFFICIENTS, min_size=order, max_size=order))
    num = [draw(NONZERO)] + draw(st.lists(COEFFICIENTS, max_size=order))
    return lti.TransferFunction(num, den), draw(st.floats(1e-3, 0.5))


def scipy_bilinear(tfn, dt):
    """scipy's bilinear realization of `tfn` at `dt`, the matrix
    I - (dt/2) A its solves factor, and the continuous C and D."""
    a, b, c, d = signal.tf2ss(tfn.numerator, tfn.denominator)
    ima = np.eye(len(a)) - 0.5 * dt * a
    assume(np.linalg.cond(ima) < 1e12)  # scipy warns when it is near singular
    return signal.cont2discrete((a, b, c, d), dt, method="bilinear"), ima, c, d


def solved_by_lu_in_scipy(ima) -> bool:
    """Whether scipy's `linalg.solve` factors `ima` by LU, as numpy's does.

    It detects triangular, symmetric and tridiagonal matrices and solves
    them with other LAPACK routines.  I - (dt/2) A, for tf2ss's companion
    A, is lower triangular when the denominator's coefficients after the
    second are zero, tridiagonal when those after the third are, and a
    symmetric 2x2 when den[2] == -den[0].  A 1x1 solve is one division
    either way.
    """
    n = len(ima)
    structured = (not np.triu(ima, 1).any() or (n >= 3 and not np.triu(ima, 2).any())
                  or np.array_equal(ima, ima.T))
    return n == 1 or not structured


def assert_within_conditioning(plant, want, ima, c, d):
    # each side's solve is backward stable, so each lies within a small
    # multiple of cond(ima) * eps of the exact realization, relative to the
    # largest entry; Dd = D + C Bd / 2 carries Bd's error through C
    tol = 8 * len(ima) * np.linalg.cond(ima) * np.finfo(float).eps
    for got, ref in zip((plant.a, plant.b, plant.c), want):
        assert np.shape(got) == np.shape(ref)
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
    scale = abs(d[0, 0]) + 0.5 * np.sum(np.abs(c)) * np.max(np.abs(want[1]))
    assert abs(plant.d - want[3][0, 0]) <= tol * scale


@given(drawn=proper_transfer_functions(1, 5))
@settings(max_examples=200, deadline=None)
def test_realizations_up_to_order_five_equal_scipys_bit_for_bit(drawn):
    # where scipy's solve takes its LU path; where it detects a structure,
    # its other LAPACK routine may round differently
    tfn, dt = drawn
    want, ima, c, d = scipy_bilinear(tfn, dt)
    plant = lti.discretize(tfn, dt)
    if not solved_by_lu_in_scipy(ima):
        assert_within_conditioning(plant, want, ima, c, d)
        return
    for got, ref in zip((plant.a, plant.b, plant.c, plant.d), want):
        assert np.shape(got) == np.shape(ref) or np.size(ref) == 1
        assert bits(got) == bits(ref)


@given(drawn=proper_transfer_functions(6, 8))
@settings(max_examples=100, deadline=None)
def test_realizations_of_orders_six_to_eight_agree_with_scipys(drawn):
    # numpy's and scipy's wheels bundle their own OpenBLAS, whose LU can
    # round differently on an ill-conditioned I - (dt/2) A at these orders
    tfn, dt = drawn
    want, ima, c, d = scipy_bilinear(tfn, dt)
    assert_within_conditioning(lti.discretize(tfn, dt), want, ima, c, d)


@pytest.mark.parametrize("numerator, denominator", [
    ((1e-20, 1.0), (1.0, 2.0, 1.0)),
    ((1e-15, -1e-16, 3.0), (1.0, 2.0, 1.0)),
    ((1e-13, 1.0), (100.0, 2.0, 1.0)),  # trimmed after the division by den[0]
    ((1e-20,), (1.0, 2.0, 1.0)),        # one coefficient is always kept
])
def test_tiny_leading_numerator_coefficients_are_trimmed_as_scipy_trims_them(
        numerator, denominator):
    tfn = lti.TransferFunction(numerator, denominator)
    lti._bilinear.cache_clear()
    with pytest.warns(UserWarning, match="Badly conditioned"):
        plant = lti.discretize(tfn, 0.02)
    with pytest.warns(signal.BadCoefficients):
        want = signal.cont2discrete(signal.tf2ss(tfn.numerator, tfn.denominator),
                                    0.02, method="bilinear")
    for got, ref in zip((plant.a, plant.b, plant.c, plant.d), want):
        assert bits(got) == bits(ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("numerator, denominator", [
    ((0.0,), (1.0, 1.0)),
    ((0.0, -0.0, 0.0), (1.0, -3.0, 2.0)),
    ((-0.0,), (-2.0, 1.0, 5.0, 3.0)),
])
def test_a_zero_numerator_is_realized_without_a_warning(numerator, denominator):
    # the zero function has no leading coefficient to trim, so it warns of
    # none, under -W error too: C and D are zero, and A and B are those of
    # any other numerator over the same denominator
    lti._bilinear.cache_clear()
    plant = lti.discretize(lti.TransferFunction(numerator, denominator), 0.02)
    unit = lti.discretize(lti.TransferFunction((1.0,), denominator), 0.02)
    assert bits(plant.a) == bits(unit.a) and bits(plant.b) == bits(unit.b)
    assert bits(plant.c) == bits(np.zeros(unit.c.shape)) and bits(plant.d) == bits(0.0)


def test_realizations_follow_the_bilinear_frequency_warp(models):
    # an oracle that shares no arithmetic with the realization: the bilinear
    # map sends z = exp(j w h) to s = j (2/h) tan(w h / 2), where the
    # discrete response must equal the continuous one
    h = 0.02
    for name, tfn in models.items():
        plant = lti.discretize(tfn, h)
        eye = np.eye(plant.a.shape[0])
        for fraction in (0.001, 0.1, 0.5, 0.9):
            w = fraction * np.pi / h
            z = np.exp(1j * w * h)
            got = (plant.c @ np.linalg.solve(z * eye - plant.a, plant.b))[0, 0] + plant.d
            s = 2j / h * np.tan(w * h / 2)
            want = np.polyval(tfn.numerator, s) / np.polyval(tfn.denominator, s)
            assert abs(got - want) <= 1e-9 * abs(want), (name, fraction)


def test_coefficients_that_differ_in_the_sign_of_a_zero_share_no_entry():
    lti._bilinear.cache_clear()
    lti.discretize(lti.TransferFunction((1.0, 0.0), (1.0, 2.0, 1.0)), 0.02)
    lti.discretize(lti.TransferFunction((1.0, -0.0), (1.0, 2.0, 1.0)), 0.02)
    assert lti._bilinear.cache_info().misses == 2


def test_shared_matrices_are_read_only(models):
    plant = lti.discretize(models["ugv_velx"], 0.02)
    for matrix in (plant.a, plant.b, plant.c):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


def test_noisy_plants_from_one_entry_keep_their_own_states(models):
    # the noise belongs to a bank; plants realized from one cache entry
    # share its matrices and step their own states
    m = models["ugv_velx"]

    def alone(u):
        lti._bilinear.cache_clear()
        plant = lti.discretize(m, 0.02)
        return [plant.step(u) for _ in range(20)]

    one = lti.discretize(m, 0.02)
    two = lti.discretize(m, 0.02)
    assert one.a is two.a
    ys = [(one.step(1.0), two.step(-1.0)) for _ in range(20)]
    assert [y for y, _ in ys] == alone(1.0)
    assert [y for _, y in ys] == alone(-1.0)


# ------------------------------------------------------------------- library

def test_library_contents(models):
    assert set(models) == {"ugv_velx", "ugv_vely", "uav_velx", "uav_vely",
                           "ugv_yaw_rate"}
    assert all(tfn.label == name for name, tfn in models.items())
    assert models["ugv_velx"].numerator[-1] == pytest.approx(54489.05)
    assert models["ugv_yaw_rate"].denominator == (0.3, 1.0)


def test_library_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "empty.yaml"
    bad.write_text("models: {}\n")
    with pytest.raises(ValueError):
        lti.load_model_library(bad)
    bad.write_text("models:\n  broken:\n    numerator: [1.0]\n")
    with pytest.raises(ValueError, match="broken"):
        lti.load_model_library(bad)
    bad.write_text("models:\n  - numerator: [1.0]\n    denominator: [1.0, 1.0]\n")
    with pytest.raises(ValueError, match="nonempty 'models' mapping"):
        lti.load_model_library(bad)
    bad.write_text("models:\n  lag:\n    numerator: [1.0]\n    denominator: [1.0, 1.0]\n"
                   "    certification_gain: -0.7\n")
    with pytest.raises(ValueError, match="model 'lag': certification_gain: unknown field"):
        lti.load_model_library(bad)
    bad.write_text("models:\n  lag: [1.0, 1.0]\n")
    with pytest.raises(ValueError, match="model 'lag': expected a mapping"):
        lti.load_model_library(bad)


def test_a_changed_library_dict_leaves_the_next_load_as_shipped():
    first = lti.load_model_library()
    shipped = dict(first)
    first["ugv_vely"] = first.pop("uav_vely")
    first.clear()
    assert lti.load_model_library() == shipped


def test_a_library_path_is_read_on_every_call(tmp_path):
    path = tmp_path / "models.yaml"
    for pole in (1.0, 2.0):
        path.write_text(f"models:\n  lag:\n    numerator: [1.0]\n"
                        f"    denominator: [1.0, {pole}]\n")
        assert lti.load_model_library(path)["lag"].denominator == (1.0, pole)


# --------------------------------------------------------------- properties

@given(a=st.floats(0.05, 50.0))
@settings(max_examples=25, deadline=None)
def test_first_order_lags_are_sni(a):
    assert lti.classify_ni(lti.TransferFunction((1.0,), (1.0, a))) == lti.SNI


@given(k=st.floats(-5.0, 5.0))
@settings(max_examples=25, deadline=None)
def test_dc_gain_scales_linearly(k):
    scaled = lti.TransferFunction(np.polymul(k, LAG.numerator), LAG.denominator)
    assert lti.dc_gain(scaled) == pytest.approx(k * lti.dc_gain(LAG))
