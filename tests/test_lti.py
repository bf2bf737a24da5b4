"""Frequency-domain classification, certificates, and discretization.

Expected values come from three kinds of oracle: closed-form hand evaluation
(first-order lags, pure differentiator), coefficient ratios read straight off
the model library, and dense numerical integration of the continuous
state-space realization (for step responses).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.integrate import solve_ivp

from niformation import lti
from test_controller import one_nan

LAG = lti.tf((1.0,), (1.0, 1.0), label="unit lag")           # 1/(s+1)
DIFF = lti.tf((1.0, 0.0), (1.0,), label="differentiator")    # s
VELOCITY_MODELS = ("ugv_velx", "ugv_vely", "uav_velx", "uav_vely")


@pytest.fixture(scope="module")
def models():
    return lti.load_model_library()


# ---------------------------------------------------------------- evaluation

def test_unit_lag_response_matches_hand_computation():
    # 1/(1+j) = (1-j)/2
    assert lti.evaluate(LAG, 1.0) == pytest.approx(0.5 - 0.5j)


def test_differentiator_response_is_pure_imaginary():
    assert lti.evaluate(DIFF, 2.0) == pytest.approx(2.0j)


def test_response_at_zero_equals_dc_gain(models):
    m = models["uav_velx"].transfer_function
    assert lti.evaluate(m, 0.0) == pytest.approx(lti.dc_gain(m))


def test_pole_on_axis_is_reported():
    osc = lti.tf((1.0,), (1.0, 0.0, 1.0))  # 1/(s^2+1), poles at +-j
    with pytest.raises(lti.PoleOnAxisError):
        lti.evaluate(osc, 1.0)


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        lti.evaluate(LAG, -1.0)


def test_conjugate_symmetry_of_real_rational_response(models):
    m = models["ugv_vely"].transfer_function
    for w in (0.01, 0.5, 1.7):
        direct = (np.polyval(m.numerator, -1j * w)
                  / np.polyval(m.denominator, -1j * w))
        assert direct == pytest.approx(np.conj(lti.evaluate(m, w)))


# ------------------------------------------------------------------- indices

def test_unit_lag_index_is_twice_negated_imaginary_part():
    # Im P(j1) = -1/2, so the index is +1
    assert lti.sni_index(LAG, 1.0) == pytest.approx(1.0)


def test_differentiator_index_is_negative():
    assert lti.sni_index(DIFF, 1.0) == pytest.approx(-2.0)


def test_index_requires_positive_frequency():
    with pytest.raises(ValueError):
        lti.sni_index(LAG, 0.0)


# -------------------------------------------------------------------- bands

@pytest.mark.parametrize("band", [(1.0,), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0),
                                  (0.0, np.nan)])
def test_band_validation_rejects_bad_inputs(band):
    with pytest.raises(ValueError):
        lti.classify_ni(LAG, band)


def test_classification_propagates_pole_on_grid():
    osc = lti.tf((1.0,), (1.0, 0.0, 1.0))
    with pytest.raises(lti.PoleOnAxisError):
        lti.classify_ni(osc, band=(0.5, 1.5))


def test_pole_outside_the_band_is_classified():
    # 1/(s^2+1) is real on the axis away from its poles at +-j: the index
    # vanishes everywhere, so it is NI, and the band's open end excludes w=1
    osc = lti.tf((1.0,), (1.0, 0.0, 1.0))
    assert lti.classify_ni(osc, band=(1.0, np.inf)) == lti.NI


# ----------------------------------------------------------- classification

def test_unit_lag_is_sni_on_default_grid():
    assert lti.classify_ni(LAG) == lti.SNI


def test_constant_gain_is_ni_but_not_sni():
    assert lti.classify_ni(lti.tf(-0.7, 1.0)) == lti.NI
    assert lti.classify_ni(lti.tf(2.0, 1.0)) == lti.NI


def test_nonminimum_phase_allpass_is_neither():
    # P = (s-1)/(s+1): Im P(jw) = 2w/(1+w^2) > 0, so the index is negative
    # at every positive frequency.
    allpass = lti.tf((1.0, -1.0), (1.0, 1.0))
    assert lti.classify_ni(allpass, band=(1e-3, 1e4)) == lti.NEITHER


def test_velocity_models_classify_sni_on_default_grid(models):
    # minima frozen from an independent sweep of the frequency response on
    # 400 log-spaced points over 1e-3 .. 2 rad/s
    sweep = np.logspace(-3.0, np.log10(2.0), 400)
    expected_min = {"ugv_velx": 0.094391, "ugv_vely": 0.142429,
                    "uav_velx": 0.062850, "uav_vely": 0.039261}
    for name in VELOCITY_MODELS:
        m = models[name].transfer_function
        assert lti.classify_ni(m) == lti.SNI, name
        idx = np.array([lti.sni_index(m, w) for w in sweep])
        assert idx.min() == pytest.approx(expected_min[name], abs=1e-5), name


def test_velocity_models_lose_sni_above_the_certified_band(models):
    # Index sign flips bracket frozen from an independent root search; each
    # model drops out of the SNI class a little above the default grid edge.
    brackets = {"ugv_velx": (3.89, 3.90), "ugv_vely": (5.25, 5.26),
                "uav_velx": (8.56, 8.58), "uav_vely": (3.33, 3.34)}
    for name, (lo, hi) in brackets.items():
        m = models[name].transfer_function
        assert lti.sni_index(m, lo) > 0.0, name
        assert lti.sni_index(m, hi) < 0.0, name
        assert lti.classify_ni(m, band=(1e-3, 10.0)) == lti.NEITHER, name


def test_velocity_models_are_sni_up_to_the_first_index_root(models):
    # the sign-flip brackets above, and the first positive root of the index
    # polynomial to 4 decimals
    brackets = {"ugv_velx": (3.89, 3.90, 3.8957), "ugv_vely": (5.25, 5.26, 5.2505),
                "uav_velx": (8.56, 8.58, 8.5677), "uav_vely": (3.33, 3.34, 3.3335)}
    for name, (lo, hi, root) in brackets.items():
        m = models[name].transfer_function
        assert lti.classify_ni(m, band=(0.0, lo)) == lti.SNI, name
        assert lti.classify_ni(m, band=(0.0, hi)) == lti.NEITHER, name
        assert lti.classify_ni(m, band=(0.0, root - 1e-4)) == lti.SNI, name
        assert lti.classify_ni(m, band=(0.0, root + 1e-4)) == lti.NEITHER, name


def test_dip_between_sample_points_is_neither():
    # a lag minus a faint, sharp resonance at w0: the index dips to about -9
    # over a few 1e-4 rad/s around w0, which falls between the points of a
    # 400-point log sweep over 1e-3 .. 2 rad/s
    w0 = 0.9978
    dip = lti.tf_add(LAG, lti.tf(-1e-3, (1.0, 2e-4 * w0, w0 ** 2)))
    assert lti.sni_index(dip, w0) == pytest.approx(-9.04, abs=0.01)
    sweep = np.logspace(-3.0, np.log10(2.0), 400)
    assert min(lti.sni_index(dip, w) for w in sweep) > 0.0
    assert lti.classify_ni(dip) == lti.NEITHER
    assert lti.classify_ni(dip, band=(0.0, 0.99)) == lti.SNI


@pytest.mark.parametrize("w0", [0.5, 0.77, 1.0, 1.3])
def test_index_touching_zero_is_ni_not_sni(w0):
    # P = (s^2 + w0^2)^2 / (s + 1) has index polynomial w*(w0^2 - w^2)^2: a
    # double root at w0, where the index touches zero without changing sign
    touch = lti.tf(np.polymul((1.0, 0.0, w0 ** 2), (1.0, 0.0, w0 ** 2)), (1.0, 1.0))
    assert lti.classify_ni(touch) == lti.NI
    assert lti.classify_ni(touch, band=(0.0, 0.99 * w0)) == lti.SNI


@given(a=st.floats(0.05, 10.0), c=st.floats(-1.0, 1.0),
       zeta=st.floats(0.01, 1.0), w=st.floats(0.05, 5.0))
@settings(max_examples=60, deadline=None)
def test_exact_class_agrees_with_dense_sampling(a, c, zeta, w):
    # oracle: the index sampled on 20000 points of the default band; a
    # negative sample rules out NI, and an NI or SNI class rules out any
    # negative sample (up to rounding)
    plant = lti.tf_add(lti.tf((1.0,), (1.0, a)),
                       lti.tf((c,), (1.0, 2.0 * zeta * w, w * w)))
    cls = lti.classify_ni(plant)
    s = 1j * np.linspace(2.0 / 20000, 2.0, 20000)
    idx = -2.0 * (np.polyval(plant.numerator, s)
                  / np.polyval(plant.denominator, s)).imag
    if idx.min() < -1e-9:
        assert cls == lti.NEITHER
    if cls == lti.SNI:
        assert idx.min() > -1e-9


# ------------------------------------------------------------------ dc gain

def test_dc_gains_are_coefficient_ratios(models):
    for name in VELOCITY_MODELS:
        m = models[name].transfer_function
        assert lti.dc_gain(m) == pytest.approx(m.numerator[-1] / m.denominator[-1])
    assert lti.dc_gain(models["uav_velx"].transfer_function) == pytest.approx(28.58, abs=0.01)
    assert lti.dc_gain(lti.tf(-0.7, 1.0)) == pytest.approx(-0.7)
    assert lti.dc_gain(LAG) == pytest.approx(1.0)


def test_dc_gain_of_integrator_raises():
    with pytest.raises(lti.IntegratorError):
        lti.dc_gain(lti.tf((1.0,), (1.0, 0.0)))


# ------------------------------------------------------------- certificates

def test_velocity_model_with_shipped_gain_certifies_stable(models):
    cert = lti.certify_interconnection(models["uav_velx"].transfer_function,
                                       lti.tf(-0.7, 1.0))
    assert cert.stable
    assert cert.plant_class == lti.SNI
    assert cert.controller_class == lti.NI
    assert cert.dc_product == pytest.approx(-20.006, abs=0.01)
    assert len(cert.closed_loop_poles) == 4
    assert max(p.real for p in cert.closed_loop_poles) == pytest.approx(-0.2257, abs=1e-4)
    assert cert.reasons == ()


def test_all_library_models_certify_against_their_shipped_gains(models):
    for rec in models.values():
        cert = lti.certify_interconnection(rec.transfer_function,
                                           lti.tf(rec.certification_gain, 1.0))
        assert cert.stable, rec.name


@pytest.mark.parametrize("gain", [-0.7, -1.0, -2.0, -3.2])
def test_closed_loop_poles_are_the_eigenvalues_of_the_closed_loop(models, gain):
    # oracle: the state matrix A + k*B*C of the plant's realization under the
    # positive feedback u = k*y (the velocity models are strictly proper)
    for name in VELOCITY_MODELS:
        m = models[name].transfer_function
        a, b, c, _ = signal.tf2ss(m.numerator, m.denominator)
        want = np.sort_complex(np.linalg.eigvals(a + gain * b @ c))
        cert = lti.certify_interconnection(m, lti.tf(gain, 1.0))
        assert cert.stable, (name, gain)
        np.testing.assert_allclose(cert.closed_loop_poles, want, rtol=1e-8)
        slow = sorted(cert.closed_loop_poles, key=lambda p: p.real)[-2:]
        assert all(-0.45 < p.real < -0.18 for p in slow), (name, gain)


def test_unstable_closed_loop_fails_despite_the_dc_condition():
    # 1/(s+2)^3 is SNI on the default band (its phase reaches -180 degrees at
    # 2*sqrt(3) rad/s), and with k = -70 the DC-gain product is -8.75; the
    # loop (s+2)^3 + 70 still has poles at -2 + 70^(1/3)*exp(+-j*pi/3), that
    # is 0.06 +- 3.57j, above the band
    cubic = lti.tf((1.0,), np.poly([-2.0, -2.0, -2.0]))
    cert = lti.certify_interconnection(cubic, lti.tf(-70.0, 1.0))
    assert cert.plant_class == lti.SNI
    assert cert.dc_condition_met
    assert not cert.stable
    assert max(p.real for p in cert.closed_loop_poles) == pytest.approx(
        -2.0 + 70.0 ** (1.0 / 3.0) / 2.0)
    assert any("closed-loop pole" in r for r in cert.reasons)


def test_dc_product_at_or_above_one_fails_certificate():
    cert = lti.certify_interconnection(LAG, lti.tf(2.0, 1.0))
    assert not cert.stable
    assert not cert.dc_condition_met
    assert cert.dc_product == pytest.approx(2.0)
    assert any("dc gain product" in r for r in cert.reasons)


def test_dc_product_below_one_certifies_stable():
    # positive feedback of 1/(s+1) with +0.5 closes the loop at s = -0.5
    cert = lti.certify_interconnection(LAG, lti.tf(0.5, 1.0))
    assert cert.stable
    assert cert.dc_product == pytest.approx(0.5)


def test_two_sni_branches_are_an_acceptable_pair():
    cert = lti.certify_interconnection(LAG, lti.tf((1.0,), (1.0, 2.0)))
    assert cert.stable
    assert cert.plant_class == lti.SNI
    assert cert.controller_class == lti.SNI


def test_unclassifiable_plant_is_rejected():
    allpass = lti.tf((1.0, -1.0), (1.0, 1.0))
    with pytest.raises(lti.ClassificationError):
        lti.certify_interconnection(allpass, lti.tf(-0.5, 1.0), band=(1e-3, 1e4))


def test_two_plain_ni_branches_are_rejected():
    with pytest.raises(lti.ClassificationError):
        lti.certify_interconnection(lti.tf(0.3, 1.0), lti.tf(0.2, 1.0))


# -------------------------------------------------------------- composition

def test_additive_composition_of_velocity_model_and_rate_branch(models):
    # rate branch: tau*s*P with tau = one 50 Hz sample; composite equals
    # (1 + tau*s)*P and stays SNI on the default grid for every model
    tau = 0.02
    for name in VELOCITY_MODELS:
        m = models[name].transfer_function
        rate = lti.tf_mul(lti.tf((tau, 0.0), (1.0,)), m)
        assert lti.series_ni_composition(m, rate) == lti.SNI, name


@pytest.mark.parametrize("horizon", [1, 22, 55])
def test_prediction_composites_are_sni_at_the_shipped_horizons(models, horizon):
    # (1 + 0.02*h*s)*P for the horizons of the shipped comparison (22) and
    # the widest calibration sweep cell (55)
    for name in VELOCITY_MODELS:
        m = models[name].transfer_function
        composite = lti.tf_mul(lti.tf((0.02 * horizon, 1.0), (1.0,)), m)
        assert lti.classify_ni(composite) == lti.SNI, (name, horizon)


def test_composition_with_zero_branch_is_identity(models):
    m = models["ugv_velx"].transfer_function
    assert lti.series_ni_composition(m, lti.tf(0.0, 1.0)) == lti.SNI


@given(a=st.floats(0.05, 50.0), b=st.floats(0.05, 50.0))
@settings(max_examples=25, deadline=None)
def test_two_first_order_lags_compose_to_sni(a, b):
    one = lti.tf((1.0,), (1.0, a))
    two = lti.tf((1.0,), (1.0, b))
    assert lti.series_ni_composition(one, two) == lti.SNI


# ------------------------------------------------------------ discretization

def test_constant_gain_discretizes_to_memoryless_map():
    plant = lti.discretize(lti.tf(2.0, 1.0), 0.02)
    assert plant.step(3.0) == pytest.approx(6.0)
    assert plant.step(-1.0) == pytest.approx(-2.0)


def test_unit_lag_step_response_matches_continuous_solution():
    plant = lti.discretize(LAG, 0.02)
    ys = [plant.step(1.0) for _ in range(51)]
    assert ys[50] == pytest.approx(1.0 - np.exp(-1.0), abs=0.01)


def test_improper_transfer_function_cannot_be_discretized():
    with pytest.raises(ValueError):
        lti.discretize(DIFF, 0.02)


@pytest.mark.parametrize("tfn", [lti.tf(2.0, 1.0), LAG])
@pytest.mark.parametrize("sample_time", [0.0, -0.02, math.nan, math.inf])
def test_sample_time_must_be_finite_and_positive(tfn, sample_time):
    with pytest.raises(ValueError, match="sample_time"):
        lti.discretize(tfn, sample_time)


def test_velocity_model_step_response_matches_dense_integration(models):
    # oracle: adaptive dense integration of the continuous realization,
    # sampled at the discrete instants
    m = models["ugv_velx"].transfer_function
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
    for rec in models.values():
        dc = lti.dc_gain(rec.transfer_function)
        for dt in (0.01, 0.02, 0.05):
            got = lti.discretize(rec.transfer_function, dt).dc_gain()
            assert abs(got - dc) <= 1e-9 * abs(dc), (rec.name, dt)


def test_zero_input_from_rest_stays_at_zero(models):
    plant = lti.discretize(models["uav_vely"].transfer_function, 0.02)
    assert all(plant.step(0.0) == 0.0 for _ in range(100))


def test_noise_requires_rng_and_is_reproducible(models):
    m = models["ugv_velx"].transfer_function
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
                               else library[name].transfer_function, 0.02)
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
        plants = [lti.discretize(LAG if name == "lag" else library[name].transfer_function, 0.02)
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
        for rec in models.values():
            tfn = rec.transfer_function
            want = signal.cont2discrete(signal.tf2ss(tfn.numerator, tfn.denominator),
                                        dt, method="bilinear")
            plant = lti.discretize(tfn, dt)
            for got, ref in zip((plant.a, plant.b, plant.c, plant.d), want):
                assert np.shape(got) == np.shape(ref) or np.size(ref) == 1
                assert bits(got) == bits(ref), (rec.name, dt)
    assert lti._bilinear.cache_info().hits == len(models)


def test_coefficients_that_differ_in_the_sign_of_a_zero_share_no_entry():
    lti._bilinear.cache_clear()
    lti.discretize(lti.tf((1.0, 0.0), (1.0, 2.0, 1.0)), 0.02)
    lti.discretize(lti.tf((1.0, -0.0), (1.0, 2.0, 1.0)), 0.02)
    assert lti._bilinear.cache_info().misses == 2


def test_shared_matrices_are_read_only(models):
    plant = lti.discretize(models["ugv_velx"].transfer_function, 0.02)
    for matrix in (plant.a, plant.b, plant.c):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


def test_noisy_plants_from_one_entry_keep_their_own_states(models):
    # the noise belongs to a bank; plants realized from one cache entry
    # share its matrices and step their own states
    m = models["ugv_velx"].transfer_function

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
    assert models["ugv_velx"].kind == "ugv"
    assert models["uav_vely"].axis == "y"
    assert models["ugv_velx"].transfer_function.numerator[-1] == pytest.approx(54489.05)
    assert models["ugv_yaw_rate"].transfer_function.denominator == (0.3, 1.0)


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
                   "    certification_gain: .nan\n")
    with pytest.raises(ValueError, match="lag.*finite"):
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
        assert lti.load_model_library(path)["lag"].transfer_function.denominator == (1.0, pole)


# --------------------------------------------------------------- properties

@given(a=st.floats(0.05, 50.0))
@settings(max_examples=25, deadline=None)
def test_first_order_lags_are_sni(a):
    assert lti.classify_ni(lti.tf((1.0,), (1.0, a))) == lti.SNI


@given(k=st.floats(-5.0, 5.0))
@settings(max_examples=25, deadline=None)
def test_dc_gain_scales_linearly(k):
    scaled = lti.tf_mul(lti.tf(k, 1.0), LAG)
    assert lti.dc_gain(scaled) == pytest.approx(k * lti.dc_gain(LAG))


@given(w=st.floats(0.01, 100.0))
@settings(max_examples=50, deadline=None)
def test_index_definition_consistency(w):
    p = lti.evaluate(LAG, w)
    assert lti.sni_index(LAG, w) == pytest.approx(complex(0, 1) * (p - np.conj(p)))
