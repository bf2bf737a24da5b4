"""Continuous-time LTI transfer functions with negative-imaginary classification.

Frequency-domain tools for single-input single-output rational transfer
functions: pointwise evaluation on the imaginary axis, the negative-imaginary
(NI / strictly-NI) test, internal-stability certificates for positive-feedback
interconnections, additive composition, and bilinear discretization to a
stepped state-space realization for fixed-step simulation, with a bank that
steps many such realizations as one batched update.

Classification and certification are exact, not sampled.  For P = N/D the
NI index -2*Im P(jw) has the sign of the real polynomial
-Im[N(jw) * conj D(jw)], so the real roots of that polynomial decide the
class on a frequency band (lo, hi], which may reach to infinity.  The default
band, (0, 2] rad/s, is the one the shipped velocity models are certified on.
A certificate's closed-loop poles are the roots of Dp*Dc - Np*Nc.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy import signal

POLE_FLOOR = 1e-12
DEFAULT_BAND = (0.0, 2.0)
# a root counts as real (a pole as on the axis) within this fraction of its
# magnitude, and real roots closer than that count as one: `np.roots` splits
# a double root into two about sqrt(eps) apart, along or across the line
REAL_ROOT_TOL = 1e-6

# libyaml's loader builds the same documents as the pure-Python one, faster
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

SNI = "SNI"
NI = "NI"
NEITHER = "neither"


class PoleOnAxisError(ValueError):
    """The denominator vanishes (within floor) at the requested frequency."""


class IntegratorError(ValueError):
    """DC gain requested for a model with a pole at the origin."""


class ClassificationError(ValueError):
    """An interconnection precondition on NI/SNI classes does not hold."""


def _as_coeffs(values) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(values, dtype=float)).ravel()
    if arr.size == 0:
        raise ValueError("coefficient list is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    # strip leading zeros but keep at least one coefficient
    nonzero = np.flatnonzero(arr)
    if nonzero.size == 0:
        return (0.0,)
    return tuple(arr[nonzero[0]:])


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function, coefficients in descending powers of s."""

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "numerator", _as_coeffs(self.numerator))
        object.__setattr__(self, "denominator", _as_coeffs(self.denominator))
        if self.denominator[0] == 0.0:
            raise ValueError("denominator leading coefficient must be nonzero")

    @property
    def proper(self) -> bool:
        return len(self.numerator) <= len(self.denominator)


def tf(numerator, denominator, label: str = "") -> TransferFunction:
    return TransferFunction(tuple(np.atleast_1d(numerator)),
                            tuple(np.atleast_1d(denominator)), label)


def tf_add(a: TransferFunction, b: TransferFunction, label: str = "") -> TransferFunction:
    """Parallel (additive) connection a + b."""
    num = np.polyadd(np.polymul(a.numerator, b.denominator),
                     np.polymul(b.numerator, a.denominator))
    den = np.polymul(a.denominator, b.denominator)
    return TransferFunction(tuple(num), tuple(den), label)


def tf_mul(a: TransferFunction, b: TransferFunction, label: str = "") -> TransferFunction:
    """Series connection a * b."""
    return TransferFunction(tuple(np.polymul(a.numerator, b.numerator)),
                            tuple(np.polymul(a.denominator, b.denominator)), label)


def evaluate(tfn: TransferFunction, omega: float) -> complex:
    """P(j*omega) by direct polynomial evaluation; omega >= 0."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    s = 1j * float(omega)
    den = np.polyval(tfn.denominator, s)
    if abs(den) < POLE_FLOOR:
        raise PoleOnAxisError(
            f"denominator magnitude below {POLE_FLOOR:g} at omega={omega:g} rad/s"
            + (f" for '{tfn.label}'" if tfn.label else ""))
    return complex(np.polyval(tfn.numerator, s) / den)


def sni_index(tfn: TransferFunction, omega: float) -> float:
    """j*(P(jw) - conj(P(jw))) as a real number, i.e. -2*Im P(jw).

    Positive means the frequency-response point lies strictly below the real
    axis at this frequency.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return -2.0 * evaluate(tfn, omega).imag


def _on_axis(coeffs) -> np.ndarray:
    """Coefficients of c(j*w) as a polynomial in w, descending powers."""
    powers = np.arange(len(coeffs) - 1, -1, -1)
    return np.asarray(coeffs) * np.array([1.0, 1j, -1.0, -1j])[powers % 4]


def _real_roots(poly, lo: float, hi: float) -> np.ndarray:
    """Sorted distinct real roots of `poly` in (lo, hi]."""
    roots = np.roots(poly)
    real = roots[np.abs(roots.imag)
                 <= REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots))].real
    real = np.sort(real[(real > lo) & (real <= hi)])
    return real[np.diff(real, prepend=-np.inf)
                > REAL_ROOT_TOL * np.maximum(1.0, np.abs(real))]


def classify_ni(tfn: TransferFunction, band=DEFAULT_BAND) -> str:
    """Exact class on the band (lo, hi] in rad/s, `hi` possibly np.inf.

    The index -2*Im P(jw) has the sign of the real polynomial
    q(w) = -Im[N(jw) * conj D(jw)], whose real roots split the band into
    intervals of constant sign; one sample per interval reads it.  SNI when
    q > 0 on the whole band, NI when q >= 0, neither otherwise.  A pole on
    j*(lo, hi] raises `PoleOnAxisError`.
    """
    lo, hi = (float(v) for v in band)
    if not 0.0 <= lo < hi:
        raise ValueError(f"band must satisfy 0 <= lo < hi, got {band!r}")
    axis_poles = _real_roots(_on_axis(tfn.denominator), lo, hi)
    if axis_poles.size:
        raise PoleOnAxisError(
            f"pole on the imaginary axis at omega={axis_poles[0]:g} rad/s"
            + (f" for '{tfn.label}'" if tfn.label else ""))
    q = -np.polymul(_on_axis(tfn.numerator),
                    np.conj(_on_axis(tfn.denominator))).imag
    roots = _real_roots(q, lo, hi)
    last = hi if np.isfinite(hi) else roots.max(initial=lo) + 2.0
    edges = np.unique(np.concatenate([[lo], roots, [last]]))
    signs = np.sign(np.polyval(q, (edges[:-1] + edges[1:]) / 2.0))
    if np.any(signs < 0):
        return NEITHER
    return SNI if roots.size == 0 and np.all(signs > 0) else NI


def dc_gain(tfn: TransferFunction) -> float:
    """numerator constant term / denominator constant term."""
    den0 = tfn.denominator[-1]
    if den0 == 0.0:
        raise IntegratorError(
            "denominator constant term is zero (pole at the origin)"
            + (f" for '{tfn.label}'" if tfn.label else ""))
    return tfn.numerator[-1] / den0


@dataclass(frozen=True)
class Certificate:
    """Internal-stability certificate for a positive-feedback pair."""

    plant_class: str
    controller_class: str
    dc_product: float
    dc_condition_met: bool
    closed_loop_poles: tuple[complex, ...]
    stable: bool
    reasons: tuple[str, ...]


def certify_interconnection(plant: TransferFunction, controller: TransferFunction,
                            band=DEFAULT_BAND) -> Certificate:
    """Internal-stability certificate for the positive feedback loop.

    The pair must classify into complementary NI classes on the band, at
    least one strictly: the hypotheses of the NI stability theorem (Lanzon
    & Petersen, IEEE TAC 2008; Xiong, Petersen & Lanzon, IEEE TAC 2010).
    Under them the theorem's DC-gain condition, P(0) * C(0) < 1, gives
    internal stability.  The certificate also carries the closed-loop poles,
    the roots of Dp*Dc - Np*Nc, and `stable` holds when the DC-gain
    condition holds and every pole has a negative real part.
    """
    plant_class = classify_ni(plant, band)
    controller_class = classify_ni(controller, band)
    for role, tfn, cls in (("plant", plant, plant_class),
                           ("controller", controller, controller_class)):
        if cls == NEITHER:
            raise ClassificationError(f"{role} classifies 'neither' on the band "
                                      f"(label='{tfn.label}')")
    if SNI not in (plant_class, controller_class):
        raise ClassificationError("at least one of the pair must classify SNI")

    reasons: list[str] = []
    product = dc_gain(plant) * dc_gain(controller)
    dc_ok = bool(product < 1.0)
    if not dc_ok:
        reasons.append(f"dc gain product {product:.6g} >= 1")

    poles = np.sort_complex(np.roots(np.polysub(
        np.polymul(plant.denominator, controller.denominator),
        np.polymul(plant.numerator, controller.numerator))))
    poles_ok = bool(np.all(poles.real < 0.0))
    if not poles_ok:
        reasons.append(f"closed-loop pole {poles[-1]:.6g} has Re >= 0")
    return Certificate(
        plant_class=plant_class,
        controller_class=controller_class,
        dc_product=float(product),
        dc_condition_met=dc_ok,
        closed_loop_poles=tuple(complex(p) for p in poles),
        stable=dc_ok and poles_ok,
        reasons=tuple(reasons),
    )


def series_ni_composition(sni: TransferFunction, ni: TransferFunction,
                          band=DEFAULT_BAND) -> str:
    """Classify the additive positive connection of the two inputs.

    The declared contract is an SNI branch plus an NI branch; the inputs'
    own classes are the caller's responsibility and are not re-checked here
    (rate-like branches dip below the NI boundary near DC while the composite
    remains SNI, which is exactly the case this composition exists for).
    Returns the composite's exact classification on the band.
    """
    return classify_ni(tf_add(sni, ni, label=f"{sni.label}+{ni.label}"), band)


@dataclass
class DiscretePlant:
    """Stepped discrete realization of a proper transfer function.

    x[k+1] = A x[k] + B u[k];  y[k] = C x[k] + D u[k] (+ optional output noise).
    Stepping is sequential and single-owner; everything else here is
    read-only after construction.  A simulation steps its plants through a
    `PlantBank` built from them, which gives the same outputs as stepping
    each plant in turn.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    sample_time: float
    noise_std: float = 0.0
    rng: np.random.Generator | None = None
    state: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float).reshape(self.a.shape[0], 1)
        self.c = np.asarray(self.c, dtype=float).reshape(1, self.a.shape[0])
        self.d = float(self.d)
        if self.state is None:
            self.state = np.zeros((self.a.shape[0], 1))
        if self.noise_std and self.rng is None:
            raise ValueError("noise_std > 0 requires an rng")

    def step(self, u: float) -> float:
        """Emit y[k] for input u[k] and advance the state to k+1."""
        y = float((self.c @ self.state)[0, 0]) + self.d * u
        if self.noise_std:
            y += self.noise_std * self.rng.standard_normal()
        self.state = self.a @ self.state + self.b * u
        return y

    def dc_gain(self) -> float:
        n = self.a.shape[0]
        gain = self.c @ np.linalg.solve(np.eye(n) - self.a, self.b)
        return float(gain[0, 0]) + self.d


class PlantBank:
    """Several discrete plants stepped together, one batched update a step.

    The plants' matrices are stacked once (lower-order realizations are
    zero-padded to the largest order) and each step evaluates every plant's
    C x and A x as one batched matmul and B u as one batched product, with
    the same per-plant arithmetic as `DiscretePlant.step`; D u and the
    output noise are added on Python floats, which cost less than numpy
    calls at this size and round as they do.  A first-order bank (the yaw
    rates) steps on float states while they and the inputs are finite (its
    (count, 1, 1) matmul is a dot, c*x + 0.0; `state` is a new array each
    read); numpy steps the rest, as two NaNs meeting in its add keep a sign
    that depends on the lane.  Output noise is one `standard_normal` draw
    covering the noisy plants in bank order, the draw sequence of stepping
    them one after another.  Noisy plants must share one generator.  The
    bank copies the plants' states and never writes them back.

    Stepped output stays the same bit for bit only while the products keep
    their batched shapes and their order, C x + D u and then A x + B u, and
    while banks stay apart (a simulator keeps its planar and yaw banks
    separate): a fused or merged product sums in another order, which can
    change the last bit or the sign of a zero.
    """

    def __init__(self, plants):
        plants = list(plants)
        if not plants:
            raise ValueError("a plant bank needs at least one plant")
        order = max(p.a.shape[0] for p in plants)
        count = len(plants)
        self.a = np.zeros((count, order, order))
        self.b = np.zeros((count, order, 1))
        self.c = np.zeros((count, 1, order))
        state = np.zeros((count, order, 1))
        for k, p in enumerate(plants):
            n = p.a.shape[0]
            self.a[k, :n, :n] = p.a
            self.b[k, :n] = p.b
            self.c[k, :, :n] = p.c
            state[k, :n] = p.state
        self.d = [p.d for p in plants]
        self.noisy = [k for k, p in enumerate(plants) if p.noise_std]
        self.noise_std = [plants[k].noise_std for k in self.noisy]
        rngs = {id(plants[k].rng): plants[k].rng for k in self.noisy}
        if len(rngs) > 1:
            raise ValueError("noisy plants in one bank must share a generator")
        self.rng = next(iter(rngs.values()), None)
        self.floats = ([m.ravel().tolist() for m in (self.a, self.b, self.c)]
                       if order == 1 else None)
        self._state = state if self.floats is None else state.ravel().tolist()

    @property
    def state(self) -> np.ndarray:
        return self._state if self.floats is None else np.reshape(self._state, (-1, 1, 1))

    def step(self, u) -> list[float]:
        """Emit every plant's y[k] for its input u[k], a float each; advance all states."""
        if self.floats is not None and 0.0 * (sum(self._state) + sum(u)) == 0.0:
            a, b, c = self.floats
            outputs = [ck * x + 0.0 for ck, x in zip(c, self._state)]
            self._state = [(ak * x + 0.0) + bk * v
                           for ak, x, bk, v in zip(a, self._state, b, u, strict=True)]
        else:
            state = self.state
            outputs = (self.c @ state).ravel().tolist()
            state = self.a @ state
            state += self.b * np.array(u, dtype=float)[:, None, None]
            self._state = state if self.floats is None else state.ravel().tolist()
        y = [cx + d * v for cx, d, v in zip(outputs, self.d, u, strict=True)]
        if self.noisy:
            draws = self.rng.standard_normal(len(self.noisy)).tolist()
            for k, std, z in zip(self.noisy, self.noise_std, draws):
                y[k] += std * z
        return y


# keyed on the coefficients' exact bits, so 0.0 and -0.0 never share an entry
@functools.lru_cache(maxsize=64)
def _bilinear(numerator: bytes, denominator: bytes, sample_time: float):
    a, b, c, d = signal.tf2ss(np.frombuffer(numerator), np.frombuffer(denominator))
    ad, bd, cd, dd, _ = signal.cont2discrete((a, b, c, d), sample_time,
                                             method="bilinear")
    for matrix in (ad, bd, cd):
        matrix.flags.writeable = False
    return ad, bd, cd, float(np.asarray(dd).ravel()[0])


def discretize(tfn: TransferFunction, sample_time: float,
               noise_std: float = 0.0,
               rng: np.random.Generator | None = None) -> DiscretePlant:
    """Bilinear (trapezoidal) discretization of a proper transfer function.

    Each exact (numerator, denominator, sample_time) is realized once per
    process and its read-only A, B and C are shared; state and noise are not.
    """
    if sample_time <= 0:
        raise ValueError("sample_time must be positive")
    if not tfn.proper:
        raise ValueError("cannot discretize an improper transfer function"
                         + (f" ('{tfn.label}')" if tfn.label else ""))
    if len(tfn.denominator) == 1:  # constant gain, no dynamics
        gain = tfn.numerator[-1] / tfn.denominator[0] if len(tfn.numerator) == 1 else 0.0
        return DiscretePlant(np.zeros((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1)), gain, sample_time,
                             noise_std=noise_std, rng=rng)
    realization = _bilinear(np.array(tfn.numerator).tobytes(),
                            np.array(tfn.denominator).tobytes(), float(sample_time))
    return DiscretePlant(*realization, sample_time, noise_std=noise_std, rng=rng)


def parse_yaml(text: str):
    """Parse one YAML document with the safe loader `YAML_LOADER`."""
    return yaml.load(text, Loader=YAML_LOADER)


@dataclass(frozen=True)
class ModelRecord:
    """One named plant from the model library."""

    name: str
    kind: str
    axis: str
    transfer_function: TransferFunction
    certification_gain: float


def load_model_library(path: str | Path | None = None) -> dict[str, ModelRecord]:
    """Load the named transfer-function library (YAML).

    Defaults to the library shipped with the package: the fitted velocity
    models for both vehicle kinds plus the first-order yaw-rate model.  The
    shipped file is parsed once per process, and each call returns a new
    dict of the same frozen records; a `path` is read on every call.
    """
    if path is None:
        return dict(_shipped_library())
    return _parse_library(Path(path).read_text())


@functools.lru_cache(maxsize=1)
def _shipped_library() -> dict[str, ModelRecord]:
    source = importlib.resources.files("niformation").joinpath("data/models.yaml")
    return _parse_library(source.read_text())


def _parse_library(text: str) -> dict[str, ModelRecord]:
    doc = parse_yaml(text)
    if not isinstance(doc, dict) or "models" not in doc or not doc["models"]:
        raise ValueError("model library must contain a nonempty 'models' mapping")
    records: dict[str, ModelRecord] = {}
    for name, entry in doc["models"].items():
        try:
            tfn = TransferFunction(tuple(entry["numerator"]),
                                   tuple(entry["denominator"]), label=name)
            records[name] = ModelRecord(
                name=name,
                kind=str(entry.get("kind", "")),
                axis=str(entry.get("axis", "")),
                transfer_function=tfn,
                certification_gain=float(entry.get("certification_gain", -0.7)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"model '{name}': {exc}") from exc
    return records
