"""Continuous-time LTI transfer functions with negative-imaginary classification.

Frequency-domain tools for single-input single-output rational transfer
functions: pointwise evaluation on the imaginary axis, the negative-imaginary
(NI / strictly-NI) frequency test, DC-gain internal-stability certificates for
positive-feedback interconnections, additive composition, and bilinear
discretization to a stepped state-space realization for fixed-step simulation,
with a bank that steps many such realizations as one batched update.

Classification is grid-relative: a classification holds on the frequency grid
it was evaluated on, nothing more.  The default grid covers the band the
shipped velocity models are certified on (1e-3 .. 2.0 rad/s); callers probing
wider bands pass their own grid.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy import signal

POLE_FLOOR = 1e-12
DEFAULT_TOL = 1e-9
DEFAULT_GRID_SPAN = (1e-3, 2.0)
DEFAULT_GRID_POINTS = 400

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

    def limit_at_infinity(self) -> float:
        """lim_{s->inf} P(s); +-inf for improper transfer functions."""
        dn = len(self.numerator) - len(self.denominator)
        if dn < 0:
            return 0.0
        if dn == 0:
            return self.numerator[0] / self.denominator[0]
        return float(np.sign(self.numerator[0] / self.denominator[0]) * np.inf)


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


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive angular frequencies (rad/s)."""

    omegas: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.omegas, dtype=float)
        if arr.size == 0:
            raise ValueError("frequency grid is empty")
        if np.any(arr <= 0.0):
            raise ValueError("frequency grid must be strictly positive")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        object.__setattr__(self, "omegas", tuple(arr))

    @classmethod
    def logspace(cls, lo: float, hi: float, n: int) -> "FrequencyGrid":
        return cls(tuple(np.logspace(np.log10(lo), np.log10(hi), n)))

    @classmethod
    def default(cls) -> "FrequencyGrid":
        lo, hi = DEFAULT_GRID_SPAN
        return cls.logspace(lo, hi, DEFAULT_GRID_POINTS)

    def __len__(self) -> int:
        return len(self.omegas)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.omegas)


def _response(tfn: TransferFunction, omegas: np.ndarray) -> np.ndarray:
    s = 1j * omegas
    den = np.polyval(tfn.denominator, s)
    bad = np.abs(den) < POLE_FLOOR
    if np.any(bad):
        w = float(np.asarray(omegas).ravel()[np.argmax(np.atleast_1d(bad))])
        raise PoleOnAxisError(
            f"denominator magnitude below {POLE_FLOOR:g} at omega={w:g} rad/s"
            + (f" for '{tfn.label}'" if tfn.label else ""))
    return np.polyval(tfn.numerator, s) / den


def evaluate(tfn: TransferFunction, omega: float) -> complex:
    """P(j*omega) by direct polynomial evaluation; omega >= 0."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    return complex(_response(tfn, np.asarray([float(omega)]))[0])


def sni_index(tfn: TransferFunction, omega: float) -> float:
    """j*(P(jw) - conj(P(jw))) as a real number, i.e. -2*Im P(jw).

    Positive means the frequency-response point lies strictly below the real
    axis at this frequency.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return -2.0 * evaluate(tfn, omega).imag


def sni_index_grid(tfn: TransferFunction, grid: FrequencyGrid) -> np.ndarray:
    return -2.0 * _response(tfn, grid.as_array()).imag


def classify_ni(tfn: TransferFunction, grid: FrequencyGrid | None = None,
                tol: float = DEFAULT_TOL) -> str:
    """Grid-relative classification: SNI, NI, or neither.

    SNI when the index is > tol at every grid point; NI when it is >= -tol at
    every grid point; neither otherwise.
    """
    if grid is None:
        grid = FrequencyGrid.default()
    idx = sni_index_grid(tfn, grid)
    if np.all(idx > tol):
        return SNI
    if np.all(idx >= -tol):
        return NI
    return NEITHER


def dc_gain(tfn: TransferFunction) -> float:
    """numerator constant term / denominator constant term."""
    den0 = tfn.denominator[-1]
    if den0 == 0.0:
        raise IntegratorError(
            "denominator constant term is zero (pole at the origin)"
            + (f" for '{tfn.label}'" if tfn.label else ""))
    return tfn.numerator[-1] / den0


def _winding_number_around(points: np.ndarray, center: complex) -> int:
    """Winding number of the closed polyline `points` around `center`."""
    rel = points - center
    if np.any(np.abs(rel) < 1e-30):
        return 0
    angles = np.angle(rel)
    dangle = np.diff(angles, append=angles[:1])
    dangle = (dangle + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.round(dangle.sum() / (2.0 * np.pi)))


@dataclass(frozen=True)
class Certificate:
    """Internal-stability certificate for a positive-feedback pair."""

    plant_class: str
    controller_class: str
    dc_product: float
    dc_condition_met: bool
    encirclements_of_plus_one: int
    loop_vanishes_at_infinity: bool
    controller_nonnegative_at_infinity: bool
    stable: bool
    reasons: tuple[str, ...]


def certify_interconnection(plant: TransferFunction, controller: TransferFunction,
                            grid: FrequencyGrid | None = None,
                            tol: float = DEFAULT_TOL) -> Certificate:
    """DC-gain / encirclement certificate for the positive feedback loop.

    The pair must classify into complementary NI classes on the grid (at least
    one strictly).  The certificate records the DC-gain product test
    (product < 1), the winding number of the sampled loop response around
    +1+0j (grid plus conjugate reflection; grid-resolution limited), and the
    two asymptotic side conditions.  The side conditions are reported but do
    not gate `stable`: finite-frequency behavior is what the sampled loop
    sees, and constant negative controllers (which the shipped scenarios use)
    fail the textbook sign condition while the loop remains demonstrably
    stable.
    """
    if grid is None:
        grid = FrequencyGrid.default()
    plant_class = classify_ni(plant, grid, tol)
    controller_class = classify_ni(controller, grid, tol)
    if plant_class == NEITHER:
        raise ClassificationError(f"plant classifies 'neither' on the grid "
                                  f"(label='{plant.label}')")
    if controller_class == NEITHER:
        raise ClassificationError(f"controller classifies 'neither' on the grid "
                                  f"(label='{controller.label}')")
    if SNI not in (plant_class, controller_class):
        raise ClassificationError("at least one of the pair must classify SNI")

    reasons: list[str] = []
    product = dc_gain(plant) * dc_gain(controller)
    dc_ok = product < 1.0
    if not dc_ok:
        reasons.append(f"dc gain product {product:.6g} >= 1")

    omegas = grid.as_array()
    loop = _response(plant, omegas) * _response(controller, omegas)
    closed = np.concatenate([np.conj(loop[::-1]), loop])
    winding = _winding_number_around(closed, 1.0 + 0.0j)
    if winding != 0:
        reasons.append(f"loop response encircles +1 ({winding} turns on the "
                       f"sampled grid)")

    loop_inf = plant.limit_at_infinity() * controller.limit_at_infinity()
    ctrl_inf = controller.limit_at_infinity()
    return Certificate(
        plant_class=plant_class,
        controller_class=controller_class,
        dc_product=float(product),
        dc_condition_met=dc_ok,
        encirclements_of_plus_one=winding,
        loop_vanishes_at_infinity=bool(loop_inf == 0.0),
        controller_nonnegative_at_infinity=bool(ctrl_inf >= 0.0),
        stable=bool(dc_ok and winding == 0),
        reasons=tuple(reasons),
    )


def series_ni_composition(sni: TransferFunction, ni: TransferFunction,
                          grid: FrequencyGrid | None = None,
                          tol: float = DEFAULT_TOL) -> str:
    """Classify the additive positive connection of the two inputs.

    The declared contract is an SNI branch plus an NI branch; the inputs'
    own classes are the caller's responsibility and are not re-checked here
    (rate-like branches dip below the NI boundary near DC while the composite
    remains SNI, which is exactly the case this composition exists for).
    Returns the composite's grid-relative classification.
    """
    return classify_ni(tf_add(sni, ni, label=f"{sni.label}+{ni.label}"), grid, tol)


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

    def output(self, u: float) -> float:
        """Current output for input u, without advancing the state."""
        y = float((self.c @ self.state)[0, 0]) + self.d * u
        if self.noise_std:
            y += self.noise_std * self.rng.standard_normal()
        return y

    def step(self, u: float) -> float:
        """Emit y[k] for input u[k] and advance the state to k+1."""
        y = self.output(u)
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
    C x + D u and A x + B u as one batched matmul, with the same per-plant
    arithmetic as `DiscretePlant.step`.  Output noise is one
    `standard_normal` draw covering the noisy plants in bank order, which is
    the draw sequence of stepping them one after another.  Noisy plants must
    share one generator.  The bank copies the plants' states and never
    writes them back.
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
        self.state = np.zeros((count, order, 1))
        for k, p in enumerate(plants):
            n = p.a.shape[0]
            self.a[k, :n, :n] = p.a
            self.b[k, :n] = p.b
            self.c[k, :, :n] = p.c
            self.state[k, :n] = p.state
        self.d = np.array([p.d for p in plants])
        noise = np.array([p.noise_std for p in plants], dtype=float)
        self.noisy = np.flatnonzero(noise)
        self.noise_std = noise[self.noisy]
        rngs = {id(plants[k].rng): plants[k].rng for k in self.noisy}
        if len(rngs) > 1:
            raise ValueError("noisy plants in one bank must share a generator")
        self.rng = next(iter(rngs.values()), None)

    def step(self, u) -> np.ndarray:
        """Emit every plant's y[k] for its input u[k]; advance all states."""
        u = np.asarray(u, dtype=float)
        y = (self.c @ self.state)[:, 0, 0] + self.d * u
        if self.noisy.size:
            y[self.noisy] += self.noise_std * self.rng.standard_normal(
                self.noisy.size)
        self.state = self.a @ self.state + self.b * u[:, None, None]
        return y


def discretize(tfn: TransferFunction, sample_time: float,
               noise_std: float = 0.0,
               rng: np.random.Generator | None = None) -> DiscretePlant:
    """Bilinear (trapezoidal) discretization of a proper transfer function."""
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
    a, b, c, d = signal.tf2ss(tfn.numerator, tfn.denominator)
    ad, bd, cd, dd, _ = signal.cont2discrete((a, b, c, d), sample_time,
                                             method="bilinear")
    return DiscretePlant(ad, bd, cd, float(np.asarray(dd).ravel()[0]),
                         sample_time, noise_std=noise_std, rng=rng)


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
    models for both vehicle kinds plus the first-order yaw-rate model.
    """
    if path is None:
        source = importlib.resources.files("niformation").joinpath("data/models.yaml")
        text = source.read_text()
    else:
        text = Path(path).read_text()
    doc = yaml.safe_load(text)
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
