"""Continuous-time LTI transfer functions with negative-imaginary classification.

Single-input single-output rational transfer functions: the exact
negative-imaginary (NI / strictly-NI) class on a frequency band, the DC
gain, and bilinear discretization to a stepped state-space realization for
fixed-step simulation, with a bank that steps many such realizations as one
batched update and draws their output noise.  `load_model_library` reads
the named fitted plants.

The realization repeats scipy's bilinear `cont2discrete(tf2ss(...))`
operation for operation on numpy's LAPACK, so a run imports no scipy;
`_bilinear` says where its bits are known to equal scipy's.

Classification is exact, not sampled.  For P = N/D the NI index
-2*Im P(jw) has the sign of the real polynomial -Im[N(jw) * conj D(jw)], so
the real roots of that polynomial decide the class on a frequency band
(lo, hi], which may reach to infinity.  The default band, (0, 2] rad/s, is
the one on which the shipped velocity models classify SNI.
"""

from __future__ import annotations

import functools
import importlib.resources
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

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
    """The denominator has a root on the imaginary axis within the band."""


class IntegratorError(ValueError):
    """DC gain requested for a model with a pole at the origin."""


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


@dataclass
class DiscretePlant:
    """Stepped discrete realization of a proper transfer function.

    x[k+1] = A x[k] + B u[k];  y[k] = C x[k] + D u[k], with A, B and C the
    shared read-only arrays `discretize` hands out; only the state is the
    plant's own.  A simulation steps its plants through a `PlantBank` built
    from them, which gives the same outputs as stepping each plant in turn
    and adds the output noise.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    state: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.state is None:
            self.state = np.zeros((self.a.shape[0], 1))

    def step(self, u: float) -> float:
        """Emit y[k] for input u[k] and advance the state to k+1."""
        y = float((self.c @ self.state)[0, 0]) + self.d * u
        self.state = self.a @ self.state + self.b * u
        return y


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
    that depends on the lane.  With `noise_std` > 0 each step adds
    `noise_std` times one `rng.standard_normal(count)` draw to the outputs,
    in bank order.  The bank copies the plants' states and never writes
    them back.

    Stepped output stays the same bit for bit only while the products keep
    their batched shapes and their order, C x + D u and then A x + B u, and
    while banks stay apart (a simulator keeps its planar and yaw banks
    separate): a fused or merged product sums in another order, which can
    change the last bit or the sign of a zero.
    """

    def __init__(self, plants, noise_std: float = 0.0,
                 rng: np.random.Generator | None = None):
        plants = list(plants)
        if not plants:
            raise ValueError("a plant bank needs at least one plant")
        if noise_std and rng is None:
            raise ValueError("noise_std > 0 requires an rng")
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
        self.noise_std = noise_std
        self.rng = rng
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
        if self.noise_std:
            for k, z in enumerate(self.rng.standard_normal(len(y)).tolist()):
                y[k] += self.noise_std * z
        return y


# keyed on the coefficients' exact bits, so 0.0 and -0.0 never share an entry
@functools.lru_cache(maxsize=64)
def _bilinear(numerator: bytes, denominator: bytes, sample_time: float):
    """scipy's `cont2discrete(tf2ss(num, den), dt, "bilinear")`, on numpy.

    The same operations in the same order: `signal.normalize` (divide by
    den[0]; trim leading numerator coefficients with |c| <= 1e-14, keeping
    one, with a `UserWarning`; but an all-zero numerator, the zero function,
    is one zero, without the warning), `tf2ss`'s controllable canonical form
    A = [-den[1:]; eye(K-2, K-1)], B = eye(K-1, 1), C = num[1:] -
    num[0]*den[1:], D = num[0] (num padded to den's length K), and
    `cont2discrete`'s gbt branch at alpha = 1/2: with M = I - (dt/2) A,
    Ad = solve(M, I + (dt/2) A), Bd = solve(M, dt B), Cd = solve(M^T, C^T)^T
    and Dd = D + (C Bd)/2, each solve LAPACK's LU in `np.linalg.solve`.

    numpy's and scipy's wheels each bundle their own OpenBLAS.  The shipped
    models give scipy's bits under the SkylakeX, Haswell, Prescott and Zen
    cores, and so do random proper models of orders 1-5 wherever scipy's
    solve also factors M by LU.  scipy 1.17 solves a triangular, symmetric
    or tridiagonal M with other routines instead (a pole at the origin
    makes M triangular or tridiagonal); there, and at order 6 and above on
    an ill-conditioned M, the two differ within a small multiple of
    cond(M) * eps.
    """
    num, den = np.frombuffer(numerator), np.frombuffer(denominator)
    num, den = num / den[0], den / den[0]
    if not num.any():   # nothing to trim: C and D are zero
        num = np.zeros(1)
    elif abs(num[0]) <= 1e-14:
        warnings.warn("Badly conditioned filter coefficients (numerator): "
                      "the results may be meaningless", stacklevel=3)
        kept = np.flatnonzero(np.abs(num) > 1e-14)
        num = num[kept[0] if kept.size else -1:]
    order = den.size - 1
    num = np.concatenate((np.zeros(den.size - num.size), num))
    a = np.vstack((-den[1:], np.eye(order - 1, order)))
    b = np.eye(order, 1)
    c = (num[1:] - num[0] * den[1:]).reshape(1, order)
    half = 0.5 * sample_time
    ima = np.eye(order) - half * a
    ad = np.linalg.solve(ima, np.eye(order) + half * a)
    bd = np.linalg.solve(ima, sample_time * b)
    cd = np.linalg.solve(ima.transpose(), c.transpose()).transpose()
    dd = num[0] + 0.5 * np.dot(c, bd)
    for matrix in (ad, bd, cd):
        matrix.flags.writeable = False
    return ad, bd, cd, float(dd[0, 0])


def discretize(tfn: TransferFunction, sample_time: float) -> DiscretePlant:
    """Bilinear (trapezoidal) discretization of a proper transfer function.

    Realized by `_bilinear`, scipy's operations on numpy's LAPACK.  Each
    exact (numerator, denominator, sample_time) is realized once per
    process and its read-only A, B and C are shared; the state is not.
    """
    if not 0.0 < sample_time < np.inf:
        raise ValueError(f"sample_time must be finite and positive, got {sample_time!r}")
    if not tfn.proper:
        raise ValueError("cannot discretize an improper transfer function"
                         + (f" ('{tfn.label}')" if tfn.label else ""))
    if len(tfn.denominator) == 1:  # constant gain, no dynamics
        return DiscretePlant(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                             float(tfn.numerator[0] / tfn.denominator[0]))
    realization = _bilinear(np.array(tfn.numerator).tobytes(),
                            np.array(tfn.denominator).tobytes(), float(sample_time))
    return DiscretePlant(*realization)


def parse_yaml(text: str):
    """Parse one YAML document with the safe loader `YAML_LOADER`."""
    return yaml.load(text, Loader=YAML_LOADER)


def load_model_library(path: str | Path | None = None) -> dict[str, TransferFunction]:
    """Load the named transfer-function library (YAML), each transfer
    function labelled with its name.

    Defaults to the library shipped with the package: the fitted velocity
    models for both vehicle kinds plus the first-order yaw-rate model.  The
    shipped file is parsed once per process, and each call returns a new
    dict of the same frozen transfer functions; a `path` is read on every
    call.  Each entry holds exactly `numerator` and `denominator`.
    """
    if path is None:
        return dict(_shipped_library())
    return _parse_library(Path(path).read_text())


@functools.lru_cache(maxsize=1)
def _shipped_library() -> dict[str, TransferFunction]:
    source = importlib.resources.files("niformation").joinpath("data/models.yaml")
    return _parse_library(source.read_text())


def _parse_library(text: str) -> dict[str, TransferFunction]:
    doc = parse_yaml(text)
    models = doc.get("models") if isinstance(doc, dict) else None
    if not isinstance(models, dict) or not models:
        raise ValueError("model library must contain a nonempty 'models' mapping")
    library: dict[str, TransferFunction] = {}
    for name, entry in models.items():
        try:
            if not isinstance(entry, dict):
                raise TypeError("expected a mapping")
            unknown = [key for key in entry if key not in ("numerator", "denominator")]
            if unknown:
                raise ValueError(f"{unknown[0]}: unknown field")
            library[name] = TransferFunction(tuple(entry["numerator"]),
                                             tuple(entry["denominator"]), label=name)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"model '{name}': {exc}") from exc
    return library
