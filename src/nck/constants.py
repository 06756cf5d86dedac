"""Desk-scale reproduction of the sharp constants.

Three families of evidence:

* a closed-form upper-bound sequence ``sqrt(m+1)/sqrt(2m+1)`` decreasing to
  ``1/sqrt(2)`` for the Gaussian lower constant;
* witness ratios approaching the upper constant ``1`` from below, via the
  expected Euclidean length of a Gaussian vector (``Gamma(d+1/2)/Gamma(d)``)
  and via the normalized trace of ``(sum a_i a_i*)^(1/2)`` in the fermionic
  algebra at weights ``1/2`` (binomial closed form
  ``2^-d sum_k C(d,k) sqrt(k)``);
* seeded random search over tuple ensembles, checking that every observed
  ratio ``l1 / dual`` respects the proved sandwich ``[1 / K, 1]``, with the
  family's lift constant ``K`` read from :data:`nck.spaces.FAMILIES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import caps
from .car import car_system
from .exceptions import DTooLarge, IdentityViolation, InvalidParameter
from .linalg import trace_norm
from .norms import dual_norm
from .reports import CheckReport
from .spaces import build, family_row, gamma_ratio, l1_s1_norm

__all__ = [
    "ConstantReport",
    "CarC1Witness",
    "gaussian_c1_bound_sequence",
    "c2_witness_gaussian",
    "car_c1_witness",
    "car_c2_sequence",
    "random_search_ratio",
]

INV_SQRT2 = 1.0 / math.sqrt(2.0)
#: largest distance of :func:`car_c1_witness`'s ratio from ``1/sqrt(2)``
C1_WITNESS_TOL = 1e-6
#: slack with which a searched ratio may leave the proved sandwich
SEARCH_TOL = 1e-5
#: largest ``d`` that :func:`car_c2_sequence` accepts
CAR_C2_MAX_D = 60


def gaussian_c1_bound_sequence(m: int) -> float:
    """Upper bound ``sqrt(m+1)/sqrt(2m+1)`` on the Gaussian lower constant.

    Strictly decreasing in ``m`` with limit ``1/sqrt(2)``.
    """
    if m < 1:
        raise InvalidParameter(f"need m >= 1, got {m}")
    return math.sqrt((m + 1.0) / (2.0 * m + 1.0))


def c2_witness_gaussian(d: int) -> float:
    """Ratio ``E(sum |g_i|^2)^(1/2) / sqrt(d)`` for the first-column tuple, exactly.

    The tuple ``x_i = e_{i1}`` has dual norm at most ``sqrt(d)``, and the
    trace norm of ``sum_i g_i e_{i1}`` is the column length
    ``(sum |g_i|^2)^(1/2)``, so the expected trace norm of the tuple's
    Gaussian average is the expected Euclidean length of a standard
    complex Gaussian vector, :func:`nck.spaces.gamma_ratio` ``(d)``.  The
    ratio ``gamma_ratio(d) / sqrt(d)`` is a lower witness for the upper
    constant and increases strictly to 1.  ``d < 1`` raises
    :class:`InvalidParameter`.
    """
    return gamma_ratio(d) / math.sqrt(d)


@dataclass(frozen=True)
class CarC1Witness:
    """The dimension-one weighted witness pinning the lower constant."""

    functional_norm: float
    dual_value: float

    @property
    def ratio(self) -> float:
        return self.functional_norm / self.dual_value


def car_c1_witness() -> CarC1Witness:
    """Sharpness witness at ``d = n = 1`` with weight ``1/2``.

    The coefficient functional has norm 1 in the dual of the one-mode
    algebra (its kernel is a rank-one partial isometry), while the weighted
    dual norm of the scalar 1 is ``sqrt(2)``; the ratio ``1/sqrt(2)`` shows
    the lower constant cannot be improved.  Raises
    :class:`IdentityViolation` when the ratio is more than
    :data:`C1_WITNESS_TOL` away from ``1/sqrt(2)``.
    """
    sys = car_system([0.5])
    # the one kernel K_1 = rho a_1* + a_1* rho, made dense from kernel_values
    _, u, v, _ = sys._entries
    kernel = np.zeros((sys.dim, sys.dim), dtype=complex)
    kernel[v, u] = sys.kernel_values
    functional_norm = trace_norm(kernel)
    res = dual_norm(np.array([[[1.0 + 0.0j]]]), nu=[0.5])
    witness = CarC1Witness(functional_norm=functional_norm, dual_value=res.value)
    deviation = abs(witness.ratio - INV_SQRT2)
    if deviation > C1_WITNESS_TOL:
        raise IdentityViolation(
            f"witness ratio {witness.ratio:.8f} differs from {INV_SQRT2:.8f}",
            CheckReport("car-c1-witness", C1_WITNESS_TOL, {"ratio": deviation}),
        )
    return witness


def car_c2_sequence(d: int):
    """``sqrt(2/d) * tau((sum a_i a_i*)^(1/2))`` at weights ``1/2``.

    Returns ``(matrix_value, binomial_value)``.  The matrix value evaluates
    the normalized trace in the ``2**d`` representation, where the number
    operator ``sum a_i a_i*`` is diagonal, so its square root is taken
    entrywise on its diagonal; the binomial value
    uses the joint spectrum of the commuting projections ``a_i a_i*``
    (independent fair bits), giving ``sqrt(2/d) 2^-d sum_k C(d,k) sqrt(k)``.
    The matrix value is ``None`` above the representation cap.  The
    sequence increases strictly to 1.
    """
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    if d > CAR_C2_MAX_D:
        raise DTooLarge(f"need 1 <= d <= {CAR_C2_MAX_D}, got {d}")
    binomial = math.sqrt(2.0 / d) * 2.0**-d * sum(
        math.comb(d, k) * math.sqrt(k) for k in range(d + 1)
    )
    matrix_value = None
    if d <= caps.car_dim_cap():
        sys = car_system(np.full(d, 0.5))
        number = np.bincount(sys._entries[1], np.abs(sys._entries[3]) ** 2, minlength=sys.dim)
        matrix_value = math.sqrt(2.0 / d) * float(np.sqrt(number).sum()) / sys.dim
    return matrix_value, binomial


@dataclass
class ConstantReport:
    """Observed ratio range from a seeded random search.

    ``family`` is the :data:`nck.spaces.FAMILIES` key searched, the name
    ``--family`` takes.  A returned report has passed the search's sandwich
    check; a ratio that fails it raises instead.
    """

    family: str
    lower_witness: float
    upper_witness: float
    theoretical: tuple
    trials: int
    seed: int
    ratios: list


def _random_tuple(rng: np.random.Generator, ensemble: str, d: int, n: int) -> np.ndarray:
    if ensemble == "gaussian":
        return (rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))) / np.sqrt(2)
    if ensemble == "isometry":
        out = np.zeros((d, n, n), dtype=complex)
        for i in range(d):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(z)
            keep = rng.integers(1, n + 1)
            mask = np.zeros(n)
            mask[rng.permutation(n)[:keep]] = 1.0
            out[i] = q * mask  # columns of a unitary: a partial isometry
        return out
    if ensemble == "matrix-unit":
        out = np.zeros((d, n, n), dtype=complex)
        rows = rng.integers(0, n, size=d)
        cols = rng.integers(0, n, size=d)
        out[np.arange(d), rows, cols] = 1.0
        return out
    raise InvalidParameter(f"unknown ensemble {ensemble!r}")


def random_search_ratio(
    family: str,
    n: int,
    d: int,
    trials: int,
    seed: int = 0,
    samples: int = 20_000,
) -> ConstantReport:
    """Scan random tuples and record the range of ``l1 / dual`` ratios.

    Ensembles cycle through dense Gaussian tuples, random partial
    isometries and random matrix units (the family the sharp witnesses are
    built from); the first-column tuple is always included when it fits.
    Every ratio must respect the proved sandwich: at least the family's
    lower constant minus :data:`SEARCH_TOL` (minus three standard errors for
    sampled spaces) and at most 1 plus :data:`SEARCH_TOL`; a ratio outside
    raises :class:`IdentityViolation` with a ``sandwich`` report, so a
    returned report has passed.  ``family`` is a :data:`nck.spaces.FAMILIES`
    key with a probability space.
    """
    if min(n, d, trials) < 1:
        raise InvalidParameter(f"need n, d, trials >= 1, got n={n}, d={d}, trials={trials}")
    space = build(family, d, samples=samples, seed=seed)
    c1, c2 = 1.0 / family_row(family)[0], 1.0
    rng = np.random.default_rng(seed)

    ensembles = ("gaussian", "isometry", "matrix-unit")
    ratios = []
    lo, hi = np.inf, -np.inf
    for trial in range(trials):
        if trial == 0 and n >= d:
            x = np.zeros((d, n, n), dtype=complex)
            x[np.arange(d), np.arange(d), 0] = 1.0
        else:
            x = _random_tuple(rng, ensembles[trial % len(ensembles)], d, n)
        value, stderr = l1_s1_norm(x, space)
        dres = dual_norm(x)
        ratio = value / dres.value
        slack = SEARCH_TOL + (0.0 if space.is_exact else 3.0 * stderr / dres.value)
        if ratio < c1 - slack or ratio > c2 + slack:
            raise IdentityViolation(
                f"{space.kind}: ratio {ratio:.8f} outside [{c1:.6f}, {c2:.6f}] "
                f"(slack {slack:.2e}) at trial {trial}",
                CheckReport("sandwich", slack, {f"trial-{trial}": max(c1 - ratio, ratio - c2)}),
            )
        ratios.append(ratio)
        lo = min(lo, ratio)
        hi = max(hi, ratio)

    return ConstantReport(
        family=family,
        lower_witness=float(lo),
        upper_witness=float(hi),
        theoretical=(c1, c2),
        trials=trials,
        seed=seed,
        ratios=ratios,
    )
