"""Finite probability spaces carrying the classical random families.

Four kinds of space are provided:

``rademacher``
    The uniform measure on the sign strings ``{+1, -1}^d``; every moment of
    every order is exact.

``steinhauss``
    Independent variables uniform on the unit circle, discretized by the
    ``STEINHAUSS_ORDER = 5``-th roots of unity.  Every moment identity used
    here involves exponent sums in ``[-2, 2]`` per variable, and those
    root-of-unity sums vanish exactly.

``lacunary``
    The exponentials ``t -> exp(i 2^j t)``, ``j = 1..d``, integrated on a
    uniform grid of ``N = 2**(d+3)`` points.  Frequencies in degree-four
    products are bounded by ``2**(d+2)``, so the quadrature is exact.  Each
    value is ``exp(2 pi i k / N)`` with the phase reduced in integers,
    ``k = 2^j m mod N`` at grid point ``m``, so no argument rounding grows
    with the frequency.

``gaussian``
    Independent standard complex Gaussians, sampled: equal-weight atoms from
    a seeded generator.  Estimates carry a standard error and nothing is
    exact.

One table, :data:`FAMILIES`, holds every family the toolkit names: the
four above and ``car``, the fermionic (weighted) setting of :mod:`nck.car`.
A family has one name: it is the ``kind`` of every space :func:`build`
makes for it, and :attr:`nck.car.CarSystem.kind` is ``car``.  Each row
stores the family's lift constant ``K`` once; the lift clips at ``K / 2``
(:func:`nck.lifting.lift`) and ``1 / K`` is the proved lower constant
(:func:`nck.constants.random_search_ratio`).

A tuple of coefficients ``y`` (shape ``(d, n, n)``) embeds as the random
matrix ``Y(w) = sum_i y_i * family[i, w]``; conditional expectation
against the family recovers the coefficients.  Each is one matrix product
over the tuple's flattened ``n x n`` entries: ``family.T`` for the embed,
``weights * conj(family)`` for the read-out.  The moment check compares
against the weighted closed form :func:`nck.norms.moment_forms`, the same
one the fermionic check uses.

The exact kinds' atoms come in orbits of a unimodular scalar: ``w`` and
``-w`` for signs, the ``m`` rotations of a root-of-unity tuple, ``t`` and
``t + pi`` on the lacunary grid (every frequency is even, so the two atoms
carry equal values).  Each space caches its *phase quotient*, read off the
family alone: one representative atom per orbit with the orbit's summed
weight, and per atom its ``owner`` (the representative's index) and
``phase``, with ``family[:, w] = phase[w] * family[:, rep[owner[w]]]``
checked to ``PHASE_TOL`` relative when the quotient is built.  An atom
that fails the check stays its own representative.  A sampled Gaussian
space is not grouped at all: its atoms never merge, so it is its own
quotient, with ``owner = arange`` and ``phase = 1``.  The quotient is a
space of its own.  An element with ``Z(w) = phase[w] Z(rep)`` on every orbit has the same sup
norm on it, and the same conditional expectation, because
``conj(phi f) phi Z = conj(f) Z`` when ``|phi| = 1``.  The embedded tuple
and its clip are such elements, so the lift (:mod:`nck.lifting`) runs on
the quotient.  So does :func:`l1_s1_norm`: the trace norm of ``phi Y`` is
that of ``Y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import caps
from .exceptions import DimensionMismatch, DTooLarge, InvalidParameter, NonFinite, SpaceTooLarge
from .norms import as_matrix_tuple, gram_norm, moment_forms
from .reports import CheckReport, moment_report

__all__ = [
    "DiscreteProbabilitySpace",
    "RandomElement",
    "rademacher_space",
    "steinhauss_space",
    "lacunary_space",
    "gaussian_space",
    "FAMILIES",
    "family_row",
    "build",
    "check_value_budget",
    "element_from_tuple",
    "l1_s1_norm",
    "gamma_ratio",
    "conditional_expectation",
    "sup_norm",
    "moment_identity_check",
]

#: per family name, which is also the ``kind`` of its setting: ``(K, exact)``.
#: ``K`` is the norm bound of the constructive lift, so ``1 / K`` is the
#: proved lower constant (1/sqrt(3) for signs is a guarantee, not known to
#: be sharp); ``exact`` says whether the setting's moments are exact.
#: ``car``, the fermionic setting, has no probability space
FAMILIES = {
    "rademacher": (math.sqrt(3.0), True),
    "steinhauss": (math.sqrt(2.0), True),
    "lacunary": (math.sqrt(2.0), True),
    "gaussian": (math.sqrt(2.0), False),
    "car": (math.sqrt(2.0), True),
}

#: root-of-unity order of the Steinhaus space: its moment identities'
#: exponent sums lie in ``[-2, 2]``, where only 0 is a multiple of it
STEINHAUSS_ORDER = 5
#: tolerance of :func:`moment_identity_check` on an exact space; a sampled
#: space of ``m`` atoms is held to ``50 / sqrt(m)``
MOMENT_TOL = 1e-11
#: largest deviation, relative to the atom's largest value, with which two
#: atoms may be merged into one orbit of the phase quotient
PHASE_TOL = 1e-14
#: grid, relative to the family's largest value, on which the quotient's
#: grouping keys are rounded; grouping only proposes, ``PHASE_TOL`` decides
_KEY_STEP = 2.0**-30
#: atoms per chunk of :func:`moment_identity_check`'s sums and of the phase
#: quotient's grouping: their temporaries take a few chunks' worth of
#: values, not the whole space's
_MOMENT_CHUNK = 1024


@dataclass(frozen=True)
class DiscreteProbabilitySpace:
    """Finitely many atoms with weights plus the variable values per atom.

    ``family[i, w]`` is the value of variable ``i`` at atom ``w``.
    """

    kind: str
    weights: np.ndarray   # (atoms,)
    family: np.ndarray    # (d, atoms)

    def __post_init__(self):
        # read-only copies: the caller's arrays stay theirs and writable
        self._adopt(np.array(self.weights), np.array(self.family))

    @classmethod
    def _taking(cls, kind: str, weights: np.ndarray, family: np.ndarray):
        """A space that keeps ``weights`` and ``family`` uncopied and makes them read-only.

        For a builder's own new arrays only: nobody else holds them, so the
        copy a caller's arrays get would only double the build's peak.
        """
        space = object.__new__(cls)
        object.__setattr__(space, "kind", kind)
        space._adopt(weights, family)
        return space

    def _adopt(self, w: np.ndarray, fam: np.ndarray) -> None:
        """Validate ``w`` and ``fam``, lock them and make them the space's arrays."""
        if w.ndim != 1 or fam.ndim != 2 or fam.shape[1] != w.shape[0]:
            raise DimensionMismatch(
                f"family shape {fam.shape} incompatible with {w.shape[0]} atoms"
            )
        if not (np.isfinite(w).all() and np.isfinite(fam).all()):
            raise NonFinite("weights and family must be finite")
        if w.min(initial=0.0) < 0.0 or abs(w.sum() - 1.0) > 1e-12:
            raise DimensionMismatch("weights must be nonnegative and sum to 1")
        w.setflags(write=False)
        fam.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "family", fam)

    @property
    def d(self) -> int:
        return self.family.shape[0]

    @property
    def atoms(self) -> int:
        return self.weights.shape[0]

    @property
    def is_exact(self) -> bool:
        return family_row(self.kind)[1]

    @cached_property
    def _quotient(self):
        """``(reps, owner, phase)``: the phase quotient of the module docstring.

        ``reps`` is a space of the same kind over one representative atom
        per orbit, in atom order, weighted by the orbit's summed weight;
        ``family[:, w] == phase[w] * reps.family[:, owner[w]]`` to
        ``PHASE_TOL`` relative, and ``phase`` is exactly 1 on each
        representative.  A sampled space is its own quotient: its atoms
        are not grouped.  ``owner`` and ``phase`` are read-only.
        """
        fam = self.family
        atoms = fam.shape[1]
        cols = np.arange(atoms)
        if not self.is_exact:
            phase = np.ones(atoms, dtype=complex)
            cols.setflags(write=False)
            phase.setflags(write=False)
            return self, cols, phase
        # every step is per atom, so it runs over chunks of atoms and holds
        # no family-sized temporary beside the family
        chunks = [slice(start, start + _MOMENT_CHUNK) for start in range(0, atoms, _MOMENT_CHUNK)]
        size = np.concatenate([np.abs(fam[:, at]).max(axis=0, initial=0.0) for at in chunks])
        scale = size.max(initial=0.0) or 1.0
        # the first nonzero value names the atom's phase; on a zero atom it is 1
        unit = np.empty(atoms, dtype=np.result_type(fam.dtype, np.float64))
        first, cand = {}, np.empty(atoms, dtype=np.intp)
        keys = np.empty((min(atoms, _MOMENT_CHUNK), 2 * fam.shape[0]), dtype=np.int32)
        for at in chunks:
            part = fam[:, at]
            nonzero = part != 0.0
            lead = part[np.argmax(nonzero, axis=0), np.arange(part.shape[1])]
            lead = np.where(nonzero.any(axis=0), lead, 1.0)
            unit[at] = lead / np.abs(lead)
            scaled = part * unit[at].conj() / scale
            key = keys[:part.shape[1]]
            key[:, :fam.shape[0]] = np.rint(scaled.real.T / _KEY_STEP)
            key[:, fam.shape[0]:] = np.rint(scaled.imag.T / _KEY_STEP)
            # the keys are integers, so -0.0 and 0.0 agree; each atom's
            # candidate representative is the first atom with its key
            cand[at] = [first.setdefault(k.tobytes(), w) for w, k in enumerate(key, at.start)]
        phase, merged = np.empty_like(unit), np.empty(atoms, dtype=bool)
        for at in chunks:
            part, near = fam[:, at], fam[:, cand[at]]
            # equal atoms, each atom and itself among them, get phase exactly 1
            phase[at] = np.where((near == part).all(axis=0), 1.0, unit[at] * unit[cand[at]].conj())
            near *= phase[at]
            near -= part
            merged[at] = np.abs(near).max(axis=0, initial=0.0) <= PHASE_TOL * size[at]
        cand = np.where(merged, cand, cols)
        phase = np.where(merged, phase, 1.0)
        reps = np.flatnonzero(cand == cols)
        owner = np.searchsorted(reps, cand)
        owner.setflags(write=False)
        phase.setflags(write=False)
        space = DiscreteProbabilitySpace._taking(
            self.kind, np.bincount(owner, self.weights, reps.size), fam[:, reps]
        )
        return space, owner, phase


@dataclass(frozen=True)
class RandomElement:
    """A matrix-valued random variable: one ``n x n`` block per atom."""

    space: DiscreteProbabilitySpace
    blocks: np.ndarray    # (atoms, n, n)

    def __post_init__(self):
        b = self.blocks
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise DimensionMismatch(f"blocks must be (atoms, n, n), got {b.shape}")
        if b.shape[0] != self.space.atoms:
            raise DimensionMismatch(
                f"{b.shape[0]} blocks for {self.space.atoms} atoms"
            )

    @property
    def n(self) -> int:
        return self.blocks.shape[1]


def _require_positive(name: str, value: int):
    if value < 1:
        raise InvalidParameter(f"need {name} >= 1, got {value}")


def check_value_budget(atoms: int, what: str, d: int) -> None:
    """Raise :class:`SpaceTooLarge` when ``atoms`` times ``d`` values exceed ``caps.VALUE_CAP``.

    ``what`` names the atoms in the message, such as ``"grid points"``.
    """
    if atoms * d > caps.VALUE_CAP:
        raise SpaceTooLarge(f"{atoms} {what} at d={d} exceed the budget")


def rademacher_space(d: int) -> DiscreteProbabilitySpace:
    """Uniform measure on ``{+1, -1}^d``, enumerated with +1 first."""
    _require_positive("d", d)
    cap = caps.rademacher_dim_cap()
    if d > cap:
        raise DTooLarge(f"rademacher dimension {d} outside [1, {cap}]")
    # variable i is bit d-1-i of the atom index, a set bit being -1
    bits = np.indices((2,) * d, dtype=np.int8).reshape(d, -1)
    family = np.array([1.0, -1.0], dtype=complex)[bits]
    weights = np.full(2**d, 2.0**-d)
    return DiscreteProbabilitySpace._taking("rademacher", weights, family)


def steinhauss_space(d: int) -> DiscreteProbabilitySpace:
    """Product of independent uniform ``STEINHAUSS_ORDER``-th roots of unity."""
    _require_positive("d", d)
    order = STEINHAUSS_ORDER
    if order**d > caps.STEINHAUSS_ATOM_CAP:
        raise SpaceTooLarge(
            f"{order}**{d} atoms exceed the {caps.STEINHAUSS_ATOM_CAP} budget"
        )
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    family = roots[np.indices((order,) * d, dtype=np.int8).reshape(d, -1)]
    weights = np.full(order**d, float(order) ** -d)
    return DiscreteProbabilitySpace._taking("steinhauss", weights, family)


def lacunary_space(d: int) -> DiscreteProbabilitySpace:
    """Exponentials with frequencies ``2, 4, ..., 2**d`` on a uniform grid.

    The grid of ``N = 2**(d+3)`` points integrates every trigonometric
    monomial occurring in degree-at-most-four products exactly.  The phase
    ``2^j m`` of frequency ``2^j`` at grid point ``m`` is reduced modulo
    ``N`` in integers, so grid points ``m`` and ``m + N/2`` carry
    bit-identical values.
    """
    _require_positive("d", d)
    n_grid = 2 ** (d + 3)
    check_value_budget(n_grid, "grid points", d)
    # the phase 2^j m mod N as (m mod N/2^j) 2^j, so no product leaves
    # int32; the grid, a quarter of the family's bytes, is not kept
    j = np.arange(1, d + 1, dtype=np.int32)[:, None]
    roots = np.exp(2j * np.pi * np.arange(n_grid) / n_grid)
    family = roots[(np.arange(n_grid, dtype=np.int32) % (n_grid >> j)) << j]
    weights = np.full(n_grid, 1.0 / n_grid)
    return DiscreteProbabilitySpace._taking("lacunary", weights, family)


def gaussian_space(d: int, samples: int, seed: int = 0) -> DiscreteProbabilitySpace:
    """Sampled standard complex Gaussians as equal-weight atoms.

    Reproducible: equal seeds give bit-identical spaces.  Estimates are
    Monte Carlo quality; use at least a few thousand samples.  More than
    ``caps.VALUE_CAP`` values (``samples * d``) raise :class:`SpaceTooLarge`
    before anything is drawn.
    """
    _require_positive("d", d)
    _require_positive("samples", samples)
    check_value_budget(samples, "samples", d)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, d, samples))
    family = (z[0] + 1j * z[1]) / np.sqrt(2.0)
    weights = np.full(samples, 1.0 / samples)
    return DiscreteProbabilitySpace._taking("gaussian", weights, family)


def family_row(name: str) -> tuple:
    """The :data:`FAMILIES` row ``(K, exact)`` of a family name, which is also a setting's kind."""
    if name not in FAMILIES:
        raise InvalidParameter(f"unknown family {name!r}; choose from {tuple(FAMILIES)}")
    return FAMILIES[name]


def build(family: str, d: int, *, samples: int = 0, seed: int = 0) -> DiscreteProbabilitySpace:
    """The probability space of a family with ``d`` variables; its ``kind`` is ``family``.

    ``samples`` and ``seed`` are read only by the sampled Gaussian family.
    """
    family_row(family)
    if family == "rademacher":
        return rademacher_space(d)
    if family == "steinhauss":
        return steinhauss_space(d)
    if family == "lacunary":
        return lacunary_space(d)
    if family == "gaussian":
        return gaussian_space(d, samples, seed)
    raise InvalidParameter(f"family {family!r} has no probability space")


def element_from_tuple(y, space: DiscreteProbabilitySpace) -> RandomElement:
    """The random matrix ``Y(w) = sum_i y_i * family[i, w]``, one matrix product."""
    ya = as_matrix_tuple(y)
    d, n = ya.shape[:2]
    if d != space.d:
        raise DimensionMismatch(
            f"tuple has d={d} but space carries d={space.d} variables"
        )
    blocks = space.family.T @ ya.reshape(d, n * n)
    return RandomElement(space, blocks.reshape(space.atoms, n, n))


def l1_s1_norm(x, space: DiscreteProbabilitySpace):
    """Expected trace norm of ``sum_i x_i * family[i]``, as ``(value, stderr)``.

    Summed over the space's phase quotient: the trace norm of ``phi Y`` is
    that of ``Y`` when ``|phi| = 1``, and a sampled space is its own
    quotient.  Exact for the finite kinds, whose standard error is zero.
    A sampled space needs at least 2 atoms, since the standard error is
    taken with one degree of freedom removed; fewer raise
    :class:`InvalidParameter`.
    """
    sampled = not space.is_exact
    if sampled and space.atoms < 2:
        raise InvalidParameter("need a sampled space of >= 2 atoms for a standard error, "
                               f"got {space.atoms}")
    atoms = space._quotient[0]
    tn = np.linalg.svd(element_from_tuple(x, atoms).blocks, compute_uv=False).sum(axis=1)
    value = float(atoms.weights @ tn)
    stderr = float(tn.std(ddof=1) / np.sqrt(space.atoms)) if sampled else 0.0
    return value, stderr


def gamma_ratio(d) -> float:
    """``Gamma(d + 1/2) / Gamma(d)`` via the difference of :func:`math.lgamma` values.

    Equals the expected Euclidean length of a standard complex Gaussian
    vector in dimension ``d``; grows like ``sqrt(d)``.
    """
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    return math.exp(math.lgamma(d + 0.5) - math.lgamma(d))


def conditional_expectation(elem: RandomElement) -> np.ndarray:
    """Recover the coefficient tuple: ``x_i = E(conj(family_i) * X)``, one matrix product."""
    space, n = elem.space, elem.n
    x = (space.weights * space.family.conj()) @ elem.blocks.reshape(space.atoms, n * n)
    return x.reshape(space.d, n, n)


def sup_norm(elem: RandomElement) -> float:
    """Largest operator norm over atoms.

    For a sampled ``gaussian`` space this is a lower estimate of the
    essential supremum, since only sampled atoms are seen.
    """
    if elem.blocks.size == 0:
        return 0.0
    return float(np.linalg.svd(elem.blocks, compute_uv=False)[:, 0].max())


def _gram_sums(b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_m w_m G_m`` and ``sum_m w_m G_m^2`` for ``G_m = b_m* b_m`` and for ``G_m = b_m b_m*``.

    Returned as ``(col2, row2, col4, row4)``, ``(4, n, n)``, for blocks ``b``
    of shape ``(m, n, n)``.  The per-atom Grams take one outer product of a
    row (column) of ``b_m`` per inner index; the second moments are then
    one product ``w @ G`` and the fourth one ``(n, m n) @ (m n, n)`` per Gram.
    """
    m, n = b.shape[:2]
    grams = np.zeros((2, m, n, n), dtype=complex)
    for k in range(n):
        row, col = b[:, k, :], b[:, :, k]
        grams[0] += row.conj()[:, :, None] * row[:, None, :]
        grams[1] += col[:, :, None] * col.conj()[:, None, :]
    out = np.empty((4, n, n), dtype=complex)
    out[:2] = (w @ grams.reshape(2, m, n * n)).reshape(2, n, n)
    # sum_m w_m G_m G_m = L @ R with R = vstack(G_1 .. G_m) and
    # L = [w_1 G_1 .. w_m G_m], which is (W R)* for W = diag(w_m) per row,
    # since every G_m is Hermitian; complex weights spare the product a
    # cast buffer
    weighted = np.conjugate(grams)
    weighted *= w.astype(complex)[:, None, None]
    out[2:] = weighted.reshape(2, m * n, n).transpose(0, 2, 1) @ grams.reshape(2, m * n, n)
    return out


def moment_identity_check(y, space: DiscreteProbabilitySpace) -> CheckReport:
    """Verify second/fourth moment identities of ``Y = sum y_i (x) family_i``.

    Moments are evaluated by direct atom summation and compared with the
    closed form :func:`nck.norms.moment_forms` that the fermionic check
    shares, weighted for the kind: ``pair_w = 1`` for ``gaussian``
    (``E|g|^4 = 2``), ``1 - I`` otherwise, and the sign term ``1 - I`` for
    real signs only.  The fourth moments must also sit below the second
    moments scaled by the appropriate norm factor (factor
    ``||col2|| + ||row2||`` for circularly symmetric families, factor
    ``3 * triple_norm(y)**2`` for signs).

    The weighted sums of the Grams ``Y*Y`` and ``YY*`` and of their squares
    are accumulated over chunks of ``_MOMENT_CHUNK`` atoms, so beside the
    embedded element the check holds a few chunks' worth of blocks, never a
    whole-space Gram stack.  Per chunk they are matrix products: the
    per-atom Grams ``G_m`` take one outer product per inner index, then
    ``sum_m w_m G_m`` is one product ``w @ G`` and ``sum_m w_m G_m^2`` one
    ``(n, m n) @ (m n, n)`` product per Gram (:func:`_gram_sums`).

    Deviations are normalized by ``1 + norm(target)``.  Raises
    :class:`IdentityViolation` when the worst deviation exceeds the
    tolerance: :data:`MOMENT_TOL` for exact kinds, ``50/sqrt(atoms)`` for
    sampled Gaussians.
    """
    kind = space.kind
    tol = MOMENT_TOL if space.is_exact else 50.0 / np.sqrt(space.atoms)
    ya = as_matrix_tuple(y)
    blocks = element_from_tuple(ya, space).blocks
    w = space.weights

    # (col2, row2, col4, row4), accumulated chunk by chunk
    sums = np.zeros((4,) + blocks.shape[1:], dtype=complex)
    for start in range(0, space.atoms, _MOMENT_CHUNK):
        sums += _gram_sums(blocks[start:start + _MOMENT_CHUNK], w[start:start + _MOMENT_CHUNK])

    d = ya.shape[0]
    ones = np.ones(d)
    off = 1.0 - np.eye(d)
    pair_w = np.ones((d, d)) if kind == "gaussian" else off
    sign_w = off if kind == "rademacher" else np.zeros((d, d))
    closed = moment_forms(ya, ones, ones, pair_w, sign_w)
    n_col, n_row = gram_norm(closed[0]), gram_norm(closed[1])
    factor = 3.0 * max(n_col, n_row) if kind == "rademacher" else n_col + n_row

    return moment_report(
        f"moments[{space.kind}]", tol, tuple(sums), closed, factor
    )
