"""Fermionic (CAR) machinery over a weighted d-dimensional space.

Generators are realized concretely inside ``(2 x 2)^(tensor d)``:

    a_1 = e (x) 1 (x) ... (x) 1,
    a_i = u (x) ... (x) u (x) e (x) 1 (x) ... (x) 1,

with ``e = [[0, 1], [0, 0]]`` and ``u = diag(1, -1)``.  They satisfy the
anticommutation relations ``a_i a_j* + a_j* a_i = delta_ij I`` and
``a_i a_j + a_j a_i = 0`` exactly in floating point (all entries are 0 or
+-1).

The reference state for weights ``nu`` is ``b -> Tr(rho b)`` with the
product density ``rho = (x)_i diag(1 - nu_i, nu_i)``, kept as its diagonal;
its n-point values are determinants of the diagonal two-point function.
The coefficient functionals ``phi_i(b) = state(a_i* b + b a_i*)`` satisfy
``phi_i(a_j) = delta_ij`` and assemble into the map that reads a
coefficient tuple off an algebra element; that map is the exact analogue of
conditional expectation on the probability spaces.  The state has the
complex-Gaussian moment structure reweighted by ``nu_i`` and ``1 - nu_i``,
so the fourth-moment check uses the closed form
:func:`nck.norms.moment_forms` shared with the probability spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import caps
from .exceptions import DimensionMismatch, DTooLarge, NotOrthonormal, SizeMismatch
from .norms import as_matrix_tuple, as_weights, gram_norm, moment_forms
from .reports import CheckReport, moment_report, raise_if_failed

__all__ = [
    "SubspaceModel",
    "CarSystem",
    "subspace_to_weights",
    "jordan_wigner",
    "car_system",
    "state_eval",
    "coefficient_functional",
    "npoint_function",
    "generator_monomial",
    "embed_tuple",
    "extract_coefficients",
    "anticommutation_check",
    "second_moment_check",
    "state_weight_check",
    "orthogonality_check",
    "fourth_moment_check",
]

_E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_U = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SubspaceModel:
    """A d-dimensional subspace of a row/column direct sum.

    ``basis_row[i]`` and ``basis_col[i]`` are the two halves of the i-th
    basis vector in an ambient space of dimension ``k``; orthonormality of
    the basis means ``Gram(basis_row) + Gram(basis_col) = I``.
    """

    basis_row: np.ndarray   # (d, k)
    basis_col: np.ndarray   # (d, k)

    def __post_init__(self):
        r, c = self.basis_row, self.basis_col
        if r.ndim != 2 or r.shape != c.shape:
            raise DimensionMismatch(
                f"row/column parts must share shape (d, k): {r.shape} vs {c.shape}"
            )

    @property
    def d(self) -> int:
        return self.basis_row.shape[0]


def _gram(v: np.ndarray) -> np.ndarray:
    # G[i, j] = <v_i, v_j> with the inner product linear in the first slot
    return v @ v.conj().T


def subspace_to_weights(model: SubspaceModel, tol: float = 1e-10):
    """Diagonalize the column-part Gram operator of an orthonormal basis.

    Returns ``(nu, rotation)`` where ``nu`` (ascending, in ``[0, 1]``) is the
    spectrum of the operator measuring the column content of the subspace
    and ``rotation`` is the unitary change of basis that diagonalizes it.
    """
    g_row = _gram(model.basis_row)
    g_col = _gram(model.basis_col)
    eye = np.eye(model.d)
    if np.abs(g_row + g_col - eye).max() > tol:
        raise NotOrthonormal(
            "basis is not orthonormal: row and column Grams do not sum to I "
            f"(deviation {np.abs(g_row + g_col - eye).max():.3e})"
        )
    nu, rotation = np.linalg.eigh(g_col)
    nu = np.clip(nu, 0.0, 1.0)
    return nu, rotation


@lru_cache(maxsize=8)
def _jordan_wigner_cached(d: int):
    gens = []
    for i in range(d):
        factors = [_U] * i + [_E] + [_I2] * (d - 1 - i)
        g = reduce(np.kron, factors)
        g.setflags(write=False)
        gens.append(g)
    return tuple(gens)


def jordan_wigner(d: int):
    """The ``d`` fermionic generators as ``2**d`` square matrices (cached)."""
    cap = caps.car_dim_cap()
    if not 1 <= d <= cap:
        raise DTooLarge(f"fermionic dimension {d} outside [1, {cap}]")
    return _jordan_wigner_cached(d)


@dataclass(frozen=True)
class CarSystem:
    """Generators plus the weights of the product state."""

    nu: np.ndarray
    generators: tuple

    @property
    def d(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    @cached_property
    def density_diagonal(self) -> np.ndarray:
        """The diagonal ``(x)_i (1 - nu_i, nu_i)`` of the density (real, read-only)."""
        r = reduce(np.kron, [np.array([1.0 - v, v]) for v in self.nu])
        r.setflags(write=False)
        return r

    @cached_property
    def functional_kernels(self) -> np.ndarray:
        """Matrices ``K_i = rho a_i* + a_i* rho`` so that ``phi_i(b) = Tr(K_i b)``.

        The density is diagonal, so ``K_i = a_i* * (r_a + r_b)`` entrywise
        with ``r = diag(rho)``; shape ``(d, dim, dim)``.
        """
        r = self.density_diagonal
        w = r[:, None] + r[None, :]
        # filled in place: stacked (d, dim, dim) temporaries raise peak RSS
        kern = np.empty((self.d, self.dim, self.dim), dtype=complex)
        for k, g in zip(kern, self.generators):
            np.multiply(g.conj().T, w, out=k)
        kern.setflags(write=False)
        return kern


def car_system(nu) -> CarSystem:
    """Build the system for a weight vector ``nu`` in ``[0, 1]^d``."""
    w = as_weights(nu)
    return CarSystem(nu=w, generators=jordan_wigner(w.shape[0]))


def _check_size(sys: CarSystem, b) -> np.ndarray:
    a = np.asarray(b, dtype=complex)
    if a.shape != (sys.dim, sys.dim):
        raise SizeMismatch(f"expected {sys.dim} x {sys.dim}, got {a.shape}")
    return a


def state_eval(sys: CarSystem, b) -> complex:
    """The reference state ``Tr(rho b)``."""
    a = _check_size(sys, b)
    return complex(sys.density_diagonal @ np.diagonal(a))


def coefficient_functional(sys: CarSystem, i: int, b) -> complex:
    """``phi_i(b) = state(a_i* b + b a_i*)``; satisfies ``phi_i(a_j) = delta_ij``."""
    a = _check_size(sys, b)
    if not 0 <= i < sys.d:
        raise DimensionMismatch(f"index {i} outside range(0, {sys.d})")
    return complex(np.einsum("ab,ba->", sys.functional_kernels[i], a))


def npoint_function(sys: CarSystem, create, annihilate) -> complex:
    """Determinant form of the state on a normal-ordered monomial.

    ``create`` lists the starred generators left to right, ``annihilate``
    the unstarred ones, i.e. the monomial is
    ``a*_{create[0]} ... a*_{create[-1]} a_{annihilate[0]} ... a_{annihilate[-1]}``.
    Zero when the two lists differ in length; otherwise the determinant of
    the diagonal two-point matrix.
    """
    create = list(create)
    annihilate = list(annihilate)
    if len(create) != len(annihilate):
        return 0.0 + 0.0j
    if not create:
        return 1.0 + 0.0j
    f = list(reversed(create))
    g = annihilate
    m = np.zeros((len(g), len(f)), dtype=complex)
    for a, gi in enumerate(g):
        for b, fj in enumerate(f):
            if gi == fj:
                m[a, b] = sys.nu[gi]
    return complex(np.linalg.det(m))


def generator_monomial(sys: CarSystem, create, annihilate) -> np.ndarray:
    """Matrix of ``a*_{create[0]} ... a_{annihilate[-1]}`` (for cross-checks)."""
    out = np.eye(sys.dim, dtype=complex)
    for i in create:
        out = out @ sys.generators[i].conj().T
    for i in annihilate:
        out = out @ sys.generators[i]
    return out


def embed_tuple(sys: CarSystem, y) -> np.ndarray:
    """The element ``Y = sum_i y_i (x) a_i`` in ``M_n (x) M_{2**d}``."""
    ya = as_matrix_tuple(y)
    if ya.shape[0] != sys.d:
        raise DimensionMismatch(f"tuple d={ya.shape[0]} vs system d={sys.d}")
    n, q = ya.shape[1], sys.dim
    # one generator at a time: a stacked (d, q, q) copy of the generators
    # would cost more memory than the result at n = 1 or 2
    out = np.zeros((n, q, n, q), dtype=complex)
    for yi, g in zip(ya, sys.generators):
        out += yi[:, None, :, None] * g[None, :, None, :]
    return out.reshape(n * q, n * q)


def extract_coefficients(sys: CarSystem, x) -> np.ndarray:
    """Apply the coefficient functionals blockwise: ``x_i = (Id (x) phi_i)(X)``.

    Inverts :func:`embed_tuple` on its range; even monomials map to zero.
    """
    a = np.asarray(x, dtype=complex)
    q = sys.dim
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % q != 0:
        raise SizeMismatch(
            f"expected a square matrix with side divisible by {q}, got {a.shape}"
        )
    n = a.shape[0] // q
    ar = a.reshape(n, q, n, q)
    return np.einsum("iab,pbqa->ipq", sys.functional_kernels, ar)


def _id_otimes_state(sys: CarSystem, w: np.ndarray, n: int) -> np.ndarray:
    q = sys.dim
    wr = w.reshape(n, q, n, q)
    return np.einsum("a,paqa->pq", sys.density_diagonal, wr)


# --- identity checks --------------------------------------------------------


def anticommutation_check(sys: CarSystem, tol: float = 1e-12) -> CheckReport:
    """``a_i a_j* + a_j* a_i = delta_ij I`` and ``a_i a_j + a_j a_i = 0``."""
    report = CheckReport(name="anticommutation", tolerance=tol)
    eye = np.eye(sys.dim)
    dev_mixed = 0.0
    dev_plain = 0.0
    for i, gi in enumerate(sys.generators):
        for j, gj in enumerate(sys.generators):
            mixed = gi @ gj.conj().T + gj.conj().T @ gi - (eye if i == j else 0.0)
            dev_mixed = max(dev_mixed, float(np.abs(mixed).max()))
            plain = gi @ gj + gj @ gi
            dev_plain = max(dev_plain, float(np.abs(plain).max()))
    report.record("anticommutator-mixed", dev_mixed)
    report.record("anticommutator-plain", dev_plain)
    raise_if_failed(report)
    return report


def second_moment_check(sys: CarSystem, tol: float = 1e-12) -> CheckReport:
    """``state(a_i* a_j) = nu_i delta_ij`` and ``state(a_i a_j*) = (1-nu_i) delta_ij``.

    The density is diagonal, so both states are elementwise sums:
    ``state(a_i* a_j) = sum_lk r_k conj(a_i[l,k]) a_j[l,k]`` and
    ``state(a_i a_j*) = sum_kl r_k a_i[k,l] conj(a_j[k,l])`` with
    ``r = diag(rho)``; no product of generators is formed.
    """
    report = CheckReport(name="second-moments", tolerance=tol)
    r = sys.density_diagonal
    dev_c = 0.0
    dev_a = 0.0
    for j, gj in enumerate(sys.generators):
        col_weighted = gj * r[None, :]
        row_weighted = gj * r[:, None]
        for i, gi in enumerate(sys.generators):
            target = sys.nu[i] if i == j else 0.0
            dev_c = max(dev_c, abs(np.vdot(gi, col_weighted) - target))
            target = (1.0 - sys.nu[i]) if i == j else 0.0
            dev_a = max(dev_a, abs(np.vdot(row_weighted, gi) - target))
    report.record("two-point-creation", dev_c)
    report.record("two-point-annihilation", dev_a)
    raise_if_failed(report)
    return report


def state_weight_check(sys: CarSystem, tol: float = 1e-12) -> CheckReport:
    """One-sided products split through the coefficient functionals.

    Verifies ``state(a_i* b) = nu_i phi_i(b)`` and
    ``state(b a_i*) = (1 - nu_i) phi_i(b)`` for every ``b``; checking the
    kernel matrices entrywise covers all matrix units at once.
    """
    report = CheckReport(name="state-weights", tolerance=tol)
    r = sys.density_diagonal
    dev_left = 0.0
    dev_right = 0.0
    for i, gi in enumerate(sys.generators):
        k = sys.functional_kernels[i]
        # Tr(rho a_i* b) = nu_i Tr(K_i b) for all b  <=>  rho a_i* = nu_i K_i
        dev_left = max(dev_left, float(np.abs(r[:, None] * gi.conj().T - sys.nu[i] * k).max()))
        dev_right = max(
            dev_right,
            float(np.abs(gi.conj().T * r[None, :] - (1.0 - sys.nu[i]) * k).max()),
        )
    report.record("weight-split-left", dev_left)
    report.record("weight-split-right", dev_right)
    raise_if_failed(report)
    return report


def orthogonality_check(sys: CarSystem, tol: float = 1e-12) -> CheckReport:
    """Centered quadratic monomials form orthogonal families.

    ``f_ij = a_i* a_j - delta_ij nu_i I`` are orthogonal for the form
    ``(c, d) -> state(d* c)`` with squared norms ``nu_j (1 - nu_i)``;
    ``g_ij = a_i a_j* - delta_ij (1 - nu_i) I`` are orthogonal for
    ``(c, d) -> state(c d*)`` with the same squared norms.  Both families
    are orthogonal to the identity (their state values vanish).
    """
    d, q, nu = sys.d, sys.dim, sys.nu
    r = sys.density_diagonal
    root = np.sqrt(r)
    eye = np.eye(q)
    gens = sys.generators
    adj = [g.conj().T for g in gens]
    sq_norms = np.outer(1.0 - nu, nu).ravel()
    off = ~np.eye(d * d, dtype=bool)

    report = CheckReport(name="orthogonality", tolerance=tol)
    # f under (c, d) -> state(d* c) weights columns by sqrt(rho); g under
    # (c, d) -> state(c d*) weights rows.  One family is held at a time.
    for side, left, right, center, weight in (
        ("creation", adj, gens, nu, root[None, :]),
        ("annihilation", gens, adj, 1.0 - nu, root[:, None]),
    ):
        fam = np.empty((d * d, q, q), dtype=complex)
        for i in range(d):
            for j in range(d):
                np.matmul(left[i], right[j], out=fam[i * d + j])
            fam[i * d + i] -= center[i] * eye
        # state values: orthogonality to the identity
        report.record(f"centered-mean-{side}", np.abs(np.einsum("a,kaa->k", r, fam)).max())
        fam *= weight
        flat = fam.reshape(d * d, q * q)
        gram = flat @ flat.conj().T
        report.record(f"pairwise-orthogonality-{side}", np.abs(gram[off]).max(initial=0.0))
        report.record(f"squared-norms-{side}", np.abs(np.diag(gram) - sq_norms).max())
    raise_if_failed(report)
    return report


def fourth_moment_check(sys: CarSystem, y, tol: float = 1e-11) -> CheckReport:
    """Second and fourth moments of ``Y = sum y_i (x) a_i`` in closed form.

    Compares ``(Id (x) state)`` of ``Y*Y``, ``YY*`` and their squares,
    evaluated in the big algebra, against the shared closed form
    :func:`nck.norms.moment_forms` with weights ``nu``, ``1 - nu`` and
    ``pair_w[i, j] = (1 - nu_i) nu_j``.  Then checks the quadratic
    domination of the fourth moments by the second moments times the sum
    of the two weighted Gram norms.
    """
    ya = as_matrix_tuple(y)
    if ya.shape[0] != sys.d:
        raise DimensionMismatch(f"tuple d={ya.shape[0]} vs system d={sys.d}")
    n = ya.shape[1]
    big = embed_tuple(sys, ya)
    bstar = big.conj().T
    cc = bstar @ big
    rr = big @ bstar
    measured = tuple(_id_otimes_state(sys, m, n) for m in (cc, rr, cc @ cc, rr @ rr))

    nu = sys.nu
    closed = moment_forms(ya, nu, 1.0 - nu, np.outer(1.0 - nu, nu), np.zeros((sys.d, sys.d)))
    factor = gram_norm(closed[0]) + gram_norm(closed[1])
    return moment_report("fourth-moments", tol, measured, closed, factor)
