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

Every ``a_i`` lowers the occupation number (the count of set bits of a
basis state) by exactly one.  So an element ``Y = sum_i y_i (x) a_i`` is a
direct sum of blocks ``B_k`` from the ``k``- to the ``(k-1)``-particle
sector, ``k = 1..d``, of shape ``n C(d,k-1) x n C(d,k)``.
:func:`embed_tuple` returns it in that form, a :class:`CarElement`; its
operator norm is the largest block norm, and ``Y*Y`` and ``YY*`` are block
diagonal over the sectors.  Blocks ``k`` and ``d+1-k`` have transposed
shapes, so they are kept as one pair ``(B_k^T, B_{d+1-k})`` with the
smaller side as columns, ready for one batched clip.  The dense
``n 2**d``-square matrix is formed only on request
(:meth:`CarElement.toarray`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import caps
from .exceptions import (
    DimensionMismatch,
    DTooLarge,
    IdentityViolation,
    NotOrthonormal,
    SizeMismatch,
)
from .norms import as_matrix_tuple, as_weights, gram_norm, moment_forms
from .reports import CheckReport, moment_report, raise_if_failed

__all__ = [
    "SubspaceModel",
    "CarSystem",
    "CarElement",
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


@lru_cache(maxsize=8)
def _jw_support(d: int):
    """Where the Jordan-Wigner generators can be nonzero, by bit arithmetic.

    Mode ``i`` is bit ``d - 1 - i`` of a basis state (the first tensor
    factor is the most significant bit); a set bit is an occupied mode.
    ``a_i`` takes each state with mode ``i`` occupied to the same state with
    it empty, with sign ``(-1)^(occupied modes j < i)``.  Returns
    ``(rows, cols)``, each ``(d, 2**(d-1))``: ``a_i[rows[i, e], cols[i, e]]``
    are the entries of ``a_i`` that may be nonzero.
    """
    states = np.arange(1 << d)
    cols = np.stack([states[(states >> (d - 1 - i)) & 1 == 1] for i in range(d)])
    rows = cols ^ (1 << (d - 1 - np.arange(d)))[:, None]
    for a in (rows, cols):
        a.setflags(write=False)
    return rows, cols


@dataclass(frozen=True)
class _BlockLayout:
    """Where each entry of a :class:`CarElement` lives, for one ``(d, n)``.

    The flat buffer holds the sector pairs one after the other; pair ``j``
    (``j = 1..ceil(d/2)``) has shape ``(m, n C(d,j), n C(d,j-1))`` and holds
    ``B_j^T`` and ``B_{d+1-j}``, or ``B_j`` alone (``m = 1``) when
    ``j = d+1-j``.  Block rows are indexed ``(p, u)`` and columns ``(q, v)``,
    ``p`` and ``q`` major, like the dense ``n 2**d`` square.
    """

    pairs: tuple      # (start, stop, (m, rows, cols)) of each pair
    blocks: tuple     # (start, stop, stored shape, transposed) of B_1 .. B_d
    size: int
    sectors: tuple    # sectors[k]: the k-particle basis states, ascending
    support: np.ndarray  # (d, 2**(d-1), n, n): where y_i[p, q] a_i[u, v] goes
    dense: np.ndarray    # (size,): flat index in the dense square of each entry


@lru_cache(maxsize=16)
def _block_layout(d: int, n: int) -> _BlockLayout:
    dim = 1 << d
    states = np.arange(dim)
    count = np.bitwise_count(states)
    sectors = tuple(states[count == k] for k in range(d + 1))
    rank = np.empty(dim, dtype=np.intp)
    for s in sectors:
        rank[s] = np.arange(s.size)

    pairs, blocks, offset = [], [None] * (d + 1), 0
    for j in range(1, (d + 1) // 2 + 1):
        shape = (n * sectors[j].size, n * sectors[j - 1].size)
        size = shape[0] * shape[1]
        partner = d + 1 - j
        if j < partner:
            blocks[j] = (offset, offset + size, shape, True)
            blocks[partner] = (offset + size, offset + 2 * size, shape, False)
            pairs.append((offset, offset + 2 * size, (2,) + shape))
        else:
            blocks[j] = (offset, offset + size, shape, False)
            pairs.append((offset, offset + size, (1,) + shape))
        offset = pairs[-1][1]

    # buffer position of every entry of B_k, in B_k's own orientation
    positions = [None]
    for start, stop, shape, transposed in blocks[1:]:
        pos = np.arange(start, stop).reshape(shape)
        positions.append(pos.T if transposed else pos)

    p = np.arange(n)
    dense = np.empty(offset, dtype=np.intp)
    for k in range(1, d + 1):
        row = (p[:, None] * dim + sectors[k - 1][None, :]).ravel()
        col = (p[:, None] * dim + sectors[k][None, :]).ravel()
        dense[positions[k]] = row[:, None] * (n * dim) + col[None, :]

    rows, cols = _jw_support(d)
    sector_of = count[cols]
    support = np.empty(rows.shape + (n, n), dtype=np.intp)
    for k in range(1, d + 1):
        at = sector_of == k
        r = p[None, :] * sectors[k - 1].size + rank[rows[at]][:, None]
        c = p[None, :] * sectors[k].size + rank[cols[at]][:, None]
        support[at] = positions[k][r[:, :, None], c[:, None, :]]

    for a in (dense, support) + sectors:
        a.setflags(write=False)
    return _BlockLayout(tuple(pairs), tuple(blocks[1:]), offset, sectors, support, dense)


@dataclass(frozen=True)
class CarElement:
    """An element of ``M_n (x) M_{2**d}`` that lowers the occupation number by one.

    Kept as its particle-number blocks ``B_k`` (``k`` particles to
    ``k - 1``), paired and flattened into one buffer ``blocks`` as
    ``_BlockLayout`` describes.  :meth:`toarray` gives the dense matrix.
    """

    d: int
    n: int
    blocks: np.ndarray

    def __post_init__(self):
        size = _block_layout(self.d, self.n).size
        if self.blocks.shape != (size,):
            raise SizeMismatch(
                f"a d={self.d}, n={self.n} element has {size} block entries, "
                f"got shape {self.blocks.shape}"
            )

    @classmethod
    def zeros(cls, d: int, n: int) -> "CarElement":
        return cls(d, n, np.zeros(_block_layout(d, n).size, dtype=complex))

    def pairs(self) -> list:
        """Views ``(m, rows, cols)`` of the sector pairs, ``rows >= cols``."""
        return [
            self.blocks[start:stop].reshape(shape)
            for start, stop, shape in _block_layout(self.d, self.n).pairs
        ]

    def map_pairs(self, fn) -> "CarElement":
        """The element whose pairs are ``fn(pair)``, e.g. a batched clip."""
        return CarElement(self.d, self.n, np.concatenate([np.ravel(fn(p)) for p in self.pairs()]))

    def sector_blocks(self) -> list:
        """Views of ``B_1 .. B_d``; ``B_k`` has shape ``n C(d,k-1) x n C(d,k)``."""
        out = []
        for start, stop, shape, transposed in _block_layout(self.d, self.n).blocks:
            b = self.blocks[start:stop].reshape(shape)
            out.append(b.T if transposed else b)
        return out

    def op_norm(self) -> float:
        """Operator norm: the element is a direct sum of its blocks."""
        return max(float(np.linalg.norm(p, 2, axis=(1, 2)).max()) for p in self.pairs())

    def toarray(self) -> np.ndarray:
        """The dense ``n 2**d`` square matrix."""
        side = self.n << self.d
        out = np.zeros(side * side, dtype=complex)
        out[_block_layout(self.d, self.n).dense] = self.blocks
        return out.reshape(side, side)


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
    def support_values(self) -> np.ndarray:
        """Each generator's entries on its Jordan-Wigner support, ``(d, 2**(d-1))``.

        The particle-number blocks hold exactly these entries, so a
        generator with weight anywhere else (such as ``a_1 + 1e-4 I``) raises
        :class:`IdentityViolation` naming it and its off-support mass.
        """
        d = self.d
        if self.dim != 1 << d:
            raise IdentityViolation(
                f"{d} generators of side {self.dim} do not act on the 2**{d}-dimensional "
                "Jordan-Wigner space"
            )
        rows, cols = _jw_support(d)
        vals = np.empty(rows.shape, dtype=complex)
        for i, g in enumerate(self.generators):
            g = np.asarray(g)
            vals[i] = g[rows[i], cols[i]]
            if np.count_nonzero(g) > np.count_nonzero(vals[i]):
                rest = np.array(g, dtype=complex)
                rest[rows[i], cols[i]] = 0.0
                mass = float(np.abs(rest).sum())
                report = CheckReport(name="jordan-wigner-support")
                report.record(f"off-support-generator-{i}", mass)
                raise IdentityViolation(
                    f"generator {i} has weight {mass:.3e} off its Jordan-Wigner support; "
                    "it does not lower the occupation number by one",
                    max_deviation=mass,
                    report=report,
                )
        vals.setflags(write=False)
        return vals

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


def embed_tuple(sys: CarSystem, y) -> CarElement:
    """The element ``Y = sum_i y_i (x) a_i`` in ``M_n (x) M_{2**d}``, in sector blocks.

    One scatter of ``y_i[p, q] a_i[u, v]`` over the generators' supports;
    ``toarray()`` of the result equals the dense sum bit for bit (the
    supports are disjoint).
    """
    ya = as_matrix_tuple(y)
    if ya.shape[0] != sys.d:
        raise DimensionMismatch(f"tuple d={ya.shape[0]} vs system d={sys.d}")
    vals = sys.support_values
    layout = _block_layout(sys.d, ya.shape[1])
    blocks = np.zeros(layout.size, dtype=complex)
    blocks[layout.support] = vals[:, :, None, None] * ya[:, None, :, :]
    return CarElement(sys.d, ya.shape[1], blocks)


def extract_coefficients(sys: CarSystem, x) -> np.ndarray:
    """Apply the coefficient functionals blockwise: ``x_i = (Id (x) phi_i)(X)``.

    ``x`` is a :class:`CarElement` or a dense ``n 2**d`` square, which is
    first sliced into sector blocks.  Only the entries on the generators'
    supports count: ``x_i[p, q] = sum conj(a_i[u, v]) (r_u + r_v) X[(p, u), (q, v)]``
    with ``r = diag(rho)``, the functional kernels restricted to where they
    are nonzero.  Inverts :func:`embed_tuple` on its range; even monomials
    map to zero.
    """
    if isinstance(x, CarElement):
        if x.d != sys.d:
            raise SizeMismatch(f"element d={x.d} vs system d={sys.d}")
        elem = x
    else:
        a = np.asarray(x, dtype=complex)
        q = sys.dim
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % q != 0:
            raise SizeMismatch(
                f"expected a square matrix with side divisible by {q}, got {a.shape}"
            )
        n = a.shape[0] // q
        elem = CarElement(sys.d, n, a.ravel()[_block_layout(sys.d, n).dense])
    rows, cols = _jw_support(sys.d)
    r = sys.density_diagonal
    weights = sys.support_values.conj() * (r[rows] + r[cols])
    gathered = elem.blocks[_block_layout(sys.d, elem.n).support]
    return np.einsum("ie,iepq->ipq", weights, gathered)


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
    of the two weighted Gram norms.  ``Y*Y`` and ``YY*`` are block diagonal
    over the particle-number sectors, ``B_k* B_k`` on sector ``k`` and
    ``B_k B_k*`` on sector ``k - 1``, so each is formed and squared one
    sector at a time.
    """
    ya = as_matrix_tuple(y)
    if ya.shape[0] != sys.d:
        raise DimensionMismatch(f"tuple d={ya.shape[0]} vs system d={sys.d}")
    n = ya.shape[1]
    big = embed_tuple(sys, ya)
    r = sys.density_diagonal
    sectors = _block_layout(sys.d, n).sectors

    def state(m, k):
        # (Id (x) state) of an operator on sector k
        s = sectors[k].size
        return np.einsum("a,paqa->pq", r[sectors[k]], m.reshape(n, s, n, s))

    measured = np.zeros((4, n, n), dtype=complex)
    for k, b in enumerate(big.sector_blocks(), start=1):
        cc = b.conj().T @ b
        rr = b @ b.conj().T
        measured += (state(cc, k), state(rr, k - 1), state(cc @ cc, k), state(rr @ rr, k - 1))

    nu = sys.nu
    closed = moment_forms(ya, nu, 1.0 - nu, np.outer(1.0 - nu, nu), np.zeros((sys.d, sys.d)))
    factor = gram_norm(closed[0]) + gram_norm(closed[1])
    return moment_report("fourth-moments", tol, tuple(measured), closed, factor)
