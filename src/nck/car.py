"""Fermionic (CAR) machinery over a weighted d-dimensional space.

Generators are realized concretely inside ``(2 x 2)^(tensor d)``:

    a_1 = e (x) 1 (x) ... (x) 1,
    a_i = u (x) ... (x) u (x) e (x) 1 (x) ... (x) 1,

with ``e = [[0, 1], [0, 0]]`` and ``u = diag(1, -1)``.  Each ``a_i`` is a
signed partial permutation with ``2**(d-1)`` entries of +-1, and that is
how it is kept: a :class:`CarSystem` holds its generators as one set of
read-only entry arrays ``(i, u, v, value)``, one row per entry
``a_i[u, v]``, built by bit arithmetic.  A hand-built system's generators,
dense or ``scipy.sparse``, are copied into the same form.  Only numpy is
needed to build a system, embed a tuple, read coefficients off an
element, evaluate the state and the coefficient functionals, run the
fermionic lift and every identity check.  scipy is loaded only to hand a
caller a CSR matrix: :attr:`CarSystem.generators`,
:attr:`CarSystem.functional_kernels` and :func:`generator_monomial`.
The generators satisfy the anticommutation relations
``a_i a_j* + a_j* a_i = delta_ij I`` and ``a_i a_j + a_j a_i = 0`` exactly
in floating point.  The identity checks take every pairwise product
``a_i a_j*``, ``a_i* a_j`` and ``a_i a_j`` from the Gram of the stacked
generators and their adjoints, formed by joining the entries that share a
column, so they cost ``O(d^2 2^d)`` rather than ``O(d^2 8^d)``, and
``d = 12`` fits in memory.

The reference state for weights ``nu`` is ``b -> Tr(rho b)`` with the
product density ``rho = (x)_i diag(1 - nu_i, nu_i)``, kept as its diagonal;
its n-point values are determinants of the diagonal two-point function.
The coefficient functionals ``phi_i(b) = state(a_i* b + b a_i*)`` satisfy
``phi_i(a_j) = delta_ij`` and assemble into the map that reads a
coefficient tuple off an algebra element; that map is the exact analogue of
conditional expectation on the probability spaces.  Their kernels
``K_i = rho a_i* + a_i* rho`` have the sparsity of ``a_i*``: the density is
diagonal, so ``K_i[v, u] = conj(a_i[u, v]) (r_u + r_v)`` with
``r = diag(rho)``.  :attr:`CarSystem.kernel_values` computes these values
once, one per generator entry, and the functionals, the read-out, the
state-weight check and the ``car-c1`` witness all read them.  The state
has the complex-Gaussian moment structure reweighted by ``nu_i`` and ``1 - nu_i``,
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

import sys as _sys  # ``sys`` names a CarSystem throughout this module
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

# ``scipy.sparse`` is imported only inside the functions that return a CSR
# matrix, never at module level: it is most of a fresh process's import
# time, and no computation here needs it.
from . import caps
from .exceptions import (
    DimensionMismatch,
    DTooLarge,
    IdentityViolation,
    InvalidParameter,
    NotOrthonormal,
    SizeMismatch,
)
from .norms import as_matrix_tuple, as_weights, gram_norm, moment_forms
from .reports import CheckReport, checked, moment_report

__all__ = [
    "SubspaceModel",
    "CarSystem",
    "CarElement",
    "subspace_to_weights",
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

#: largest entry of ``Gram(row) + Gram(col) - I`` that
#: :func:`subspace_to_weights` accepts as orthonormal
ORTHONORMAL_TOL = 1e-10
#: tolerance of the anticommutation, second-moment, state-weight and
#: orthogonality checks
IDENTITY_TOL = 1e-12
#: tolerance of :func:`fourth_moment_check`
FOURTH_MOMENT_TOL = 1e-11


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


def subspace_to_weights(model: SubspaceModel):
    """Diagonalize the column-part Gram operator of an orthonormal basis.

    Returns ``(nu, rotation)`` where ``nu`` (ascending, in ``[0, 1]``) is the
    spectrum of the operator measuring the column content of the subspace
    and ``rotation`` is the unitary change of basis that diagonalizes it.
    """
    g_row = _gram(model.basis_row)
    g_col = _gram(model.basis_col)
    eye = np.eye(model.d)
    if np.abs(g_row + g_col - eye).max() > ORTHONORMAL_TOL:
        raise NotOrthonormal(
            "basis is not orthonormal: row and column Grams do not sum to I "
            f"(deviation {np.abs(g_row + g_col - eye).max():.3e})"
        )
    nu, rotation = np.linalg.eigh(g_col)
    nu = np.clip(nu, 0.0, 1.0)
    return nu, rotation


def _read_only(*arrays) -> None:
    """Lock cached arrays, so that no caller can change a cached value."""
    for a in arrays:
        a.setflags(write=False)


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
    _read_only(rows, cols)
    return rows, cols


@lru_cache(maxsize=8)
def _jw_entries(d: int) -> tuple:
    """``(i, u, v, value)`` of every entry of the Jordan-Wigner generators (cached, read-only).

    The entries of ``a_i`` are :func:`_jw_support`'s, in its order, which
    sorts them by row and column; each value is the sign
    ``(-1)^(occupied modes j < i)``.
    """
    rows, cols = _jw_support(d)
    # the modes j < i are the bits above bit d - 1 - i
    parity = np.bitwise_count(cols >> (d - np.arange(d))[:, None]) & 1
    entries = (np.repeat(np.arange(d), cols.shape[1]), rows.ravel(), cols.ravel(),
               (1.0 - 2.0 * parity.ravel()).astype(complex))
    _read_only(*entries)
    return entries


def _csr(d: int, side: int, entries) -> tuple:
    """The ``d`` complex CSR matrices with entries ``(i, u, v, value)`` (read-only arrays)."""
    import scipy.sparse as sp

    i, u, v, val = entries
    out = []
    for k in range(d):
        m = sp.csr_array((val[i == k], (u[i == k], v[i == k])), shape=(side, side))
        _read_only(m.data, m.indices, m.indptr)
        out.append(m)
    return tuple(out)


def _check_modes(d: int) -> int:
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    cap = caps.car_dim_cap()
    if d > cap:
        raise DTooLarge(f"fermionic dimension {d} outside [1, {cap}]")
    return d


@dataclass(frozen=True)
class _BlockLayout:
    """Where each entry of a :class:`CarElement` lives, for one ``(d, n)``.

    The flat buffer holds the sector pairs one after the other; pair ``j``
    (``j = 1..ceil(d/2)``) has shape ``(m, n C(d,j), n C(d,j-1))`` and holds
    ``B_j^T`` and ``B_{d+1-j}``, or ``B_j`` alone (``m = 1``) when
    ``j = d+1-j``.  Block rows are indexed ``(p, u)`` and columns ``(q, v)``,
    ``p`` and ``q`` major, like the dense ``n 2**d`` square.
    """

    n: int
    pairs: tuple      # (start, stop, (m, rows, cols)) of each pair
    blocks: tuple     # (start, stop, stored shape, transposed) of B_1 .. B_d
    size: int
    sectors: tuple    # sectors[k]: the k-particle basis states, ascending
    support: np.ndarray  # (d, 2**(d-1), n, n): where y_i[p, q] a_i[u, v] goes

    def position(self, k: int, row, col):
        """Buffer position of entry ``(row, col)`` of ``B_k``, in ``B_k``'s own orientation."""
        start, _, shape, transposed = self.blocks[k - 1]
        if transposed:
            row, col = col, row
        return start + row * shape[1] + col

    @cached_property
    def dense(self) -> np.ndarray:
        """``(size,)``: the flat index in the dense square of each entry (built on first use)."""
        sectors = self.sectors
        dim = 1 << (len(sectors) - 1)
        p = np.arange(self.n)[:, None] * dim
        out = np.empty(self.size, dtype=np.intp)
        for k in range(1, len(sectors)):
            row = (p + sectors[k - 1]).ravel()
            col = (p + sectors[k]).ravel()
            at = self.position(k, np.arange(row.size)[:, None], np.arange(col.size))
            out[at] = row[:, None] * (self.n * dim) + col
        out.setflags(write=False)
        return out


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

    rows, cols = _jw_support(d)
    sector_of = count[cols]
    support = np.empty(rows.shape + (n, n), dtype=np.intp)
    layout = _BlockLayout(n, tuple(pairs), tuple(blocks[1:]), offset, sectors, support)
    p = np.arange(n)
    for k in range(1, d + 1):
        at = sector_of == k
        r = p[None, :] * sectors[k - 1].size + rank[rows[at]][:, None]
        c = p[None, :] * sectors[k].size + rank[cols[at]][:, None]
        support[at] = layout.position(k, r[:, :, None], c[:, None, :])

    for a in (support,) + sectors:
        a.setflags(write=False)
    return layout


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


def _is_sparse(a) -> bool:
    # no sparse matrix exists before scipy.sparse is loaded, so this never loads it
    sp = _sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(a)


def _summed(key: np.ndarray, val: np.ndarray) -> tuple:
    """The distinct keys, ascending, and the sum of ``val`` over each.

    The sort is stable, so equal keys add up in the order given, and keys
    that arrive sorted cost one pass.  ``key`` must be nonnegative.
    """
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return key[first], np.add.reduceat(val, first)


def _gram_entries(row: np.ndarray, col: np.ndarray, val: np.ndarray) -> tuple:
    """Entries ``(r1, r2, value)`` of ``M M*``, for ``M`` with entries ``(row, col, val)``.

    ``(M M*)[r1, r2] = sum_c M[r1, c] conj(M[r2, c])``, so every pair of
    entries ``(e1, e2)`` in one column gives ``(row[e1], row[e2],
    val[e1] conj(val[e2]))``: the entries are sorted by column, and each
    ``e1`` is repeated once per entry of its column.  A key ``(r1, r2)``
    repeats once per column that rows ``r1`` and ``r2`` share; the caller
    sums the repeats.  The pairs come in the order of ``e1``, each ``e1``'s
    partners in the order given, so entries given by row yield keys sorted
    by ``r1`` and, where each row has one entry, by ``(r1, r2)``.
    """
    by_col = np.argsort(col, kind="stable")
    first = np.flatnonzero(np.diff(col[by_col], prepend=-1))
    size = np.diff(first, append=col.size)
    # the entries in entry e's column are by_col[start[e]:start[e] + count[e]]
    start, count = np.empty_like(by_col), np.empty_like(by_col)
    start[by_col], count[by_col] = np.repeat(first, size), np.repeat(size, size)
    at = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    return (np.repeat(row, count), row[by_col][at],
            np.repeat(val, count) * val.conj()[by_col][at])


def _canonical_entries(generators) -> tuple:
    """``(d, side, entries)`` of hand-built generators, dense or ``scipy.sparse``.

    ``entries`` is ``(i, u, v, value)`` for every nonzero ``a_i[u, v]``,
    sorted by generator, row and column, with repeated entries summed.  The
    arrays are new and read-only, so the caller's matrices stay theirs.
    """
    mats = [g.tocoo() if _is_sparse(g) else np.asarray(g, dtype=complex) for g in generators]
    shapes = [m.shape for m in mats]
    side = shapes[0][0] if shapes and shapes[0] else 0
    if side == 0 or any(shape != (side, side) for shape in shapes):
        raise DimensionMismatch(f"generators must be square of one side, got shapes {shapes}")
    keys, vals = [], []
    for k, m in enumerate(mats):
        if isinstance(m, np.ndarray):
            u, v = np.nonzero(m)
            val = m[u, v]
        else:
            u, v, val = m.row, m.col, m.data
        keys.append((k * side + u.astype(np.intp)) * side + v)
        vals.append(val.astype(complex))
    key, val = _summed(np.concatenate(keys), np.concatenate(vals))
    keep = val != 0
    i, uv = np.divmod(key[keep], side * side)
    entries = (i, *np.divmod(uv, side), val[keep])
    _read_only(*entries)
    return len(mats), side, entries


@dataclass(frozen=True, init=False, eq=False)
class CarSystem:
    """Generators plus the weights of the product state.

    The generators must be square matrices of one side, one per weight,
    dense or ``scipy.sparse``.  They are kept as read-only entry arrays
    ``_entries = (i, u, v, value)``, one row per nonzero entry ``a_i[u, v]``,
    sorted by generator, row and column; :attr:`generators` gives them as
    complex CSR matrices.  ``nu`` must lie in ``[0, 1]``.  Weights and
    entries are read-only copies: editing the caller's arrays afterwards
    changes nothing here.
    """

    nu: np.ndarray
    dim: int
    _entries: tuple = field(repr=False)

    def __init__(self, nu, generators):
        d, side, entries = _canonical_entries(generators)
        self._fill(as_weights(nu), d, side, entries)

    def _fill(self, w: np.ndarray, d: int, side: int, entries) -> None:
        """Set the fields from weights ``w`` that :func:`nck.norms.as_weights` validated."""
        if w.shape != (d,):
            raise DimensionMismatch(f"{w.size} weights for {d} generators")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "nu", w)
        object.__setattr__(self, "dim", side)
        object.__setattr__(self, "_entries", entries)

    @property
    def d(self) -> int:
        return self.nu.shape[0]

    @cached_property
    def generators(self) -> tuple:
        """The generators as complex CSR matrices (built on first read; read-only arrays)."""
        return _csr(self.d, self.dim, self._entries)

    @cached_property
    def is_jordan_wigner(self) -> bool:
        """Whether the generators are exactly the Jordan-Wigner ones (compared by value, cached).

        True for every :func:`car_system` system and for a hand-built system
        whose entries equal :func:`_jw_entries`; a sign-flipped or perturbed
        generator makes it False.
        """
        return self.dim == 1 << self.d and all(
            np.array_equal(a, b) for a, b in zip(self._entries, _jw_entries(self.d))
        )

    def _check_side(self) -> None:
        """Raise :class:`IdentityViolation` unless the side is ``2**d``, where the state lives."""
        if self.dim != 1 << self.d:
            raise IdentityViolation(
                f"{self.d} generators of side {self.dim} do not act on the 2**{self.d}-dimensional "
                "Jordan-Wigner space",
                CheckReport("jordan-wigner-support", 0.0, {"side": abs(self.dim - (1 << self.d))}),
            )

    @cached_property
    def density_diagonal(self) -> np.ndarray:
        """The diagonal ``(x)_i (1 - nu_i, nu_i)`` of the density (real, read-only).

        The density lives on the ``2**d``-dimensional Jordan-Wigner space, so
        generators of another side raise :class:`IdentityViolation`, and with
        it everything that reads the state.
        """
        self._check_side()
        bits = (np.arange(1 << self.d)[:, None] >> (self.d - 1 - np.arange(self.d))) & 1
        r = np.where(bits == 1, self.nu, 1.0 - self.nu).prod(axis=1)
        r.setflags(write=False)
        return r

    def _on_support(self, values: np.ndarray) -> np.ndarray:
        """``values``, one per entry of ``_entries``, laid out as ``(d, 2**(d-1))`` (read-only).

        Row ``i`` is generator ``i``'s Jordan-Wigner support in
        :func:`_jw_support`'s order; a support point without an entry gets 0.
        The particle-number blocks hold exactly the support, so a generator
        with weight anywhere else (such as ``a_1 + 1e-4 I``) raises
        :class:`IdentityViolation` naming it and its off-support mass.
        """
        self._check_side()
        d = self.d
        i, u, v, val = self._entries
        bit = 1 << (d - 1 - i)
        on = (v & bit != 0) & (u == v ^ bit)
        off = ~on & (val != 0)
        if off.any():
            k = int(i[off].min())
            mass = float(np.abs(val[off & (i == k)]).sum())
            raise IdentityViolation(
                f"generator {k} has weight {mass:.3e} off its Jordan-Wigner support; "
                "it does not lower the occupation number by one",
                CheckReport("jordan-wigner-support", 0.0, {f"off-support-generator-{k}": mass}),
            )
        by_col = np.zeros((d, self.dim), dtype=complex)
        by_col[i[on], v[on]] = values[on]
        out = np.take_along_axis(by_col, _jw_support(d)[1], axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def support_values(self) -> np.ndarray:
        """Each generator's entries on its Jordan-Wigner support, ``(d, 2**(d-1))``."""
        return self._on_support(self._entries[3])

    @cached_property
    def kernel_values(self) -> np.ndarray:
        """``conj(a_i[u, v]) (r_u + r_v)`` per entry of ``_entries`` (read-only).

        With ``r = diag(rho)``, this is the entry of the functional kernel
        ``K_i = rho a_i* + a_i* rho`` at ``(v, u)``, so
        ``phi_i(b) = sum conj(a_i[u, v]) (r_u + r_v) b[u, v]``.  Every
        reader of the kernels takes the values from here.
        """
        r = self.density_diagonal
        _, u, v, val = self._entries
        k = val.conj() * (r[u] + r[v])
        k.setflags(write=False)
        return k

    @cached_property
    def support_kernel(self) -> np.ndarray:
        """:attr:`kernel_values` laid out like :attr:`support_values`, ``(d, 2**(d-1))``."""
        return self._on_support(self.kernel_values)

    @cached_property
    def functional_kernels(self) -> tuple:
        """CSR matrices ``K_i = rho a_i* + a_i* rho`` so that ``phi_i(b) = Tr(K_i b)``.

        ``K_i`` has the sparsity of ``a_i*``, with :attr:`kernel_values` as
        its entries.  Their arrays are read-only.
        """
        i, u, v, _ = self._entries
        return _csr(self.d, self.dim, (i, v, u, self.kernel_values))

    @cached_property
    def _pair_products(self) -> tuple:
        """Every ``a_i a_j*``, ``a_i* a_j`` and ``a_i a_j``, from one sparse Gram.

        ``L = vstack(a_1, .., a_d, a_1*, .., a_d*)`` times ``L*`` holds
        ``a_i a_j*`` at block ``(i, j)`` (the ``vstack(a_i)`` part times its
        adjoint), ``a_i* a_j`` at ``(d+i, d+j)`` (the Gram of
        ``hstack(a_i)``) and ``a_i a_j`` at ``(i, d+j)``; the fourth quarter
        is dropped.  Each family is returned as read-only block entries
        ``(i, j, u, v, value)``, without the entries that sum to zero.
        """
        d, q = self.d, self.dim
        dq = d * q
        i, u, v, val = self._entries
        r1, r2, prod = _gram_entries(np.concatenate([i * q + u, dq + i * q + v]),
                                     np.concatenate([v, u]),
                                     np.concatenate([val, val.conj()]))
        kept = (r1 < dq) | (r2 >= dq)
        key, prod = _summed(r1[kept] * (2 * dq) + r2[kept], prod[kept])
        nonzero = prod != 0
        r1, r2 = np.divmod(key[nonzero], 2 * dq)
        prod = prod[nonzero]
        # r1 ascends: the rows of the a_i* part, all in block (d+i, d+j), come last
        bottom = np.searchsorted(r1, dq)
        left = np.flatnonzero(r2[:bottom] < dq)
        right = np.flatnonzero(r2[:bottom] >= dq)
        families = []
        for at, shift in ((left, (0, 0)), (slice(bottom, None), (dq, dq)), (right, (0, dq))):
            i, u = np.divmod(r1[at] - shift[0], q)
            j, v = np.divmod(r2[at] - shift[1], q)
            families.append((i, j, u, v, prod[at]))
        _read_only(*(a for family in families for a in family))
        return tuple(families)


def car_system(nu) -> CarSystem:
    """The system of the Jordan-Wigner generators for weights ``nu`` in ``[0, 1]^d``."""
    w = as_weights(nu)
    d = _check_modes(w.shape[0])
    sys = CarSystem.__new__(CarSystem)
    sys._fill(w, d, 1 << d, _jw_entries(d))
    return sys


def _check_size(sys: CarSystem, b) -> np.ndarray:
    a = np.asarray(b.toarray() if _is_sparse(b) else b, dtype=complex)
    if a.shape != (sys.dim, sys.dim):
        raise SizeMismatch(f"expected {sys.dim} x {sys.dim}, got {a.shape}")
    return a


def state_eval(sys: CarSystem, b) -> complex:
    """The reference state ``Tr(rho b)``."""
    a = _check_size(sys, b)
    return complex(sys.density_diagonal @ np.diagonal(a))


def coefficient_functional(sys: CarSystem, i: int, b) -> complex:
    """``phi_i(b) = state(a_i* b + b a_i*)``; satisfies ``phi_i(a_j) = delta_ij``.

    The kernel ``K_i``, read off :attr:`CarSystem.kernel_values`:
    ``phi_i(b) = sum conj(a_i[u, v]) (r_u + r_v) b[u, v]``.
    """
    a = _check_size(sys, b)
    _check_indices(sys, [i])
    kernel = sys.kernel_values
    g, u, v, _ = sys._entries
    at = g == i
    return complex(np.sum(kernel[at] * a[u[at], v[at]]))


def _check_indices(sys: CarSystem, indices) -> None:
    for i in indices:
        if not 0 <= i < sys.d:
            raise DimensionMismatch(f"index {i} outside range(0, {sys.d})")


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
    _check_indices(sys, create + annihilate)
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
    """Dense matrix of ``a*_{create[0]} ... a_{annihilate[-1]}`` (for cross-checks)."""
    import scipy.sparse as sp

    _check_indices(sys, list(create) + list(annihilate))
    out = sp.identity(sys.dim, dtype=complex, format="csr")
    for i in create:
        out = out @ sys.generators[i].conj().T
    for i in annihilate:
        out = out @ sys.generators[i]
    return out.toarray()


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
    are nonzero (:attr:`CarSystem.support_kernel`).  Inverts
    :func:`embed_tuple` on its range; even monomials map to zero.
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
    gathered = elem.blocks[_block_layout(sys.d, elem.n).support]
    return np.einsum("ie,iepq->ipq", sys.support_kernel, gathered)


# --- identity checks --------------------------------------------------------


# Every check below reads the pairwise products as block entries
# ``(i, j, u, v, value)`` (see ``CarSystem._pair_products``).  Swapping ``i``
# and ``j`` is a block transpose: it pairs ``(i, j)`` with ``(j, i)``.


def _joined(*blocks) -> tuple:
    return tuple(np.concatenate(t) for t in zip(*blocks))


def _minus_identity(blocks, center, q: int) -> tuple:
    """Entries of ``B - diag(center) (x) I``: ``-center_k`` joins ``(s, s)`` of block ``(k, k)``."""
    k, s = np.divmod(np.arange(center.size * q), q)
    return _joined(blocks, (k, k, s, s, -center[k]))


def _max_abs(blocks, d: int, q: int) -> float:
    """Largest ``|entry|`` of the block matrix; repeated entries add up.

    Keyed ``(u, i, j, v)``: a family sorted by ``(i, u, j, v)``, or by
    ``(j, u, i, v)`` once transposed, is ``d`` ascending runs of the key,
    which the stable sort merges.
    """
    i, j, u, v, val = blocks
    _, total = _summed(((u * d + i) * d + j) * q + v, val)
    return float(np.abs(total).max(initial=0.0))


def _block_diagonals(blocks, d: int, q: int) -> np.ndarray:
    """``D[i, j, u] = B_ij[u, u]``, the diagonals of the blocks, ``(d, d, q)``."""
    i, j, u, v, val = blocks
    on = u == v
    diagonals = np.zeros((d, d, q), dtype=complex)
    diagonals[i[on], j[on], u[on]] = val[on]
    return diagonals


def _block_states(blocks, r, d: int) -> np.ndarray:
    """``S[i, j] = Tr(rho B_ij) = sum_u r_u B_ij[u, u]``, with ``r = diag(rho)``."""
    return (_block_diagonals(blocks, d, r.size) * r).sum(axis=2)


def anticommutation_check(sys: CarSystem) -> CheckReport:
    """``a_i a_j* + a_j* a_i = delta_ij I`` and ``a_i a_j + a_j a_i = 0``, all pairs at once."""
    d, q = sys.d, sys.dim
    aa_adj, (ci, cj, cu, cv, c), (pi, pj, pu, pv, p) = sys._pair_products
    # {a_i, a_j*} is the adjoint of {a_j, a_i*}, so the blocks i <= j hold
    # every entry: a_i a_j* with i <= j, plus a_j* a_i read off a_i* a_j, i >= j
    upper, lower = aa_adj[0] <= aa_adj[1], ci >= cj
    mixed = _minus_identity(_joined(tuple(a[upper] for a in aa_adj),
                                    tuple(a[lower] for a in (cj, ci, cu, cv, c))), np.ones(d), q)
    # a_i a_j + a_j a_i is symmetric in i and j: filed under block
    # (min(i, j), max(i, j)), the products sum to it, a_i a_i counting twice
    plain = (np.minimum(pi, pj), np.maximum(pi, pj), pu, pv, np.where(pi == pj, 2 * p, p))
    return checked("anticommutation", IDENTITY_TOL, {
        "anticommutator-mixed": _max_abs(mixed, d, q),
        "anticommutator-plain": _max_abs(plain, d, q),
    })


def second_moment_check(sys: CarSystem) -> CheckReport:
    """``state(a_i* a_j) = nu_i delta_ij`` and ``state(a_i a_j*) = (1-nu_i) delta_ij``.

    The density is diagonal, so each state is the ``r``-weighted trace of
    one block of the pairwise products, ``r = diag(rho)``.
    """
    r, nu = sys.density_diagonal, sys.nu
    aa_adj, adj_a, _ = sys._pair_products
    return checked("second-moments", IDENTITY_TOL, {
        "two-point-creation": np.abs(_block_states(adj_a, r, sys.d) - np.diag(nu)).max(),
        "two-point-annihilation": np.abs(_block_states(aa_adj, r, sys.d) - np.diag(1.0 - nu)).max(),
    })


def state_weight_check(sys: CarSystem) -> CheckReport:
    """One-sided products split through the coefficient functionals.

    Verifies ``state(a_i* b) = nu_i phi_i(b)`` and
    ``state(b a_i*) = (1 - nu_i) phi_i(b)`` for every ``b``, that is
    ``rho a_i* = nu_i K_i`` and ``a_i* rho = (1 - nu_i) K_i`` entrywise.
    All three are ``a_i*`` rescaled, so only the generators' stored entries
    are read: at ``(v, u)``, ``K_i`` holds :attr:`CarSystem.kernel_values`.
    """
    r, nu = sys.density_diagonal, sys.nu
    i, u, v, val = sys._entries
    adj = val.conj()
    kernel = sys.kernel_values
    return checked("state-weights", IDENTITY_TOL, {
        "weight-split-left": np.abs(r[v] * adj - nu[i] * kernel).max(initial=0.0),
        "weight-split-right": np.abs(adj * r[u] - (1.0 - nu[i]) * kernel).max(initial=0.0),
    })


def orthogonality_check(sys: CarSystem) -> CheckReport:
    """Centered quadratic monomials form orthogonal families.

    ``f_ij = a_i* a_j - delta_ij nu_i I`` are orthogonal for the form
    ``(c, d) -> state(d* c)`` with squared norms ``nu_j (1 - nu_i)``;
    ``g_ij = a_i a_j* - delta_ij (1 - nu_i) I`` are orthogonal for
    ``(c, d) -> state(c d*)`` with the same squared norms.  Both families
    are orthogonal to the identity (their state values vanish).  The two
    families are the rows of one matrix, a row per monomial and a column
    per matrix entry ``(u, v)``, and the diagonal blocks of its Gram are the
    two forms.  Off the diagonal (``u != v``) a monomial is its product,
    sparse, and those columns are joined entry by entry; on the diagonal,
    where ``-delta_ij c_i I`` lands, the rows are dense, and those columns
    are one matrix product.
    """
    d, q, nu = sys.d, sys.dim, sys.nu
    r = sys.density_diagonal
    root = np.sqrt(r)
    aa_adj, adj_a, _ = sys._pair_products
    families = (("creation", adj_a, nu), ("annihilation", aa_adj, 1.0 - nu))

    rows, cols, vals = [], [], []
    for side, (_, (i, j, u, v, val), _) in enumerate(families):
        apart = u != v
        rows.append(side * d * d + (i * d + j)[apart])
        cols.append((side * q + u[apart]) * q + v[apart])
        # f under (c, d) -> state(d* c) weights columns by sqrt(rho); g under
        # (c, d) -> state(c d*) weights rows
        vals.append(val[apart] * root[(v if side == 0 else u)[apart]])
    r1, r2, prod = _gram_entries(*map(np.concatenate, (rows, cols, vals)))
    n = 2 * d * d
    at = r1 * n + r2
    gram = (np.bincount(at, prod.real, n * n)
            + 1j * np.bincount(at, prod.imag, n * n)).reshape(n, n)

    deviations = {}
    off = ~np.eye(d * d, dtype=bool)
    sq_norms = np.outer(1.0 - nu, nu).ravel()
    for side, (name, blocks, center) in enumerate(families):
        form = gram[side * d * d:(side + 1) * d * d, side * d * d:(side + 1) * d * d]
        diagonals = _block_diagonals(blocks, d, q)
        states = (diagonals * r).sum(axis=2)
        diagonals[range(d), range(d)] -= center[:, None]
        dense = diagonals.reshape(d * d, q) * root
        # only rows with a diagonal: the d rows i = j for Jordan-Wigner generators
        used = np.flatnonzero(dense.any(axis=1))
        form[np.ix_(used, used)] += dense[used] @ dense[used].conj().T
        deviations[f"centered-mean-{name}"] = np.abs(states - np.diag(center)).max()
        deviations[f"pairwise-orthogonality-{name}"] = np.abs(form[off]).max(initial=0.0)
        deviations[f"squared-norms-{name}"] = np.abs(np.diag(form) - sq_norms).max()
    return checked("orthogonality", IDENTITY_TOL, deviations)


def fourth_moment_check(sys: CarSystem, y) -> CheckReport:
    """Second and fourth moments of ``Y = sum y_i (x) a_i`` in closed form.

    Compares ``(Id (x) state)`` of ``Y*Y``, ``YY*`` and their squares,
    evaluated in the big algebra, against the shared closed form
    :func:`nck.norms.moment_forms` with weights ``nu``, ``1 - nu`` and
    ``pair_w[i, j] = (1 - nu_i) nu_j``.  Then checks the quadratic
    domination of the fourth moments by the second moments times the sum
    of the two weighted Gram norms.  ``Y*Y`` and ``YY*`` are block diagonal
    over the particle-number sectors, ``B_k* B_k`` on sector ``k`` and
    ``B_k B_k*`` on sector ``k - 1``, so each is formed one sector at a
    time.  Their squares are not: for a Hermitian ``M`` on a sector,
    ``(Id (x) state)(M^2) = W W*`` with ``W[p, (a, col)] = sqrt(r_a) M[(p, a), col]``.
    """
    ya = as_matrix_tuple(y)
    if ya.shape[0] != sys.d:
        raise DimensionMismatch(f"tuple d={ya.shape[0]} vs system d={sys.d}")
    n = ya.shape[1]
    big = embed_tuple(sys, ya)
    r = sys.density_diagonal
    sectors = _block_layout(sys.d, n).sectors

    def states(m, k):
        # (Id (x) state) of a Hermitian operator m on sector k, and of its
        # square; m is a fresh product, so its rows are weighted in place
        s = sectors[k].size
        rows = m.reshape(n, s, n * s)
        m2 = np.einsum("a,paqa->pq", r[sectors[k]], rows.reshape(n, s, n, s))
        rows *= np.sqrt(r[sectors[k]])[:, None]
        w = rows.reshape(n, s * n * s)
        return m2, w @ w.conj().T

    measured = np.zeros((4, n, n), dtype=complex)
    for k, b in enumerate(big.sector_blocks(), start=1):
        (m2_col, m4_col), (m2_row, m4_row) = states(b.conj().T @ b, k), states(b @ b.conj().T, k - 1)
        measured += (m2_col, m2_row, m4_col, m4_row)

    nu = sys.nu
    closed = moment_forms(ya, nu, 1.0 - nu, np.outer(1.0 - nu, nu), np.zeros((sys.d, sys.d)))
    factor = gram_norm(closed[0]) + gram_norm(closed[1])
    return moment_report("fourth-moments", FOURTH_MOMENT_TOL, tuple(measured), closed, factor)
