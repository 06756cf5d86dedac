"""Matrix-tuple norms and their duals.

A *matrix tuple* is a complex array of shape ``(d, n, n)`` holding the
coefficients ``x_1, ..., x_d``.  The primal norm is

    triple_norm(x) = max( ||sum x_i* x_i||^(1/2), ||sum x_i x_i*||^(1/2) ),

with a weighted variant that inserts weights ``nu_i`` and ``1 - nu_i``.  The
dual norm is the infimal convolution

    dual_norm(x) = inf { Tr((sum y_i* y_i)^(1/2)) + Tr((sum z_i z_i*)^(1/2))
                         : x = y + z },

computed here by Douglas-Rachford splitting: both objective terms are
nuclear norms of column stacks once the row-stacked variable is held as its
adjoint (``||row stack of z||_* = ||column stack of z*||_*``), so the two
variables share one ``(2, d, n, n)`` state and both proximal maps,
singular-value soft-thresholding, come from one batched SVD per iteration.
The coupling ``y + z = x`` is an affine constraint whose projection on the
same state is one affine map, ``keep * t + mix * (t_1*, t_0*) + shift``,
with coefficients formed once per solve.

The loop runs the over-relaxed Douglas-Rachford map ``T(s) = s + lam ds``,
where ``ds`` is the plain map's step and ``lam = RELAXATION`` (1.5).  Any
``lam`` in ``(0, 2)`` keeps the plain map's fixed points and its
convergence (Eckstein and Bertsekas, Math. Programming 55, 1992); 1.5 takes
fewer iterations than the plain map.  The loop accelerates ``T`` with
type-II Anderson acceleration over its last ``AA_MEMORY`` (5) steps, on the
real view of the state: the next iterate is ``T(s) - sum_j gamma_j dT_j``,
where ``dT_j`` and ``dg_j`` are differences of consecutive images and
relaxed residuals ``lam ds``, and ``gamma`` minimizes
``|lam ds - sum_j gamma_j dg_j|`` through the normal equations of their
Gram, regularized by ``1e-10`` of its trace.  A safeguard keeps the relaxed
map's footing: when the residual at an extrapolated point exceeds the
residual at the point it came from, the loop takes the step ``T(s)`` from
that point instead and clears the memory.

Each solve returns the achieving decomposition together with a
pairing-based duality-gap certificate.  The certificate takes both polar
parts and both nuclear norms from one batched SVD and scores four witness
candidates in one batched call; it is evaluated every ``CERT_EVERY`` (8)
iterations, when the splitting step stalls, and at the iteration budget, and
the solve stops only at an evaluated iteration.  It is computed at whatever
iterate the loop holds, extrapolated or not: the projected point is always
feasible and every witness a valid lower bound, so acceleration cannot
shrink a certified gap below the true one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateWeight,
    DimensionMismatch,
    NonFinite,
    NormOverflow,
    ZeroWitness,
)

__all__ = [
    "as_matrix_tuple",
    "as_weights",
    "triple_norm",
    "weighted_triple_norm",
    "DualNormResult",
    "dual_norm",
    "pairing_certificate",
]

#: solver settings, read at each call: fixed unit step on the normalized
#: problem, generous iteration budget for desk-scale problems (a small
#: fraction of random instances needs several thousand iterations to certify
#: the gap), stop on certified gap or on a stationary iterate.
MAX_ITER = 20_000
GAP_TOL = 1e-6
CHANGE_TOL = 1e-10
#: the certificate is evaluated every CERT_EVERY iterations, on a stall and
#: at the iteration budget; it is the costlier part of an iteration
CERT_EVERY = 8
#: results whose final gap exceeds this are flagged as not converged
NONCONVERGENCE_GAP = 1e-5
#: the Anderson-accelerated loop extrapolates over the last AA_MEMORY steps
AA_MEMORY = 5
#: over-relaxation of the Douglas-Rachford map: the loop steps to
#: s + RELAXATION * ds; any value in (0, 2) keeps the fixed points and the
#: convergence guarantee
RELAXATION = 1.5


def as_matrix_tuple(x) -> np.ndarray:
    """Coerce to a ``(d, n, n)`` complex array and validate."""
    a = np.asarray(x, dtype=complex)
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        a = a[None, :, :]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(
            f"matrix tuple must have shape (d, n, n), got {a.shape}"
        )
    if not np.isfinite(a).all():
        raise NonFinite("matrix tuple has NaN or Inf entries")
    return a


def as_weights(nu, d: int | None = None) -> np.ndarray:
    """Coerce to a weight vector with entries in [0, 1]."""
    w = np.atleast_1d(np.asarray(nu, dtype=float))
    if w.ndim != 1:
        raise DimensionMismatch(f"weights must be a vector, got shape {w.shape}")
    if d is not None and w.shape[0] != d:
        raise DimensionMismatch(f"expected {d} weights, got {w.shape[0]}")
    if not np.isfinite(w).all() or w.min(initial=1.0) < 0.0 or w.max(initial=0.0) > 1.0:
        raise DegenerateWeight(f"weights must lie in [0, 1], got {w}")
    return w


def _adjoint(t: np.ndarray) -> np.ndarray:
    """Adjoint of every matrix in a stack."""
    return t.conj().swapaxes(-1, -2)


# Both Grams broadcast over leading axes: a ``(k, d, n, n)`` stack of tuples
# gives ``k`` Grams.


def _col_gram(x: np.ndarray, w=None) -> np.ndarray:
    if w is None:
        return np.einsum("...iab,...iac->...bc", x.conj(), x)
    return np.einsum("i,...iab,...iac->...bc", w, x.conj(), x)


def _row_gram(x: np.ndarray, w=None) -> np.ndarray:
    if w is None:
        return np.einsum("...iab,...icb->...ac", x, x.conj())
    return np.einsum("i,...iab,...icb->...ac", w, x, x.conj())


def gram_norm(g: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part of a Gram matrix."""
    if g.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[-1])


def _grams_norm_sqrt(col: np.ndarray, row: np.ndarray) -> float:
    """Square root of the larger top eigenvalue of two Grams' Hermitian parts.

    Both go through one stacked ``eigvalsh``; it gives each the eigenvalues
    :func:`gram_norm` does, bit for bit.
    """
    g = np.array((col, row))
    if g.size == 0:
        return 0.0
    top = np.linalg.eigvalsh(0.5 * (g + _adjoint(g)))[:, -1]
    return float(np.sqrt(max(top.max(), 0.0)))


def moment_forms(y: np.ndarray, col_w, row_w, pair_w, sign_w):
    """Closed-form second and fourth moments of ``Y = sum y_i (x) v_i``.

    For variables ``v_i`` whose moments up to order four factor like those
    of independent complex Gaussians, reweighted, the moments of ``Y``
    under the expectation (or state) are

        col2 = sum col_w[i] y_i* y_i          (E Y*Y)
        row2 = sum row_w[i] y_i y_i*          (E YY*)
        col4 = col2^2 + sum_ij pair_w[i,j] (y_i* y_j)*(y_i* y_j)
                      + sum_ij sign_w[i,j] (y_i* y_j)^2        (E (Y*Y)^2)
        row4 = row2^2 + sum_ij pair_w[i,j] (y_i y_j*)(y_i y_j*)*
                      + sum_ij sign_w[i,j] (y_i y_j*)^2        (E (YY*)^2)

    ``col2`` and ``row2`` are the Grams of the primal norm.  The weights
    carry the setting: the quasi-free CAR state takes ``nu``, ``1 - nu``,
    ``pair_w = (1 - nu_i) nu_j`` and ``sign_w = 0``; sampled Gaussians take
    ones and ``pair_w = 1``; Steinhaus and lacunary variables ones and
    ``pair_w = 1 - I``; real signs also ``sign_w = 1 - I``.
    """
    col2 = _col_gram(y, col_w)
    row2 = _row_gram(y, row_w)
    ystar = y.conj().transpose(0, 2, 1)
    t = np.einsum("iab,jbc->ijac", ystar, y)       # t_ij = y_i* y_j
    s = np.einsum("iab,jbc->ijac", y, ystar)       # s_ij = y_i y_j*
    col4 = (
        col2 @ col2
        + np.einsum("ij,ijba,ijbc->ac", pair_w, t.conj(), t)
        + np.einsum("ij,ijab,ijbc->ac", sign_w, t, t)
    )
    row4 = (
        row2 @ row2
        + np.einsum("ij,ijab,ijcb->ac", pair_w, s, s.conj())
        + np.einsum("ij,ijab,ijbc->ac", sign_w, s, s)
    )
    return col2, row2, col4, row4


def _primal_norm(a: np.ndarray, col_w=None, row_w=None) -> float:
    """The primal norm of a finite tuple, from its two (weighted) Grams.

    A finite tuple's Grams can overflow; such a norm raises
    :class:`NormOverflow` instead of coming back as ``inf`` or ``nan``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _grams_norm_sqrt(_col_gram(a, col_w), _row_gram(a, row_w))
    if not np.isfinite(norm):
        raise NormOverflow(f"the primal norm of the tuple overflows (computed as {norm})")
    return norm


def triple_norm(x) -> float:
    """max of the column-Gram and row-Gram operator-norm square roots.

    Raises :class:`NormOverflow` when the norm of the finite tuple overflows.
    """
    return _primal_norm(as_matrix_tuple(x))


def weighted_triple_norm(x, nu) -> float:
    """Weighted variant: ``max(||sum (1-nu_i) x_i x_i*||, ||sum nu_i x_i* x_i||)^(1/2)``.

    Raises :class:`NormOverflow` when the norm of the finite tuple overflows.
    """
    a = as_matrix_tuple(x)
    w = as_weights(nu, a.shape[0])
    return _primal_norm(a, w, 1.0 - w)


def _witness_scores(x: np.ndarray, b: np.ndarray, w):
    """Pairings ``|Tr sum_i x_i b_i|`` and primal norms of a stack of witnesses.

    ``b`` has shape ``(k, d, n, n)``.  The norm is :func:`triple_norm`, or
    :func:`weighted_triple_norm` when weights ``w`` are given.  The row Gram
    ``sum (1-w_i) b_i b_i*`` is the column Gram of the adjoints, so all
    ``2k`` Grams come from one batched product of the column stacks of the
    ``sqrt(w)``-scaled witnesses and the ``sqrt(1-w)``-scaled adjoints, and
    go through one stacked ``eigvalsh``.
    """
    k, d, n, _ = b.shape
    if w is None:
        stacks = np.concatenate((b, _adjoint(b)))
    else:
        stacks = np.concatenate((
            np.sqrt(w)[:, None, None] * b,
            _adjoint(np.sqrt(1.0 - w)[:, None, None] * b),
        ))
    stacks = stacks.reshape(2 * k, d * n, n)
    top = np.linalg.eigvalsh(_adjoint(stacks) @ stacks).max(axis=-1, initial=0.0)
    norms = np.sqrt(np.maximum(top[:k], top[k:]))
    pairings = np.abs(np.einsum("iab,kiba->k", x, b))
    return pairings, norms


def pairing_certificate(x, b, nu=None) -> float:
    """Lower bound on the dual norm from a witness tuple.

    Returns ``|Tr sum_i x_i b_i| / primal_norm(b)``; any nonzero witness
    yields a valid lower bound by norm duality.
    """
    xa = as_matrix_tuple(x)
    ba = as_matrix_tuple(b)
    if xa.shape != ba.shape:
        raise DimensionMismatch(f"witness shape {ba.shape} != tuple shape {xa.shape}")
    w = None if nu is None else as_weights(nu, xa.shape[0])
    (pairing,), (denom,) = _witness_scores(xa, ba[None], w)
    if denom <= 0.0:
        raise ZeroWitness("witness tuple has zero primal norm")
    return float(pairing / denom)


def _affine_projection(xs: np.ndarray, ab: np.ndarray):
    """Projection of a stacked state onto ``alpha t_0 + beta t_1* = xs``.

    ``ab`` stacks the slot scales ``alpha`` and ``beta``, each shaped
    ``(d, 1, 1)``.  The projection adds ``(alpha r, beta r*)`` with the
    residual ``r = (xs - alpha t_0 - beta t_1*) / (alpha^2 + beta^2)``;
    written out, it is the affine map

        t -> keep * t + mix * (t_1*, t_0*) + shift,

    ``keep = (beta^2, alpha^2) / D``, ``mix = -alpha beta / D`` and
    ``shift = (alpha xs, beta xs*) / D`` with ``D = alpha^2 + beta^2``,
    whose coefficients are formed once per solve.  It returns a new array.
    """
    a3, b3 = ab
    denom = a3**2 + b3**2
    keep = ab[::-1] ** 2 / denom
    mix = -a3 * b3 / denom
    shift = np.stack((a3 * xs, b3 * _adjoint(xs))) / denom

    def project(t):
        out = keep * t
        out += mix * _adjoint(t[::-1])
        out += shift
        return out

    return project


def _dr_step(s: np.ndarray, step: float, project):
    """The plain Douglas-Rachford map at the stacked ``(2, d, n, n)`` state ``s``.

    Both slots are soft-thresholded by ``step`` in one batched SVD of their
    column stacks.  Returns the thresholded point ``s1``, the splitting's
    scaled dual variable ``g = s1 - s`` and the fixed-point residual ``ds``;
    the plain map goes to ``s + ds``, and :func:`dual_norm` relaxes it to
    ``s + RELAXATION * ds``.
    """
    uu, sv, vh = np.linalg.svd(s.reshape(2, -1, s.shape[-1]), full_matrices=False)
    s1 = ((uu * np.maximum(sv - step, 0.0)[:, None, :]) @ vh).reshape(s.shape)
    g = s1 - s
    return s1, g, project(s1 + g) - s1


@dataclass
class DualNormResult:
    """Outcome of a dual-norm solve.

    ``value`` is the objective of the best feasible decomposition
    ``x = y + z``; ``gap = value - certificate`` where the certificate is a
    valid pairing lower bound, so ``gap`` bounds the distance to the true
    infimum.  ``converged`` is False when the gap could not be certified
    below the nonconvergence threshold within the iteration budget.
    """

    value: float
    y: np.ndarray
    z: np.ndarray
    gap: float
    iterations: int
    converged: bool
    certificate: np.ndarray | None


def dual_norm(x, nu=None) -> DualNormResult:
    """Infimal-convolution dual norm with achieving decomposition.

    Unweighted mode minimizes the sum of the column-stack nuclear norm of
    ``y`` and the row-stack nuclear norm of ``z`` subject to ``y + z = x``.
    Weighted mode requires ``0 < nu_i < 1`` strictly and minimizes

        Tr((sum y_i y_i* / nu_i)^(1/2)) + Tr((sum z_i* z_i / (1-nu_i))^(1/2)),

    which after rescaling the variables by ``sqrt(nu)`` / ``sqrt(1-nu)`` is
    again a sum of two nuclear norms under an affine coupling.

    The splitting variables ``u = y / sqrt(nu)`` and ``w = z / sqrt(1-nu)``
    (``u = y`` and ``w = z`` unweighted) live in one ``(2, d, n, n)``
    state, held so that both nuclear norms are column-stack norms:
    ``(u, w*)`` unweighted, ``(u*, w)`` weighted.  An iteration takes one
    batched SVD of the state, and the certificate one more.

    The iteration is the Douglas-Rachford map over-relaxed by
    ``RELAXATION``, with Anderson acceleration over the last ``AA_MEMORY``
    steps; an extrapolated point whose relaxed residual exceeds that of the
    point it came from is dropped for the relaxed step from that point, and
    the memory starts afresh.  ``iterations`` counts evaluations of the map,
    dropped ones included.  The coupling's projection is one affine map
    formed once per solve.  The step is :func:`triple_norm` of ``x``, so a
    finite tuple whose primal norm overflows raises :class:`NormOverflow`.
    """
    xa = as_matrix_tuple(x)
    d, n, _ = xa.shape
    if nu is not None:
        w = as_weights(nu, d)
        if w.min() <= 0.0 or w.max() >= 1.0:
            raise DegenerateWeight(
                "weighted dual norm needs 0 < nu_i < 1 strictly; "
                f"got nu = {w}"
            )
        alpha = np.sqrt(w)
        beta = np.sqrt(1.0 - w)
        flip = 0   # the state holds (u*, w)
    else:
        w = None
        alpha = np.ones(d)
        beta = np.ones(d)
        flip = 1   # the state holds (u, w*)

    scale = float(np.abs(xa).max(initial=0.0))
    if scale == 0.0:
        zero = np.zeros_like(xa)
        return DualNormResult(0.0, zero, zero, 0.0, 0, True, None)
    # unit step on the normalized problem: scaling the soft-threshold with
    # the primal norm makes the iteration count independent of input scale
    step = max(triple_norm(xa), 1e-300)

    # In both modes the state s minimizes ||s_0||_* + ||s_1||_* over column
    # stacks subject to alpha s_0 + beta s_1* = xs, with xs = x unweighted
    # and xs = x* weighted (the adjoint of each slice).
    xs = xa if flip else _adjoint(xa)
    ab = np.stack((alpha, beta))[:, :, None, None]
    project = _affine_projection(xs, ab)

    def evaluate(s1, g):
        f = project(s1)
        uu, sv, vh = np.linalg.svd(f.reshape(2, d * n, n), full_matrices=False)
        # the polar parts drop singular directions below 1e-8 * s_max: they
        # are numerical debris near a low-rank optimum, and keeping them
        # would inflate the witness norm and ruin the certificate
        keep = sv > 1e-8 * sv[:, :1]
        polar = ((uu * keep[:, None, :]) @ vh).reshape(f.shape)
        # candidates lam_u, lam_w, polar_u, polar_w; lam is the splitting's
        # own dual variable: exactly feasible at the fixed point, including
        # the orthogonal-complement part that the polar part misses at
        # rank-deficient optima.  A slot held as its adjoint is its own
        # witness; the other slot's witness is its adjoint.
        witnesses = np.concatenate((g / (step * ab), polar / ab))
        witnesses[1 - flip::2] = _adjoint(witnesses[1 - flip::2])
        pairings, norms = _witness_scores(xa, witnesses, w)
        scores = np.divide(pairings, norms, out=np.zeros_like(norms), where=norms > 1e-300)
        best = int(np.argmax(scores))   # the first of tied candidates
        cert_tuple = witnesses[best] if scores[best] > 0.0 else None
        nuclear = sv.sum(axis=-1)
        return f, float(nuclear[0] + nuclear[1]), float(scores[best]), cert_tuple

    s = np.zeros((2, d, n, n), dtype=complex)
    # Anderson memory on the real view of the state, filled as a ring: row j
    # of dts and dgs holds the difference of two consecutive DR images
    # t = s + ds and of their residuals ds, and gram the residual rows'
    # inner products, one new row and column per iteration
    dts = np.empty((AA_MEMORY, 2 * s.size))
    dgs = np.empty((AA_MEMORY, 2 * s.size))
    gram = np.empty((AA_MEMORY, AA_MEMORY))
    eye = np.eye(AA_MEMORY)
    filled = 0
    base = None          # (t, ds, |ds|^2), real views, at the point s came from
    extrapolated = False
    best_primal = None   # (value, f)
    best_cert = (0.0, None)
    for it in range(1, MAX_ITER + 1):
        s1, g, ds = _dr_step(s, step, project)
        ds = RELAXATION * ds
        t = s + ds
        tr, dr = t.view(float).ravel(), ds.view(float).ravel()
        res2 = float(dr @ dr)
        if extrapolated and res2 > base[2]:
            # safeguard: the extrapolated point's residual grew, so take the
            # plain step from the point it came from and start a new memory
            s = base[0].view(complex).reshape(s.shape)
            base, filled, extrapolated = None, 0, False
        else:
            k = 0
            if base is not None:
                j = filled % AA_MEMORY
                np.subtract(tr, base[0], out=dts[j])
                np.subtract(dr, base[1], out=dgs[j])
                filled += 1
                k = min(filled, AA_MEMORY)
                row = dgs[:k] @ dgs[j]
                gram[j, :k] = row
                gram[:k, j] = row
            base = (tr, dr, res2)
            gk = gram[:k, :k]
            trace = gk.trace()
            extrapolated = trace > 0.0
            if extrapolated:
                # type-II Anderson step: the combination of the memory's DR
                # images whose residual combination is least, by a
                # regularized normal-equation solve
                gamma = np.linalg.solve(gk + (1e-10 * trace) * eye[:k, :k], dgs[:k] @ dr)
                s = (tr - gamma @ dts[:k]).view(complex).reshape(s.shape)
            else:
                s = t
        change = float(np.abs(ds).max())
        stalled = change <= CHANGE_TOL * (1.0 + scale)
        if it % CERT_EVERY and not stalled and it < MAX_ITER:
            continue
        f, primal, cert, cert_tuple = evaluate(s1, g)
        if best_primal is None or primal < best_primal[0]:
            best_primal = (primal, f)
        if cert > best_cert[0]:
            best_cert = (cert, cert_tuple)
        if best_primal[0] - best_cert[0] <= GAP_TOL or stalled:
            break

    primal, f = best_primal
    cert, cert_tuple = best_cert
    gap = primal - cert
    yz = ab * f
    yz[flip] = _adjoint(yz[flip])
    converged = gap <= NONCONVERGENCE_GAP
    return DualNormResult(
        value=primal,
        y=yz[0],
        z=yz[1],
        gap=gap,
        iterations=it,
        converged=converged,
        certificate=cert_tuple,
    )
