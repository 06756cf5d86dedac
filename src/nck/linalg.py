"""Dense complex-matrix kernel.

The trace norm, a semidefinite order test and the clipped off-diagonal
truncation that drives every lifting corrector.  All matrices are plain
numpy complex arrays; every function here is pure and safe to call from
multiple threads.

Tolerances are relative to ``1 + norm(input)`` so that checks are scale
invariant.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NonFinite, NonHermitian, NonPositiveC, NonSquare

__all__ = [
    "truncate_offdiag",
    "trace_norm",
    "psd_ge",
]

#: relative slack of :func:`psd_ge`, for Hermitian inputs and for the order
PSD_TOL = 1e-9


def _as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NonSquare(f"{name}: expected a 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name}: NaN or Inf entries")
    return a


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = _as_complex_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{name}: expected square, got shape {a.shape}")
    return a


def truncate_offdiag(y, c: float) -> np.ndarray:
    """Clip the singular values of a (possibly rectangular) block at ``c``.

    Returns ``Z = Y h(Y*Y)`` with ``h(lam) = min(1, c / sqrt(lam))``, from one
    eigendecomposition of the Gram ``Y*Y``.  This is the lower-left block of
    the Hermitian dilation ``[[0, Y*], [Y, 0]]`` with its spectrum ``+-s(Y)``
    clamped to ``[-c, c]``, so every singular value of ``Z`` is at most ``c``.

    A leading batch axis is allowed: input of shape ``(m, p, q)`` is
    truncated blockwise and returns shape ``(m, p, q)``.
    """
    if not c > 0:
        raise NonPositiveC(f"clip level must be > 0, got {c}")
    a = np.asarray(y, dtype=complex)
    if a.ndim not in (2, 3):
        raise NonSquare(f"truncate_offdiag: expected 2-d or 3-d input, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("truncate_offdiag: NaN or Inf entries")
    lam, u = np.linalg.eigh(a.conj().swapaxes(-1, -2) @ a)
    # min(1, c / s) with s = sqrt(lam); singular values up to c keep factor 1
    scale = c / np.maximum(np.sqrt(np.maximum(lam, 0.0)), c)
    return (a @ (u * scale[..., None, :])) @ u.conj().swapaxes(-1, -2)


def trace_norm(m) -> float:
    """Sum of singular values (Schatten-1 norm)."""
    a = _as_complex_matrix(m, "trace_norm")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())


def psd_ge(a, b) -> bool:
    """Whether ``A - B`` is positive semidefinite up to a relative slack.

    True iff the smallest eigenvalue of ``A - B`` is at least
    ``-PSD_TOL * (1 + ||A|| + ||B||)``, in operator norm.  Both inputs must be
    Hermitian.
    """
    am = _as_square(a, "psd_ge")
    bm = _as_square(b, "psd_ge")
    if am.shape != bm.shape:
        raise NonSquare(f"psd_ge: shape mismatch {am.shape} vs {bm.shape}")
    scale = 1.0 + float(np.linalg.norm(am, 2)) + float(np.linalg.norm(bm, 2))
    for name, m in (("A", am), ("B", bm)):
        if np.linalg.norm(m - m.conj().T, 2) > PSD_TOL * scale:
            raise NonHermitian(f"psd_ge: argument {name} is not Hermitian")
    diff = 0.5 * (am + am.conj().T) - 0.5 * (bm + bm.conj().T)
    lam_min = float(np.linalg.eigvalsh(diff)[0])
    return lam_min >= -PSD_TOL * scale
