"""Constructive lifting with explicit norm budgets.

Given a coefficient tuple ``x``, the lift builds an element ``X`` of the
big algebra (functions on a probability space, or the fermionic matrix
algebra) whose coefficient read-out equals ``x`` while ``norm(X)`` stays
within a factor ``K`` of the primal norm of ``x``.

The engine is a geometric-series iteration driven by a one-step truncation
corrector: embed the current residual tuple, clip the singular values of
the embedded element at level ``C`` (one eigendecomposition of its Gram
``Y*Y``, the same operator as clamping the spectrum ``+-s(Y)`` of its
Hermitian dilation to ``[-C, C]``), and read the corrected coefficients
back off.  In the fermionic algebra the embedded element is a direct sum
of particle-number sector blocks (see :mod:`nck.car`), so the clip, the
read-out and the accumulated element are all taken block by block, one
batched clip per pair of sectors; the dense matrix is formed once, for
:attr:`LiftReport.lifted`, and the achieved norm is the largest block
norm.  Over a probability space the lift runs on the space's phase
quotient (see :mod:`nck.spaces`): one representative atom per orbit of a
unimodular scalar, weighted by the orbit.  The clip commutes with a
unimodular scalar, and the read-out against the representatives' values
with orbit weights is exact, so every step is the full space's step cut
by the orbit size (2 for signs and lacunary, 5 for Steinhaus); the
accumulated element is expanded to every atom, ``phase * blocks[owner]``,
once at the end.  Only the atoms whose Frobenius norm exceeds ``C`` go to
the clip: a smaller atom has every singular value at most ``C``, and the
clip leaves it unchanged.  For a normalized input the corrected residual has
primal norm at most ``delta = 1/2``, so the accumulated element converges
with norm at most ``C / (1 - delta)``.  Every number here is fixed by the
paper: ``delta`` is :data:`CONTRACTION`, and the lift reads its setting's
lift constant ``K`` from :data:`nck.spaces.FAMILIES` and clips at
``C = K / 2``, so the bound ``C / (1 - delta)`` is ``K`` exactly:

    commutative circular families  K = sqrt(2)  ->  C = sqrt(2)/2
    sign families                  K = sqrt(3)  ->  C = sqrt(3)/2
    fermionic (weighted) setting   K = sqrt(2)  ->  C = sqrt(2)/2

A :class:`LiftReport` brackets the quotient norm ``q(x)``, the least norm
of an element whose read-out is ``x``: the read-out is a contraction, so
``target_norm`` (the primal norm of ``x``) is a lower end, and the lifted
element's ``achieved_norm`` is an upper end, at most ``bound`` times the
lower one.

Sampled Gaussian spaces carry no exact moment identities, so the one-step
contraction can fail there; such steps raise :class:`StalledIteration`
instead of silently looping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .car import CarElement, CarSystem, embed_tuple, extract_coefficients
from .exceptions import DimensionMismatch, NonPositiveC, StalledIteration
from .linalg import truncate_offdiag
from .norms import as_matrix_tuple, triple_norm, weighted_triple_norm
from .spaces import (
    DiscreteProbabilitySpace,
    RandomElement,
    conditional_expectation,
    element_from_tuple,
    family_row,
    sup_norm,
)

__all__ = [
    "LiftReport",
    "corrector_commutative",
    "corrector_car",
    "lift",
]

#: factor ``delta`` by which each corrector step contracts the residual norm
CONTRACTION = 0.5
#: most corrector steps one lift takes
MAX_STEPS = 64
#: the lift stops once the residual norm is at most ``TOL`` times the target's
TOL = 1e-10
#: slack over the nominal contraction factor before a step counts as stalled;
#: distinguishes genuine corrector failure (Monte Carlo noise) from rounding
STALL_SLACK = 0.05


@dataclass
class LiftReport:
    """Iterate history and the norm bookkeeping of one lift.

    ``clip_level`` is the level ``C = K / 2`` the corrector clipped at, and
    :attr:`bound` is the norm bound ``C / (1 - CONTRACTION)`` it guarantees,
    the setting's ``K`` bit for bit.
    """

    lifted: object                 # RandomElement or dense fermionic matrix
    residual_history: np.ndarray   # primal norms of the residual tuples
    achieved_norm: float
    target_norm: float
    iterations: int
    converged: bool
    clip_level: float

    @property
    def bound(self) -> float:
        return self.clip_level / (1.0 - CONTRACTION)

    @property
    def ratio(self) -> float:
        if self.target_norm == 0.0:
            return 0.0
        return self.achieved_norm / self.target_norm


def corrector_commutative(y, space: DiscreteProbabilitySpace, clip_level: float):
    """One truncation step over a probability space.

    Embeds ``y``, clips the singular values of every atom at
    ``clip_level`` and reads back the corrected tuple.  Returns
    ``(Z, z)`` with ``sup_norm(Z) <= clip_level`` and, for exact kinds and
    ``triple_norm(y) = 1`` at the level ``K / 2``, ``triple_norm(y - z) <= 1/2``.

    An atom whose Frobenius norm is at most ``clip_level`` has every
    singular value at most ``clip_level``, so the clip leaves it as it is;
    only the other atoms go through :func:`truncate_offdiag`, in one call.
    """
    if not clip_level > 0:
        raise NonPositiveC(f"clip level must be > 0, got {clip_level}")
    ya = as_matrix_tuple(y)
    blocks = element_from_tuple(ya, space).blocks
    flat = blocks.view(float).reshape(blocks.shape[0], -1)
    # a NaN or Inf norm is not under the level, so such an atom reaches the
    # clip, which raises NonFinite
    over = ~(np.einsum("mk,mk->m", flat, flat) <= clip_level * clip_level)
    if over.any():
        blocks[over] = truncate_offdiag(blocks[over], clip_level)
    clipped = RandomElement(space, blocks)
    return clipped, conditional_expectation(clipped)


def corrector_car(y, sys: CarSystem, clip_level: float):
    """One truncation step in the fermionic algebra.

    Same contract as :func:`corrector_commutative` with the weighted primal
    norm; returns ``(Z, z)`` with ``Z`` a :class:`nck.car.CarElement` and
    ``Z.op_norm() <= clip_level``.  The clip acts on each sector pair in one
    batched call, which equals clipping the dense element.
    """
    ya = as_matrix_tuple(y)
    big = embed_tuple(sys, ya)
    clipped = big.map_pairs(lambda pair: truncate_offdiag(pair, clip_level))
    return clipped, extract_coefficients(sys, clipped)


def _setting_ops(setting):
    """``(primal, corrector, zero, finish, clip_level)`` of a lifting setting.

    ``zero(n)`` is the empty element, which the lift accumulates through its
    ``blocks`` array; ``finish`` turns it into ``(lifted, achieved_norm)``.
    A probability space is lifted on its phase quotient, and ``finish``
    expands the accumulated representatives to every atom.  ``clip_level``
    is half the setting's lift constant ``K``.
    """
    if isinstance(setting, DiscreteProbabilitySpace):
        reps, owner, phase = setting._quotient
        return (
            lambda t: triple_norm(t),
            lambda t, c: corrector_commutative(t, reps, c),
            lambda n: RandomElement(reps, np.zeros((reps.atoms, n, n), dtype=complex)),
            lambda e: (
                RandomElement(setting, phase[:, None, None] * e.blocks[owner]),
                sup_norm(e),
            ),
            family_row(setting.kind)[0] / 2.0,
        )
    if isinstance(setting, CarSystem):
        return (
            lambda t: weighted_triple_norm(t, setting.nu),
            lambda t, c: corrector_car(t, setting, c),
            lambda n: CarElement.zeros(setting.d, n),
            lambda e: (e.toarray(), e.op_norm()),
            family_row("car")[0] / 2.0,
        )
    raise DimensionMismatch(
        f"setting must be a DiscreteProbabilitySpace or CarSystem, got {type(setting)!r}"
    )


def lift(x, setting) -> LiftReport:
    """Build an element with prescribed coefficients and controlled norm.

    Iterates ``w_0 = x``, ``w_{k+1} = w_k - readout(corrector(w_k))``,
    accumulating the clipped elements; the corrector acts on the normalized
    residual and is rescaled back, so each step contracts the residual norm
    by :data:`CONTRACTION`.  Stops when the residual falls below
    ``TOL * norm(x)``, or after :data:`MAX_STEPS` steps.

    Raises :class:`StalledIteration` when a step fails to contract by
    ``CONTRACTION + STALL_SLACK`` (corrector precondition violated, e.g.
    noisy sampled moments).
    """
    primal, corrector, zero, finish, clip_level = _setting_ops(setting)

    xa = as_matrix_tuple(x)
    target = primal(xa)
    history = [target]
    accum = zero(xa.shape[1])

    w = xa.copy()
    norm_w = target
    iterations = 0
    converged = False
    for k in range(MAX_STEPS):
        if norm_w <= TOL * target:
            converged = True
            break
        iterations = k + 1
        clipped, z = corrector(w / norm_w, clip_level)
        accum.blocks[...] += norm_w * clipped.blocks
        w = w - norm_w * z
        norm_next = primal(w)
        if norm_next > (CONTRACTION + STALL_SLACK) * norm_w:
            raise StalledIteration(
                f"residual contracted only to {norm_next / norm_w:.4f} of the "
                f"previous norm at step {iterations} "
                f"(allowed {CONTRACTION + STALL_SLACK})",
                step=iterations,
            )
        history.append(norm_next)
        norm_w = norm_next
    else:
        converged = norm_w <= TOL * target

    lifted, achieved = finish(accum)
    return LiftReport(
        lifted=lifted,
        residual_history=np.array(history),
        achieved_norm=achieved,
        target_norm=target,
        iterations=iterations,
        converged=converged,
        clip_level=clip_level,
    )

