"""The four benchmark workloads: inputs, timed library calls and result checks.

Each workload is a fixed schedule of shapes that repeats every ``cycle``
instances; the seed draws the values (tuples, weights) and nothing else.
Runs end on a cycle boundary, so every seed and every run length weighs the
shapes alike and figures differ between seeds only through the values.  The
library receives only the generated tuples and weights.

A workload provides three functions:

``make(rng, i)``
    the inputs of instance ``i`` (shape from the schedule, values from ``rng``)
``run(inputs)``
    the timed library calls of one instance
``check(inputs, result)``
    a check of the result, with every norm recomputed here; True when it holds
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nck import car, lifting, norms, spaces

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

#: ``y + z == x`` in a dual solve, relative to ``max |x|``
SPLIT_TOL = 1e-10
#: recomputed objective and certificate against the reported ones, relative
VALUE_TOL = 1e-9
#: largest duality gap a certified solve may have
GAP_TOL = 1e-5
#: slack on the lift bounds ``norm(x) <= norm(lifted) <= K norm(x)``
RATIO_SLACK = 1e-6
#: read-out of the lifted element against ``x``, relative to ``max |x|``
READOUT_TOL = 1e-8
#: slack on the per-step halving of the lift residual
HALVING_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable
    run: Callable
    check: Callable
    #: every shape in the workload's mix once
    cycle: int
    #: instances in an end-to-end run's list, whole cycles
    instances: int
    #: instances run before timing, so caches fill and lazy imports finish
    warmup: int
    #: instances replayed by a traced run (a fixed count, so counts repeat)
    trace_instances: int


def _tuple(rng, d: int, n: int) -> np.ndarray:
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


def _max_rel(a, b) -> float:
    return float(np.abs(np.asarray(a) - b).max() / np.abs(b).max())


def _halves(history) -> bool:
    h = np.asarray(history)
    return bool(np.all(h[1:] <= 0.5 * h[:-1] * (1.0 + HALVING_SLACK)))


# Norms recomputed here from their definitions, with numpy only, so a check
# never trusts the library's own arithmetic.  Stacking the tuple's matrices
# vertically gives Gram ``sum t_i* t_i``; side by side, ``sum t_i t_i*``.


def _col(t):
    return np.concatenate(list(t), axis=0)


def _row(t):
    return np.concatenate(list(t), axis=1)


def _op(m) -> float:
    return float(np.linalg.norm(m, 2))


def _nuclear(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _primal_norm(t, nu=None) -> float:
    """``triple_norm`` or, with weights, ``weighted_triple_norm``."""
    if nu is None:
        return max(_op(_col(t)), _op(_row(t)))
    return max(_op(_col(np.sqrt(nu)[:, None, None] * t)),
               _op(_row(np.sqrt(1.0 - nu)[:, None, None] * t)))


def _dual_objective(y, z, nu=None) -> float:
    """The dual norm's objective at the split ``x = y + z``."""
    if nu is None:
        return _nuclear(_col(y)) + _nuclear(_row(z))
    return (_nuclear(_row(y / np.sqrt(nu)[:, None, None]))
            + _nuclear(_col(z / np.sqrt(1.0 - nu)[:, None, None])))


def _lift_ok(x, lifted_norm: float, target_norm: float, bound: float, readout, history) -> bool:
    """Norm bracket, read-out and halving of one lift."""
    return (
        target_norm * (1.0 - RATIO_SLACK) <= lifted_norm <= bound * target_norm * (1.0 + RATIO_SLACK)
        and _max_rel(readout, x) <= READOUT_TOL
        and _halves(history)
    )


# --- dual-certify ------------------------------------------------------------
#
# A cycle is every (d, n) in [1, 4]^2 once, 16 instances.  Every fourth
# instance is weighted, and the shift by i // 16 weights each shape once in
# four cycles.

_DUAL_SHAPES = [(d, n) for d in range(1, 5) for n in range(1, 5)]


def _dual_make(rng, i):
    d, n = _DUAL_SHAPES[(i + i // 16) % 16]
    x = _tuple(rng, d, n)
    nu = rng.uniform(0.05, 0.95, d) if i % 4 == 3 else None
    return x, nu


def _dual_run(inputs):
    x, nu = inputs
    return norms.dual_norm(x, nu)


def _dual_check(inputs, res) -> bool:
    x, nu = inputs
    if res.certificate is None:
        return False
    scale = max(1.0, res.value)
    value = _dual_objective(res.y, res.z, nu)
    b = res.certificate
    cert = abs(np.sum(x * b.transpose(0, 2, 1))) / _primal_norm(b, nu)
    return (
        _max_rel(res.y + res.z, x) <= SPLIT_TOL
        and abs(value - res.value) <= VALUE_TOL * scale
        and abs(cert - (res.value - res.gap)) <= VALUE_TOL * scale
        and cert <= value + VALUE_TOL * scale
        and value - cert <= GAP_TOL
    )


# --- car-lift -----------------------------------------------------------------
#
# Clip blocks of side n * 2**d from 16 to 64; (6, 2), side 128, is left out
# because one such lift takes about 2 s, and a pass of whole cycles must fit
# in a few seconds.

_CAR_SHAPES = [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1)]


def _car_make(rng, i):
    d, n = _CAR_SHAPES[i % len(_CAR_SHAPES)]
    return rng.uniform(0.02, 0.98, d), _tuple(rng, d, n)


def _car_run(inputs):
    nu, x = inputs
    system = car.car_system(nu)
    return system, lifting.lift(x, system)


def _car_check(inputs, result) -> bool:
    nu, x = inputs
    system, rep = result
    return _lift_ok(x, _op(rep.lifted), _primal_norm(x, nu), SQRT2,
                    car.extract_coefficients(system, rep.lifted), rep.residual_history)


# --- sign-lift ----------------------------------------------------------------
#
# Each of the 16 spaces, (family, d), comes twice a cycle, with values of
# n two apart, so a cycle of 32 instances takes each n in [1, 4] eight
# times.  The families are taken in turn.  The largest space has 2048 atoms
# (lacunary, d = 8); Steinhaus d = 5 (3125 atoms) is left out, so that a
# pass holds one cycle in a few seconds.

_SIGN_DIMS = {
    "rademacher": range(4, 11),
    "lacunary": range(3, 9),
    "steinhauss": range(2, 5),
}
_SIGN_SPACES = [
    entry
    for row in itertools.zip_longest(*([(family, d) for d in dims] for family, dims in _SIGN_DIMS.items()))
    for entry in row
    if entry is not None
]
_SIGN_SCHEDULE = [
    (family, d, 1 + (j + shift) % 4)
    for shift in (0, 2)
    for j, (family, d) in enumerate(_SIGN_SPACES)
]


def _build_space(family: str, d: int):
    # looked up on the module at call time, so a traced run sees the wrapper
    return getattr(spaces, f"{family}_space")(d)


def _sign_make(rng, i):
    family, d, n = _SIGN_SCHEDULE[i % len(_SIGN_SCHEDULE)]
    return family, d, _tuple(rng, d, n)


def _sign_run(inputs):
    family, d, x = inputs
    return lifting.lift(x, _build_space(family, d))


def _sign_check(inputs, rep) -> bool:
    family, _d, x = inputs
    sup = float(np.linalg.norm(rep.lifted.blocks, 2, axis=(1, 2)).max())
    return _lift_ok(x, sup, _primal_norm(x), SQRT3 if family == "rademacher" else SQRT2,
                    spaces.conditional_expectation(rep.lifted), rep.residual_history)


# --- identities ---------------------------------------------------------------
#
# CAR dimensions 4, 5, 6, 7, 6: d = 6 twice puts the latency median inside
# one dimension's group and p90 inside d = 7, away from a jump between
# groups.  The moment check takes each (family, d) with d in [2, 6] once per
# 15 instances.

_CAR_DIMS = [4, 5, 6, 7, 6]
_MOMENT_FAMILIES = ["rademacher", "steinhauss", "lacunary"]


def _ident_make(rng, i):
    d = _CAR_DIMS[i % len(_CAR_DIMS)]
    family = _MOMENT_FAMILIES[i % 3]
    d_m = 2 + (i // 3) % 5
    return rng.uniform(0.01, 0.99, d), _tuple(rng, d, 2), family, _tuple(rng, d_m, 2)


def _ident_run(inputs):
    nu, y, family, y_m = inputs
    system = car.car_system(nu)
    return [
        car.anticommutation_check(system),
        car.second_moment_check(system),
        car.state_weight_check(system),
        car.orthogonality_check(system),
        car.fourth_moment_check(system, y),
        spaces.moment_identity_check(y_m, _build_space(family, y_m.shape[0])),
    ]


def _ident_check(_inputs, reports) -> bool:
    return all(r.passed for r in reports)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dual-certify", _dual_make, _dual_run, _dual_check,
                 cycle=16, instances=128, warmup=4, trace_instances=192),
        Workload("car-lift", _car_make, _car_run, _car_check,
                 cycle=len(_CAR_SHAPES), instances=20, warmup=5, trace_instances=50),
        Workload("sign-lift", _sign_make, _sign_run, _sign_check,
                 cycle=len(_SIGN_SCHEDULE), instances=len(_SIGN_SCHEDULE), warmup=3,
                 trace_instances=len(_SIGN_SCHEDULE)),
        Workload("identities", _ident_make, _ident_run, _ident_check,
                 cycle=15, instances=15, warmup=5, trace_instances=60),
    )
}
