"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one ``[PASS]/[FAIL]`` line (run ``pytest -s`` to see them
on success).
"""

import time

import numpy as np
import pytest

from nck.car import (
    anticommutation_check,
    car_system,
    embed_tuple,
    extract_coefficients,
    fourth_moment_check,
    orthogonality_check,
    second_moment_check,
    state_weight_check,
)
from nck.constants import (
    C1_WITNESS_TOL,
    c2_witness_gaussian,
    car_c1_witness,
    car_c2_sequence,
    gaussian_c1_bound_sequence,
    random_search_ratio,
)
from nck.exceptions import IdentityViolation
from nck.lifting import corrector_commutative, lift
from nck.linalg import PSD_TOL, psd_ge, trace_norm, truncate_offdiag
from nck.norms import dual_norm, triple_norm
from nck.spaces import (
    element_from_tuple,
    gamma_ratio,
    gaussian_space,
    l1_s1_norm,
    rademacher_space,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def random_tuple(rng, d, n):
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


def test_criterion_1_car_identity_suite():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        sys = car_system(rng.uniform(0.01, 0.99, d))
        y = random_tuple(rng, d, 2)
        for rep in (
            anticommutation_check(sys),
            second_moment_check(sys),
            state_weight_check(sys),
            orthogonality_check(sys),
            fourth_moment_check(sys, y),
        ):
            worst = max(worst, rep.max_deviation)
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (fermionic identity suite)",
        worst <= 1e-11 and elapsed <= 60.0,
        f"50 systems d<=6, max deviation {worst:.2e} (tol 1e-11), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_car_lifting_sqrt2():
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    worst_ratio = 0.0
    worst_rec = 0.0
    decay_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        sys = car_system(rng.uniform(0.02, 0.98, d))
        x = random_tuple(rng, d, n)
        rep = lift(x, sys)
        worst_ratio = max(worst_ratio, rep.ratio)
        rec = extract_coefficients(sys, rep.lifted)
        worst_rec = max(worst_rec, float(np.abs(rec - x).max() / np.abs(x).max()))
        hist = rep.residual_history
        decay_ok &= all(
            hist[k] <= 0.5**k * hist[0] * (1.0 + 1e-9) for k in range(len(hist))
        )
    elapsed = time.monotonic() - t0
    passed = (
        worst_ratio <= SQRT2 * (1.0 + 1e-6)
        and worst_rec <= 1e-8
        and decay_ok
        and elapsed <= 300.0
    )
    report(
        "criterion 2 (fermionic lifting, sqrt(2))",
        passed,
        f"100 tuples d<=5 n<=3: max ratio {worst_ratio:.9f} (bound {SQRT2:.9f}), "
        f"max reconstruction {worst_rec:.2e} (tol 1e-8), halving {decay_ok}, {elapsed:.1f}s",
    )


def test_car_lifting_sqrt2_at_d10():
    # criterion 2's checks at the fermionic cap, side 1024, where scalar
    # coefficients are clipped by a rescaling, and at d = 8, n = 2, side 512,
    # where every sector pair goes through the eigendecomposition clip
    for d, n, seed in ((10, 1, 1010), (8, 2, 808)):
        rng = np.random.default_rng(seed)
        t0 = time.monotonic()
        sys = car_system(rng.uniform(0.02, 0.98, d))
        x = random_tuple(rng, d, n)
        rep = lift(x, sys)
        rec = extract_coefficients(sys, rep.lifted)
        worst_rec = float(np.abs(rec - x).max() / np.abs(x).max())
        hist = rep.residual_history
        decay_ok = all(hist[k] <= 0.5**k * hist[0] * (1.0 + 1e-9) for k in range(len(hist)))
        dense_norm = float(np.linalg.norm(rep.lifted, 2))
        elapsed = time.monotonic() - t0
        passed = (
            rep.converged
            and rep.ratio <= SQRT2 * (1.0 + 1e-6)
            and dense_norm <= SQRT2 * rep.target_norm * (1.0 + 1e-6)
            and abs(dense_norm - rep.achieved_norm) <= 1e-12 * dense_norm
            and worst_rec <= 1e-8
            and decay_ok
        )
        report(
            f"fermionic lifting at d = {d}, n = {n}",
            passed,
            f"ratio {rep.ratio:.9f} (bound {SQRT2:.9f}), dense norm {dense_norm:.12f} vs "
            f"achieved {rep.achieved_norm:.12f}, reconstruction {worst_rec:.2e} (tol 1e-8), "
            f"halving {decay_ok}, {rep.iterations} steps, {elapsed:.1f}s",
        )


def test_criterion_3_rademacher_lifting_sqrt3():
    rng = np.random.default_rng(303)
    t0 = time.monotonic()
    worst_ratio = 0.0
    worst_step = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(1, 5))
        space = rademacher_space(d)
        x = random_tuple(rng, d, n)
        rep = lift(x, space)
        worst_ratio = max(worst_ratio, rep.ratio)
        xn = x / triple_norm(x)
        _z_elem, z = corrector_commutative(xn, space, SQRT3 / 2.0)
        worst_step = max(worst_step, triple_norm(xn - z))
    elapsed = time.monotonic() - t0
    passed = (
        worst_ratio <= SQRT3 * (1.0 + 1e-6)
        and worst_step <= 0.5 + 1e-12
        and elapsed <= 300.0
    )
    report(
        "criterion 3 (sign lifting, sqrt(3))",
        passed,
        f"100 tuples d<=10 n<=4: max ratio {worst_ratio:.9f} (bound {SQRT3:.9f}), "
        f"max one-step residual {worst_step:.6f} (<= 1/2), {elapsed:.1f}s",
    )


def test_criterion_4_khintchine_sandwich_rademacher():
    rng = np.random.default_rng(404)
    worst_low = np.inf
    worst_high = -np.inf
    for _ in range(200):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        x = random_tuple(rng, d, n)
        space = rademacher_space(d)
        l1, _ = l1_s1_norm(x, space)
        dual = dual_norm(x).value
        worst_low = min(worst_low, l1 - (dual / SQRT3 - 1e-5))
        worst_high = max(worst_high, l1 - (dual + 1e-5))
    passed = worst_low >= 0.0 and worst_high <= 0.0
    report(
        "criterion 4 (sign-family sandwich)",
        passed,
        f"200 tuples d,n<=4: min slack above lower bound {worst_low:.2e}, "
        f"max slack below upper bound {-worst_high:.2e}",
    )


def test_criterion_5_gaussian_constants_statistical():
    # witness at d = 16: exactly the ratio formula
    value = c2_witness_gaussian(16)
    target = gamma_ratio(16) / 4.0
    witness_ok = value == target

    # Monte Carlo expected vector length matches the ratio formula
    mc_ok = True
    details = []
    for d in (1, 2, 5, 10):
        space = gaussian_space(d, 100_000, seed=50 + d)
        lengths = np.sqrt((np.abs(space.family) ** 2).sum(axis=0))
        se = lengths.std(ddof=1) / np.sqrt(space.atoms)
        dev = abs(lengths.mean() - gamma_ratio(d))
        mc_ok &= dev <= 3.0 * se
        details.append(f"d={d}: {dev / se:.2f}se")

    # closed-form bound sequence decreasing to 1/sqrt(2)
    grid = [1, 10, 100, 1000, 10_000, 100_000]
    values = [gaussian_c1_bound_sequence(m) for m in grid]
    seq_ok = all(a > b for a, b in zip(values, values[1:]))
    seq_ok &= abs(values[-1] - 1.0 / SQRT2) <= 1e-3

    # random-search ratios never dip below 1/sqrt(2) minus 3 standard errors
    # (the search itself asserts the per-trial bound and raises on violation)
    try:
        rep = random_search_ratio("gaussian", n=2, d=2, trials=20, seed=56, samples=20_000)
        search_min = rep.lower_witness
        search_ok = True
    except IdentityViolation:
        search_min = float("nan")
        search_ok = False

    passed = witness_ok and mc_ok and seq_ok and search_ok
    report(
        "criterion 5 (Gaussian constants, statistical)",
        passed,
        f"witness d=16 {value:.12f} == {target:.12f}; "
        f"lengths {', '.join(details)}; bound limit gap {abs(values[-1] - 1 / SQRT2):.2e}; "
        f"search min {search_min:.4f}",
    )


def test_criterion_6_car_sharpness():
    assert C1_WITNESS_TOL == 1e-6
    witness = car_c1_witness()  # raises if the ratio is off
    agree = 0.0
    values = []
    for d in range(1, 11):
        matrix_value, binomial_value = car_c2_sequence(d)
        agree = max(agree, abs(matrix_value - binomial_value))
        values.append(binomial_value)
    increasing = all(a < b for a, b in zip(values, values[1:]))
    d10_ok = abs(values[-1] - 0.9858) <= 1e-3
    passed = agree <= 1e-10 and increasing and d10_ok and values[-1] < 1.0
    report(
        "criterion 6 (fermionic sharpness witnesses)",
        passed,
        f"ratio witness {witness.ratio:.9f}; matrix-vs-binomial max dev {agree:.2e} "
        f"(tol 1e-10); d=10 value {values[-1]:.6f} (target 0.9858 +- 1e-3); "
        f"strictly increasing {increasing}",
    )


def test_criterion_7_dual_norm_solver():
    rng = np.random.default_rng(707)
    worst_gap = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        res = dual_norm(random_tuple(rng, d, n))
        worst_gap = max(worst_gap, res.gap)

    d1_dev = 0.0
    for _ in range(20):
        x = random_tuple(rng, 1, 3)
        d1_dev = max(d1_dev, abs(dual_norm(x).value - trace_norm(x[0])))

    scale_dev = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        x = random_tuple(rng, d, n)
        vw = dual_norm(x, nu=np.full(d, 0.5)).value
        vu = dual_norm(x).value
        scale_dev = max(scale_dev, abs(vw - SQRT2 * vu) / vw)

    passed = worst_gap <= 1e-5 and d1_dev <= 1e-8 and scale_dev <= 1e-5
    report(
        "criterion 7 (dual-norm solver)",
        passed,
        f"100 instances max gap {worst_gap:.2e} (tol 1e-5); d=1 vs trace norm "
        f"{d1_dev:.2e} (tol 1e-8); half-weight scaling {scale_dev:.2e} (tol 1e-5)",
    )


def test_criterion_8_truncation_psd_bounds():
    rng = np.random.default_rng(808)
    c = 1.0 / SQRT2
    assert PSD_TOL == 1e-9
    ok = True

    # commutative setting: the bound holds atomwise for embedded tuples
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        x = 2.0 * random_tuple(rng, d, n)
        elem = element_from_tuple(x, rademacher_space(d))
        clipped = truncate_offdiag(elem.blocks, c)
        atoms = rng.choice(elem.blocks.shape[0], size=min(4, elem.blocks.shape[0]), replace=False)
        for k in atoms:
            y, z = elem.blocks[k], clipped[k]
            r = y - z
            gc, gr = y.conj().T @ y, y @ y.conj().T
            ok &= psd_ge(gc @ gc / (16 * c * c), r.conj().T @ r)
            ok &= psd_ge(gr @ gr / (16 * c * c), r @ r.conj().T)

    # fermionic setting: one global check per tuple
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        sys = car_system(rng.uniform(0.05, 0.95, d))
        y = embed_tuple(sys, 2.0 * random_tuple(rng, d, n)).toarray()
        z = truncate_offdiag(y, c)
        r = y - z
        gc, gr = y.conj().T @ y, y @ y.conj().T
        ok &= psd_ge(gc @ gc / (16 * c * c), r.conj().T @ r)
        ok &= psd_ge(gr @ gr / (16 * c * c), r @ r.conj().T)

    report(
        "criterion 8 (truncation residual domination)",
        ok,
        "100 random elements per setting, both Gram orientations, psd tol 1e-9",
    )
