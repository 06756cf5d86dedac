"""Finite probability spaces whose moments are exact, not sampled.

Signs live on {+-1}^d, circle-valued variables on 5th roots of unity, and
the dyadic exponentials on a uniform grid just fine enough that every
degree-four integral is a finite sum with zero quadrature error.  Only the
Gaussian family has no exact finite model and is Monte Carlo.

The payoff: the expected trace norm of sum x_i (x) r_i over the exact sign
space sandwiches the dual norm with constants 1/sqrt(3) and 1.
"""

import numpy as np

from nck import (
    conditional_expectation,
    dual_norm,
    element_from_tuple,
    gamma_ratio,
    gaussian_space,
    l1_s1_norm,
    lacunary_space,
    moment_identity_check,
    rademacher_space,
    steinhauss_space,
)

rng = np.random.default_rng(7)

print("--- second and fourth moments are exact on the finite kinds ---")
y = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
for space in (rademacher_space(3), steinhauss_space(3), lacunary_space(3)):
    rep = moment_identity_check(y, space)
    print(f"{space.kind:10s}: {space.atoms:5d} atoms, worst moment deviation {rep.max_deviation:.2e}")

print("\n--- conditional expectation recovers coefficients exactly ---")
space = steinhauss_space(3)
rec = conditional_expectation(element_from_tuple(y, space))
print(f"round trip through {space.kind}: max error {np.abs(rec - y).max():.2e}")

print("\n--- the sign-family sandwich: dual/sqrt(3) <= E||.||_1 <= dual ---")
for trial in range(5):
    d, n = rng.integers(1, 5), rng.integers(1, 5)
    x = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    l1, _ = l1_s1_norm(x, rademacher_space(d))
    dv = dual_norm(x).value
    print(
        f"d={d} n={n}: E||.||_1 = {l1:9.5f} in "
        f"[{dv/np.sqrt(3):9.5f}, {dv:9.5f}]  ratio {l1/dv:.4f}"
    )

print("\n--- Gaussian lengths: E(sum |g_i|^2)^(1/2) = Gamma(d+1/2)/Gamma(d) ---")
for d in (1, 2, 5, 10):
    sp = gaussian_space(d, 100_000, seed=d)
    lengths = np.sqrt((np.abs(sp.family) ** 2).sum(axis=0))
    se = lengths.std(ddof=1) / np.sqrt(sp.atoms)
    print(
        f"d={d:2d}: MC {lengths.mean():.5f} +- {se:.5f}, "
        f"exact {gamma_ratio(d):.5f}  ({abs(lengths.mean()-gamma_ratio(d))/se:.2f} se)"
    )
