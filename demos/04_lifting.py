"""Constructive lifting: prescribe the coefficients, control the norm.

Given a tuple x, build an element X of the big algebra whose coefficient
read-out is x and whose norm is at most K times the primal norm of x.
One corrector step embeds the residual, clips the singular values of the
embedded element (one eigendecomposition of its Gram Y*Y, the same operator
as clamping the spectrum of its Hermitian dilation), and reads the
correction back; each step halves the residual, so the accumulated element
converges geometrically with

    K = clip_level / (1 - 1/2):   sqrt(2) for circular and fermionic
                                  families, sqrt(3) for signs,

with the clip level K/2 read from the family table; each report carries
it as rep.clip_level and the bound as rep.bound.  A report also brackets
the quotient norm (the least norm of an element with read-out x) between
rep.target_norm and rep.achieved_norm.

Sampled Gaussian spaces have noisy moments: the same iteration detects the
failure and stops with a diagnosis instead of looping.
"""

import numpy as np

from nck import (
    StalledIteration,
    car_system,
    conditional_expectation,
    extract_coefficients,
    gaussian_space,
    lift,
    rademacher_space,
)

rng = np.random.default_rng(5)

print("--- residual decay on the exact sign space (bound sqrt(3)) ---")
x = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
rep = lift(x, rademacher_space(4))
print("step   residual / ||x||")
for k, h in enumerate(rep.residual_history[:8]):
    print(f"{k:3d}    {h / rep.target_norm:10.3e}   (<= 2^-{k} = {0.5**k:.3e})")
print("...")
rec = conditional_expectation(rep.lifted)
print(f"ratio achieved {rep.ratio:.6f} <= sqrt(3) = {np.sqrt(3):.6f}; "
      f"read-out error {np.abs(rec - x).max():.1e}\n")

print("--- fermionic lifting at the sharp constant sqrt(2) ---")
for trial in range(4):
    d, n = rng.integers(1, 6), rng.integers(1, 4)
    sys = car_system(rng.uniform(0.05, 0.95, d))
    x = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    rep = lift(x, sys)
    rec_err = np.abs(extract_coefficients(sys, rep.lifted) - x).max()
    print(
        f"d={d} n={n}: ratio {rep.ratio:.6f} (bound {np.sqrt(2):.6f}), "
        f"{rep.iterations} steps, read-out error {rec_err:.1e}"
    )

print("\n--- the worst case saturates the bound exactly ---")
# the read-out is a contraction, so the primal norm is a lower end of the
# quotient norm; the lifted element's norm is an upper end
rep = lift(np.ones((1, 1, 1), dtype=complex), car_system([0.5]))
lower, upper = rep.target_norm, rep.achieved_norm
print(f"scalar 1 at weight 1/2: quotient norm in [{lower:.6f}, {upper:.6f}], "
      f"ratio {upper/lower:.6f}")

print("\n--- sampled Gaussians: noisy moments are detected, not hidden ---")
try:
    lift(rng.standard_normal((4, 2, 2)).astype(complex), gaussian_space(4, 8, seed=1))
except StalledIteration as exc:
    print(f"8-sample space: {exc}")
rep = lift(rng.standard_normal((2, 2, 2)).astype(complex), gaussian_space(2, 20_000, seed=1))
print(f"20000-sample space: converged with ratio {rep.ratio:.4f} (no exact guarantee)")
