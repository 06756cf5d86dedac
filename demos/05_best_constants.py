"""Why the constants cannot be improved: witnesses at desk scale.

Lower constant 1/sqrt(2): a closed-form sequence sqrt(m+1)/sqrt(2m+1) of
upper bounds decreases to it, and the one-mode weighted witness attains it
exactly.  Upper constant 1: the first-column tuples push the ratio of the
expected trace norm to the dual norm arbitrarily close to 1, both for
Gaussians (expected vector length over sqrt(d), exact) and in the fermionic
algebra at weights 1/2 (a binomial sum over occupation patterns).

Random search over tuple ensembles confirms that no tested tuple leaves
the proved window.
"""

import numpy as np

from nck import (
    c2_witness_gaussian,
    car_c1_witness,
    car_c2_sequence,
    gamma_ratio,
    gaussian_c1_bound_sequence,
    random_search_ratio,
)

print("--- upper bounds sqrt(m+1)/sqrt(2m+1) decreasing to 1/sqrt(2) ---")
for m in (1, 10, 100, 1000, 10_000, 100_000):
    v = gaussian_c1_bound_sequence(m)
    print(f"m = {m:6d}: {v:.7f}   (excess over limit {v - 1/np.sqrt(2):.2e})")

print("\n--- the one-mode weighted witness attains 1/sqrt(2) exactly ---")
w = car_c1_witness()
print(f"functional norm {w.functional_norm:.8f}, weighted dual {w.dual_value:.8f}, "
      f"ratio {w.ratio:.8f} = 1/sqrt(2)")

print("\n--- Gaussian ratio toward 1: Gamma(d+1/2)/(Gamma(d) sqrt(d)), exact ---")
for d in (1, 4, 16, 64, 256):
    print(f"d={d:3d}: {c2_witness_gaussian(d):.12f}   (expected length {gamma_ratio(d):.6f})")

print("\n--- fermionic ratio toward 1: matrix trace vs binomial sum ---")
print("  d   matrix          binomial        (sequence increases to 1)")
for d in range(1, 11):
    matrix_value, binomial_value = car_c2_sequence(d)
    print(f"{d:3d}   {matrix_value:.12f}  {binomial_value:.12f}")

print("\n--- seeded random search: every ratio respects the sandwich ---")
for family, d in (("rademacher", 3), ("steinhauss", 3), ("lacunary", 3)):
    rep = random_search_ratio(family, n=2, d=d, trials=40, seed=9)
    c1, c2 = rep.theoretical
    print(
        f"{family:10s}: ratios in [{rep.lower_witness:.4f}, {rep.upper_witness:.4f}]"
        f" within the proved [{c1:.4f}, {c2:.4f}]"
    )
