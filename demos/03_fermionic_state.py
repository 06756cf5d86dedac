"""The fermionic side: anticommuting generators and a weighted product state.

The d generators are explicit 2^d x 2^d matrices, the Jordan-Wigner tensor
products of 2 x 2 blocks, each read densely with CarSystem.generator: each is
a signed partial permutation with 2^(d-1) entries of +-1.  The anticommutation
relations hold with zero floating-point error because every entry is 0 or
+-1.  A weight vector nu in [0,1]^d fixes the product
density rho = (x) diag(1-nu_i, nu_i) whose n-point values are determinants
of the diagonal two-point function.

Every closed-form identity used downstream is checked here at 1e-12.
"""

import numpy as np

from nck import (
    anticommutation_check,
    car_system,
    coefficient_functional,
    extract_coefficients,
    embed_tuple,
    fourth_moment_check,
    orthogonality_check,
    second_moment_check,
    state_eval,
    state_weight_check,
    subspace_to_weights,
    SubspaceModel,
)

rng = np.random.default_rng(21)

print("--- from a subspace to its weight spectrum ---")
z = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
q, _ = np.linalg.qr(z)
model = SubspaceModel(basis_row=q[:4].T.copy(), basis_col=q[4:].T.copy())
nu, _rot = subspace_to_weights(model)
print(f"random 3-dim subspace of an 8-dim row/column sum: nu = {np.round(nu, 5)}")

print("\n--- exact identity battery at those weights ---")
sys = car_system(nu)
for rep in (
    anticommutation_check(sys),
    second_moment_check(sys),
    state_weight_check(sys),
    orthogonality_check(sys),
):
    print(f"{rep.name:18s}: worst deviation {rep.max_deviation:.2e}")

y = rng.standard_normal((sys.d, 2, 2)) + 1j * rng.standard_normal((sys.d, 2, 2))
rep = fourth_moment_check(sys, y)
print(f"{rep.name:18s}: worst deviation {rep.max_deviation:.2e}")

print("\n--- n-point values are determinants ---")
a1, a2 = sys.generator(0), sys.generator(1)
val_trace = state_eval(sys, a2.conj().T @ a1.conj().T @ a1 @ a2)
print(f"a_2* a_1* a_1 a_2: trace {val_trace.real:.8f}, "
      f"determinant nu_1 nu_2 = {(sys.nu[0]*sys.nu[1]):.8f}")

print("\n--- the coefficient functionals read tuples off algebra elements ---")
big = embed_tuple(sys, y)
rec = extract_coefficients(sys, big)
print(f"embed then extract: max error {np.abs(rec - y).max():.2e}")
for j in range(sys.d):
    g = sys.generator(j)
    vals = [abs(coefficient_functional(sys, i, g) - (i == j)) for i in range(sys.d)]
    assert max(vals) < 1e-13
print("phi_i(a_j) = delta_ij verified on all generators")
