"""numpy is the only dependency: no path of ``nck`` loads scipy.

``import nck``, the probability-space lifts, the norms, the dual solver,
the fermionic lift and the whole CAR identity suite run without it:
building a system by :func:`nck.car_system` or by hand from dense
matrices, reading a generator back densely, embedding a tuple, reading
coefficients back, the coefficient functionals, the anticommutation,
second-moment, state-weight, orthogonality and fourth-moment checks,
``nck verify --suite all``, the ``car-c1`` witness and the ``car-c2``
table.  The check runs in a fresh interpreter, since the test process
itself may have loaded scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import nck

SRC = Path(nck.__file__).resolve().parent.parent

SCIPY_FREE_PATHS = """
import contextlib, io, sys

import numpy as np

import nck
from nck.cli import main

loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert loaded == [], f"import nck loaded {loaded}"

rng = np.random.default_rng(0)
x = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
nu = np.array([0.3, 0.6])
assert nck.dual_norm(x).converged
assert nck.dual_norm(x, nu=nu).converged
for space in (nck.rademacher_space(2), nck.steinhauss_space(2), nck.lacunary_space(2)):
    assert nck.lift(x, space).converged
    nck.l1_s1_norm(x, space)
    assert nck.moment_identity_check(x, space).passed
nck.gamma_ratio(3)

path = sys.argv[1]
nck.save_tuple_file(path, x, nu=nu)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["norm", "--file", path]) == 0
    assert main(["lift", "--file", path, "--family", "lacunary"]) == 0
    assert main(["lift", "--file", path, "--family", "car"]) == 0

system = nck.car_system(nu)
element = nck.embed_tuple(system, x)
assert np.allclose(nck.extract_coefficients(system, element), x)
rep = nck.lift(x, nck.car_system(nu))
assert rep.converged
nck.extract_coefficients(system, rep.lifted)
assert nck.fourth_moment_check(system, x).passed
assert nck.state_weight_check(system).passed
assert nck.anticommutation_check(system).passed
assert nck.second_moment_check(system).passed
assert nck.orthogonality_check(system).passed
assert abs(nck.coefficient_functional(system, 0, np.eye(system.dim))) < 1e-13
assert nck.car_c2_sequence(4)[0] is not None
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--suite", "all", "--d", "3"]) == 0
    assert main(["constants", "--experiment", "car-c1"]) == 0

generators = [system.generator(i) for i in range(system.d)]
hand_built = nck.CarSystem(nu, generators)
assert hand_built.is_jordan_wigner
for check in (nck.anticommutation_check, nck.second_moment_check,
              nck.state_weight_check, nck.orthogonality_check):
    assert check(hand_built).passed
assert nck.fourth_moment_check(hand_built, x).passed
assert nck.lift(x, hand_built).converged

loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert loaded == [], f"the scipy-free paths loaded {loaded}"
print("ok")
"""


def test_no_path_loads_scipy(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_PATHS, str(tmp_path / "x.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
