"""scipy stays off the import path of everything but the fermionic setting.

``import nck`` needs only numpy.  ``scipy.sparse`` is loaded by the first
function of :mod:`nck.car` that builds or reads a sparse matrix, and
``scipy.special`` by nothing.  The check runs in a fresh interpreter, since
the test process itself has loaded scipy long before.
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

for name in ("scipy.sparse", "scipy.special"):
    assert name not in sys.modules, f"{name} was loaded"

assert nck.anticommutation_check(nck.car_system([0.3, 0.6])).passed
assert "scipy.sparse" in sys.modules
print("ok")
"""


def test_only_the_fermionic_setting_loads_scipy(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_PATHS, str(tmp_path / "x.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
