"""Tests of the benchmark itself: layer predictions, exact counts, wrapper hygiene.

A rename in the library must fail here rather than silently zero a
per-layer metric.  Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402

#: the layers each workload is predicted to call; every other library layer
#: is predicted to record 0 calls there (LAPACK use is an implementation
#: detail and is not predicted)
USES = {
    "dual-certify": {"norms.dual_norm", "norms.primal_norm"},
    "car-lift": {
        "linalg.truncate_offdiag", "norms.primal_norm", "car.car_system",
        "car.embed_tuple", "car.extract_coefficients", "lifting.lift",
    },
    "sign-lift": {
        "linalg.truncate_offdiag", "norms.primal_norm", "spaces.build",
        "spaces.element_from_tuple", "spaces.conditional_expectation",
        "spaces.sup_norm", "lifting.lift",
    },
    "identities": {
        "car.car_system", "car.embed_tuple", "car.anticommutation_check",
        "car.second_moment_check", "car.state_weight_check",
        "car.orthogonality_check", "car.fourth_moment_check", "spaces.build",
        "spaces.element_from_tuple", "spaces.moment_identity_check",
    },
}
#: the fewest instances that reach every predicted layer
SHRUNK = {"dual-certify": 4, "car-lift": 2, "sign-lift": 3, "identities": 3}
LIBRARY_LAYERS = [name for name in layers.LAYERS if not name.startswith("lapack.")]


def _traced_run(workload, seed=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1", "--instances", str(SHRUNK[workload])]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(USES))
def test_layers_called_where_predicted_and_counts_repeat(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = first["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}

    for layer in LIBRARY_LAYERS:
        calls = metrics[f"{layer}.calls"]["value"]
        if layer in USES[workload]:
            assert calls > 0, f"{layer} recorded no calls on {workload}"
        else:
            assert calls == 0, f"{layer} recorded {calls} calls on {workload}"

    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}


def test_end_to_end_run_replays_the_same_instances_in_every_pass():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "car-lift", "--seed", "1",
           "--seconds", "1", "--trace", "0", "--instances", "5"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    machine, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    passes = machine["machine"]["passes"]
    # a list of one cycle has no instance beyond twice its p90, so every pass runs all five
    assert machine["machine"]["instances_per_pass"] == machine["machine"]["instances_replayed"] == 5
    assert result["correct"] and result["attempted"] == 5 * passes and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checks_reject_results_that_only_look_consistent():
    import dataclasses

    import numpy as np

    import workloads

    dual = workloads.WORKLOADS["dual-certify"]
    # a weighted (d, n) = (4, 4) instance, whose solve ends with a nonzero gap
    inputs = dual.make(np.random.default_rng(0), 15)
    res = dual.run(inputs)
    assert dual.check(inputs, res) and res.gap > 0
    # stopped early and reported value = certificate, gap 0: y + z = x still holds
    assert not dual.check(inputs, dataclasses.replace(res, value=res.value - res.gap, gap=0.0))

    car = workloads.WORKLOADS["car-lift"]
    inputs = car.make(np.random.default_rng(0), 0)
    system, rep = car.run(inputs)
    assert car.check(inputs, (system, rep))
    # adding a multiple of the identity keeps the read-out and the reported
    # ratio, but breaks the norm bound
    padded = rep.lifted + 5.0 * np.eye(rep.lifted.shape[0])
    assert not car.check(inputs, (system, dataclasses.replace(rep, lifted=padded)))


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import numpy as np

    import nck
    import nck.constants
    import nck.lifting
    import nck.linalg
    import nck.norms

    bindings = [
        (nck.linalg, "truncate_offdiag"), (nck.lifting, "truncate_offdiag"), (nck, "truncate_offdiag"),
        (nck.lifting, "embed_tuple"), (nck.constants, "dual_norm"), (nck.norms, "dual_norm"),
        (nck.lifting, "triple_norm"), (np.linalg, "svd"),
    ]
    before = [getattr(m, a) for m, a in bindings]
    rec = layers.Recorder()
    replaced = layers.install(rec)
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(bindings, before))
        nck.lifting.truncate_offdiag(np.eye(2), 0.5)
        assert rec.spans == []
        rec.active = True
        nck.lifting.truncate_offdiag(np.eye(2), 0.5)
        rec.active = False
    finally:
        layers.uninstall(replaced)
    assert all(getattr(m, a) is f for (m, a), f in zip(bindings, before))
    names = [span[3] for span in rec.spans]
    assert names == ["lapack.eigh", "linalg.truncate_offdiag"]
    assert rec.counts["blocks"] == 1 and rec.counts["dilation_elems"] == 16


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "dual-certify", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
