"""Benchmark of the nck library: certified dual solves, lifts and identity suites.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dual-certify --seed 0 --seconds 15 --trace 0

Each instance is one caller's closed loop: it starts when the previous one
has finished and been checked.  BLAS and OpenMP are pinned to one thread
before numpy loads.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and build.

``--trace 0`` warms up, then replays one seeded list of instances in
forked passes, one after the other, and reports the end-to-end metrics
from each instance's fastest pass, scaled to a reference speed.
``--trace 1`` runs a fixed number of instances twice in this process,
first with every layer wrapped and then plain, reports the per-layer
metrics and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: the fewest passes over the instance list an end-to-end run makes
MIN_PASSES = 2
#: fresh processes an end-to-end run starts to time set-up
SETUP_SAMPLES = 5
#: later passes replay the instances within this factor of the first pass's p90
TAIL_FACTOR = 2.0
#: timings of the reference task taken before each instance
REFERENCE_PROBES = 5
#: the reference task's median time the reported times are scaled to; it
#: sets the scale only
REFERENCE_S = 2.0e-4

_REFERENCE_MATRIX = np.arange(36.0).reshape(6, 6) + 1j * np.eye(6)


def _load_library():
    """Import nck from this checkout's ``src``; exit non-zero when it is not there."""
    if not (SRC / "nck" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nck

    if Path(nck.__file__).resolve().parent != SRC / "nck":
        sys.exit(f"perfbench: imported nck from {nck.__file__}, not from {SRC}")


def _git_commit():
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nck").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_info(workload: str, seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "nck_source_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
    }


def _rng(seed: int, stream: int, index: int):
    return np.random.default_rng((seed, stream, index))


WARMUP_STREAM, MEASURE_STREAM = 0, 1


def run_instance(wl, seed: int, index: int, stream: int = MEASURE_STREAM, rec=None):
    """Run and check one instance; returns ``(seconds, ok)``.

    A raised ``NckError`` or a failed check marks the instance failed; it
    is still timed and counted.  With a recorder, spans are recorded during
    the library calls only, not while inputs are made or results checked.
    """
    from nck.exceptions import NckError

    inputs = wl.make(_rng(seed, stream, index), index)
    if rec is not None:
        rec.instance = index
        rec.active = True
    start = time.perf_counter()
    try:
        result = wl.run(inputs)
    except NckError:
        return time.perf_counter() - start, False
    finally:
        if rec is not None:
            rec.active = False
    seconds = time.perf_counter() - start
    try:
        ok = wl.check(inputs, result)
    except NckError:
        ok = False
    return seconds, ok


def warm_up(wl, seed: int):
    for i in range(wl.warmup):
        run_instance(wl, seed, i, WARMUP_STREAM)


def setup_probe(wl, seed: int):
    """A fresh process's set-up: warm up, then say so on standard output."""
    warm_up(wl, seed)
    print("ready", flush=True)


def time_setup(workload: str, seed: int) -> float:
    """Start one fresh process that imports the library and warms up; its set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
    return setup_s


def reference_s() -> float:
    """Time the reference task: twelve SVDs of a 6 x 6 complex matrix.

    It is small LAPACK calls and Python overhead, as the workloads are, and
    it calls nothing in ``nck``, so a change to the library leaves it alone.
    """
    start = time.perf_counter()
    for _ in range(12):
        np.linalg.svd(_REFERENCE_MATRIX)
    return time.perf_counter() - start


def _pass(wl, seed: int, indices) -> dict:
    latencies, failed, reference = [], 0, []
    for i in indices:
        reference.extend(reference_s() for _ in range(REFERENCE_PROBES))
        lat, ok = run_instance(wl, seed, i)
        latencies.append(lat)
        failed += not ok
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"latencies": latencies, "failed": failed, "peak_rss_mb": peak_rss_mb,
            "reference": reference}


def forked_pass(wl, seed: int, indices) -> dict:
    """Run the instances ``indices``, in order, in a forked child and wait for it.

    The child starts from this process's warmed-up state, so every pass
    meets the same library caches, and its own calls leave this process
    untouched.  Forking is safe here: BLAS is pinned to one thread and the
    benchmark starts none, so this process has no other thread.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as out:
                out.write(json.dumps(_pass(wl, seed, indices)))
        except BaseException:
            # the child must leave through os._exit, never back into the caller
            traceback.print_exc()
            sys.stderr.flush()
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        sys.exit(f"perfbench: pass failed with exit code {code}")
    return json.loads(data)


def body_throughput(latencies) -> float:
    """Instances per busy second over the instances at or below the p90 latency.

    A few slow-tail solves would otherwise set the figure: at one seed they
    can take more time than all other instances of the run together.  Where
    the slowest tenth starts shows in ``latency_p90_s``, and its size in the
    per-layer counts.
    """
    body = latencies[latencies <= np.percentile(latencies, 90)]
    return len(body) / float(body.sum())


def end_to_end(wl, seed: int, seconds: float, info: dict, count: int | None = None):
    """Replay one instance list in forked passes; metrics from each instance's fastest.

    The list holds ``count`` instances, by default ``wl.instances``.
    ``SETUP_SAMPLES`` fresh processes, started between the passes, give the
    median set-up time.  Passes and set-ups run one after the other until
    the next pass would end more than ``seconds`` after the first set-up
    began, with at least ``MIN_PASSES`` passes.  A burst of host contention
    rarely slows one instance in every pass, so its minimum over the passes
    is far steadier than any one pass.

    The first pass runs the whole list.  Later passes replay only the
    instances that took at most ``TAIL_FACTOR`` times the first pass's p90
    latency.  The others lie above p90 in any pass, and no metric reads the
    latencies above p90, only how many there are; on ``dual-certify`` they
    are a few slow-tail solves that can take seconds each.

    Times are reported at the reference speed: each is scaled by
    ``REFERENCE_S`` over the median time of the reference task, timed
    before every instance of every pass.  Other tenants of the host this
    was built on slow its cores by up to 1.8 times for minutes on end; the
    reference task slows with the workloads, and the scaled times move far
    less than the measured ones, which the machine record keeps as
    ``unscaled``.
    """
    count = wl.instances if count is None else count
    warm_up(wl, seed)
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(wl.name, seed))
        pass_start = time.perf_counter()
        if not passes:
            passes.append(forked_pass(wl, seed, range(count)))
            latencies = np.array(passes[0]["latencies"])
            replay = np.flatnonzero(latencies <= TAIL_FACTOR * np.percentile(latencies, 90))
        else:
            passes.append(forked_pass(wl, seed, replay.tolist()))
            latencies[replay] = np.minimum(latencies[replay], passes[-1]["latencies"])
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and 2 * now - pass_start - start > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(wl.name, seed))
    measured = {
        "setup_s": statistics.median(setups),
        "instances_per_s": body_throughput(latencies),
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p90_s": float(np.percentile(latencies, 90)),
    }
    reference = statistics.median(r for p in passes for r in p["reference"])
    scale = REFERENCE_S / reference
    metrics = {
        "setup_s": (measured["setup_s"] * scale, "s"),
        "instances_per_s": (measured["instances_per_s"] / scale, "1/s"),
        "latency_p50_s": (measured["latency_p50_s"] * scale, "s"),
        "latency_p90_s": (measured["latency_p90_s"] * scale, "s"),
        "peak_rss_mb": (passes[0]["peak_rss_mb"], "MB"),
    }
    info["passes"], info["instances_per_pass"], info["instances_replayed"] = len(passes), count, len(replay)
    info["reference_median_s"], info["unscaled"] = reference, measured
    attempted = count + (len(passes) - 1) * len(replay)
    return attempted, sum(p["failed"] for p in passes), metrics


#: units of the per-layer metrics, by name suffix
_LAYER_UNITS = {".s": "s", ".self_s": "s", ".us_per_iteration": "us"}


def layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "fraction" if name.startswith("trace.") else "count"


def traced(wl, seed: int, instances: int, info: dict):
    """Run ``instances`` instances traced, then plain; per-layer metrics.

    The traced pass runs first so that it meets the library's caches as an
    end-to-end pass does; the plain pass gives the instance time the
    tracing overhead is measured against.
    """
    import layers

    warm_up(wl, seed)
    failed = 0
    rec = layers.Recorder()
    replaced = layers.install(rec)
    traced_s = 0.0
    try:
        for i in range(instances):
            lat, ok = run_instance(wl, seed, i, rec=rec)
            traced_s += lat
            failed += not ok
    finally:
        layers.uninstall(replaced)

    plain_s = 0.0
    for i in range(instances):
        lat, ok = run_instance(wl, seed, i)
        plain_s += lat
        failed += not ok

    summary = rec.summary()
    summary["trace.overhead_frac"] = traced_s / plain_s - 1.0
    summary["trace.coverage_frac"] = rec.root_seconds() / traced_s
    metrics = {name: (value, layer_unit(name)) for name, value in summary.items()}
    rec.write(OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl.gz",
              {"info": info, "instances": instances, "metrics": summary})
    return 2 * instances, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None,
                        help="instances to run (default: the workload's own)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.instances is not None and args.instances < 1):
        parser.error("--seed must be >= 0, --seconds > 0 and --instances >= 1")

    _load_library()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(wl, args.seed)
        return 0

    info = machine_info(wl.name, args.seed)
    if args.trace:
        count = wl.trace_instances if args.instances is None else args.instances
        attempted, failed, metrics = traced(wl, args.seed, count, info)
    else:
        attempted, failed, metrics = end_to_end(wl, args.seed, args.seconds, info, args.instances)
    print(json.dumps({"machine": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
