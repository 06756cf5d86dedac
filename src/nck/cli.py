"""Command-line front end.

Four subcommands::

    nck norm      --file x.json [--weighted]          tuple norms and dual
    nck lift      --file x.json --family car ...      run one lift, check K
    nck verify    --suite all --d 3 [--nu ...]        exact identity suites
    nck constants --experiment car-c2 ...             constant tables

Reports are deterministic functions of the inputs and the seed (JSON with
sorted keys, or CSV).  Exit codes: 0 every asserted bound passed, 1 an
assertion failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .car import (
    anticommutation_check,
    car_system,
    fourth_moment_check,
    orthogonality_check,
    second_moment_check,
    state_weight_check,
)
from .constants import (
    CAR_C2_MAX_D,
    c2_witness_gaussian,
    car_c1_witness,
    car_c2_sequence,
    gaussian_c1_bound_sequence,
    random_search_ratio,
)
from .exceptions import (
    DegenerateWeight,
    DimensionMismatch,
    DTooLarge,
    IdentityViolation,
    InvalidParameter,
    NckError,
    NormOverflow,
    ParseError,
    SizeMismatch,
    SpaceTooLarge,
    StalledIteration,
    ZeroWitness,
)
from .lifting import lift
from .norms import as_weights, dual_norm, triple_norm, weighted_triple_norm
from .spaces import FAMILIES, build, check_value_budget, gamma_ratio, moment_identity_check
from .tupleio import load_tuple_file, render_report

USAGE_ERRORS = (
    ParseError,
    DTooLarge,
    SpaceTooLarge,
    DegenerateWeight,
    DimensionMismatch,
    SizeMismatch,
    ZeroWitness,
    InvalidParameter,
    NormOverflow,
)

BOUND_SLACK = 1e-6
#: Monte Carlo sample count when ``--samples`` is not given
DEFAULT_SAMPLES = 100_000


def _parse_nu(raw: str | None):
    """The ``--nu`` weights, through :func:`nck.norms.as_weights`; ``None`` when absent."""
    if raw is None:
        return None
    try:
        nu = np.array([float(v) for v in raw.split(",") if v.strip() != ""])
    except ValueError:
        raise ParseError(f"--nu must be a comma-separated list of numbers, got {raw!r}")
    if nu.size < 1:
        raise ParseError(f"--nu must list at least one weight, got {raw!r}")
    return as_weights(nu)


def _read_flags(args, read: dict, declared, where: str) -> None:
    """Fill in the defaults of ``read``, ``{flag: default}``; other ``declared`` flags are usage errors."""
    for flags in declared:
        for flag in flags:
            if flag not in read and getattr(args, flag) is not None:
                raise ParseError(f"--{flag} is not read by {where}")
    for flag, default in read.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)


def _check_out(path: str) -> None:
    """Raise :class:`ParseError` unless ``--out`` can be written, without creating it."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(parent):
        reason = "No such file or directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "Permission denied"
    else:
        return
    raise ParseError(f"cannot write --out {path}: {reason}")


def _emit(report, args) -> None:
    text = render_report(report, args.format)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write --out {args.out}: {exc.strerror}")


def _emit_rows(rows: list, report: dict, args) -> int:
    """Emit ``rows`` (CSV) or ``report`` with its verdict (JSON); 0 when every row passed."""
    passed = all(row["pass"] for row in rows)
    _emit(rows if args.format == "csv" else {**report, "pass": passed}, args)
    return 0 if passed else 1


def _cmd_norm(args) -> int:
    x, nu, _meta = load_tuple_file(args.file)
    report = {"seed": args.seed, "triple": triple_norm(x)}
    if nu is not None:
        report["weighted_triple"] = weighted_triple_norm(x, nu)
    if args.weighted and nu is None:
        raise ParseError(f"{args.file}: --weighted requires a 'nu' field")
    res = dual_norm(x, nu=nu if args.weighted else None)
    report.update(
        dual=res.value,
        gap=res.gap,
        iterations=res.iterations,
        converged=res.converged,
    )
    _emit(report, args)
    return 0 if res.converged else 1


#: per lift family: the optional flags it reads, with their defaults (others read none)
LIFT_FLAGS = {"gaussian": {"samples": DEFAULT_SAMPLES}}


def _cmd_lift(args) -> int:
    read = LIFT_FLAGS.get(args.family, {})
    _read_flags(args, read, LIFT_FLAGS.values(), f"--family {args.family}")
    x, nu, _meta = load_tuple_file(args.file)
    if args.family != "car":
        setting = build(args.family, x.shape[0], samples=args.samples, seed=args.seed)
    elif nu is None:
        raise ParseError(f"{args.file}: lifting family 'car' requires a 'nu' field")
    else:
        setting = car_system(nu)
    bound = FAMILIES[args.family][0]
    report = {
        "seed": args.seed,
        "family": args.family,
        "bound": bound,
    }
    report.update((flag, getattr(args, flag)) for flag in read)
    try:
        out = lift(x, setting)
    except StalledIteration as exc:
        report.update(error="stalled-iteration", step=exc.step, message=str(exc))
        _emit(report, args)
        return 1
    passed = bool(out.converged and out.ratio <= bound * (1.0 + BOUND_SLACK))
    report.update(
        ratio=out.ratio,
        achieved_norm=out.achieved_norm,
        target_norm=out.target_norm,
        iterations=out.iterations,
        converged=out.converged,
        residual_history=list(map(float, out.residual_history)),
        passed=passed,
    )
    _emit(report, args)
    return 0 if passed else 1


def _car_identity_checks(system, rng, d):
    car = system()
    y = rng.standard_normal((d, 2, 2)) + 1j * rng.standard_normal((d, 2, 2))
    for check in (anticommutation_check, second_moment_check, state_weight_check):
        yield "car-identities", d, check, car
    yield "car-identities", d, fourth_moment_check, car, y


def _orthogonality_checks(system, rng, d):
    yield "orthogonality", d, orthogonality_check, system()


def _moment_checks(system, rng, d):
    dk = min(d, 6)
    for _k, kind, exact in FAMILIES.values():
        if kind is not None and exact:
            space = build(kind, dk)
            y = rng.standard_normal((dk, 2, 2)) + 1j * rng.standard_normal((dk, 2, 2))
            yield f"moments-{kind}", dk, moment_identity_check, y, space


#: the checks of each suite of ``nck verify``, in the order they run; each
#: yields ``(label, d, check, *inputs)``, ``d`` the dimension the check runs
#: at, drawing the inputs from ``rng`` in turn, and ``system()`` is the run's
#: one fermionic system
VERIFY = {
    "car-identities": (_car_identity_checks,),
    "moments": (_moment_checks,),
    "orthogonality": (_orthogonality_checks,),
}
VERIFY["all"] = VERIFY["car-identities"] + VERIFY["orthogonality"] + VERIFY["moments"]


def run_verify_suite(suite: str, d: int, nu=None, seed: int = 0) -> list:
    """The rows of the exact identity suites; ``nu``, when given, has ``d`` weights.

    Each row carries the ``d`` its check ran at: the moment suite runs at
    ``min(d, 6)``.
    """
    rng = np.random.default_rng(seed)
    if nu is None:
        nu = rng.uniform(0.05, 0.95, d)
    system = functools.cache(lambda: car_system(nu))
    rows = []
    for checks in VERIFY[suite]:
        for label, run_d, check, *inputs in checks(system, rng, d):
            try:
                report = check(*inputs)
            except IdentityViolation as exc:
                report = exc.report
            rows += [
                {
                    "suite": label,
                    "d": run_d,
                    "identity": f"{report.name}/{tag}",
                    "deviation": float(dev),
                    "tolerance": report.tolerance,
                    "pass": bool(dev <= report.tolerance),
                }
                for tag, dev in sorted(report.deviations.items())
            ]
    return rows


def _cmd_verify(args) -> int:
    nu = _parse_nu(args.nu)
    if nu is None and args.d < 1:
        raise ParseError(f"--d must be >= 1, got {args.d}")
    d = args.d if nu is None else len(nu)
    rows = run_verify_suite(args.suite, d, nu, args.seed)
    report = {
        "seed": args.seed,
        "suite": args.suite,
        "d": d,
        "nu": None if nu is None else [float(v) for v in nu],
        "identities": rows,
    }
    return _emit_rows(rows, report, args)


def _gauss_c2_rows(args):
    # checked before any row, like car-c2's limit: every row draws a space
    check_value_budget(args.samples, "samples", args.d)
    for d in range(1, args.d + 1):
        value, stderr = c2_witness_gaussian(d, samples=args.samples, seed=args.seed)
        target = gamma_ratio(d) / np.sqrt(d)
        yield {
            "experiment": "gauss-c2",
            "d": d,
            "value": value,
            "stderr": stderr,
            "target": float(target),
            "pass": bool(abs(value - target) <= 3.0 * stderr + 1e-12),
        }
    # the bound decreases strictly toward the proved lower constant 1 / K
    target = 1.0 / FAMILIES["gaussian"][0]
    prev = np.inf
    for m in (1, 10, 100, 1000, 10_000, 100_000):
        value = gaussian_c1_bound_sequence(m)
        yield {
            "experiment": "gauss-c1-bound",
            "m": m,
            "value": value,
            "target": target,
            "pass": bool(target < value < prev),
        }
        prev = value


def _car_c2_rows(args):
    # checked before any row: the rows below the limit build CAR systems
    if args.d > CAR_C2_MAX_D:
        raise DTooLarge(f"need 1 <= d <= {CAR_C2_MAX_D}, got {args.d}")
    prev = 0.0
    for d in range(1, args.d + 1):
        matrix_value, binomial_value = car_c2_sequence(d)
        agree = matrix_value is None or abs(matrix_value - binomial_value) <= 1e-10
        yield {
            "experiment": "car-c2",
            "d": d,
            "matrix": matrix_value,
            "binomial": binomial_value,
            "target": 1.0,
            "pass": bool(agree and binomial_value > prev),
        }
        prev = binomial_value


def _car_c1_rows(args):
    try:
        witness = car_c1_witness()
    except IdentityViolation:
        witness = None
    yield {
        "experiment": "car-c1",
        "functional_norm": None if witness is None else witness.functional_norm,
        "dual": None if witness is None else witness.dual_value,
        "ratio": None if witness is None else witness.ratio,
        "target": float(1.0 / np.sqrt(2.0)),
        "pass": witness is not None,
    }


def _search_rows(args):
    try:
        rep = random_search_ratio(
            args.family, n=args.n, d=args.d, trials=args.trials, seed=args.seed, samples=args.samples
        )
    except IdentityViolation as exc:
        yield {"experiment": "search", "family": args.family, "error": str(exc), "pass": False}
        return
    yield {
        "experiment": "search",
        "family": rep.family,
        "trials": rep.trials,
        "min_ratio": rep.lower_witness,
        "max_ratio": rep.upper_witness,
        "c1": rep.theoretical[0],
        "c2": rep.theoretical[1],
        "pass": True,
    }


#: per experiment of ``nck constants``: its rows and the optional flags it
#: reads, with their defaults; a flag that only other experiments read is a
#: usage error
CONSTANTS = {
    "gauss-c2": (_gauss_c2_rows, {"d": 16, "samples": DEFAULT_SAMPLES}),
    "car-c2": (_car_c2_rows, {"d": 10}),
    "car-c1": (_car_c1_rows, {}),
    "search": (
        _search_rows,
        {"family": "rademacher", "d": 3, "n": 2, "trials": 50, "samples": DEFAULT_SAMPLES},
    ),
}


def _cmd_constants(args) -> int:
    rows_of, read = CONSTANTS[args.experiment]
    declared = (flags for _rows_of, flags in CONSTANTS.values())
    _read_flags(args, read, declared, f"--experiment {args.experiment}")
    if args.d is not None and args.d < 1:
        raise ParseError(f"--d must be >= 1, got {args.d}")
    rows = list(rows_of(args))
    report = {"seed": args.seed, "experiment": args.experiment, "rows": rows}
    return _emit_rows(rows, report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nck",
        description="Matrix-tuple norms, exact identity suites and lifting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_norm = sub.add_parser("norm", help="tuple norms and the dual norm with certificate")
    p_norm.add_argument("--file", required=True)
    p_norm.add_argument("--weighted", action="store_true", help="weighted dual (needs 'nu')")
    common(p_norm)
    p_norm.set_defaults(fn=_cmd_norm)

    p_lift = sub.add_parser("lift", help="lift a tuple and check the norm bound")
    p_lift.add_argument("--file", required=True)
    p_lift.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p_lift.add_argument("--samples", type=int, default=None,
                        help=f"Monte Carlo sample count, gaussian only (default {DEFAULT_SAMPLES})")
    common(p_lift)
    p_lift.set_defaults(fn=_cmd_lift)

    p_verify = sub.add_parser("verify", help="exact identity suites")
    p_verify.add_argument("--suite", default="all", choices=tuple(VERIFY))
    p_verify.add_argument("--d", type=int, default=3)
    p_verify.add_argument("--nu", default=None, help="comma-separated weights in [0, 1]")
    common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_const = sub.add_parser("constants", help="best-constant tables")
    p_const.add_argument("--experiment", required=True, choices=tuple(CONSTANTS))
    p_const.add_argument("--d", type=int, default=None, help="largest d (not for car-c1)")
    p_const.add_argument("--n", type=int, default=None, help="matrix size for search (default 2)")
    p_const.add_argument("--trials", type=int, default=None, help="search trial count (default 50)")
    space_families = [f for f, row in FAMILIES.items() if row[1] is not None]
    p_const.add_argument("--family", default=None, choices=space_families,
                         help="search family (default rademacher)")
    p_const.add_argument("--samples", type=int, default=None,
                         help=f"Monte Carlo sample count for gauss-c2 and search (default {DEFAULT_SAMPLES})")
    common(p_const)
    p_const.set_defaults(fn=_cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except USAGE_ERRORS as exc:
        print(f"nck: error: {exc}", file=sys.stderr)
        return 2
    except NckError as exc:
        print(f"nck: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
