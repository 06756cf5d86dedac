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
import sys

import numpy as np

from . import caps
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
from .spaces import FAMILIES, build, gamma_ratio, moment_identity_check
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
#: the optional flags of ``nck constants`` that each experiment reads (search
#: reads them all); a flag given to an experiment that does not read it is a
#: usage error
CONSTANTS_FLAGS = {
    "gauss-c2": ("d", "samples"),
    "car-c2": ("d",),
    "car-c1": (),
    "search": ("family", "d", "n", "trials", "samples"),
}


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


def _or_default(value, default):
    return default if value is None else value


def _reject_unread(args, unread, where: str) -> None:
    """A :class:`ParseError` naming the first flag in ``unread`` that was given."""
    for flag in unread:
        if getattr(args, flag) is not None:
            raise ParseError(f"--{flag} is not read by {where}")


def _emit(report, args) -> None:
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_norm(args) -> int:
    x, nu, _meta = load_tuple_file(args.file)
    report = {"seed": args.seed, "triple": triple_norm(x)}
    if nu is not None:
        report["weighted_triple"] = weighted_triple_norm(x, nu)
    if args.weighted:
        if nu is None:
            raise ParseError(f"{args.file}: --weighted requires a 'nu' field")
        res = dual_norm(x, nu=nu)
    else:
        res = dual_norm(x)
    report.update(
        dual=res.value,
        gap=res.gap,
        iterations=res.iterations,
        converged=res.converged,
    )
    _emit(report, args)
    return 0 if res.converged else 1


def _lift_setting(family: str, x, nu, args):
    if family != "car":
        return build(family, x.shape[0], samples=args.samples, seed=args.seed)
    if nu is None:
        raise ParseError(f"{args.file}: lifting family 'car' requires a 'nu' field")
    return car_system(nu)


def _cmd_lift(args) -> int:
    if args.family != "gaussian":
        # only the sampled space reads a sample count
        _reject_unread(args, ("samples",), f"--family {args.family}")
    args.samples = _or_default(args.samples, DEFAULT_SAMPLES)
    x, nu, _meta = load_tuple_file(args.file)
    setting = _lift_setting(args.family, x, nu, args)
    bound = FAMILIES[args.family][0]
    report = {
        "seed": args.seed,
        "family": args.family,
        "bound": bound,
    }
    if args.family == "gaussian":
        report["samples"] = args.samples
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


def _report_rows(check_report, suite: str):
    return [
        {
            "suite": suite,
            "identity": f"{check_report.name}/{tag}",
            "deviation": float(dev),
            "tolerance": check_report.tolerance,
            "pass": bool(dev <= check_report.tolerance),
        }
        for tag, dev in sorted(check_report.deviations.items())
    ]


def _collect(fn, suite: str, rows: list) -> bool:
    try:
        rep = fn()
    except IdentityViolation as exc:
        rep = exc.report
    rows.extend(_report_rows(rep, suite))
    return rep.passed


def run_verify_suite(suite: str, d: int, nu=None, seed: int = 0):
    """Run the exact identity suites; returns ``(rows, all_passed)``."""
    rng = np.random.default_rng(seed)
    if nu is None:
        nu = rng.uniform(0.05, 0.95, d)
    else:
        d = len(nu)
    rows: list = []
    ok = True

    if suite in ("car-identities", "orthogonality", "all"):
        sys_car = car_system(nu)

    if suite in ("car-identities", "all"):
        y = rng.standard_normal((d, 2, 2)) + 1j * rng.standard_normal((d, 2, 2))
        ok &= _collect(lambda: anticommutation_check(sys_car), "car-identities", rows)
        ok &= _collect(lambda: second_moment_check(sys_car), "car-identities", rows)
        ok &= _collect(lambda: state_weight_check(sys_car), "car-identities", rows)
        ok &= _collect(lambda: fourth_moment_check(sys_car, y), "car-identities", rows)
    if suite in ("orthogonality", "all"):
        ok &= _collect(lambda: orthogonality_check(sys_car), "orthogonality", rows)
    if suite in ("moments", "all"):
        for _k, kind, exact in FAMILIES.values():
            if kind is None or not exact:
                continue
            dk = min(d, 6)
            space = build(kind, dk)
            y = rng.standard_normal((dk, 2, 2)) + 1j * rng.standard_normal((dk, 2, 2))
            ok &= _collect(
                lambda s=space, yy=y: moment_identity_check(yy, s),
                f"moments-{kind}",
                rows,
            )
    return rows, bool(ok)


def _cmd_verify(args) -> int:
    nu = _parse_nu(args.nu)
    if nu is None and args.d < 1:
        raise ParseError(f"--d must be >= 1, got {args.d}")
    d = args.d if nu is None else len(nu)
    if args.suite in ("car-identities", "orthogonality", "all") and d > caps.car_dim_cap():
        raise DTooLarge(f"d={d} exceeds the fermionic cap {caps.car_dim_cap()}")
    rows, ok = run_verify_suite(args.suite, d, nu, args.seed)
    if args.format == "csv":
        _emit(rows, args)
    else:
        _emit(
            {
                "seed": args.seed,
                "suite": args.suite,
                "d": d,
                "nu": None if nu is None else [float(v) for v in nu],
                "identities": rows,
                "pass": ok,
            },
            args,
        )
    return 0 if ok else 1


def _cmd_constants(args) -> int:
    read = CONSTANTS_FLAGS[args.experiment]
    unread = [f for f in CONSTANTS_FLAGS["search"] if f not in read]
    _reject_unread(args, unread, f"--experiment {args.experiment}")
    samples = _or_default(args.samples, DEFAULT_SAMPLES)
    if args.d is not None and args.d < 1:
        raise ParseError(f"--d must be >= 1, got {args.d}")
    rows = []
    ok = True
    if args.experiment == "gauss-c2":
        d_max = 16 if args.d is None else args.d
        for d in range(1, d_max + 1):
            value, stderr = c2_witness_gaussian(d, samples=samples, seed=args.seed)
            target = gamma_ratio(d) / np.sqrt(d)
            row_ok = abs(value - target) <= 3.0 * stderr + 1e-12
            ok &= row_ok
            rows.append(
                {
                    "experiment": "gauss-c2",
                    "d": d,
                    "value": value,
                    "stderr": stderr,
                    "target": float(target),
                    "pass": bool(row_ok),
                }
            )
        # the bound decreases strictly toward the proved lower constant 1 / K
        target = 1.0 / FAMILIES["gaussian"][0]
        prev = np.inf
        for m in (1, 10, 100, 1000, 10_000, 100_000):
            value = gaussian_c1_bound_sequence(m)
            row_ok = target < value < prev
            ok &= row_ok
            rows.append(
                {
                    "experiment": "gauss-c1-bound",
                    "m": m,
                    "value": value,
                    "target": target,
                    "pass": bool(row_ok),
                }
            )
            prev = value
    elif args.experiment == "car-c2":
        d_max = 10 if args.d is None else args.d
        # checked before any row: the rows below the limit build CAR systems
        if d_max > CAR_C2_MAX_D:
            raise DTooLarge(f"need 1 <= d <= {CAR_C2_MAX_D}, got {d_max}")
        prev = 0.0
        for d in range(1, d_max + 1):
            matrix_value, binomial_value = car_c2_sequence(d)
            agree = matrix_value is None or abs(matrix_value - binomial_value) <= 1e-10
            increasing = binomial_value > prev
            ok &= bool(agree and increasing)
            rows.append(
                {
                    "experiment": "car-c2",
                    "d": d,
                    "matrix": matrix_value,
                    "binomial": binomial_value,
                    "target": 1.0,
                    "pass": bool(agree and increasing),
                }
            )
            prev = binomial_value
    elif args.experiment == "car-c1":
        try:
            witness = car_c1_witness()
            row_ok = True
        except IdentityViolation:
            witness = None
            row_ok = False
        ok &= row_ok
        rows.append(
            {
                "experiment": "car-c1",
                "functional_norm": None if witness is None else witness.functional_norm,
                "dual": None if witness is None else witness.dual_value,
                "ratio": None if witness is None else witness.ratio,
                "target": float(1.0 / np.sqrt(2.0)),
                "pass": row_ok,
            }
        )
    elif args.experiment == "search":
        family = args.family or "rademacher"
        try:
            rep = random_search_ratio(
                family,
                n=_or_default(args.n, 2),
                d=_or_default(args.d, 3),
                trials=_or_default(args.trials, 50),
                seed=args.seed,
                samples=samples,
            )
            row = {
                "experiment": "search",
                "family": rep.family,
                "trials": rep.trials,
                "min_ratio": rep.lower_witness,
                "max_ratio": rep.upper_witness,
                "c1": rep.theoretical[0],
                "c2": rep.theoretical[1],
                "pass": True,
            }
        except IdentityViolation as exc:
            row = {
                "experiment": "search",
                "family": family,
                "error": str(exc),
                "pass": False,
            }
            ok = False
        rows.append(row)

    report = {"seed": args.seed, "experiment": args.experiment, "rows": rows, "pass": bool(ok)}
    _emit(rows if args.format == "csv" else report, args)
    return 0 if ok else 1


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
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=("car-identities", "moments", "orthogonality", "all"),
    )
    p_verify.add_argument("--d", type=int, default=3)
    p_verify.add_argument("--nu", default=None, help="comma-separated weights in [0, 1]")
    common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_const = sub.add_parser("constants", help="best-constant tables")
    p_const.add_argument(
        "--experiment",
        required=True,
        choices=tuple(CONSTANTS_FLAGS),
    )
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
        return args.fn(args)
    except USAGE_ERRORS as exc:
        print(f"nck: error: {exc}", file=sys.stderr)
        return 2
    except NckError as exc:
        print(f"nck: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
