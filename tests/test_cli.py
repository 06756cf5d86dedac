import argparse
import json

import numpy as np
import pytest

import nck.cli as cli
from nck.cli import main
from nck.exceptions import NonFinite, ParseError
from nck.spaces import FAMILIES
from nck.tupleio import load_tuple_file, render_report, save_tuple_file

RNG = np.random.default_rng(33)


def subcommand_actions(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def family_choices(command):
    return list(next(a for a in subcommand_actions(command) if a.dest == "family").choices)


#: the flags every subcommand takes, and ``--help``
COMMON_FLAGS = {"help", "seed", "out", "format"}
#: the optional flags each experiment of ``nck constants`` declares
CONSTANTS_FLAGS = {experiment: set(flags) for experiment, (_rows, flags) in cli.CONSTANTS.items()}
ALL_CONSTANTS_FLAGS = set().union(*CONSTANTS_FLAGS.values())


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    save_tuple_file(path, np.ones((1, 1, 1), dtype=complex), nu=[0.5])
    return str(path)


@pytest.fixture
def random_car_file(tmp_path):
    path = tmp_path / "car.json"
    x = RNG.standard_normal((3, 2, 2)) + 1j * RNG.standard_normal((3, 2, 2))
    save_tuple_file(path, x, nu=[0.2, 0.5, 0.8])
    return str(path)


class TestTupleFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        x = RNG.standard_normal((2, 3, 3)) + 1j * RNG.standard_normal((2, 3, 3))
        save_tuple_file(path, x, nu=[0.1, 0.9], metadata={"label": "demo"})
        x2, nu2, meta = load_tuple_file(str(path))
        assert np.array_equal(x, x2)
        assert np.array_equal(nu2, [0.1, 0.9])
        assert meta == {"label": "demo"}

    def test_shape_error_names_offending_index(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "version": "1",
            "d": 1,
            "n": 2,
            "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"matrices\[0\]\[1\]"):
            load_tuple_file(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": "2", "d": 1, "n": 1, "matrices": []}))
        with pytest.raises(ParseError, match="version"):
            load_tuple_file(str(path))

    def test_nu_out_of_range(self, tmp_path):
        path = tmp_path / "nu.json"
        doc = {"version": "1", "d": 1, "n": 1, "matrices": [[[[1.0, 0.0]]]], "nu": [1.5]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="nu"):
            load_tuple_file(str(path))

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"d": 2.7}, "field 'd'"),
            ({"d": "1"}, "field 'd'"),
            ({"d": 0}, "field 'd'"),
            ({"n": True}, "field 'n'"),
            ({"matrices": [[[[True, False]]]]}, r"matrices\[0\]\[0\]\[0\] must be a \[re, im\] pair"),
            ({"matrices": [[[[10**400, 0]]]]}, r"matrices\[0\]\[0\]\[0\] must be finite"),
            ({"nu": [True]}, "'nu' entries must be numbers"),
        ],
        ids=["fraction-d", "string-d", "zero-d", "bool-n", "bool-entry", "huge-entry", "bool-nu"],
    )
    def test_only_json_numbers(self, tmp_path, change, field):
        path = tmp_path / "t.json"
        doc = {"version": "1", "d": 1, "n": 1, "matrices": [[[[1.0, 0.0]]]]}
        path.write_text(json.dumps({**doc, **change}))
        with pytest.raises(ParseError, match=field):
            load_tuple_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError, match="no such file"):
            load_tuple_file("/nonexistent/nope.json")

    def test_report_json_round_trip(self):
        report = {"value": 1.4142135623730951, "gap": 1.2345678901234567e-07}
        text = render_report(report, "json")
        assert json.loads(text) == report

    def test_report_csv(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": -1.0}]
        text = render_report(rows, "csv")
        assert text.splitlines()[0] == "a,b"
        assert len(text.splitlines()) == 3


class TestNormCommand:
    def test_scalar_unweighted(self, scalar_file, capsys):
        assert main(["norm", "--file", scalar_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["triple"] == pytest.approx(1.0)
        assert out["dual"] == pytest.approx(1.0, abs=1e-8)
        assert out["weighted_triple"] == pytest.approx(1 / np.sqrt(2))
        assert "seed" in out

    def test_scalar_weighted_dual(self, scalar_file, capsys):
        assert main(["norm", "--file", scalar_file, "--weighted"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dual"] == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_weighted_without_nu_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        save_tuple_file(path, np.ones((1, 1, 1), dtype=complex))
        assert main(["norm", "--file", str(path), "--weighted"]) == 2

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["norm", "--file", str(path)]) == 2

    def test_non_finite_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        doc = {"version": "1", "d": 1, "n": 1, "matrices": [[[[float("nan"), 0.0]]]]}
        path.write_text(json.dumps(doc))
        assert main(["norm", "--file", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("nu,flags", [(None, []), ([0.3, 0.5, 0.7], []),
                                          ([0.3, 0.5, 0.7], ["--weighted"])],
                             ids=["plain", "nu", "weighted"])
    def test_overflowing_norm_exit_2(self, tmp_path, nu, flags, capsys):
        # finite entries whose primal norm overflows: no norm is printed
        path = tmp_path / "huge.json"
        save_tuple_file(path, np.full((3, 1, 1), 1e160 + 0j), nu=nu)
        assert main(["norm", "--file", str(path)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nck: error:") and "overflows" in captured.err

    def test_non_finite_from_the_program_exit_1(self, scalar_file, monkeypatch, capsys):
        def failing_dual(x, nu=None):
            raise NonFinite("matrix has NaN or Inf entries")

        monkeypatch.setattr(cli, "dual_norm", failing_dual)
        assert main(["norm", "--file", scalar_file]) == 1
        assert capsys.readouterr().err.startswith("nck: check failed:")

    def test_internal_linalg_error_is_not_a_usage_error(self, scalar_file, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(np.linalg.LinAlgError):
            main(["norm", "--file", scalar_file])


class TestLiftCommand:
    def test_zero_tuple(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        save_tuple_file(path, np.zeros((2, 2, 2), dtype=complex))
        assert main(["lift", "--file", str(path), "--family", "rademacher"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ratio"] == 0.0 and out["iterations"] == 0 and out["passed"]

    def test_car_lift_passes(self, random_car_file, capsys):
        assert main(["lift", "--file", random_car_file, "--family", "car"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ratio"] <= np.sqrt(2.0) + 1e-6
        assert out["passed"] is True
        assert out["residual_history"][0] > 0.0

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_bound_is_the_table_constant(self, tmp_path, family, capsys):
        path = tmp_path / "x.json"
        save_tuple_file(path, np.zeros((2, 1, 1), dtype=complex), nu=[0.3, 0.6])
        samples = ["--samples", "100"] if family == "gaussian" else []
        assert main(["lift", "--file", str(path), "--family", family] + samples) == 0
        assert json.loads(capsys.readouterr().out)["bound"] == FAMILIES[family][0]

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "gaussian"])
    def test_samples_outside_gaussian_exit_2(self, tmp_path, family, capsys):
        path = tmp_path / "x.json"
        save_tuple_file(path, np.zeros((2, 1, 1), dtype=complex), nu=[0.3, 0.6])
        assert main(["lift", "--file", str(path), "--family", family, "--samples", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--samples is not read by --family {family}" in captured.err

    def test_every_optional_flag_is_declared(self):
        optional = {a.dest for a in subcommand_actions("lift") if a.option_strings and not a.required}
        assert optional - COMMON_FLAGS == set().union(*cli.LIFT_FLAGS.values())

    def test_gaussian_default_samples(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        save_tuple_file(path, np.zeros((1, 1, 1), dtype=complex))
        assert main(["lift", "--file", str(path), "--family", "gaussian"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == cli.DEFAULT_SAMPLES == 100_000

    def test_car_without_nu_exit_2(self, tmp_path):
        path = tmp_path / "plain.json"
        save_tuple_file(path, np.ones((2, 1, 1), dtype=complex))
        assert main(["lift", "--file", str(path), "--family", "car"]) == 2

    @pytest.mark.parametrize("family", ["car", "rademacher"])
    def test_overflowing_norm_exit_2(self, tmp_path, family, capsys):
        # finite entries whose primal norm overflows: no bound can be checked
        path = tmp_path / "huge.json"
        save_tuple_file(path, np.full((3, 1, 1), 1e160 + 0j), nu=[0.3, 0.5, 0.7])
        assert main(["lift", "--file", str(path), "--family", family]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nck: error:") and "overflows" in captured.err

    def test_non_finite_from_the_program_exit_1(self, random_car_file, monkeypatch, capsys):
        # only an input whose norm overflows is a usage error; a NaN the
        # program itself produces is a failed check
        def failing_lift(x, setting):
            raise NonFinite("matrix has NaN or Inf entries")

        monkeypatch.setattr(cli, "lift", failing_lift)
        assert main(["lift", "--file", random_car_file, "--family", "car"]) == 1
        assert capsys.readouterr().err.startswith("nck: check failed:")

    def test_gaussian_tiny_sample_stalls(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        x = np.random.default_rng(100).standard_normal((4, 2, 2)).astype(complex)
        save_tuple_file(path, x)
        code = main(
            ["lift", "--file", str(path), "--family", "gaussian", "--samples", "8", "--seed", "1"]
        )
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "stalled-iteration"
        assert out["step"] >= 1


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--suite", "all", "--d", "2", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        assert all(row["pass"] for row in out["identities"])
        assert all(row["deviation"] <= 1e-12 for row in out["identities"] if "moments" not in row["suite"])

    def test_explicit_nu(self, capsys):
        assert main(["verify", "--suite", "car-identities", "--nu", "0.5,0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nu"] == [0.5, 0.5]

    @pytest.mark.parametrize("suite", ["moments", "car-identities", "all"])
    @pytest.mark.parametrize("nu", ["nan,0.5", "0.5,inf", "-0.1,0.5", "0.5,1.5", ","])
    def test_bad_nu_exit_2(self, suite, nu, capsys):
        assert main(["verify", "--suite", suite, f"--nu={nu}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nck: error:" in captured.err

    def test_tolerance_of_every_row(self, capsys):
        # the tolerances the checks had when each took its own ``tol``
        expected = {
            "anticommutation": 1e-12,
            "second-moments": 1e-12,
            "state-weights": 1e-12,
            "orthogonality": 1e-12,
            "fourth-moments": 1e-11,
        }
        assert main(["verify", "--suite", "all", "--d", "3", "--seed", "0"]) == 0
        rows = json.loads(capsys.readouterr().out)["identities"]
        names = {row["identity"].split("/")[0] for row in rows}
        assert names == set(expected) | {f"moments[{k}]" for k in ("rademacher", "steinhauss", "lacunary")}
        for row in rows:
            name = row["identity"].split("/")[0]
            assert row["tolerance"] == expected.get(name, 1e-11), row["identity"]

    @pytest.mark.parametrize("command", ["norm", "verify"])
    def test_samples_is_not_an_option(self, command, scalar_file, capsys):
        argv = [command, "--samples", "5"] + (["--file", scalar_file] if command == "norm" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["car-identities", "orthogonality", "all"])
    def test_dimension_cap_exit_2(self, suite, monkeypatch, capsys):
        monkeypatch.delenv("NCK_MAX_DIM", raising=False)
        assert main(["verify", "--suite", suite, "--d", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "fermionic dimension 11 outside [1, 10]" in captured.err

    @pytest.mark.parametrize("suite,systems", [("car-identities", 1), ("orthogonality", 1),
                                               ("all", 1), ("moments", 0)])
    def test_one_fermionic_system_per_run(self, suite, systems, monkeypatch, capsys):
        built = []
        clean_system = cli.car_system
        monkeypatch.setattr(cli, "car_system", lambda nu: built.append(nu) or clean_system(nu))
        assert main(["verify", "--suite", suite, "--d", "2"]) == 0
        assert len(built) == systems

    def test_nonpositive_d_exit_2(self):
        assert main(["verify", "--suite", "moments", "--d", "-1"]) == 2

    def test_malformed_dim_cap_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("NCK_MAX_DIM", "twelve")
        assert main(["verify", "--suite", "car-identities", "--d", "2"]) == 2
        assert "NCK_MAX_DIM" in capsys.readouterr().err

    def test_corrupted_generator_fails_anticommutation(self, monkeypatch, capsys):
        clean_system = cli.car_system

        def corrupt(nu):
            sys = clean_system(nu)
            gens = [sys.generator(i) for i in range(sys.d)]
            gens[0] = gens[0] + 1e-4 * np.eye(sys.dim)
            return type(sys)(nu=sys.nu, generators=tuple(gens))

        monkeypatch.setattr(cli, "car_system", corrupt)
        code = main(["verify", "--suite", "car-identities", "--d", "2", "--seed", "0"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        failing = [row for row in out["identities"] if not row["pass"]]
        assert failing
        assert any("anticommutator" in row["identity"] for row in failing)
        assert any(row["identity"] == "jordan-wigner-support/off-support-generator-0"
                   for row in failing)

    def test_csv_format(self, capsys):
        assert main(["verify", "--suite", "orthogonality", "--d", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "d,deviation,identity,pass,suite,tolerance"
        assert len(lines) > 1 and all(line.startswith("2,") for line in lines[1:])

    @pytest.mark.parametrize("suite,d", [("moments", 11), ("all", 7)])
    def test_each_row_carries_the_d_it_ran_at(self, suite, d, monkeypatch, capsys):
        # the moment suite runs at min(d, 6); the fermionic suites at d
        monkeypatch.delenv("NCK_MAX_DIM", raising=False)
        assert main(["verify", "--suite", suite, "--d", str(d)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d"] == d
        ran = {row["suite"]: row["d"] for row in out["identities"]}
        assert {label: ran[label] for label in ran if label.startswith("moments")} == {
            f"moments-{kind}": 6 for kind in ("rademacher", "steinhauss", "lacunary")
        }
        assert all(ran[label] == d for label in ran if not label.startswith("moments"))
        assert len(ran) == (3 if suite == "moments" else 5)


class TestConstantsCommand:
    def test_car_c2_table(self, capsys):
        assert main(["constants", "--experiment", "car-c2", "--d", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = out["rows"]
        assert len(rows) == 6
        assert rows[0]["binomial"] == pytest.approx(1 / np.sqrt(2))
        assert all(r["pass"] for r in rows)

    def test_car_c2_rows_above_the_cap_have_no_matrix(self, monkeypatch, capsys):
        monkeypatch.delenv("NCK_MAX_DIM", raising=False)
        assert main(["constants", "--experiment", "car-c2", "--d", "14"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["d"] for r in rows] == list(range(1, 15))
        assert all(r["matrix"] is not None for r in rows[:10])
        assert all(r["matrix"] is None for r in rows[10:])

    def test_car_c2_above_sixty_exit_2(self, capsys):
        assert main(["constants", "--experiment", "car-c2", "--d", "61"]) == 2
        assert "d <= 60" in capsys.readouterr().err

    def test_car_c2_above_sixty_computes_no_row(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "car_c2_sequence", lambda d: calls.append(d))
        assert main(["constants", "--experiment", "car-c2", "--d", "61"]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == "" and "d <= 60" in captured.err

    def test_car_c1(self, capsys):
        assert main(["constants", "--experiment", "car-c1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"][0]["ratio"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_search_csv(self, capsys):
        code = main(
            [
                "constants", "--experiment", "search", "--family", "rademacher",
                "--d", "2", "--n", "2", "--trials", "10", "--seed", "4", "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and "min_ratio" in lines[0]

    def test_search_zero_n_exit_2(self, capsys):
        code = main(["constants", "--experiment", "search", "--n", "0", "--trials", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "experiment,d",
        [("gauss-c2", "-1"), ("car-c2", "-3"), ("car-c2", "0"), ("search", "0")],
    )
    def test_nonpositive_d_exit_2(self, experiment, d, capsys):
        code = main(["constants", "--experiment", experiment, "--d", d])
        assert code == 2
        assert "--d must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment,flag",
        [
            (experiment, flag)
            for experiment, read in CONSTANTS_FLAGS.items()
            for flag in sorted(ALL_CONSTANTS_FLAGS - read)
        ],
    )
    def test_unread_flag_exit_2(self, experiment, flag, capsys):
        value = "lacunary" if flag == "family" else "3"
        code = main(["constants", "--experiment", experiment, f"--{flag}", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{flag} is not read by --experiment {experiment}" in captured.err

    def test_unread_flags_are_the_ones_named(self):
        unread = {e: ALL_CONSTANTS_FLAGS - read for e, read in CONSTANTS_FLAGS.items()}
        assert unread == {
            "gauss-c2": {"family", "n", "trials"},
            "car-c2": {"family", "n", "trials", "samples"},
            "car-c1": {"family", "d", "n", "trials", "samples"},
            "search": set(),
        }

    def test_every_optional_flag_is_declared(self):
        # a flag no experiment declares would be neither read nor rejected
        optional = {a.dest for a in subcommand_actions("constants") if a.option_strings and not a.required}
        assert optional - COMMON_FLAGS == ALL_CONSTANTS_FLAGS

    def test_flags_of_other_choices_are_rejected(self):
        # "other" means declared by another choice of the same table, not
        # missing from the widest choice
        tables = [{"d": 3, "samples": 10}, {"m": 1}, {}]
        args = argparse.Namespace(d=None, samples=None, m=2)
        for read in (tables[0], tables[2]):
            with pytest.raises(ParseError, match="--m is not read by here"):
                cli._read_flags(args, read, tables, "here")
        args.m = None
        cli._read_flags(args, tables[0], tables, "here")
        assert (args.d, args.samples, args.m) == (3, 10, None)

    def test_gauss_c2_checks_the_budget_before_any_row(self, monkeypatch, capsys):
        # d = 1 fits 2**20 + 1 samples, d = 16 does not
        calls = []
        monkeypatch.setattr(cli, "c2_witness_gaussian", lambda *a, **k: calls.append(a))
        assert main(["constants", "--experiment", "gauss-c2", "--samples", str(2**20 + 1)]) == 2
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert "1048577 samples at d=16 exceed the budget" in captured.err

    def test_defaults_come_from_the_table(self, capsys):
        assert main(["constants", "--experiment", "car-c2"]) == 0
        assert [r["d"] for r in json.loads(capsys.readouterr().out)["rows"]] == list(range(1, 11))
        assert main(["constants", "--experiment", "search"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert (row["family"], row["trials"]) == ("rademacher", 50)

    def test_default_samples_is_applied_where_read(self, capsys):
        argv = ["constants", "--experiment", "gauss-c2", "--d", "1", "--seed", "2"]
        assert main(argv) == 0
        implicit = capsys.readouterr().out
        assert main(argv + ["--samples", str(cli.DEFAULT_SAMPLES)]) == 0
        assert capsys.readouterr().out == implicit

    def test_gauss_c2_small(self, capsys):
        code = main(
            ["constants", "--experiment", "gauss-c2", "--d", "3", "--samples", "20000", "--seed", "1"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        witness_rows = [r for r in out["rows"] if r["experiment"] == "gauss-c2"]
        assert len(witness_rows) == 3
        for row in witness_rows:
            assert abs(row["value"] - row["target"]) <= 3.0 * row["stderr"] + 1e-12
        bound_rows = [r for r in out["rows"] if r["experiment"] == "gauss-c1-bound"]
        assert len(bound_rows) == 6 and all(r["pass"] for r in bound_rows)
        assert all(r["target"] == 1.0 / FAMILIES["gaussian"][0] for r in bound_rows)

    @pytest.mark.parametrize(
        "sequence,passes",
        [
            (lambda m: 0.75, [True] + [False] * 5),  # not decreasing
            (lambda m: 0.7 + 0.1 / m, [True] * 2 + [False] * 4),  # falls below 1/sqrt(2)
        ],
        ids=["constant", "below-lower-constant"],
    )
    def test_gauss_c1_bound_rows_assert(self, sequence, passes, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gaussian_c1_bound_sequence", sequence)
        code = main(["constants", "--experiment", "gauss-c2", "--d", "1", "--samples", "2000"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert all(r["pass"] for r in out["rows"] if r["experiment"] == "gauss-c2")
        assert [r["pass"] for r in out["rows"] if r["experiment"] == "gauss-c1-bound"] == passes

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_gauss_c2_fewer_than_two_samples_exit_2(self, samples, capsys):
        code = main(["constants", "--experiment", "gauss-c2", "--d", "2", "--samples", samples])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "samples" in captured.err

    def test_family_choices_come_from_the_table(self):
        assert family_choices("lift") == list(FAMILIES)
        assert family_choices("constants") == [f for f in FAMILIES if f != "car"]

    def test_search_rejects_the_kind_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--experiment", "search", "--family", "gaussian-mc", "--trials", "1"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_search_gaussian_family(self, capsys):
        code = main(
            ["constants", "--experiment", "search", "--family", "gaussian", "--d", "1", "--n", "1",
             "--trials", "1", "--samples", "2000"]
        )
        assert code == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["family"] == "gaussian" and row["c1"] == 1.0 / np.sqrt(2.0)

    def test_search_over_one_sample_exit_2(self, tmp_path, capsys):
        # one sampled atom has no standard error: a usage error, not a failed check
        out = tmp_path / "search.json"
        code = main(["constants", "--experiment", "search", "--family", "gaussian", "--samples",
                     "1", "--d", "1", "--n", "1", "--trials", "2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "2 atoms" in captured.err
        assert not out.exists()

    def test_search_passes_whenever_the_search_returns(self, capsys):
        # the search accepts these ratios with its Monte Carlo slack of three
        # standard errors; the row reports that verdict, not a second one
        code = main(
            ["constants", "--experiment", "search", "--family", "gaussian", "--samples", "20",
             "--seed", "1", "--trials", "30", "--d", "3", "--n", "2"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["pass"] is True
        assert out["rows"][0]["pass"] is True and "error" not in out["rows"][0]

    @pytest.mark.parametrize("family", ["rademacher", "steinhauss", "lacunary", "gaussian"])
    def test_search_row_replays_from_its_family(self, family, capsys):
        argv = ["constants", "--experiment", "search", "--d", "1", "--n", "1",
                "--trials", "1", "--samples", "2000"]
        assert main(argv + ["--family", family]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["family"] in family_choices("constants")
        assert main(argv + ["--family", row["family"]]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0] == row


@pytest.mark.parametrize("command", ["norm", "lift", "verify", "constants"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exit_2(command, target, scalar_file, tmp_path, monkeypatch, capsys):
    # the target is checked before the run: nothing is computed, nothing is left behind
    out = tmp_path / "missing" / "r.json" if target == "missing-directory" else tmp_path
    argv, work = {
        "norm": (["norm", "--file", scalar_file], "dual_norm"),
        "lift": (["lift", "--file", scalar_file, "--family", "car"], "lift"),
        "verify": (["verify", "--suite", "orthogonality", "--d", "1"], "run_verify_suite"),
        "constants": (["constants", "--experiment", "car-c1"], "car_c1_witness"),
    }[command]
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(out)]) == 2
    assert calls == [] and sorted(tmp_path.rglob("*")) == before
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nck: error:") and str(out) in captured.err


def test_out_failing_after_the_run_exit_2(tmp_path, monkeypatch, capsys):
    # a target that passed the check but cannot be opened at the end
    out = tmp_path / "missing" / "r.json"
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    assert main(["constants", "--experiment", "car-c1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nck: error: cannot write --out {out}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--family", "gaussian"],
        ["constants", "--experiment", "search", "--family", "gaussian"],
        ["constants", "--experiment", "gauss-c2"],
    ],
    ids=["lift", "search", "gauss-c2"],
)
def test_sampled_space_over_budget_exit_2(argv, scalar_file, capsys):
    file = ["--file", scalar_file] if argv[0] == "lift" else []
    assert main(argv + file + ["--samples", "10000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nck: error:") and "exceed the budget" in captured.err


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, random_car_file):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert (
                main(
                    ["lift", "--file", random_car_file, "--family", "car",
                     "--seed", "7", "--out", str(out)]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for out in (out1, out2):
            assert main(["verify", "--d", "3", "--seed", "9", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
