"""Scenario files and the command-line runner: round-trips, CSV, exit codes."""

import json
import re
from pathlib import Path

import pytest

from subtrial import cli, scenario as scenario_mod, verify
from subtrial.cli import main
from subtrial.consumer import AttentionParams
from subtrial.distributions import IfrReport, PriceWindow
from subtrial.market import Contract
from subtrial.paid import SignupModel
from subtrial.exceptions import ScenarioError
from subtrial.solver import joint_optimum

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIOS.glob("*.json"))])
    def test_parse_emit_parse_is_idempotent(self, name):
        sc = scenario_mod.load(SCENARIOS / f"{name}.json")
        text = sc.dumps()
        again = scenario_mod.from_dict(json.loads(text))
        assert again == sc
        assert again.dumps() == text

    def test_readme_example_is_what_to_dict_writes(self):
        # the JSON under README "Scenario files" is a record that parses and emits back unchanged
        section = (SCENARIOS.parent / "README.md").read_text().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
        example = json.loads(re.search(r"```json\n(.*?)```", section, flags=re.S).group(1))
        assert scenario_mod.from_dict(example).to_dict() == example

    def test_missing_field_rejected(self):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        del record["distribution"]
        with pytest.raises(ScenarioError):
            scenario_mod.from_dict(record)

    def test_unknown_sweep_param_rejected(self):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["sweep"]["param"] = "delta"
        with pytest.raises(ScenarioError):
            scenario_mod.from_dict(record)

    def test_unsorted_grid_rejected(self):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["sweep"]["grid"] = [3.0, 1.0, 2.0]
        with pytest.raises(ScenarioError):
            scenario_mod.from_dict(record)

    def test_contract_required_for_contract_sweep(self):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        del record["contract"]
        with pytest.raises(ScenarioError):
            scenario_mod.from_dict(record)

    def test_missing_optional_fields_take_their_record_defaults(self):
        record = json.loads((SCENARIOS / "paid_trial.json").read_text())
        record["attention"] = {"lambda0": 20.0}
        del record["contract"]["P0"], record["signup"]["cap"]
        sc = scenario_mod.from_dict(record)
        assert sc.attention == AttentionParams(20.0)
        assert sc.contract == Contract(T=4.0, P=0.5)
        assert sc.signup == SignupModel(alpha=0.1, theta=0.5)

    @pytest.mark.parametrize(
        "block,key", [("attention", "lambda0"), ("price_window", "p_hi"), ("contract", "T"), ("signup", "alpha")]
    )
    def test_missing_required_field_exits_1(self, tmp_path, capsys, block, key):
        record = json.loads((SCENARIOS / "paid_trial.json").read_text())
        del record[block][key]
        path, out = tmp_path / "bad.json", tmp_path / "x.csv"
        path.write_text(json.dumps(record))
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()


def test_parser_commands_are_the_command_table_in_readme_order():
    readme = (SCENARIOS.parent / "README.md").read_text()
    documented = re.findall(r"^\| `(\w+)` +\|", readme, re.MULTILINE)
    usage = cli.build_parser().format_usage()
    parsed = re.search(r"\{(.*?)\}", usage).group(1).split(",")
    assert parsed == list(cli.COMMANDS) == documented == ["solve", "sweep", "policy", "paid", "hetero", "verify"]


class TestCliSolve:
    @pytest.mark.parametrize("where", ["missing_dir/x.csv", "a_directory"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, where):
        (tmp_path / "a_directory").mkdir()
        out = tmp_path / where
        assert main(["solve", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"output error: cannot write {out}: ")

    def test_row_matches_library_solve(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = main(["solve", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)])
        assert code == 0
        (row,) = read_rows(out)
        sc = scenario_mod.load(SCENARIOS / "baseline_uniform.json")
        opt = joint_optimum(sc.distribution, sc.attention, sc.solver)
        assert row["scenario"] == "baseline_uniform"
        assert float(row["P_star"]) == pytest.approx(opt.contract.P, rel=1e-11)
        assert float(row["profit"]) == pytest.approx(opt.outcome.profit, rel=1e-11)
        assert row["flags"] == "T_at_zero"
        assert row["participation_satisfied"] == "false"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["solve", "--scenario", str(SCENARIOS / "interior_uniform.json"), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_T_flag(self, tmp_path):
        out = tmp_path / "r.csv"
        main([
            "solve", "--scenario", str(SCENARIOS / "interior_uniform.json"),
            "--out", str(out), "--round-T",
        ])
        (row,) = read_rows(out)
        assert float(row["T_star"]) == round(float(row["T_star"]))

    def test_mode_override(self, tmp_path):
        out = tmp_path / "m.csv"
        main([
            "solve", "--scenario", str(SCENARIOS / "baseline_uniform.json"),
            "--out", str(out), "--mode", "binding_ir",
        ])
        (row,) = read_rows(out)
        assert row["mode"] == "binding_ir"
        assert row["participation_satisfied"] == "true"

    def test_validation_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(bad), "--out", str(out)]) == 1

    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("attention", "lambda0", float("nan")),
            ("attention", "beta", float("inf")),
            ("attention", "gamma", float("inf")),
            ("price_window", "p_lo", float("nan")),
            ("solver", "bracket_grid", 0),
            ("solver", "t_max", float("inf")),
            ("solver", "root_tol", float("nan")),
            ("contract", "T", float("nan")),
            ("contract", "P0", float("inf")),
            ("solver", "participation_mode", "interiour"),
            ("distribution", "a", "0.1"),
            # a number field takes a JSON number: not a bool, a string or an int beyond the float range
            *[
                pytest.param(block, key, value, id=f"{block}-{key}-{name}")
                for block, key in [("attention", "lambda0"), ("contract", "T"), ("solver", "t_max"),
                                   ("price_window", "p_hi")]
                for name, value in [("true", True), ("string", "2.5"), ("1e400-int", 10**400)]
            ],
        ],
    )
    def test_non_finite_and_degenerate_inputs_exit_1(self, tmp_path, capsys, block, key, value):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record[block][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("scenario error:")

    def test_weibull_scale_beyond_the_float_range_exits_1(self, tmp_path, capsys):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["distribution"] = {"family": "trunc_weibull", "k": 4.0, "s": 1e-90}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing.json", "a_directory", "latin1.json"])
    def test_unreadable_scenario_file_exits_1(self, tmp_path, capsys, where):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.json").write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(tmp_path / where), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("scenario error: cannot read scenario file")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ['{"name": "x",', '{"name": ' + "1" * 5000 + "}"], ids=["truncated", "5000-digit-int"]
    )
    def test_scenario_file_that_json_cannot_read_exits_1(self, tmp_path, capsys, text):
        path, out = tmp_path / "bad.json", tmp_path / "x.csv"
        path.write_text(text)
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"scenario error: scenario file {path} is not valid JSON")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["Infinity", "1e400", "256.7", "true"])
    def test_bracket_grid_must_be_a_json_integer(self, tmp_path, capsys, raw):
        # valid JSON values that are not integers: a grid size is never rounded
        text = (SCENARIOS / "baseline_uniform.json").read_text()
        assert '"bracket_grid": 256,' in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace('"bracket_grid": 256,', f'"bracket_grid": {raw},'))
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 1
        assert "scenario error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "policy", "paid", "verify"])
    @pytest.mark.parametrize("raw", ["65537", "100000000", "1" + "0" * 30])
    def test_bracket_grid_above_the_bound_exits_1_before_any_grid(self, tmp_path, capsys, monkeypatch, command, raw):
        def no_grid(*args):
            raise AssertionError("a grid was built")
        monkeypatch.setattr(PriceWindow, "grid", no_grid)
        text = (SCENARIOS / "paid_trial.json").read_text()
        path, out = tmp_path / "huge.json", tmp_path / "x.csv"
        path.write_text(text.replace('"bracket_grid": 256,', f'"bracket_grid": {raw},'))
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
        message = "scenario error: invalid scenario: bracket_grid must be at most 65536"
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,name,edit",
        [
            ("policy", "interior_uniform", lambda r: r["shock"].update(gamma=float("nan"))),
            ("paid", "paid_trial", lambda r: r["signup"].update(alpha=float("nan"))),
            ("paid", "paid_trial", lambda r: r["signup"].update(theta=float("inf"))),
            ("paid", "paid_trial", lambda r: r["signup"].update(alpha=1e308)),
            ("hetero", "hetero_spread", lambda r: r["mixture"]["atoms"][0].__setitem__(0, float("nan"))),
            (
                "sweep", "baseline_uniform",
                lambda r: r.update(sweep={"param": "lambda0", "grid": [1.0, float("nan"), 3.0]}),
            ),
            ("solve", "baseline_uniform", lambda r: r.update(solver=[1])),
            ("hetero", "hetero_spread", lambda r: r["mixture"]["atoms"][0].__setitem__(0, True)),
            ("sweep", "baseline_uniform", lambda r: r.update(sweep={"param": "lambda0", "grid": [True]})),
            ("policy", "interior_uniform", lambda r: r["shock"].update(label=5)),
            ("solve", "baseline_uniform", lambda r: r.update(name=5)),
            ("solve", "baseline_uniform", lambda r: r.update(distribution=[["family", "uniform"]])),
        ],
        ids=["shock-gamma-nan", "signup-alpha-nan", "signup-theta-inf", "signup-cap-edge-overflows", "mixture-atom-nan",
             "sweep-grid-nan", "solver-not-an-object", "mixture-atom-true", "sweep-grid-true", "shock-label-number",
             "name-number", "distribution-not-an-object"],
    )
    def test_non_finite_optional_blocks_exit_1(self, tmp_path, capsys, command, name, edit):
        record = json.loads((SCENARIOS / f"{name}.json").read_text())
        edit(record)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()

    def test_infeasible_binding_participation_exit_code(self, tmp_path):
        # no price in the window leaves consumers nonnegative utility even at T = 0
        record = json.loads((SCENARIOS / "iso_elastic_curve.json").read_text())
        record["attention"] = {"lambda0": 3.0, "beta": 0.5, "gamma": 1.0}
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(path), "--out", str(out), "--mode", "binding_ir"]) == 2

    def test_solver_failure_exit_code(self, tmp_path):
        # competing price-root branches leave the joint solve without a fixed point
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["name"] = "cycling"
        record["distribution"] = {"family": "iso_elastic", "kappa": 0.05, "eps": 0.4, "v0": 0.1}
        record["attention"] = {"lambda0": 12.0, "beta": 0.5, "gamma": 1.02}
        record["price_window"] = {"p_lo": 0.15, "p_hi": 0.95}
        path = tmp_path / "cycling.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 2


class TestCliSweep:
    def test_one_row_per_grid_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)]) == 0
        rows = read_rows(out)
        sc = scenario_mod.load(SCENARIOS / "baseline_uniform.json")
        assert [float(r["value"]) for r in rows] == list(sc.sweep.grid)
        ir = [float(r["inattentive_revenue"]) for r in rows]
        assert all(b > a for a, b in zip(ir, ir[1:]))

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["sweep", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_gamma_sweep_improves_monitoring(self, tmp_path):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["sweep"] = {"param": "gamma", "grid": [1.0, 1.5, 2.0, 4.0]}
        path = tmp_path / "gamma_sweep.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "g.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        rows = read_rows(out)
        qs = [float(r["q_star"]) for r in rows]
        utils = [float(r["utility"]) for r in rows]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert all(b > a for a, b in zip(utils, utils[1:]))

    def test_price_sweep_rows(self, tmp_path):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["sweep"] = {"param": "P", "grid": [0.2, 0.4, 0.6, 0.8]}
        path = tmp_path / "price_sweep.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "p.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [float(r["P"]) for r in rows] == [0.2, 0.4, 0.6, 0.8]

    def test_attention_sweep_without_a_contract_reports_each_joint_optimum(self, tmp_path):
        record = json.loads((SCENARIOS / "policy_iso_elastic.json").read_text())
        assert "contract" not in record
        record["sweep"] = {"param": "lambda0", "grid": [2.0, 2.5, 4.0]}
        path, out = tmp_path / "lambda_sweep.json", tmp_path / "l.csv"
        path.write_text(json.dumps(record))
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        sc = scenario_mod.from_dict(record)
        rows = read_rows(out)
        assert len(rows) == 3
        for row, lambda0 in zip(rows, sc.sweep.grid):
            opt = joint_optimum(sc.distribution, sc.attention._replace(lambda0=lambda0), sc.solver)
            want = {"T": opt.contract.T, "P": opt.contract.P, "profit": opt.outcome.profit}
            assert {key: row[key] for key in want} == {key: cli._fmt(v) for key, v in want.items()}


class TestCliPolicyPaidHetero:
    def test_policy_row(self, tmp_path):
        out = tmp_path / "policy.csv"
        assert main(["policy", "--scenario", str(SCENARIOS / "policy_iso_elastic.json"), "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert float(row["epsilon_used"]) == pytest.approx(0.4)
        assert row["sign_rule_holds"] in {"true", "false"}
        assert float(row["profit_shocked"]) < float(row["profit_base"])

    def test_paid_row(self, tmp_path):
        out = tmp_path / "paid.csv"
        assert main(["paid", "--scenario", str(SCENARIOS / "paid_trial.json"), "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["corner"] == "interior"
        assert float(row["profit"]) == pytest.approx(
            float(row["signup_rate"]) * (float(row["P0_star"]) + float(row["p_aug"])), rel=1e-9
        )

    def test_hetero_row(self, tmp_path):
        out = tmp_path / "het.csv"
        assert main(["hetero", "--scenario", str(SCENARIOS / "hetero_spread.json"), "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert int(row["n_atoms"]) == 2
        assert float(row["mean_z"]) == pytest.approx(0.5)

    def test_paid_requires_signup_block(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["paid", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)]) == 1

    def test_hetero_requires_mixture_block(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["hetero", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)]) == 1


class TestCliVerify:
    @pytest.mark.parametrize(
        "name", ["baseline_uniform", "iso_elastic_curve", "paid_trial", "monopoly_limit"]
    )
    def test_clean_scenarios_pass(self, name, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows and all(r["status"] == "pass" for r in rows)

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        from subtrial.verify import CheckResult

        monkeypatch.setattr(
            verify,
            "run_invariant_checks",
            lambda sc: [CheckResult("demo", "forced_failure", False, "synthetic")],
        )
        out = tmp_path / "verify.csv"
        code = main(["verify", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)])
        assert code == 3

    def test_survivor_floor_in_window_reports_every_check(self, tmp_path, capsys):
        """Where the survivor reaches its floor inside the window the hazard is
        undefined: hazard_times_survivor skips those points, the lambda_crit
        check reports a skip, and verify writes every row instead of aborting.
        The density check differences the survivor, which stays precise there."""
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["distribution"] = {"family": "trunc_weibull", "k": 4.0, "s": 0.2}
        path, out = tmp_path / "weibull_floor.json", tmp_path / "verify.csv"
        path.write_text(json.dumps(record))
        code = main(["verify", "--scenario", str(path), "--out", str(out)])
        assert code in (0, 3)
        assert "solver error" not in capsys.readouterr().err
        rows = {r["check"]: r for r in read_rows(out)}
        assert code == (3 if any(r["status"] == "FAIL" for r in rows.values()) else 0)
        assert len(rows) == len(read_rows(SCENARIOS.parent / "tests" / "golden" / "verify.baseline_uniform.csv"))
        assert rows["hazard_times_survivor"]["status"] == "pass"
        assert rows["cdf_pdf_consistency"]["status"] == "pass"  # the survivor differences keep precision
        assert rows["lambda_crit_window_monotone"]["detail"] == "skipped: hazard unbounded on the window"

    def test_decay_past_the_float_range_skips_the_checks_it_breaks(self, tmp_path, capsys):
        """With beta = 1e308, lam(T) underflows to 0 for T >= 2 and (1 + beta T)^2 overflows at T = 0.5:
        the checks that meet either report a skip, and every row is written."""
        record = json.loads((SCENARIOS / "interior_uniform.json").read_text())
        record["attention"]["beta"] = 1e308
        path, out = tmp_path / "extreme.json", tmp_path / "verify.csv"
        path.write_text(json.dumps(record))
        assert main(["verify", "--scenario", str(path), "--out", str(out)]) in (0, 1, 3)
        assert "error" not in capsys.readouterr().err
        rows = {r["check"]: r for r in read_rows(out)}
        golden = read_rows(SCENARIOS.parent / "tests" / "golden" / "verify.interior_uniform.csv")
        assert list(rows) == [r["check"] for r in golden]
        assert rows["derivatives_vs_finite_difference"]["detail"].startswith("skipped: OverflowError")
        assert rows["profit_decomposition"]["detail"] == (
            "skipped: DomainError: effective sensitivity underflows to 0 at T = 4.0")
        assert rows["loss_within_bounds"]["detail"].startswith("loss ")

    @pytest.mark.parametrize("name", ["interior_uniform", "baseline_uniform", "iso_elastic_curve", "monopoly_limit"])
    def test_tiny_sensitivity_clips_the_difference_steps(self, tmp_path, capsys, name):
        """At lambda0 = 1e-8 the unclipped steps hx / lam and hx / P leave the domain.  Clipped, the
        derivatives in P and lam pass the check; the one in T, where beta > 0, changes q* by under
        1e-9, which the row names instead of comparing."""
        record = json.loads((SCENARIOS / f"{name}.json").read_text())
        record["attention"]["lambda0"] = 1e-8
        path, out = tmp_path / "tiny.json", tmp_path / "verify.csv"
        path.write_text(json.dumps(record))
        assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        row = next(r for r in read_rows(out) if r["check"] == "derivatives_vs_finite_difference")
        err, _, note = row["detail"].removeprefix("max rel err ").partition(";")
        assert row["status"] == "pass" and float(err) <= 1e-6
        assert note == (" dq/dT unresolved: the T difference is below 1e-09" if record["attention"]["beta"] > 0 else "")

    def test_infinite_starting_sensitivity_is_a_scenario_error(self, tmp_path, capsys):
        """gamma * lambda0 = lam(0) overflows to inf, where h(x) / lam would be 0 * inf."""
        record = json.loads((SCENARIOS / "interior_uniform.json").read_text())
        record["attention"]["gamma"] = 1e308
        path, out = tmp_path / "extreme.json", tmp_path / "verify.csv"
        path.write_text(json.dumps(record))
        assert main(["verify", "--scenario", str(path), "--out", str(out)]) in (0, 1, 3)
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()

    def test_ifr_row_passes_where_the_inattentive_margin_adds_roots(self, tmp_path, capsys):
        """The whole price condition crosses zero 3 times on this valid input; the standard margin once."""
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["distribution"] = {"family": "trunc_weibull", "k": 4.0, "s": 0.2}
        path, out = tmp_path / "weibull_floor.json", tmp_path / "verify.csv"
        path.write_text(json.dumps(record))
        assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
        row = next(r for r in read_rows(out) if r["check"] == "unique_root_under_ifr")
        assert (row["status"], row["detail"]) == ("pass", "1 sign changes")

    def test_ifr_row_fails_on_two_standard_margin_crossings(self, monkeypatch):
        """Reported as IFR, the iso-elastic splice gives a head root at 0.4896 and a jump at v0."""
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["distribution"] = {"family": "iso_elastic", "kappa": 0.3, "eps": 0.5, "v0": 0.6}
        record["price_window"] = {"p_lo": 0.05, "p_hi": 0.95}
        monkeypatch.setattr(verify, "check_ifr", lambda dist, window: IfrReport(True, None, 64))
        checks = verify.run_invariant_checks(scenario_mod.from_dict(record))
        (row,) = [c for c in checks if c.name == "unique_root_under_ifr"]
        assert (row.ok, row.detail) == (False, "2 sign changes")


class TestScenarioDomain:
    """What a run would fail on, or write wrongly, is a scenario error with exit 1."""

    @staticmethod
    def run(tmp_path, command, record):
        path, out = tmp_path / "bad.json", tmp_path / "x.csv"
        path.write_text(json.dumps(record))
        return main([command, "--scenario", str(path), "--out", str(out)]), out

    @pytest.mark.parametrize("param,grid", [("beta", [-1.0, 0.5]), ("P", [0.5, 1.5])], ids=["beta", "P"])
    def test_out_of_domain_sweep_value_exits_1(self, tmp_path, capsys, param, grid):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["sweep"] = {"param": param, "grid": grid}
        code, out = self.run(tmp_path, "sweep", record)
        assert code == 1
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()

    def test_valid_sweep_value_whose_solve_fails_exits_2(self, tmp_path, capsys):
        # the cycling market of test_solver_failure_exit_code, swept over lambda0 without a contract
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        del record["contract"]
        record["distribution"] = {"family": "iso_elastic", "kappa": 0.05, "eps": 0.4, "v0": 0.1}
        record["attention"] = {"lambda0": 12.0, "beta": 0.5, "gamma": 1.02}
        record["price_window"] = {"p_lo": 0.15, "p_hi": 0.95}
        record["sweep"] = {"param": "lambda0", "grid": [12.0]}
        code, _ = self.run(tmp_path, "sweep", record)
        assert code == 2
        assert capsys.readouterr().err.startswith("solver error:")

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"], ids=["comma", "quote", "cr", "lf"])
    def test_name_a_csv_field_cannot_carry_exits_1(self, tmp_path, capsys, name):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record["name"] = name
        code, out = self.run(tmp_path, "solve", record)
        assert code == 1
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()

    def test_shock_label_a_csv_field_cannot_carry_exits_1(self, tmp_path, capsys):
        record = json.loads((SCENARIOS / "policy_iso_elastic.json").read_text())
        record["shock"]["label"] = "x,y"
        code, out = self.run(tmp_path, "policy", record)
        assert code == 1
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()

    @pytest.mark.parametrize("command,name", [("solve", "interior_uniform"), ("policy", "interior_uniform"),
                                              ("paid", "paid_trial")])
    def test_a_tiny_p_lo_solves_or_is_a_solver_error(self, tmp_path, capsys, command, name):
        # near p_lo = 1e-160 the locus polish's values square to 0, and x^2 overflows on the locus
        record = json.loads((SCENARIOS / f"{name}.json").read_text())
        record["price_window"]["p_lo"] = 1e-160
        code, _ = self.run(tmp_path, command, record)
        assert code == 0 or (code == 2 and capsys.readouterr().err.startswith("solver error:"))

    def test_p_lo_whose_reciprocal_overflows_exits_1(self, tmp_path, capsys):
        record = json.loads((SCENARIOS / "interior_uniform.json").read_text())
        record["price_window"]["p_lo"] = 5e-324
        code, out = self.run(tmp_path, "solve", record)
        assert code == 1
        assert re.match(r"scenario error:.*1/p_lo overflows", capsys.readouterr().err)
        assert not out.exists()

    def test_iso_elastic_spec_without_kappa_is_a_scenario_error(self):
        record = json.loads((SCENARIOS / "policy_iso_elastic.json").read_text())
        del record["distribution"]["kappa"]
        with pytest.raises(ScenarioError):
            scenario_mod.from_dict(record)
