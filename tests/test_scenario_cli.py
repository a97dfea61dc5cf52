"""Scenario files and the command-line runner: round-trips, CSV, exit codes."""

import json
from pathlib import Path

import pytest

from subtrial import scenario as scenario_mod
from subtrial.cli import main
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


class TestCliSolve:
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
        ],
    )
    def test_non_finite_and_degenerate_inputs_exit_1(self, tmp_path, block, key, value):
        record = json.loads((SCENARIOS / "baseline_uniform.json").read_text())
        record[block][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 1

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

    @pytest.mark.parametrize(
        "command,name,edit",
        [
            ("policy", "interior_uniform", lambda r: r["shock"].update(gamma=float("nan"))),
            ("paid", "paid_trial", lambda r: r["signup"].update(alpha=float("nan"))),
            ("paid", "paid_trial", lambda r: r["signup"].update(theta=float("inf"))),
            ("hetero", "hetero_spread", lambda r: r["mixture"]["atoms"][0].__setitem__(0, float("nan"))),
            (
                "sweep", "baseline_uniform",
                lambda r: r.update(sweep={"param": "lambda0", "grid": [1.0, float("nan"), 3.0]}),
            ),
        ],
        ids=["shock-gamma-nan", "signup-alpha-nan", "signup-theta-inf", "mixture-atom-nan", "sweep-grid-nan"],
    )
    def test_non_finite_optional_blocks_exit_1(self, tmp_path, command, name, edit):
        record = json.loads((SCENARIOS / f"{name}.json").read_text())
        edit(record)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
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
        from subtrial import cli as cli_mod
        from subtrial.verify import CheckResult

        monkeypatch.setattr(
            cli_mod,
            "run_invariant_checks",
            lambda sc: [CheckResult("demo", "forced_failure", False, "synthetic")],
        )
        out = tmp_path / "verify.csv"
        code = main(["verify", "--scenario", str(SCENARIOS / "baseline_uniform.json"), "--out", str(out)])
        assert code == 3

    def test_survivor_floor_in_window_reports_every_check(self, tmp_path, capsys):
        """Where the survivor reaches its floor inside the window the hazard is
        undefined: hazard_times_survivor skips those points, the lambda_crit
        check reports a skip, and verify writes every row instead of aborting."""
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
        assert rows["lambda_crit_window_monotone"]["detail"] == "skipped: hazard unbounded on the window"
