"""Tests for the command-line interface: contracts, exit codes, determinism."""

import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eligirisk.cli import STATEMENTS, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
EXACT_STATEMENTS = {"theorem-b", "corollary-convex", "var-necessary", "var-condition-b"}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_superadditive_fixture(self, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--scenario", str(SCENARIOS / "superadditive_var.json"),
                "--position", "X", "--position", "Y", "--position", "X_plus_Y",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        values = {r["position"]: r["value"] for r in report["results"]}
        assert values == {"X": 1.5, "Y": 4.0, "X_plus_Y": 6.0}
        assert all(r["method"] == "closed_form" for r in report["results"])

    def test_constant_position_cash_var(self, tmp_path, capsys):
        doc = {
            "space": {"probs": [0.5, 0.5]},
            "positions": {"c": [3.0, 3.0]},
            "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
            "acceptance": {"kind": "var", "alpha": 0.1},
        }
        path = tmp_path / "const.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["eval", "--scenario", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == -3.0

    def test_es_bisection_fixture(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--scenario", str(SCENARIOS / "es_bisection.json")], capsys
        )
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["method"] == "bisection"
        assert abs(result["value"] - 0.5) <= 1e-11

    def test_report_has_no_seed(self, capsys):
        code, out, _ = run_cli(["eval", "--scenario", str(SCENARIOS / "es_bisection.json")], capsys)
        assert code == 0
        assert set(json.loads(out)) == {"command", "version", "results", "scenario", "tol"}

    def test_unknown_position_exits_2(self, capsys):
        code, _, err = run_cli(
            [
                "eval",
                "--scenario", str(SCENARIOS / "superadditive_var.json"),
                "--position", "Z",
            ],
            capsys,
        )
        assert code == 2
        assert "positions.Z" in err


class TestCheck:
    def test_theorem_b_near_risk_free_exits_1_with_witness(self, capsys):
        code, out, _ = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "near_risk_free_var.json"),
                "--statement", "theorem-b",
            ],
            capsys,
        )
        assert code == 1
        result = json.loads(out)["results"][0]
        assert result["verdict"] == "fail"
        assert result["witness"]["x"] == [-1.0, 0.0, 0.0]

    def test_corollary_convex_risk_free_exits_0(self, tmp_path, capsys):
        doc = {
            "space": {"probs": [0.5, 0.5]},
            "positions": {"x": [0.0, -1.0]},
            "asset": {"price": 1.0, "payoff": [2.0, 2.0]},
            "acceptance": {"kind": "es", "alpha": 0.25},
        }
        path = tmp_path / "rf.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["check", "--scenario", str(path), "--statement", "corollary-convex"], capsys
        )
        assert code == 0
        assert json.loads(out)["results"][0]["verdict"] == "pass"

    def test_var_condition_b_uniform20_exits_1(self, capsys):
        code, out, _ = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "uniform20_var.json"),
                "--statement", "var-condition-b",
            ],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["results"][0]["verdict"] == "fail"

    def test_var_condition_b_two_atom_exits_0(self, capsys):
        code, out, _ = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "lemma_two_atom.json"),
                "--statement", "var-condition-b",
                "--trials", "300",
            ],
            capsys,
        )
        assert code == 0

    def test_theorem_b_over_the_atom_cap_exits_2(self, tmp_path, capsys):
        doc = {
            "space": {"probs": [1.0 / 22] * 22},
            "positions": {"zero": [0.0] * 22},
            "asset": {"price": 1.0, "payoff": [2.0] + [1.0] * 21},
            "acceptance": {"kind": "var", "alpha": 0.1},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["check", "--scenario", str(path), "--statement", "theorem-b"], capsys
        )
        assert (code, out) == (2, "")
        assert "cap 20" in err

    def test_unknown_statement_exits_2(self, capsys):
        code, _, err = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "near_risk_free_var.json"),
                "--statement", "no-such-statement",
            ],
            capsys,
        )
        assert code == 2
        assert "statement" in err

    def test_theorem_b_zero_trials_exits_2(self, capsys):
        # with zero trials the sampled check would pass without a sample
        code, out, err = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "near_risk_free_var.json"),
                "--statement", "theorem-b",
                "--trials", "0",
            ],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "--trials" in err

    def test_infinite_tol_exits_2(self, capsys):
        # an infinite tolerance would pass the sampled additivity vacuously
        code, out, err = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "near_risk_free_var.json"),
                "--statement", "cash-reduction",
                "--tol", "inf",
            ],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "--tol" in err

    @pytest.mark.parametrize(
        "extra", [["--trials", "1"], [], ["--trials", "12", "--seed", "5"]],
        ids=["trials-1", "defaults", "trials-12-seed-5"],
    )
    def test_var_condition_b_fails_exactly_at_a_rounding_boundary(self, tmp_path, capsys, extra):
        # the condition holds in exact rationals, but under the rounding of
        # accepts the constructed asset ejects an accepted position; a single
        # sampled comonotone pair missed it
        from eligirisk import AcceptanceSpec, FiniteSpace, RandVar, accepts

        probs = [0.1942221981974611, 0.14151299486797725, 0.40351874408036076,
                 0.26074606285420093]
        alpha = 0.5977409422778218
        doc = {
            "space": {"probs": probs},
            "positions": {"x": [0.0] * 4},
            "asset": {"price": 1.0, "payoff": [1.0] * 4},
            "acceptance": {"kind": "var", "alpha": alpha},
        }
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["check", "--scenario", str(path), "--statement", "var-condition-b", *extra], capsys
        )
        result = json.loads(out)["results"][0]
        assert (code, result["verdict"], result["seed"]) == (1, "fail", None)
        assert "event" in result["condition_values"]
        space = FiniteSpace(probs)
        spec = AcceptanceSpec.var_level(alpha)
        x = RandVar(space, result["witness"]["x"])
        assert accepts(spec, x)
        assert not accepts(spec, RandVar(space, result["witness"]["shifted"]))

    def test_risk_invariant_finds_a_single_atom_invariant(self, capsys):
        # VaR 0.1 on [0.1, 0.9]: only atom 0 may be lost, so no pair probe is
        # an invariant, but its indicator is
        from eligirisk import AcceptanceSpec, FiniteSpace, RandVar, accepts

        code, out, _ = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "lemma_two_atom.json"),
                "--statement", "risk-invariant",
                "--trials", "12",
            ],
            capsys,
        )
        result = json.loads(out)["results"][0]
        assert (code, result["passed"], result["witness"]["w"]) == (1, False, [1.0, 0.0])
        spec = AcceptanceSpec.var_level(0.1)
        w = RandVar(FiniteSpace([0.1, 0.9]), result["witness"]["w"])
        assert accepts(spec, w) and accepts(spec, -w)

    @pytest.mark.parametrize("statement", sorted(STATEMENTS))
    def test_report_echoes_exactly_the_inputs_the_statement_reads(
        self, tmp_path, capsys, statement
    ):
        # every flag is given; the ones the statement does not read are
        # ignored and not echoed
        doc = json.loads((SCENARIOS / "near_risk_free_var.json").read_text())
        doc["asset_r"] = {"price": 2.0, "payoff": [2, 4, 2]}
        if statement == "corollary-convex":  # needs a convex criterion
            doc["acceptance"] = {"kind": "es", "alpha": 0.1}
        path = tmp_path / "all_inputs.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["check", "--scenario", str(path), "--statement", statement,
             "--trials", "12", "--seed", "5", "--tol", "1e-8"],
            capsys,
        )
        report = json.loads(out)
        reads = list(inspect.signature(STATEMENTS[statement]).parameters)[1:]
        assert code in (0, 1)
        assert (reads == []) == (statement in EXACT_STATEMENTS)
        assert set(report) == {"command", "version", "results", "scenario", "statement", *reads}
        flags = {"trials": 12, "seed": 5, "tol": 1e-8}
        assert {name: report[name] for name in reads} == {name: flags[name] for name in reads}


class TestSearch:
    def test_superadditive_fixture_finds_gap(self, capsys):
        code, out, _ = run_cli(
            ["search", "--scenario", str(SCENARIOS / "superadditive_var.json"),
             "--budget", "200"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        violation = report["results"][0]
        assert violation["verdict"] == "fail"
        assert abs(violation["witness"]["gap"]) >= 0.5 - 1e-9

    def test_risk_free_es_scenario_finds_nothing(self, tmp_path, capsys):
        doc = {
            "space": {"probs": [0.5, 0.5]},
            "positions": {"x": [0.0, -1.0]},
            "asset": {"price": 1.0, "payoff": [2.0, 2.0]},
            "acceptance": {"kind": "es", "alpha": 0.25},
            "options": {"budget": 300},
        }
        path = tmp_path / "rf.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["search", "--scenario", str(path)], capsys)
        assert code == 0

    def test_zero_budget_exits_2(self, capsys):
        code, out, err = run_cli(
            ["search", "--scenario", str(SCENARIOS / "superadditive_var.json"),
             "--budget", "0"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "--budget" in err

    def test_risky_es_scenario_finds_witness(self, capsys):
        code, out, _ = run_cli(
            ["search", "--scenario", str(SCENARIOS / "es_bisection.json"),
             "--budget", "400"],
            capsys,
        )
        assert code == 1


class TestReplicate:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(["replicate"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"]
        assert len(report["results"]) == 5
        assert "seed" not in report

    def test_tampered_expected_fails_naming_fixture(self, tmp_path, capsys):
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps({"svar-superadditivity": {"rho_sum": 6.1}}))
        code, out, _ = run_cli(["replicate", "--expected", str(tampered)], capsys)
        assert code == 1
        report = json.loads(out)
        failing = [r for r in report["results"] if r["verdict"] == "fail"]
        assert len(failing) == 1
        assert failing[0]["statement"] == "replicate-svar-superadditivity"
        assert "rho_sum" in failing[0]["note"]

    def test_same_invocation_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["replicate", "--out", str(out_a)]) == 0
        assert main(["replicate", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_same_seed_check_byte_identical(self, tmp_path):
        args = [
            "check",
            "--scenario", str(SCENARIOS / "near_risk_free_var.json"),
            "--statement", "s-comonotone-additivity",
            "--seed", "11",
            "--trials", "100",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(args + ["--out", str(out_a)])
        main(args + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


MALFORMED = [
    ("not json at all {", "scenario"),
    (json.dumps({"positions": {"x": [0.0]}}), "scenario.space"),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.6]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.space.probs",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.positions.x",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": -1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.asset.price",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 0.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.asset.payoff",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 1.5},
            }
        ),
        "scenario.acceptance.alpha",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "gaussian"},
            }
        ),
        "scenario.acceptance.kind",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "distortion", "weights": [{"alpha": 0.5, "w": 0.4}]},
            }
        ),
        "scenario.acceptance.weights",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "distortion", "weights": [{"alpha": "0.5", "w": True}]},
            }
        ),
        "scenario.acceptance.weights[0].alpha",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {
                    "kind": "distortion",
                    "weights": [{"alpha": 0.25, "w": 0.5}, {"alpha": 0.5, "w": True}],
                },
            }
        ),
        "scenario.acceptance.weights[1].w",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, "zero"]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.positions.x[1]",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
                "options": {"tol": -1.0},
            }
        ),
        "scenario.options.tol",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
                "options": {"trials": 0},
            }
        ),
        "scenario.options.trials",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
                "options": {"budget": 0},
            }
        ),
        "scenario.options.budget",
    ),
    # non-finite numbers load from JSON's Infinity and NaN; the diagnostic
    # names the field and the value
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [math.inf, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.positions.x[0]: expected a finite number, got inf",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, math.nan]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.asset.payoff[1]: expected a finite number, got nan",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": math.inf, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.asset.price: must be positive and finite, got inf",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
                "options": {"tol": math.inf},
            }
        ),
        "scenario.options.tol: must be positive and finite, got inf",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5], "labels": ["A"]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.space.labels",
    ),
]


class TestMalformedScenarios:
    @pytest.mark.parametrize("raw,fieldpath", MALFORMED, ids=[m[1] for m in MALFORMED])
    def test_exits_2_naming_field(self, tmp_path, capsys, raw, fieldpath):
        path = tmp_path / "bad.json"
        path.write_text(raw)
        code, _, err = run_cli(["eval", "--scenario", str(path)], capsys)
        assert code == 2
        assert fieldpath in err


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["check", "--statement", "monotone"], ["check", "--statement", "theorem-b"], ["search"]],
        ids=["check-sampled", "check-exact", "search"],
    )
    def test_negative_seed_exits_2_naming_seed(self, capsys, argv):
        code, out, err = run_cli(
            [argv[0], "--scenario", str(SCENARIOS / "lemma_two_atom.json"), *argv[1:],
             "--seed", "-1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "--seed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--scenario", str(SCENARIOS / "lemma_two_atom.json"), "--seed", "1"],
            ["search", "--scenario", str(SCENARIOS / "lemma_two_atom.json"), "--tol", "1e-9"],
            ["replicate", "--seed", "1"],
            ["replicate", "--tol", "1e-9"],
        ],
        ids=["eval-seed", "search-tol", "replicate-seed", "replicate-tol"],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert argv[-2] in err

    def test_readme_lists_every_statement_id(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Statement ids:", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"`([a-z-]+)`", paragraph) == sorted(STATEMENTS)

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eligirisk.cli", "replicate", "--format", "text"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "replicate" in proc.stdout


class TestWitnessReVerification:
    def test_reported_witness_reproduces_violation(self, capsys):
        # the witness in a check report, fed back through the library
        # membership test, must reproduce the claimed violation
        from eligirisk import AcceptanceSpec, FiniteSpace, RandVar, accepts

        code, out, _ = run_cli(
            [
                "check",
                "--scenario", str(SCENARIOS / "near_risk_free_var.json"),
                "--statement", "theorem-b",
            ],
            capsys,
        )
        assert code == 1
        result = json.loads(out)["results"][0]
        space = FiniteSpace([0.1, 0.1, 0.8])
        spec = AcceptanceSpec.var_level(0.1)
        x = RandVar(space, result["witness"]["x"])
        shifted = RandVar(space, result["witness"]["shifted"])
        assert accepts(spec, x)
        assert not accepts(spec, shifted)

    def test_search_witness_reproduces_gap(self, capsys):
        from eligirisk import (
            AcceptanceSpec,
            EligibleAsset,
            FiniteSpace,
            RandVar,
            is_comonotone,
            rho,
        )

        code, out, _ = run_cli(
            ["search", "--scenario", str(SCENARIOS / "superadditive_var.json"),
             "--budget", "100"],
            capsys,
        )
        assert code == 1
        result = json.loads(out)["results"][0]
        space = FiniteSpace([0.05, 0.05, 0.9])
        spec = AcceptanceSpec.var_level(0.05)
        asset = EligibleAsset(1.0, RandVar(space, [1.0, 2.0, 1.0]))
        x = RandVar(space, result["witness"]["x"])
        y = RandVar(space, result["witness"]["y"])
        assert is_comonotone(x, y)
        gap = (
            rho(spec, asset, x + y).value
            - rho(spec, asset, x).value
            - rho(spec, asset, y).value
        )
        assert gap == pytest.approx(result["witness"]["gap"], abs=1e-9)


class TestDistortionScenario:
    def test_eval_distortion_kind(self, tmp_path, capsys):
        doc = {
            "space": {"probs": [0.1, 0.1, 0.8]},
            "positions": {"x": [-2.0, -3.0, 2.0]},
            "asset": {"price": 1.0, "payoff": [1.0, 1.0, 1.0]},
            "acceptance": {
                "kind": "distortion",
                "weights": [{"alpha": 0.1, "w": 0.5}, {"alpha": 0.2, "w": 0.5}],
            },
        }
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["eval", "--scenario", str(path)], capsys)
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        assert abs(value - 2.75) <= 1e-10
