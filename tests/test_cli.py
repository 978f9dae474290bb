"""Tests for the command-line interface: contracts, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligirisk import acceptance, cli, comonotone, engine, theorems
from eligirisk.cli import STATEMENTS, main
from eligirisk.theorems import BY_CONSTRUCTION, decide_by_construction

from identity_audits import cash_reduction_audit, numeraire_identity_check, s_additivity_check

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
#: Identities decided by their lemmas, each with its solver audit on a fixed
#: position list: (audit, comparisons, evaluations) per position.
IDENTITIES = {
    "s-additivity": (s_additivity_check, 6, 12),
    "numeraire-identity": (numeraire_identity_check, 1, 2),
}


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

    @pytest.mark.parametrize(
        "acceptance, code, expected",
        [
            ({"kind": "var", "alpha": 0.1}, 0, None),
            ({"kind": "var", "alpha": 0.6}, 2, "VaR(X / S1) is -inf"),
            ({"kind": "es", "alpha": 0.1}, 2, "leaves the float range"),
            (
                {"kind": "distortion", "weights": [{"alpha": 0.0, "w": 0.5}, {"alpha": 0.5, "w": 0.5}]},
                2,
                "leaves the float range",
            ),
        ],
        ids=["var", "var-infinite", "es", "mixture"],
    )
    def test_tiny_payoff_quotes_or_names_the_overflow(self, tmp_path, capsys, acceptance, code, expected):
        doc = {
            "space": {"probs": [0.5, 0.5]},
            "positions": {"X": [1.0, 1.0]},
            "asset": {"price": 1.0, "payoff": [1e-310, 1.0]},
            "acceptance": acceptance,
        }
        path = tmp_path / "tiny_payoff.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(["eval", "--scenario", str(path)], capsys)
        assert got == code
        if expected is None:
            assert json.loads(out)["results"][0]["value"] == -1.0
        else:
            assert expected in err

    def test_es_bisection_fixture(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--scenario", str(SCENARIOS / "es_bisection.json")], capsys
        )
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["method"] == "newton"
        assert abs(result["value"] - 0.5) <= 1e-11

    def test_es_fixture_takes_at_most_two_newton_steps(self, capsys):
        code, out, _ = run_cli(["eval", "--scenario", str(SCENARIOS / "es_bisection.json")], capsys)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["method"] == "newton"
        assert 1 <= result["iterations"] <= 2
        assert 0.0 < result["bracket_width"] <= 1e-12

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

    @pytest.mark.parametrize(
        "statement, code", [("var-necessary", 1), ("numeraire-identity", 0)],
        ids=["var-necessary", "numeraire-identity"],
    )
    def test_tiny_payoff_decides_or_names_the_overflow(self, tmp_path, capsys, statement, code):
        doc = {
            "space": {"probs": [0.5, 0.5]},
            "positions": {"X": [1.0, 1.0]},
            "asset": {"price": 1.0, "payoff": [1e-310, 1.0]},
            "acceptance": {"kind": "var", "alpha": 0.1},
        }
        path = tmp_path / "tiny_payoff.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(
                ["check", "--scenario", str(path), "--statement", statement], capsys)
            assert (got, err) == (code, "")
            result = json.loads(out)["results"][0]
            if statement == "var-necessary":
                assert result["verdict"] == "fail"
                assert result["condition_values"] == {
                    "mass_at_constant": 0.5, "payoff_constant": 1.0, "threshold": 0.8,
                    "var_of_reciprocal_payoff": -1.0}
            else:
                # decided by the lemma, which holds whether or not X / S1 is a float
                assert (result["passed"], result["trials"]) == (True, 1)
                scenario = cli.load_scenario(str(path))
                with pytest.raises(ValueError, match="discounted position X / S1 leaves"):
                    engine.change_numeraire(scenario.positions["X"], scenario.asset)

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("swapped", [False, True], ids=["s-overflows", "r-overflows"])
    def test_lemma_equality_names_an_overflowing_gap_direction(self, tmp_path, capsys, kind,
                                                               swapped):
        tiny = {"price": 1e-300, "payoff": [1e-300, 1e300]}
        plain = {"price": 2.0, "payoff": [3.0, 1.0]}
        doc = {
            "space": {"probs": [0.5, 0.5]},
            "positions": {"X": [1.0, 1.0]},
            "asset": plain if swapped else tiny,
            "asset_r": tiny if swapped else plain,
            "acceptance": {"kind": kind, "alpha": 0.1},
        }
        path = tmp_path / "overflowing_gap.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(
                ["check", "--scenario", str(path), "--statement", "lemma-equality"], capsys)
        assert (got, out) == (2, "")
        assert err == "error: the gap direction D = S1/S0 - R1/R0 leaves the float range\n"

    @pytest.mark.parametrize(
        "statement, scenario",
        [
            ("corollary-convex", "scenarios/near_risk_free_var.json"),
            ("var-necessary", "tests/golden/distortion_mix.json"),
            ("var-condition-b", "tests/golden/distortion_mix.json"),
        ],
    )
    def test_wrong_criterion_kind_exits_2_naming_the_field(self, capsys, statement, scenario):
        code, out, err = run_cli(
            ["check", "--scenario", str(ROOT / scenario), "--statement", statement], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("scenario error: scenario.acceptance.kind: ")
        assert statement in err

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

    def test_comono_preservation_wide_payoff_exits_1(self, tmp_path, capsys):
        # payoff atoms span 10^-9..10^10: a nonconstant payoff, so both
        # witnesses exist
        weights = [144, 153, 72, 28, 227, 116, 55, 255]
        doc = {
            "space": {"probs": [w / 1050 for w in weights]},
            "positions": {"x": [0.0] * 8},
            "asset": {"price": 1.0, "payoff": [
                1.0789489382528397e-08, 612.0569701592093, 4423432432.583386,
                1525034356.73222, 1.7073557710626599e-09, 992.7730342582346,
                2637885201.2243543, 6.406327225856607e-08,
            ]},
            "acceptance": {"kind": "var", "alpha": 0.1},
        }
        path = tmp_path / "wide_payoff.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["check", "--scenario", str(path), "--statement", "comono-preservation"], capsys
        )
        assert code == 1
        result = json.loads(out)["results"][0]
        assert not result["passed"]
        assert set(result["witness"]) == {"forward", "reverse"}

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
        # an infinite solver tolerance would accept any bracket
        code, out, err = run_cli(
            [
                "eval",
                "--scenario", str(SCENARIOS / "near_risk_free_var.json"),
                "--tol", "inf",
            ],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "--tol" in err

    @pytest.mark.parametrize("scenario", ["superadditive_var.json", "near_risk_free_var.json"])
    def test_cash_reduction_takes_the_constructed_additivity_witness(self, capsys, scenario):
        # the check passes by the lemma; its audit finds the violation that
        # (x, 1), with x ejected by theorem-b, exhibits (6 sampled comonotone
        # pairs missed it), and x, y and x + y then break the identity
        path = str(SCENARIOS / scenario)
        code, out, _ = run_cli(
            ["check", "--scenario", path, "--statement", "cash-reduction",
             "--trials", "12", "--seed", "5"],
            capsys,
        )
        report = json.loads(out)
        result = report["results"][0]
        assert (code, result["verdict"], result["samples"], result["witness"]) == (0, "pass", 1, None)
        assert set(result["condition_values"]) == {"rho_one", "identity_factor"}
        assert "trials" not in report and "seed" not in report
        sc = cli.load_scenario(path)
        audit = cash_reduction_audit(sc.acceptance, sc.asset)
        assert (audit.verdict, audit.samples) == ("pass", 3)
        values = audit.condition_values
        assert (values["additivity_passed"], values["threshold"]) == (False, 1e-7)
        assert abs(audit.witness["lhs"] - audit.witness["rhs"]) > 1e-9

    @pytest.mark.parametrize(
        "extra", [["--trials", "1"], [], ["--trials", "12", "--seed", "5"]],
        ids=["trials-1", "defaults", "trials-12-seed-5"],
    )
    def test_var_condition_b_holds_at_a_rounding_boundary(self, tmp_path, capsys, extra):
        # P({0, 2}) rounds to alpha but exceeds it in exact rationals: the one
        # VaR set rejects that event, so the constructed asset passes theorem-b
        from fractions import Fraction

        from eligirisk import AcceptanceSpec, FiniteSpace, RandVar, accepts, var_loss_limit

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
        assert (code, result["verdict"], result["witness"]) == (0, "pass", None)
        assert result["condition_values"]["event"] == [1]
        space = FiniteSpace(probs)
        spec = AcceptanceSpec.var_level(alpha)
        nums, den = space.int_probs
        mass = nums[0] + nums[2]
        assert mass / den == alpha and Fraction(mass, den) > alpha
        assert var_loss_limit(spec, space) == mass - 1
        assert not accepts(spec, RandVar(space, [-1.0, 0.0, -1.0, 0.0]))
        payoff = result["condition_values"]["witness_payoff"]
        assert payoff == [1.0, 2.0, 1.0, 1.0]
        doc["asset"]["payoff"] = payoff
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["check", "--scenario", str(path), "--statement", "theorem-b"], capsys
        )
        assert (code, json.loads(out)["results"][0]["verdict"]) == (0, "pass")

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

    @pytest.mark.parametrize("statement", ["monotone", "cone"])
    def test_set_statements_ignore_trials_and_seed(self, capsys, statement):
        # decided by kind: both flags are accepted, neither is read or echoed
        path = str(SCENARIOS / "superadditive_var.json")
        reports = []
        for extra in ([], ["--trials", "1", "--seed", "3"], ["--trials", "300", "--seed", "5"]):
            code, out, err = run_cli(["check", "--scenario", path, "--statement", statement, *extra],
                                     capsys)
            assert (code, err) == (0, "")
            reports.append(json.loads(out))
        assert reports[0] == reports[1] == reports[2]
        assert "trials" not in reports[0] and "seed" not in reports[0]
        (result,) = reports[0]["results"]
        assert (result["passed"], result["trials"]) == (True, 1)

    @pytest.mark.parametrize("statement", [*sorted(IDENTITIES), "s-comonotone-additivity"])
    def test_identity_statements_ignore_trials_and_seed(self, capsys, statement):
        # a fixed position list or an exact decision: both flags are
        # accepted, neither is read or echoed
        path = str(SCENARIOS / "superadditive_var.json")
        outs = []
        for extra in ([], ["--seed", "0"], ["--seed", "5"], ["--trials", "1"]):
            argv = ["check", "--scenario", path, "--statement", statement, *extra]
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs == [outs[0]] * 4
        report = json.loads(outs[0])
        assert set(report) == {"command", "version", "results", "scenario", "statement"}
        assert "seed" not in report["results"][0]

    @pytest.mark.parametrize("statement", sorted(STATEMENTS))
    def test_report_echoes_exactly_the_inputs_the_statement_reads(
        self, tmp_path, capsys, statement
    ):
        # every flag check takes is given; no statement reads one, so none is echoed
        doc = json.loads((SCENARIOS / "near_risk_free_var.json").read_text())
        doc["asset_r"] = {"price": 2.0, "payoff": [2, 4, 2]}
        if statement == "corollary-convex":  # needs a convex criterion
            doc["acceptance"] = {"kind": "es", "alpha": 0.1}
        path = tmp_path / "all_inputs.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["check", "--scenario", str(path), "--statement", statement,
             "--trials", "12", "--seed", "5"],
            capsys,
        )
        report = json.loads(out)
        assert code in (0, 1)
        assert set(report) == {"command", "version", "results", "scenario", "statement"}


class TestByConstruction:
    @pytest.mark.parametrize(
        "scenario", [SCENARIOS / "superadditive_var.json", ROOT / "tests/golden/distortion_mix.json"],
        ids=["var", "distortion-mix"],
    )
    @pytest.mark.parametrize("statement", sorted(BY_CONSTRUCTION))
    def test_statement_rows_emit_the_table_decision(self, capsys, scenario, statement):
        code, out, err = run_cli(["check", "--scenario", str(scenario), "--statement", statement],
                                 capsys)
        sc = cli.load_scenario(str(scenario))
        want = decide_by_construction(statement, sc.acceptance, sc.asset).to_jsonable()
        assert (code, err) == (0, "")
        assert json.loads(out)["results"] == [json.loads(json.dumps(want))]

    def test_the_table_holds_five_check_statements(self):
        assert set(BY_CONSTRUCTION) == {
            "monotone", "cone", "s-additivity", "numeraire-identity", "cash-reduction"}
        assert set(BY_CONSTRUCTION) < set(STATEMENTS)


#: Statements decided by kind, by a lemma or by the constant pair: one sample, a few evaluations.
DECIDED = {"monotone", "cone", "convex", "risk-invariant", "s-comonotone-additivity",
           "s-additivity", "numeraire-identity"}


@pytest.fixture(scope="module")
def scenarios_2000(tmp_path_factory):
    """One VaR and one ES scenario on 2000 atoms of weight 1-49, 64 payoff levels."""
    rng = np.random.default_rng(2000)
    weights = rng.integers(1, 50, 2000)
    payoff = 1.0 + rng.integers(0, 64, 2000) / 64
    paths = {}
    for kind in ("var", "es"):
        doc = {
            "space": {"probs": (weights / weights.sum()).tolist()},
            "positions": {"X": (rng.integers(-64, 65, 2000) / 16).tolist()},
            "asset": {"price": 1.0, "payoff": payoff.tolist()},
            "asset_r": {"price": 2.0, "payoff": (2.0 * payoff).tolist()},
            "acceptance": {"kind": kind, "alpha": 0.1},
        }
        paths[kind] = tmp_path_factory.mktemp("atoms2000") / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return paths


def count_calls(monkeypatch) -> tuple[list, list]:
    """Membership tests and requirement evaluations, counted through wrappers."""
    tested, evaluated = [], []
    accepts, quote = acceptance.accepts, engine.rho
    counted = lambda *a: tested.append(1) or accepts(*a)
    monkeypatch.setattr(acceptance, "accepts", counted)
    monkeypatch.setattr(theorems, "accepts", counted)
    monkeypatch.setattr(engine, "rho", lambda *a, **k: evaluated.append(1) or quote(*a, **k))
    return tested, evaluated


class TestSizeContract:
    """No statement stalls at 2000 atoms.

    The decided statements report one sample and make at most three
    membership tests and three requirement evaluations, counted through
    wrappers.  Each statement prices a distinct position once.
    ``cash-reduction`` holds by the lemma and prices and enumerates nothing,
    at any size.  Its audit prices each of its two halves on its own memo:
    both scenarios fail additivity at (1, -1), whose 1, -1 and 0 are then
    its identity positions, so 3 distinct positions are priced twice.
    ``lemma-equality`` evaluates nothing: with the gap direction D zero it
    makes no membership test, and with D nonzero on one atom ES decides it
    in at most two and VaR exits 2 at the enumeration cap.
    ``s-additivity`` and ``numeraire-identity`` are decided by their
    lemmas and price nothing.  Their solver audits compare at P = 130
    positions (the scenario's one, three constants and 126 payoff steps),
    6·P and P comparisons of at most two requirement evaluations each; an
    s-additivity position recurs over the six lambda and is priced again
    only at a new tolerance.  Every other
    statement answers within a loose 10 s guard or exits 2 naming its limit.
    Both payoffs have F(S1) + F(-S1) != 0, so (1, -1) decides
    ``s-comonotone-additivity``.  A VaR payoff with a zero sum (1.5 on all
    but 300 atoms) is decided from the mass of {S1 = 1.5}, with one
    constructed pair: two samples and at most six requirement evaluations.
    """

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("statement", sorted(DECIDED))
    def test_decided_statements_take_one_sample(self, capsys, monkeypatch, scenarios_2000, kind,
                                                statement):
        tested, evaluated = count_calls(monkeypatch)
        argv = ["check", "--statement", statement, "--scenario", str(scenarios_2000[kind]),
                "--trials", "5"]
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 1) and err == ""
        (result,) = json.loads(out)["results"]
        assert result["trials"] == 1
        assert len(tested) <= 3 and len(evaluated) <= 3

    def test_comonotone_additivity_with_a_zero_sum(self, tmp_path, capsys, monkeypatch,
                                                   scenarios_2000):
        doc = json.loads(scenarios_2000["var"].read_text())
        doc["asset"]["payoff"][300:] = [1.5] * 1700
        path = tmp_path / "zero_sum.json"
        path.write_text(json.dumps(doc))
        _, evaluated = count_calls(monkeypatch)
        argv = ["check", "--statement", "s-comonotone-additivity", "--scenario", str(path),
                "--trials", "5"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (1, "")
        (result,) = json.loads(out)["results"]
        assert result["trials"] <= 2
        assert len(evaluated) <= 6

    @pytest.mark.parametrize(
        "spec,payoff",
        [(acceptance.AcceptanceSpec.expectation_floor(), [1.0, 2.0, 4.0]),
         (acceptance.AcceptanceSpec.es_level(0.1), [1.5, 1.5, 1.5]),
         # pricing (1, -1) against this payoff overflows; the rule needs no price
         (acceptance.AcceptanceSpec.var_level(0.1), [1e-310, 1e-310, 1e-310])],
        ids=["linear-risky", "es-risk-free", "var-tiny-risk-free"],
    )
    def test_comonotone_additivity_that_holds_evaluates_nothing(self, monkeypatch, spec, payoff):
        from eligirisk import FiniteSpace, RandVar

        _, evaluated = count_calls(monkeypatch)
        asset = engine.EligibleAsset(1.0, RandVar(FiniteSpace([0.25, 0.25, 0.5]), payoff))
        report = comonotone.additivity_on_S_comonotone(spec, asset)
        assert (report.passed, report.trials, report.witness) == (True, 1, None)
        assert evaluated == []

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_cash_reduction_evaluates_constructed_pairs(self, monkeypatch, scenarios_2000, kind):
        quoted = []
        quote = engine.rho
        monkeypatch.setattr(engine, "rho", lambda *a, **k: quoted.append(a[2].values.tobytes())
                            or quote(*a, **k))
        scenario = cli.load_scenario(str(scenarios_2000[kind]))
        audit = cash_reduction_audit(scenario.acceptance, scenario.asset)
        assert audit.samples == 3
        assert not audit.condition_values["additivity_passed"]
        assert len(quoted) == 6 and len(set(quoted)) == 3

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_lemma_equality_with_zero_gap_evaluates_nothing(self, capsys, monkeypatch,
                                                            scenarios_2000, kind):
        tested, evaluated = count_calls(monkeypatch)
        argv = ["check", "--statement", "lemma-equality", "--scenario", str(scenarios_2000[kind]),
                "--trials", "5"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        (result,) = json.loads(out)["results"]
        assert (result["samples"], result["witness"]) == (0, None)
        assert (len(tested), len(evaluated)) == (0, 0)

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_lemma_equality_with_a_bumped_atom(self, tmp_path, capsys, monkeypatch,
                                               scenarios_2000, kind):
        doc = json.loads(scenarios_2000[kind].read_text())
        doc["asset_r"]["payoff"][0] *= 1.25
        path = tmp_path / f"{kind}_bumped.json"
        path.write_text(json.dumps(doc))
        tested, evaluated = count_calls(monkeypatch)
        argv = ["check", "--statement", "lemma-equality", "--scenario", str(path)]
        code, out, err = run_cli(argv, capsys)
        if kind == "var":
            assert (code, out) == (2, "")
            assert "enumeration cap 20" in err
            return
        assert (code, err) == (0, "")
        (result,) = json.loads(out)["results"]
        values = result["condition_values"]
        assert not values["equality_holds"] and not values["stability_holds"]
        assert result["samples"] == 1
        assert len(tested) <= 2 and evaluated == []

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("statement", sorted(IDENTITIES))
    def test_identity_statements_price_nothing(self, capsys, monkeypatch, scenarios_2000, kind,
                                               statement):
        _, evaluated = count_calls(monkeypatch)
        argv = ["check", "--statement", statement, "--scenario", str(scenarios_2000[kind]),
                "--trials", "5"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        (result,) = json.loads(out)["results"]
        assert (result["passed"], result["trials"], result["data"]) == (True, 1, {})
        assert evaluated == []

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_cash_reduction_prices_nothing(self, capsys, monkeypatch, scenarios_2000, kind):
        tested, evaluated = count_calls(monkeypatch)
        argv = ["check", "--statement", "cash-reduction", "--scenario", str(scenarios_2000[kind])]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        (result,) = json.loads(out)["results"]
        assert (result["verdict"], result["samples"], result["witness"]) == ("pass", 1, None)
        assert (tested, evaluated) == ([], [])

    @pytest.mark.parametrize(
        "acceptance",
        [{"kind": "var", "alpha": 0.1}, {"kind": "es", "alpha": 0.1},
         {"kind": "distortion", "weights": [{"alpha": 0.1, "w": 0.5}, {"alpha": 1.0, "w": 0.5}]},
         {"kind": "expectation"}],
        ids=["var", "es", "distortion", "expectation"],
    )
    def test_cash_reduction_past_the_enumeration_cap(self, tmp_path, capsys, monkeypatch,
                                                     acceptance):
        # 64 uniform atoms, payoff 1.0 on two of them: for VaR(0.1), 62 atoms
        # lie outside the loss event of D, past the cap that an enumeration
        # would hit, but the lemma needs none, for any kind
        doc = {
            "space": {"probs": [1.0 / 64] * 64},
            "positions": {"X": [0.0] * 64},
            "asset": {"price": 1.0, "payoff": [1.0, 1.0] + [1.5] * 62},
            "acceptance": acceptance,
        }
        path = tmp_path / "uniform64.json"
        path.write_text(json.dumps(doc))
        tested, evaluated = count_calls(monkeypatch)
        code, out, err = run_cli(["check", "--statement", "cash-reduction", "--scenario", str(path)],
                                 capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"][0]["verdict"] == "pass"
        assert (tested, evaluated) == ([], [])

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("statement", sorted(IDENTITIES))
    def test_identity_statements_audit_the_fixed_list(self, monkeypatch, scenarios_2000, kind,
                                                      statement):
        audit, per_position, quotes_per_position = IDENTITIES[statement]
        quoted = []
        quote = engine.rho
        monkeypatch.setattr(engine, "rho", lambda *a, **k: quoted.append(1) or quote(*a, **k))
        scenario = cli.load_scenario(str(scenarios_2000[kind]))
        report = audit(scenario.acceptance, scenario.asset, [scenario.positions["X"]], 1e-9)
        positions = 1 + 3 + 2 * 63  # X, constants 0, 1, -1, two steps per lower payoff level
        assert report.passed is True
        assert report.trials == per_position * positions
        assert len(quoted) <= quotes_per_position * positions

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize(
        "statement",
        [*sorted(set(STATEMENTS) - DECIDED - set(IDENTITIES) - {"cash-reduction",
                                                                 "lemma-equality"}), "search"],
    )
    def test_answers_within_guard_or_exits_2(self, capsys, scenarios_2000, kind, statement):
        argv = ["search"] if statement == "search" else ["check", "--statement", statement]
        argv += ["--scenario", str(scenarios_2000[kind])]
        if statement != "search":
            argv += ["--trials", "5"]
        start = time.perf_counter()
        code, _, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 10.0
        if code == 2:
            assert "enumeration cap" in err or "needs kind" in err
        else:
            assert code in (0, 1) and err == ""


class TestConstantPayoff:
    def test_theorem_b_passes_with_exact_zero_w(self, tmp_path, capsys):
        # fl(fl(1 / s) * s) != 1 at s = 1.53125: a W formed in floats was
        # 2**-53 on every atom and ejected X = 0
        doc = {
            "space": {"probs": [k / 96 for k in (26, 1, 21, 6, 22, 17, 3)]},
            "positions": {"x": [0.0] * 7},
            "asset": {"price": 1.0, "payoff": [1.53125] * 7},
            "acceptance": {"kind": "var", "alpha": 0.3},
        }
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["check", "--scenario", str(path), "--statement", "theorem-b"], capsys
        )
        result = json.loads(out)["results"][0]
        assert (code, result["verdict"]) == (0, "pass")
        assert result["condition_values"]["w"] == [0.0] * 7
        assert result["condition_values"]["invariant_candidate_ok"]


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
        }
        path = tmp_path / "rf.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["search", "--scenario", str(path)], capsys)
        assert code == 0

    def test_numeraire_result_ignores_budget_and_seed(self, capsys):
        path = str(SCENARIOS / "es_bisection.json")
        results = []
        for extra in (["--budget", "1"], ["--budget", "30", "--seed", "5"]):
            _, out, _ = run_cli(["search", "--scenario", path, *extra], capsys)
            results.append(json.loads(out)["results"][1])
        assert results[0] == results[1]
        assert results[0]["trials"] == 1

    def test_budget_and_seed_are_accepted_not_read(self, tmp_path, capsys):
        # the search evaluates constructed pairs only: the flags do not change
        # the report and are not echoed, and a scenario may not set them
        path = SCENARIOS / "superadditive_var.json"
        reports = []
        for extra in ([], ["--budget", "1", "--seed", "3"]):
            code, out, _ = run_cli(["search", "--scenario", str(path), *extra], capsys)
            report = json.loads(out)
            assert code == 1
            assert set(report) == {"command", "version", "results", "scenario"}
            assert "seed" not in report["results"][0]
            reports.append(report["results"])
        assert reports[0] == reports[1]
        doc = json.loads(path.read_text())
        doc["options"] = {"budget": 300, "seed": 4}
        options = tmp_path / "options.json"
        options.write_text(json.dumps(doc))
        code, out, err = run_cli(["search", "--scenario", str(options)], capsys)
        assert (code, out) == (2, "")
        assert err == "scenario error: scenario.options.budget: unknown option\n"

    def test_theorem_b_enumeration_cap_exits_2(self, tmp_path, capsys):
        # (1, -1) is additive, so VaR asks theorem-b, whose loss event leaves
        # 24 atoms to enumerate: the search stops at the same cap
        doc = {
            "space": {"probs": [0.04] * 25},
            "positions": {"x": [0.0] * 25},
            "asset": {"price": 1.0, "payoff": [2.0] + [1.0] * 24},
            "acceptance": {"kind": "var", "alpha": 0.1},
        }
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["search", "--scenario", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: 24 atoms exceed the exhaustive enumeration cap 20\n"

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

    @pytest.mark.parametrize(
        "expected,fieldpath",
        [([{"svar-superadditivity": {}}], "expected"),
         ({"es-pointedness": 5}, "expected.es-pointedness"),
         ({"svar-superadditivity": {"rho_summ": 6.1}}, "expected.svar-superadditivity.rho_summ"),
         ({"svar-superadditivity": {"probs": "a"}}, "expected.svar-superadditivity.probs")],
        ids=["top-level-list", "entry-not-an-object", "misspelled-quantity", "input-not-compared"],
    )
    def test_malformed_expected_exits_2_naming_the_field(self, tmp_path, capsys, expected,
                                                         fieldpath):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps(expected))
        code, out, err = run_cli(["replicate", "--expected", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"scenario error: {fieldpath}: ")

    @pytest.mark.parametrize("value", ["a", None], ids=["string", "null"])
    def test_non_number_expected_quantity_fails_naming_it(self, tmp_path, capsys, value):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps({"svar-superadditivity": {"rho_x": value}}))
        code, out, err = run_cli(["replicate", "--expected", str(path)], capsys)
        assert (code, err) == (1, "")
        failing = [r for r in json.loads(out)["results"] if r["verdict"] == "fail"]
        assert [r["statement"] for r in failing] == ["replicate-svar-superadditivity"]
        assert failing[0]["note"].startswith(f"rho_x: expected {value!r}, computed ")

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


def _patched(**fields) -> str:
    """A valid two-atom VaR scenario with ``fields`` replaced, as JSON text."""
    doc = {
        "space": {"probs": [0.5, 0.5]},
        "positions": {"x": [0.0, 0.0]},
        "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
        "acceptance": {"kind": "var", "alpha": 0.1},
    }
    return json.dumps({**doc, **fields})


MALFORMED = [
    ("not json at all {", "scenario"),
    # the shapes of the document and of each object in it
    ("[]", "scenario: top level must be an object"),
    (_patched(space=[0.5, 0.5]), "scenario.space: must be an object"),
    (_patched(space={"probs": []}), "scenario.space.probs: must be a nonempty array of numbers"),
    (_patched(positions={}), "scenario.positions: must be a nonempty object of named vectors"),
    (_patched(asset=[1.0, 1.0]), "scenario.asset: must be an object"),
    (_patched(acceptance="var"), "scenario.acceptance: must be an object"),
    (
        _patched(acceptance={"kind": "distortion", "weights": []}),
        "scenario.acceptance.weights: must be a nonempty array",
    ),
    (
        _patched(acceptance={"kind": "distortion", "weights": [{"alpha": 0.5}]}),
        "scenario.acceptance.weights[0]: must be an object with 'alpha' and 'w'",
    ),
    (_patched(options=[1e-9]), "scenario.options: must be an object"),
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
        "scenario.options.trials: unknown option",
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
        "scenario.options.budget: unknown option",
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
    # a JSON integer past the float range is not finite either
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [0.0, 0.0]},
                "asset": {"price": 10**400, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.asset.price: must be positive and finite",
    ),
    (
        json.dumps(
            {
                "space": {"probs": [0.5, 0.5]},
                "positions": {"x": [-(10**400), 0.0]},
                "asset": {"price": 1.0, "payoff": [1.0, 1.0]},
                "acceptance": {"kind": "var", "alpha": 0.1},
            }
        ),
        "scenario.positions.x[0]: expected a finite number",
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

    def test_unreadable_scenario_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(["eval", "--scenario", str(missing)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"scenario error: scenario: cannot read {missing}: ")

    def test_unreadable_expected_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(["replicate", "--expected", str(tmp_path / "missing.json")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("scenario error: expected: cannot load expected values: ")


class TestInProcessReuse:
    def test_one_parser_serves_every_call(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "between",
        [
            (["check", "--scenario", str(SCENARIOS / "lemma_two_atom.json"),
              "--statement", "s-comonotone-additivity", "--seed", "-1"], 2),
            (["--version"], 0),
        ],
        ids=["usage-error", "version"],
    )
    def test_repeated_calls_are_byte_identical(self, capsys, between):
        argv = ["check", "--scenario", str(SCENARIOS / "superadditive_var.json"),
                "--statement", "s-comonotone-additivity", "--seed", "3", "--trials", "20"]
        first = run_cli(argv, capsys)
        assert run_cli(argv, capsys) == first
        assert run_cli(between[0], capsys)[0] == between[1]
        assert run_cli(argv, capsys) == first


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["check", "--statement", "s-comonotone-additivity"], ["check", "--statement", "theorem-b"],
         ["search"]],
        ids=["check-comonotone-additivity", "check-theorem-b", "search"],
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
            ["check", "--scenario", str(SCENARIOS / "lemma_two_atom.json"),
             "--statement", "cash-reduction", "--tol", "1e-9"],
        ],
        ids=["eval-seed", "search-tol", "replicate-seed", "replicate-tol", "check-tol"],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert argv[-2] in err

    def test_each_command_takes_exactly_its_options(self):
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        taken = {name: sorted(s for a in p._actions for s in a.option_strings)
                 for name, p in commands.choices.items()}
        every = ["-h", "--help", "--out", "--format"]
        assert taken == {
            "eval": sorted(every + ["--scenario", "--tol", "--position"]),
            "check": sorted(every + ["--scenario", "--seed", "--statement", "--trials"]),
            "search": sorted(every + ["--scenario", "--seed", "--budget"]),
            "replicate": sorted(every + ["--expected"]),
        }

    def test_unwritable_out_exits_2_naming_the_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            ["eval", "--scenario", str(SCENARIOS / "es_bisection.json"), "--out", str(target)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

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


def _with_neighbours(values: list[float]) -> list[float]:
    """Each value and its float neighbours, inside the float range."""
    out = []
    for v in values:
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return sorted({v for v in out if math.isfinite(v)})


#: 0, 5e-324, 1e-300, 1, 1e300 and the largest float, both signs, with their neighbours.
EXTREMES = _with_neighbours(
    [s * v for v in (0.0, 5e-324, 1e-300, 1.0, 1e300, sys.float_info.max) for s in (1.0, -1.0)]
)
POSITIVE_EXTREMES = [v for v in EXTREMES if v > 0.0]
#: VaR, ES, a mixture and the mean, at levels near 0, 0.5 and 1.
EXTREME_ACCEPTANCE = st.one_of(
    st.tuples(st.sampled_from(["var", "es"]), st.sampled_from([5e-324, 1e-300, 0.5, 1 - 2**-53]))
    .map(lambda ka: {"kind": ka[0], "alpha": ka[1]}),
    st.just({"kind": "distortion", "weights": [{"alpha": 0.0, "w": 0.25}, {"alpha": 0.5, "w": 0.5},
                                                {"alpha": 1.0, "w": 0.25}]}),
    st.just({"kind": "expectation"}),
)


class TestErrorContract:
    """Every command exits 0, 1 or 2 on any finite input, with no traceback."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_every_command_keeps_the_exit_contract(self, data):
        n = data.draw(st.integers(1, 4))
        vector = st.lists(st.sampled_from(EXTREMES), min_size=n, max_size=n)
        payoff = st.lists(st.sampled_from(POSITIVE_EXTREMES), min_size=n, max_size=n)
        weights = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        doc = {
            "space": {"probs": [w / sum(weights) for w in weights]},
            "positions": {"X": data.draw(vector), "Y": data.draw(vector)},
            "asset": {"price": data.draw(st.sampled_from(POSITIVE_EXTREMES)), "payoff": data.draw(payoff)},
            "asset_r": {"price": data.draw(st.sampled_from(POSITIVE_EXTREMES)), "payoff": data.draw(payoff)},
            "acceptance": data.draw(EXTREME_ACCEPTANCE),
        }
        commands = [["eval"], ["search"]] + [["check", "--statement", s] for s in sorted(STATEMENTS)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "extreme.json"
            path.write_text(json.dumps(doc))
            for command in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command[0], "--scenario", str(path), *command[1:]])
                assert code in (0, 1, 2), (command, doc)
                if code == 2:
                    assert out.getvalue() == "", (command, doc)
                    assert err.getvalue().count("\n") == 1 and "error: " in err.getvalue()
                else:
                    assert err.getvalue() == "", (command, doc)
                    results = json.loads(out.getvalue())["results"]
                    failed = any(r.get("verdict") == "fail" or r.get("passed") is False for r in results)
                    assert failed == (code == 1), (command, doc)

    def test_the_search_bracket_failure_exits_two(self, tmp_path, capsys):
        # the float shift of X = [1e300, -1e300] by the payoff [1e-300, 1] leaves
        # it unchanged far below the root 0, so no rejected level is reached
        doc = {
            "space": {"probs": [0.5, 0.5]},
            "positions": {"X": [1e300, -1e300], "Y": [0.0, 1.0]},
            "asset": {"price": 1.0, "payoff": [1e-300, 1.0]},
            "acceptance": {"kind": "expectation"},
        }
        path = tmp_path / "bracket.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["search", "--scenario", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: every capital level is acceptable; criterion is not proper\n"

    def test_a_bare_runtime_error_still_surfaces(self, monkeypatch):
        def broken(args):
            raise RuntimeError("a bug")

        monkeypatch.setitem(cli.COMMANDS, "search", (*cli.COMMANDS["search"][:2], broken))
        with pytest.raises(RuntimeError, match="a bug"):
            main(["search", "--scenario", str(SCENARIOS / "lemma_two_atom.json")])

    def test_a_failed_re_verification_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(
            theorems, "check_theorem_condition_b", lambda spec, asset: theorems.TheoremVerdict("theorem-b", "fail")
        )
        code, out, err = run_cli(
            ["check", "--scenario", str(SCENARIOS / "lemma_two_atom.json"),
             "--statement", "var-condition-b"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
