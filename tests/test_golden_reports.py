"""Golden CLI reports: stdout, stderr and exit code of fixed invocations.

``golden/reports.json`` holds the output of every statement id on every
shipped scenario (plus the scenarios in ``golden/``), of ``eval``,
``search`` and ``replicate``, with small trial counts and budgets.  Any
refactor of the checkers must reproduce them byte for byte.  No checker
reads a seed, so each ``check`` and ``search`` case is recorded once, and
rerun with ``--seed 5`` against the same record.  To record
them again after an intended output change, run from the repository root::

    PYTHONPATH=src python tests/test_golden_reports.py

The recorded witnesses are also re-verified from their JSON floats, through
the public membership and comonotonicity predicates alone.
"""

import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eligirisk import RandVar, accepts, is_comonotone
from eligirisk.cli import STATEMENTS, Scenario, load_scenario, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reports.json"
SCENARIO_FILES = sorted(
    p.relative_to(ROOT).as_posix()
    for p in [*ROOT.glob("scenarios/*.json"), *ROOT.glob("tests/golden/*.json")]
    if p != GOLDEN
)


def cases() -> list[list[str]]:
    out = []
    for path in SCENARIO_FILES:
        out.append(["eval", "--scenario", path])
        out.append(["search", "--scenario", path, "--budget", "30"])
        for statement in STATEMENTS:
            out.append(["check", "--scenario", path, "--statement", statement, "--trials", "12"])
    near = "scenarios/near_risk_free_var.json"
    out += [
        ["replicate"],
        ["replicate", "--format", "text"],
        ["eval", "--scenario", "scenarios/superadditive_var.json", "--format", "text"],
        ["search", "--scenario", "scenarios/superadditive_var.json", "--format", "text"],
        ["check", "--scenario", near, "--statement", "theorem-b"],
        ["check", "--scenario", near, "--statement", "theorem-b", "--trials", "0"],
        ["check", "--scenario", near, "--statement", "cash-reduction", "--trials", "0"],
        ["check", "--scenario", "tests/golden/distortion_mix.json", "--statement", "lemma-equality",
         "--trials", "-1"],
        ["search", "--scenario", near, "--budget", "0"],
        ["check", "--scenario", near, "--statement", "no-such-statement"],
    ]
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _usage_error(stderr: str) -> list[str]:
    """Program, "error" and the argument named in an argparse rejection.

    The rest of argparse's wording differs between Python versions.
    """
    return stderr.splitlines()[-1].split(":")[:3]


GOLDEN_CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_covers_every_case():
    assert [case["argv"] for case in GOLDEN_CASES] == cases()


def assert_same_report(got: dict, want: dict) -> None:
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])
    if want["stderr"].startswith("usage:"):
        assert _usage_error(got["stderr"]) == _usage_error(want["stderr"])
    else:
        assert got["stderr"] == want["stderr"]


@pytest.mark.parametrize("want", GOLDEN_CASES, ids=[" ".join(c["argv"]) for c in GOLDEN_CASES])
def test_report_is_byte_identical(want, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert_same_report(run(want["argv"]), want)


SEEDED = [case for case in GOLDEN_CASES if case["argv"][0] in ("check", "search")]


@pytest.mark.parametrize("want", SEEDED, ids=[" ".join(c["argv"]) for c in SEEDED])
def test_seed_changes_no_report(want, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert_same_report(run([*want["argv"], "--seed", "5"]), want)


def _results(case: dict) -> list[dict]:
    """The results of a golden report, read from its JSON or its text lines."""
    if case["exit"] == 2:
        return []
    if case["stdout"].startswith("{"):
        return json.loads(case["stdout"])["results"]
    return [json.loads(line) for line in case["stdout"].splitlines()[1:]]


def test_no_check_report_echoes_a_tolerance():
    checks = [case for case in GOLDEN_CASES if case["argv"][0] == "check" and case["exit"] != 2]
    assert checks and not any('"tol"' in case["stdout"] for case in checks)


def test_no_result_has_a_seed_key():
    results = [result for case in GOLDEN_CASES for result in _results(case)]
    assert results and not any("seed" in result for result in results)


def _name(result: dict) -> str:
    """A statement verdict's ``statement``, or a property report's ``name``."""
    return result.get("statement", result.get("name"))


@functools.cache
def _scenario(path: str) -> Scenario:
    return load_scenario(str(ROOT / path))


def _certify_ejection(sc: Scenario, witness: dict) -> tuple[RandVar, RandVar]:
    """x is accepted and the shifted position is not: the shift ejects x."""
    x, shifted = RandVar(sc.space, witness["x"]), RandVar(sc.space, witness["shifted"])
    assert accepts(sc.acceptance, x) and not accepts(sc.acceptance, shifted)
    return x, shifted


def _certify_theorem_b(sc: Scenario, result: dict) -> None:
    x, shifted = _certify_ejection(sc, result["witness"])
    w = RandVar(sc.space, result["condition_values"]["w"])
    assert shifted.tolist() == (x + w if result["witness"]["direction"] == "+" else x - w).tolist()


def _certify_convex(sc: Scenario, result: dict) -> None:
    witness = result["witness"]
    x, y, blend = (RandVar(sc.space, witness[key]) for key in ("x", "y", "blend"))
    assert accepts(sc.acceptance, x) and accepts(sc.acceptance, y)
    assert not accepts(sc.acceptance, blend)
    assert blend.tolist() == (witness["t"] * x + (1.0 - witness["t"]) * y).tolist()


def _certify_risk_invariant(sc: Scenario, result: dict) -> None:
    w = RandVar(sc.space, result["witness"]["w"])
    if sc.acceptance.kind == "var":
        assert accepts(sc.acceptance, w) and accepts(sc.acceptance, -w)
    else:
        # expectation-linear: the mean is zero in exact rationals over the
        # stored probabilities, which the float mean need not show
        nums, _ = sc.space.int_probs
        assert w.max_abs > 0.0 and sum(n * Fraction(v) for n, v in zip(nums, w.tolist())) == 0


def _certify_numeraire(sc: Scenario, result: dict) -> None:
    payoff = sc.asset.payoff
    for direction, discounted_comonotone in (("forward", True), ("reverse", False)):
        found = result["witness"][direction]
        xd, yd, x, y = (
            RandVar(sc.space, found[key]) for key in ("x_discounted", "y_discounted", "x", "y")
        )
        assert ((xd * payoff).tolist(), (yd * payoff).tolist()) == (x.tolist(), y.tolist())
        assert is_comonotone(xd, yd, method="pairwise") == discounted_comonotone
        assert is_comonotone(x, y, method="pairwise") != discounted_comonotone


def _certify_pair(sc: Scenario, result: dict, with_payoff: bool) -> None:
    x, y = (RandVar(sc.space, result["witness"][key]) for key in ("x", "y"))
    assert is_comonotone(x, y, method="pairwise")
    if with_payoff:
        assert is_comonotone(x, sc.asset.payoff, method="pairwise")
        assert is_comonotone(y, sc.asset.payoff, method="pairwise")


def _certify_lemma_equality(sc: Scenario, result: dict) -> None:
    """The ejection along D re-verifies, and Z = x - t * R1/R0 is rebuilt bit for bit."""
    stability = result["witness"]["stability"]
    x, _ = _certify_ejection(sc, stability)
    t = 1.0 if stability["direction"] == "+" else -1.0
    z = x - t * (sc.asset_r.payoff / sc.asset_r.price)
    assert result["witness"]["equality"] == {"x": z.tolist()}


#: Result name -> the re-verification of its witness.  A convex criterion's
#: ``w_invariant`` needs an exact functional, so it is not re-verified here.
CERTIFIERS = {
    "theorem-b": _certify_theorem_b,
    "lemma-equality": _certify_lemma_equality,
    "convex": _certify_convex,
    "risk-invariant": _certify_risk_invariant,
    "numeraire-comonotonicity": _certify_numeraire,
    "additivity-violation": functools.partial(_certify_pair, with_payoff=False),
    "asset-comonotone-additivity": functools.partial(_certify_pair, with_payoff=True),
}

WITNESSES = [
    (case["argv"], result)
    for case in GOLDEN_CASES
    for result in _results(case)
    if result.get("witness")
    and _name(result) in CERTIFIERS
    and "w_invariant" not in result["witness"]
]


def test_every_certifier_has_a_golden_witness():
    assert {_name(result) for _, result in WITNESSES} == set(CERTIFIERS)


@pytest.mark.parametrize(
    "argv, result",
    WITNESSES,
    ids=[" ".join(argv) + " " + _name(result) for argv, result in WITNESSES],
)
def test_witness_re_verifies_from_json(argv, result):
    sc = _scenario(argv[argv.index("--scenario") + 1])
    CERTIFIERS[_name(result)](sc, result)


if __name__ == "__main__":
    os.chdir(ROOT)
    recorded = [run(argv) for argv in cases()]
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(recorded)} reports in {GOLDEN}\n")
