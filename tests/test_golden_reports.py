"""Golden CLI reports: stdout, stderr and exit code of fixed invocations.

``golden/reports.json`` holds the output of every statement id on every
shipped scenario (plus the scenarios in ``golden/``), of ``eval``,
``search`` and ``replicate``, with small trial counts and budgets.  Any
refactor of the checkers must reproduce them byte for byte.  To record
them again after an intended output change, run from the repository root::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from eligirisk.cli import STATEMENTS, main

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
        for seed in ([], ["--seed", "5"]):
            out.append(["search", "--scenario", path, "--budget", "30", *seed])
            for statement in STATEMENTS:
                out.append(
                    ["check", "--scenario", path, "--statement", statement, "--trials", "12", *seed]
                )
    near = "scenarios/near_risk_free_var.json"
    out += [
        ["replicate"],
        ["replicate", "--format", "text"],
        ["eval", "--scenario", "scenarios/superadditive_var.json", "--format", "text"],
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


@pytest.mark.parametrize("want", GOLDEN_CASES, ids=[" ".join(c["argv"]) for c in GOLDEN_CASES])
def test_report_is_byte_identical(want, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = run(want["argv"])
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])
    if want["stderr"].startswith("usage:"):
        assert _usage_error(got["stderr"]) == _usage_error(want["stderr"])
    else:
        assert got["stderr"] == want["stderr"]


if __name__ == "__main__":
    os.chdir(ROOT)
    recorded = [run(argv) for argv in cases()]
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(recorded)} reports in {GOLDEN}\n")
