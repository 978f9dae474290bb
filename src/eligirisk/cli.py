"""Command-line front end: scenario ingestion, evaluation, checking, searching,
and replication of the reference examples, with machine-readable reports.

Two tables drive it: ``FLAGS`` holds each flag's ``add_argument`` keywords,
and ``COMMANDS`` names each command's help, flags and runner.  A runner
returns what its report echoes, its results and whether they passed;
:func:`main` builds, emits and scores the report for every command.

Exit codes: 0 for pass/computed, 1 for a failed check or a found witness,
2 for usage or scenario-schema errors, and for the package's own runtime
failures on an input: a ``BracketExpansionError``, or the bare
``ArithmeticError`` of a witness that fails re-verification.  Exit 2 writes
one ``error:`` line to stderr and no report.  Reports echo the inputs that shaped
them and the tool version and contain no timestamps, so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable

from . import __version__
from .acceptance import AcceptanceSpec, decide_convex, decide_risk_invariant
from .comonotone import (
    additivity_on_S_comonotone,
    comono_preservation_under_numeraire,
)
from .engine import BracketExpansionError, EligibleAsset, rho
from .measures import DistortionWeights
from .spaces import FiniteSpace, RandVar
from .theorems import (
    check_corollary_convex,
    check_lemma_equality,
    check_theorem_condition_b,
    check_var_condition_b,
    check_var_necessary_condition,
    decide_by_construction,
    find_additivity_violation,
    run_replication_suite,
)
__all__ = ["STATEMENTS", "Scenario", "ScenarioError", "load_scenario", "main"]

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2


class ScenarioError(ValueError):
    """Scenario file violates the schema; carries the offending field path."""

    def __init__(self, fieldpath: str, message: str) -> None:
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


@dataclass
class Scenario:
    """Parsed scenario: space, named positions, asset(s), acceptance, ``options.tol``."""

    space: FiniteSpace
    positions: dict[str, RandVar]
    asset: EligibleAsset
    acceptance: AcceptanceSpec
    asset_r: EligibleAsset | None = None
    tol: float | None = None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return obj[key]


def _is_number(v) -> bool:
    # compared exactly, so that a JSON integer past the float range is not finite either
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number_list(raw, path: str, length: int | None = None) -> list[float]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(path, "must be a nonempty array of numbers")
    out = []
    for i, v in enumerate(raw):
        if not _is_number(v):
            raise ScenarioError(f"{path}[{i}]", f"expected a finite number, got {v!r}")
        out.append(float(v))
    if length is not None and len(out) != length:
        raise ScenarioError(path, f"expected {length} entries, got {len(out)}")
    return out


def _parse_alpha(raw: dict, path: str) -> float:
    alpha = _require(raw, "alpha", path)
    if not _is_number(alpha) or not 0.0 < alpha < 1.0:
        raise ScenarioError(f"{path}.alpha", f"must be a number in (0, 1), got {alpha!r}")
    return alpha


def _parse_distortion(raw: dict, path: str) -> AcceptanceSpec:
    weights = _require(raw, "weights", path)
    if not isinstance(weights, list) or not weights:
        raise ScenarioError(f"{path}.weights", "must be a nonempty array")
    points = []
    for i, item in enumerate(weights):
        if not isinstance(item, dict) or "alpha" not in item or "w" not in item:
            raise ScenarioError(f"{path}.weights[{i}]", "must be an object with 'alpha' and 'w'")
        for key in ("alpha", "w"):
            if not _is_number(item[key]):
                raise ScenarioError(
                    f"{path}.weights[{i}].{key}",
                    f"expected a finite number, got {item[key]!r}",
                )
        points.append((item["alpha"], item["w"]))
    try:
        mix = DistortionWeights(tuple(points))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}.weights", str(exc)) from exc
    return AcceptanceSpec.distortion_mix(mix)


#: The scenario's acceptance kinds, each with the parser of its object.
ACCEPTANCE_KINDS: dict[str, Callable[[dict, str], AcceptanceSpec]] = {
    "var": lambda raw, path: AcceptanceSpec.var_level(_parse_alpha(raw, path)),
    "es": lambda raw, path: AcceptanceSpec.es_level(_parse_alpha(raw, path)),
    "distortion": _parse_distortion,
    "expectation": lambda raw, path: AcceptanceSpec.expectation_floor(),
}


def _parse_acceptance(raw, path: str) -> AcceptanceSpec:
    if not isinstance(raw, dict):
        raise ScenarioError(path, "must be an object")
    kind = _require(raw, "kind", path)
    if not isinstance(kind, str) or kind not in ACCEPTANCE_KINDS:
        raise ScenarioError(
            f"{path}.kind", f"unknown kind {kind!r}; expected var, es, distortion, or expectation"
        )
    return ACCEPTANCE_KINDS[kind](raw, path)


def _parse_asset(raw, path: str, space: FiniteSpace) -> EligibleAsset:
    if not isinstance(raw, dict):
        raise ScenarioError(path, "must be an object")
    price = _require(raw, "price", path)
    if not _is_number(price) or not price > 0:
        raise ScenarioError(f"{path}.price", f"must be positive and finite, got {price!r}")
    payoff = _number_list(_require(raw, "payoff", path), f"{path}.payoff", space.n_atoms)
    if min(payoff) <= 0.0:
        raise ScenarioError(f"{path}.payoff", "payoff values must be strictly positive")
    return EligibleAsset(float(price), RandVar(space, payoff))


def parse_scenario(doc: Any) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario", "top level must be an object")
    raw_space = _require(doc, "space", "scenario")
    if not isinstance(raw_space, dict):
        raise ScenarioError("scenario.space", "must be an object")
    probs = _number_list(_require(raw_space, "probs", "scenario.space"), "scenario.space.probs")
    try:
        space = FiniteSpace(probs)
    except ValueError as exc:
        raise ScenarioError("scenario.space.probs", str(exc)) from exc
    labels = raw_space.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != space.n_atoms):
        raise ScenarioError("scenario.space.labels", f"must list {space.n_atoms} atom labels")

    raw_positions = _require(doc, "positions", "scenario")
    if not isinstance(raw_positions, dict) or not raw_positions:
        raise ScenarioError("scenario.positions", "must be a nonempty object of named vectors")
    positions = {}
    for name, vec in raw_positions.items():
        positions[name] = RandVar(
            space, _number_list(vec, f"scenario.positions.{name}", space.n_atoms)
        )

    asset = _parse_asset(_require(doc, "asset", "scenario"), "scenario.asset", space)
    asset_r = None
    if "asset_r" in doc:
        asset_r = _parse_asset(doc["asset_r"], "scenario.asset_r", space)
    acceptance = _parse_acceptance(_require(doc, "acceptance", "scenario"), "scenario.acceptance")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ScenarioError("scenario.options", "must be an object")
    for key, val in options.items():
        if key != "tol":
            raise ScenarioError(f"scenario.options.{key}", "unknown option")
        if not _is_number(val) or not val > 0:
            raise ScenarioError("scenario.options.tol", f"must be positive and finite, got {val!r}")

    return Scenario(space, positions, asset, acceptance, asset_r, options.get("tol"))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError("scenario", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario", f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(doc)


def _emit(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{report['command']} (eligirisk {report['version']})"]
        for item in report["results"]:
            lines.append(json.dumps(item, sort_keys=True))
        text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _base_report(command: str, **echo) -> dict:
    report = {"command": command, "version": __version__, "results": []}
    report.update({k: v for k, v in echo.items() if v is not None})
    return report


def _asset_r(scenario: Scenario) -> EligibleAsset:
    if scenario.asset_r is None:
        raise ScenarioError("scenario.asset_r", "lemma-equality needs a second asset")
    return scenario.asset_r


def _var_spec(scenario: Scenario, statement: str) -> AcceptanceSpec:
    if scenario.acceptance.kind != "var":
        raise ScenarioError("scenario.acceptance.kind", f"{statement} needs kind 'var'")
    return scenario.acceptance


def _convex_spec(scenario: Scenario) -> AcceptanceSpec:
    if not scenario.acceptance.is_convex_kind:
        raise ScenarioError(
            "scenario.acceptance.kind",
            "corollary-convex needs kind 'es', 'distortion' or 'expectation'",
        )
    return scenario.acceptance


#: Statement id -> checker on the scenario ``sc``; no checker reads a tolerance.
#: The ids are the choices of ``check --statement``.
STATEMENTS: dict[str, Callable[[Scenario], Any]] = {
    "theorem-b": lambda sc: check_theorem_condition_b(sc.acceptance, sc.asset),
    "corollary-convex": lambda sc: check_corollary_convex(_convex_spec(sc), sc.asset),
    "cash-reduction": lambda sc: decide_by_construction("cash-reduction", sc.acceptance, sc.asset),
    "lemma-equality": lambda sc: check_lemma_equality(sc.acceptance, sc.asset, _asset_r(sc)),
    "var-necessary": lambda sc: check_var_necessary_condition(
        _var_spec(sc, "var-necessary"), sc.asset),
    "var-condition-b": lambda sc: check_var_condition_b(
        sc.space, _var_spec(sc, "var-condition-b").level),
    "monotone": lambda sc: decide_by_construction("monotone", sc.acceptance, sc.asset),
    "cone": lambda sc: decide_by_construction("cone", sc.acceptance, sc.asset),
    "convex": lambda sc: decide_convex(sc.acceptance, sc.space),
    "risk-invariant": lambda sc: decide_risk_invariant(sc.acceptance, sc.space),
    "s-additivity": lambda sc: decide_by_construction("s-additivity", sc.acceptance, sc.asset),
    "numeraire-identity": lambda sc: decide_by_construction(
        "numeraire-identity", sc.acceptance, sc.asset),
    "s-comonotone-additivity": lambda sc: additivity_on_S_comonotone(sc.acceptance, sc.asset),
    "comono-preservation": lambda sc: comono_preservation_under_numeraire(sc.asset),
}


def _eval(args) -> tuple[dict, list, bool]:
    scenario = load_scenario(args.scenario)
    names = args.position or sorted(scenario.positions)
    for name in names:
        if name not in scenario.positions:
            raise ScenarioError(f"scenario.positions.{name}", "position not defined")
    tol = args.tol if args.tol is not None else scenario.tol
    quotes = [
        {"position": name,
         **asdict(rho(scenario.acceptance, scenario.asset, scenario.positions[name], tol=tol))}
        for name in names
    ]
    return {"scenario": args.scenario, "tol": tol}, quotes, True


def _check(args) -> tuple[dict, list, bool]:
    result = STATEMENTS[args.statement](load_scenario(args.scenario))
    return {"scenario": args.scenario, "statement": args.statement}, [result], result.passed


def _search(args) -> tuple[dict, list, bool]:
    scenario = load_scenario(args.scenario)
    book = [scenario.positions[name] for name in sorted(scenario.positions)]
    results = [
        find_additivity_violation(scenario.acceptance, scenario.asset, book),
        comono_preservation_under_numeraire(scenario.asset),
    ]
    return {"scenario": args.scenario}, results, all(r.passed for r in results)


def _replicate(args) -> tuple[dict, list, bool]:
    overrides = None
    if args.expected:
        try:
            with open(args.expected, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError("expected", f"cannot load expected values: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ScenarioError("expected", "top level must be an object of fixture patches")
        for key, patch in overrides.items():
            if not isinstance(patch, dict):
                raise ScenarioError(f"expected.{key}", f"must be an object, got {patch!r}")
    try:
        verdicts = run_replication_suite(overrides)
    except KeyError as exc:
        path, message = exc.args
        raise ScenarioError(f"expected.{path}", message) from exc
    passed = all(v.passed for v in verdicts)
    return {"expected": args.expected, "all_passed": passed}, verdicts, passed


def int_at_least(least: int) -> Callable[[str], int]:
    """argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


def positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


#: Flag -> its ``add_argument`` keywords.  No checker or search samples:
#: ``--seed``, ``--trials`` and ``--budget`` are kept, validated but not read,
#: only because the benchmark's op lists still pass them.  Only ``eval`` reads
#: ``--tol``, as its solver tolerance; no ``check`` statement compares within one.
FLAGS: dict[str, dict[str, Any]] = {
    "scenario": {"required": True, "help": "path to a scenario JSON file"},
    "seed": {"type": int_at_least(0), "help": "accepted, not read"},
    "trials": {"type": int_at_least(1), "help": "accepted, not read"},
    "budget": {"type": int_at_least(1), "help": "accepted, not read"},
    "tol": {"type": positive_float, "help": "solver tolerance"},
    "position": {"action": "append", "help": "position name (repeatable)"},
    "statement": {"required": True, "choices": STATEMENTS, "metavar": "ID",
                  "help": "statement id: " + ", ".join(sorted(STATEMENTS))},
    "expected": {"help": "JSON file overriding expected fixture values"},
    "out": {"help": "write the report here instead of stdout"},
    "format": {"choices": ("json", "text"), "default": "json"},
}

#: Command -> (help, flags in usage order, runner).  A runner returns the
#: inputs its report echoes, its results (plain dicts or objects with
#: ``to_jsonable``) and whether they all passed.
COMMANDS: dict[str, tuple[str, tuple[str, ...], Callable[..., tuple[dict, list, bool]]]] = {
    "eval": ("price named positions", ("scenario", "tol", "out", "format", "position"), _eval),
    "check": ("run a statement checker",
              ("scenario", "seed", "out", "format", "statement", "trials"), _check),
    "search": ("search for additivity and numeraire witnesses",
               ("scenario", "seed", "out", "format", "budget"), _search),
    "replicate": ("recompute the reference examples", ("out", "format", "expected"), _replicate),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eligirisk",
        description="Capital requirements with general eligible assets on finite spaces",
    )
    parser.add_argument("--version", action="version", version=f"eligirisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            command.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        echo, results, passed = COMMANDS[args.command][2](args)
        report = _base_report(args.command, **echo)
        report["results"] = [r if isinstance(r, dict) else r.to_jsonable() for r in results]
        _emit(report, args.format, args.out)
    except ScenarioError as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, KeyError, BracketExpansionError, ArithmeticError) as exc:
        if isinstance(exc, ArithmeticError) and type(exc) is not ArithmeticError:
            raise  # a ZeroDivisionError or OverflowError is a bug, not an input error
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_WITNESS


if __name__ == "__main__":
    sys.exit(main())
