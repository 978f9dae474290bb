"""Command-line front end: scenario ingestion, evaluation, checking, searching,
and replication of the reference examples, with machine-readable reports.

Exit codes: 0 for pass/computed, 1 for a failed check or a found witness,
2 for usage or scenario-schema errors.  Reports echo the inputs that shaped
them and the tool version and contain no timestamps, so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from . import __version__
from .acceptance import (
    AcceptanceSpec,
    check_cone,
    check_convex,
    check_monotone,
    find_risk_invariant,
)
from .comonotone import (
    additivity_on_S_comonotone,
    comono_preservation_under_numeraire,
)
from .engine import (
    EligibleAsset,
    numeraire_identity_check,
    rho,
    s_additivity_check,
)
from .measures import DistortionWeights, Level
from .spaces import FiniteSpace, RandVar
from .theorems import (
    check_corollary_convex,
    check_lemma_equality,
    check_cash_reduction_identity,
    check_theorem_condition_b,
    check_var_condition_b,
    check_var_necessary_condition,
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
    """Parsed scenario: space, named positions, asset(s), acceptance, options."""

    space: FiniteSpace
    positions: dict[str, RandVar]
    asset: EligibleAsset
    acceptance: AcceptanceSpec
    asset_r: EligibleAsset | None = None
    options: dict[str, Any] = field(default_factory=dict)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return obj[key]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


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


def _parse_acceptance(raw, path: str) -> AcceptanceSpec:
    if not isinstance(raw, dict):
        raise ScenarioError(path, "must be an object")
    kind = _require(raw, "kind", path)
    if kind == "var" or kind == "es":
        alpha = _require(raw, "alpha", path)
        if not _is_number(alpha) or not 0.0 < alpha < 1.0:
            raise ScenarioError(f"{path}.alpha", f"must be a number in (0, 1), got {alpha!r}")
        return AcceptanceSpec.var_level(alpha) if kind == "var" else AcceptanceSpec.es_level(alpha)
    if kind == "distortion":
        weights = _require(raw, "weights", path)
        if not isinstance(weights, list) or not weights:
            raise ScenarioError(f"{path}.weights", "must be a nonempty array")
        points = []
        for i, item in enumerate(weights):
            if not isinstance(item, dict) or "alpha" not in item or "w" not in item:
                raise ScenarioError(
                    f"{path}.weights[{i}]", "must be an object with 'alpha' and 'w'"
                )
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
    if kind == "expectation":
        return AcceptanceSpec.expectation_floor()
    raise ScenarioError(
        f"{path}.kind", f"unknown kind {kind!r}; expected var, es, distortion, or expectation"
    )


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
        if key == "tol":
            if not _is_number(val) or not val > 0:
                raise ScenarioError("scenario.options.tol", f"must be positive and finite, got {val!r}")
        elif key in ("seed", "trials", "budget"):
            least, word = (0, "nonnegative") if key == "seed" else (1, "positive")
            if isinstance(val, bool) or not isinstance(val, int) or val < least:
                raise ScenarioError(
                    f"scenario.options.{key}", f"must be a {word} integer, got {val!r}"
                )
        else:
            raise ScenarioError(f"scenario.options.{key}", "unknown option")

    return Scenario(space, positions, asset, acceptance, asset_r, dict(options))


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
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, **echo) -> dict:
    report = {"command": command, "version": __version__, "results": []}
    report.update({k: v for k, v in echo.items() if v is not None})
    return report


def _input(args, scenario: Scenario, name: str, default=None):
    flag = getattr(args, name)
    return flag if flag is not None else scenario.options.get(name, default)


def cmd_eval(args) -> int:
    scenario = load_scenario(args.scenario)
    names = args.position or sorted(scenario.positions)
    for name in names:
        if name not in scenario.positions:
            raise ScenarioError(f"scenario.positions.{name}", "position not defined")
    tol = _input(args, scenario, "tol")
    report = _base_report("eval", scenario=args.scenario, tol=tol)
    for name in names:
        quote = rho(scenario.acceptance, scenario.asset, scenario.positions[name], tol=tol)
        report["results"].append(
            {
                "position": name,
                "value": quote.value,
                "method": quote.method,
                "iterations": quote.iterations,
                "bracket_width": quote.bracket_width,
            }
        )
    _emit(report, args.format, args.out)
    return EXIT_OK


def _asset_r(scenario: Scenario) -> EligibleAsset:
    if scenario.asset_r is None:
        raise ScenarioError("scenario.asset_r", "lemma-equality needs a second asset")
    return scenario.asset_r


def _var_level(scenario: Scenario) -> Level:
    if scenario.acceptance.kind != "var":
        raise ScenarioError("scenario.acceptance.kind", "var-condition-b needs kind 'var'")
    return scenario.acceptance.level


#: Inputs that neither a flag nor the scenario's ``options`` set.
DEFAULTS = {"trials": 500, "seed": 0, "tol": 1e-9, "budget": 2000}

#: Statement id -> checker on ``sc`` and the inputs it reads, which ``check``
#: passes and echoes.  The ids are the choices of ``check --statement``.
STATEMENTS: dict[str, Callable[..., Any]] = {
    "theorem-b": lambda sc: check_theorem_condition_b(sc.acceptance, sc.asset),
    "corollary-convex": lambda sc: check_corollary_convex(sc.acceptance, sc.asset),
    "cash-reduction": lambda sc, trials, seed, tol: check_cash_reduction_identity(
        sc.acceptance, sc.asset, trials, seed, tol),
    "lemma-equality": lambda sc, trials, seed, tol: check_lemma_equality(
        sc.acceptance, sc.asset, _asset_r(sc), trials, seed, tol),
    "var-necessary": lambda sc: check_var_necessary_condition(sc.acceptance, sc.asset),
    "var-condition-b": lambda sc: check_var_condition_b(sc.space, _var_level(sc)),
    "monotone": lambda sc, trials, seed: check_monotone(sc.acceptance, sc.space, trials, seed),
    "cone": lambda sc, trials, seed: check_cone(sc.acceptance, sc.space, trials, seed),
    "convex": lambda sc, trials, seed: check_convex(sc.acceptance, sc.space, trials, seed),
    "risk-invariant": lambda sc, trials, seed: find_risk_invariant(
        sc.acceptance, sc.space, trials, seed),
    "s-additivity": lambda sc, trials, seed, tol: s_additivity_check(
        sc.acceptance, sc.asset, trials, seed, tol),
    "numeraire-identity": lambda sc, trials, seed, tol: numeraire_identity_check(
        sc.acceptance, sc.asset, trials, seed, tol),
    "s-comonotone-additivity": lambda sc, trials, seed: additivity_on_S_comonotone(
        sc.acceptance, sc.asset, trials, seed),
    "comono-preservation": lambda sc, trials, seed: comono_preservation_under_numeraire(
        sc.asset, trials, seed),
}


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    checker = STATEMENTS[args.statement]
    names = list(inspect.signature(checker).parameters)[1:]
    inputs = {name: _input(args, scenario, name, DEFAULTS[name]) for name in names}
    result = checker(scenario, **inputs)
    report = _base_report("check", scenario=args.scenario, statement=args.statement, **inputs)
    report["results"].append(result.to_jsonable())
    _emit(report, args.format, args.out)
    return EXIT_OK if result.passed else EXIT_WITNESS


def cmd_search(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = _input(args, scenario, "seed", DEFAULTS["seed"])
    budget = _input(args, scenario, "budget", DEFAULTS["budget"])
    seed_pairs = []
    names = sorted(scenario.positions)
    for i, a in enumerate(names):
        for b in names[i:]:
            seed_pairs.append((scenario.positions[a], scenario.positions[b]))
    violation = find_additivity_violation(
        scenario.acceptance, scenario.asset, budget, seed, seed_pairs=seed_pairs
    )
    preservation = comono_preservation_under_numeraire(scenario.asset, budget, seed)
    report = _base_report("search", scenario=args.scenario, seed=seed, budget=budget)
    report["results"].append(violation.to_jsonable())
    report["results"].append(preservation.to_jsonable())
    found = not violation.passed or not preservation.passed
    _emit(report, args.format, args.out)
    return EXIT_WITNESS if found else EXIT_OK


def cmd_replicate(args) -> int:
    overrides = None
    if args.expected:
        try:
            with open(args.expected, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError("expected", f"cannot load expected values: {exc}") from exc
    try:
        verdicts = run_replication_suite(overrides)
    except KeyError as exc:
        raise ScenarioError("expected", str(exc)) from exc
    report = _base_report("replicate", expected=args.expected)
    report["results"] = [v.to_jsonable() for v in verdicts]
    report["all_passed"] = all(v.passed for v in verdicts)
    _emit(report, args.format, args.out)
    return EXIT_OK if report["all_passed"] else EXIT_WITNESS


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eligirisk",
        description="Capital requirements with general eligible assets on finite spaces",
    )
    parser.add_argument("--version", action="version", version=f"eligirisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *inputs: str) -> None:
        if "scenario" in inputs:
            p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        if "seed" in inputs:
            p.add_argument("--seed", type=int_at_least(0), help="seed for randomized checkers")
        if "tol" in inputs:
            p.add_argument("--tol", type=positive_float, help="solver / comparison tolerance")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_eval = sub.add_parser("eval", help="price named positions")
    common(p_eval, "scenario", "tol")
    p_eval.add_argument(
        "--position", action="append", default=None, help="position name (repeatable)"
    )
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run a statement checker")
    common(p_check, "scenario", "seed", "tol")
    p_check.add_argument(
        "--statement", required=True, choices=STATEMENTS, metavar="ID",
        help="statement id: " + ", ".join(sorted(STATEMENTS)),
    )
    p_check.add_argument("--trials", type=int_at_least(1))
    p_check.set_defaults(func=cmd_check)

    p_search = sub.add_parser("search", help="search for additivity and numeraire witnesses")
    common(p_search, "scenario", "seed")
    p_search.add_argument("--budget", type=int_at_least(1))
    p_search.set_defaults(func=cmd_search)

    p_rep = sub.add_parser("replicate", help="recompute the reference examples")
    common(p_rep)
    p_rep.add_argument(
        "--expected", default=None, help="JSON file overriding expected fixture values"
    )
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ScenarioError as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
