"""The benchmark's three workloads: seeded inputs, a fixed op list, and output checks.

Every input is generated here from the run's seed; the package only sees the
generated spaces, positions and scenario files.  The quote workloads draw
general float probabilities; the scenario files of ``verify-checks`` use
multiples of ``2**-BITS``, so that every subset sum is exact and the
independent check of ``var-condition-b`` can use integers.

An op is one call into the package.  Its check runs after the timed loop and
returns an error message, or None when the output is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from eligirisk import (
    AcceptanceSpec,
    DistortionWeights,
    EligibleAsset,
    FiniteSpace,
    Level,
    RandVar,
    accepts,
    cli,
    engine,
    es_choquet_oracle,
    is_comonotone,
)

GRID = 64
#: Scenario probabilities are multiples of 2**-BITS.
BITS = 12


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    sizes: dict[str, Any]


# -- generators ----------------------------------------------------------------------


def dyadic_weights(rng: np.random.Generator, n: int, bits: int) -> np.ndarray:
    """``n`` positive integers summing to ``2**bits``, each 0.5 to 1.5 times their mean.

    The cut points of a regular composition are jittered by up to a quarter of
    the mean: atoms differ (so no two events share a probability profile by
    symmetry), yet the number of events below a level varies little between
    seeds, which keeps the cost of subset enumeration in one band.
    """
    mean = 2**bits / n
    cuts = np.round(np.arange(1, n) * mean + rng.uniform(-0.25, 0.25, n - 1) * mean)
    return np.diff(np.concatenate(([0], cuts.astype(np.int64), [2**bits])))


def random_space(rng: np.random.Generator, n: int) -> FiniteSpace:
    """Non-uniform space with general float probabilities."""
    weights = rng.integers(1, 256, n).astype(float)
    return FiniteSpace(weights / weights.sum())


def grid_values(rng: np.random.Generator, n: int, span: int = 4) -> np.ndarray:
    return rng.integers(-span * GRID, span * GRID + 1, n) / GRID


def risky_payoff(rng: np.random.Generator, n: int) -> np.ndarray:
    payoff = 1.0 + rng.integers(0, GRID, n) / GRID
    if np.all(payoff == payoff[0]):
        payoff[0] += 0.5
    return payoff


MIX = ((0.01, 0.5), (0.1, 0.3), (0.5, 0.2))


# -- independent evaluations ---------------------------------------------------------


def upper_quantile(values: np.ndarray, probs: np.ndarray, beta: float) -> float:
    """sup{v : P(X < v) <= beta}, with cumulative probabilities summed exactly."""
    order = np.argsort(values, kind="stable")
    v_sorted, p_sorted = values[order].tolist(), probs[order].tolist()
    acc = Fraction(0)
    for i, (v, p) in enumerate(zip(v_sorted, p_sorted)):
        acc += Fraction(p)
        last_of_value = i + 1 == len(v_sorted) or v_sorted[i + 1] != v
        if last_of_value and (i + 1 == len(v_sorted) or float(acc) > beta):
            return v
    raise AssertionError("unreachable")


def var_quote(spec: AcceptanceSpec, asset: EligibleAsset, x: RandVar) -> float:
    """Closed-form VaR requirement S0 * VaR(X / S1), from the order statistic above."""
    ratio = x.values / asset.payoff.values
    return asset.price * -upper_quantile(ratio, x.space.probs, spec.level.alpha)


def within_ulps(got: float, want: float, ulps: float) -> bool:
    return abs(got - want) <= ulps * math.ulp(max(abs(got), abs(want), 1e-300))


def level_shift(asset: EligibleAsset, x: RandVar, m: float) -> RandVar:
    """The position after investing ``m`` in the asset, as the engine forms it."""
    return x + (m / asset.price) * asset.payoff


def condition_b_holds(weights: np.ndarray, bits: int, alpha: float) -> bool:
    """Exact subset DP: some A with 0 < P(A) <= a has P(A) + max{P(B) <= a : B in A^c} <= a.

    f[M] = max{W(B) : B subset of M, W(B) <= T} is a max-zeta transform over
    the subset lattice, computed one atom at a time in integer arithmetic.
    """
    n = weights.size
    limit = math.floor(alpha * 2**bits)
    sums = np.zeros(1, dtype=np.int64)
    for w in weights.tolist():
        sums = np.concatenate([sums, sums + w])
    best = np.where(sums <= limit, sums, 0)
    for i in range(n):
        view = best.reshape(-1, 2, 2**i)
        np.maximum(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
    full = 2**n - 1
    masks = np.arange(2**n)
    events = (sums > 0) & (sums <= limit)
    return bool(np.any(sums[events] + best[full ^ masks[events]] <= limit))


# -- quote workloads -----------------------------------------------------------------


def _quote_op(kind: str, spec: AcceptanceSpec, asset: EligibleAsset, x: RandVar, check) -> Op:
    return Op(kind, lambda: engine.rho(spec, asset, x), lambda quote: check(spec, asset, x, quote))


def _check_var_closed_form(spec, asset, x, quote) -> str | None:
    want = var_quote(spec, asset, x)
    if not within_ulps(quote.value, want, 4):
        return f"VaR quote {quote.value!r} != order statistic {want!r}"
    return None


def _check_risk_free_closed_form(spec, asset, x, quote) -> str | None:
    scale = asset.price / float(asset.payoff.values[0])
    if spec.kind == "es":
        want = scale * es_choquet_oracle(x, spec.level)
    else:
        want = scale * math.fsum(w * es_choquet_oracle(x, Level(a)) for a, w in spec.weights.points)
    # es and the oracle sum the same tail in different orders: allow one
    # rounding per atom of the largest value, the standard summation bound
    tol = 2 * x.space.n_atoms * math.ulp(x.max_abs * scale)
    if abs(quote.value - want) > tol:
        return f"{spec.kind} quote {quote.value!r} != Choquet oracle {want!r}"
    return None


def _check_bracket(spec, asset, x, quote) -> str | None:
    hi, width = quote.value, quote.bracket_width
    lo = hi - width if width > 0.0 else math.nextafter(hi, -math.inf)
    if not accepts(spec, level_shift(asset, x, hi)):
        return f"upper end {hi!r} of the bracket is not accepted"
    if accepts(spec, level_shift(asset, x, lo)):
        return f"lower end {lo!r} of the bracket is accepted"
    return None


def build_quote_large(seed: int, n_ops: int, workdir: Path) -> Workload:
    """rho on fresh positions over one 2000-atom space: closed forms, profile-bound."""
    n = 2000
    rng = np.random.default_rng([seed, 0])
    space = random_space(rng, n)
    risky = EligibleAsset(1.0, RandVar(space, risky_payoff(rng, n)))
    risk_free = EligibleAsset(1.0, RandVar.constant(space, 1.25))
    classes = (
        ("var-risky", AcceptanceSpec.var_level(0.05), risky, _check_var_closed_form),
        ("es-risk-free", AcceptanceSpec.es_level(0.1), risk_free, _check_risk_free_closed_form),
        ("mix-risk-free", AcceptanceSpec.distortion_mix(DistortionWeights(MIX)), risk_free,
         _check_risk_free_closed_form),
    )

    def ops(stream: np.random.Generator, count: int) -> list[Op]:
        out = []
        for k in range(count):
            kind, spec, asset, check = classes[k % len(classes)]
            out.append(_quote_op(kind, spec, asset, RandVar(space, grid_values(stream, n)), check))
        return out

    return Workload(
        ops=ops(rng, n_ops),
        warmup=ops(np.random.default_rng([seed, 1]), len(classes)),
        sizes={"atoms": n, "ops": n_ops, "classes": [c[0] for c in classes]},
    )


def build_quote_solver(seed: int, n_ops: int, workdir: Path) -> Workload:
    """rho by bisection: ES or a distortion mix with a risky payoff on 3-16 atoms."""
    es_levels = (0.05, 0.1, 0.25, 0.5)
    mix = AcceptanceSpec.distortion_mix(DistortionWeights(MIX))

    def ops(stream: np.random.Generator, count: int) -> list[Op]:
        out = []
        for k in range(count):
            n = int(stream.integers(3, 17))
            space = random_space(stream, n)
            asset = EligibleAsset(1.0, RandVar(space, risky_payoff(stream, n)))
            if k % 2 == 0:
                kind, spec = "es-risky", AcceptanceSpec.es_level(es_levels[int(stream.integers(4))])
            else:
                kind, spec = "mix-risky", mix
            out.append(_quote_op(kind, spec, asset, RandVar(space, grid_values(stream, n)), _check_bracket))
        return out

    return Workload(
        ops=ops(np.random.default_rng([seed, 0]), n_ops),
        warmup=ops(np.random.default_rng([seed, 1]), 2),
        sizes={"atoms": [3, 16], "ops": n_ops, "classes": ["es-risky", "mix-risky"]},
    )


# -- verify-checks -------------------------------------------------------------------


@dataclass
class Scenario:
    """A generated scenario: the file the CLI reads and the objects the checks use."""

    space: FiniteSpace
    weights: np.ndarray
    spec: AcceptanceSpec
    asset: EligibleAsset
    doc: dict


def _scenario(rng, n, acceptance: dict, risky: bool, kind: str) -> Scenario:
    weights = dyadic_weights(rng, n, BITS)
    payoff = risky_payoff(rng, n) if risky else np.full(n, 1.25)
    driver = grid_values(rng, n)
    # a book of positive multiples of one position: every pair is comonotone
    # and additive, so ``search`` probes all of them before its own probes
    book = BOOK_SIZE if kind == "search-risky" else 1
    doc = {
        "space": {"probs": (weights / 2.0**BITS).tolist()},
        "positions": {f"X{k}": (k * driver).tolist() for k in range(1, book + 1)},
        "asset": {"price": 1.0, "payoff": payoff.tolist()},
        "acceptance": acceptance,
    }
    if kind == "lemma-equality":
        # same payoff per unit of price: both assets must price every position alike
        doc["asset_r"] = {"price": 2.0, "payoff": (2.0 * payoff).tolist()}
    parsed = cli.parse_scenario(doc)
    return Scenario(parsed.space, weights, parsed.acceptance, parsed.asset, doc)


def _vec(sc: Scenario, values) -> RandVar:
    return RandVar(sc.space, np.array(values, dtype=float))


def _certify_gap(sc: Scenario, witness: dict, with_payoff: bool) -> str | None:
    """A comonotone pair whose requirement is not additive, certified by membership.

    With rx, ry, rxy the independent closed-form VaR quotes and g the gap,
    superadditivity is certified by x and y accepted at rx + |g|/4, ry + |g|/4
    and x + y rejected at rx + ry + |g|/2; subadditivity by the mirror image.
    """
    x, y = _vec(sc, witness["x"]), _vec(sc, witness["y"])
    if not is_comonotone(x, y, method="pairwise"):
        return "witness pair is not comonotone"
    if with_payoff and not (
        is_comonotone(x, sc.asset.payoff, method="pairwise")
        and is_comonotone(y, sc.asset.payoff, method="pairwise")
    ):
        return "witness pair is not comonotone with the payoff"
    rx, ry, rxy = (var_quote(sc.spec, sc.asset, v) for v in (x, y, x + y))
    gap = rxy - rx - ry
    if gap == 0.0 or not within_ulps(witness["gap"], gap, 4):
        return f"reported gap {witness['gap']!r}, independent gap {gap!r}"
    q = abs(gap) / 4.0
    s = 1.0 if gap > 0 else -1.0
    certified = (
        accepts(sc.spec, level_shift(sc.asset, x, rx + s * q)) == (s > 0)
        and accepts(sc.spec, level_shift(sc.asset, y, ry + s * q)) == (s > 0)
        and accepts(sc.spec, level_shift(sc.asset, x + y, rx + ry + s * 2 * q)) == (s < 0)
    )
    return None if certified else "membership does not certify the additivity gap"


def _certify_theorem_b(sc: Scenario, result: dict) -> str | None:
    witness, values = result["witness"], result["condition_values"]
    one = RandVar.constant(sc.space, 1.0)
    r1 = var_quote(sc.spec, sc.asset, one)
    if values["rho_one"] != r1:
        return f"rho_one {values['rho_one']!r} != order statistic {r1!r}"
    w = one + (r1 / sc.asset.price) * sc.asset.payoff
    x, shifted = _vec(sc, witness["x"]), _vec(sc, witness["shifted"])
    moved = x + w if witness["direction"] == "+" else x - w
    if shifted.tolist() != moved.tolist():
        return "shifted witness is not x -/+ the leveraged payoff"
    if not accepts(sc.spec, x) or accepts(sc.spec, shifted):
        return "membership does not certify the ejected position"
    return None


def _certify_preservation(sc: Scenario, result: dict) -> str | None:
    payoff = sc.asset.payoff
    for direction, discounted_comonotone in (("forward", True), ("reverse", False)):
        found = result["witness"][direction]
        xd, yd = _vec(sc, found["x_discounted"]), _vec(sc, found["y_discounted"])
        x, y = xd * payoff, yd * payoff
        if x.tolist() != found["x"] or y.tolist() != found["y"]:
            return f"{direction} witness is not the discounted pair times the payoff"
        if is_comonotone(xd, yd, method="pairwise") != discounted_comonotone or is_comonotone(
            x, y, method="pairwise"
        ) == discounted_comonotone:
            return f"{direction} numeraire witness does not re-verify"
    return None


def _passed(result: dict) -> bool:
    return result.get("passed", result.get("verdict") == "pass")


def _expect_pass(sc: Scenario, code: int, results: list[dict]) -> str | None:
    if code != 0 or not all(_passed(r) for r in results):
        return f"expected a pass, got exit {code}"
    certificate = results[0].get("data", {}).get("pointedness_certificate")
    if certificate is not None and not certificate["holds"]:
        return "pointedness certificate does not hold"
    return None


def _expect_theorem_b_witness(sc: Scenario, code: int, results: list[dict]) -> str | None:
    if code != 1 or results[0]["verdict"] != "fail":
        return f"expected an ejected position, got exit {code}"
    return _certify_theorem_b(sc, results[0])


def _expect_asset_comonotone_witness(sc: Scenario, code: int, results: list[dict]) -> str | None:
    if code != 1 or _passed(results[0]):
        return f"expected an additivity witness, got exit {code}"
    return _certify_gap(sc, results[0]["witness"], with_payoff=True)


def _expect_search_witnesses(sc: Scenario, code: int, results: list[dict]) -> str | None:
    if code != 1 or _passed(results[0]) or _passed(results[1]):
        return f"expected additivity and numeraire witnesses, got exit {code}"
    return _certify_gap(sc, results[0]["witness"], with_payoff=False) or _certify_preservation(
        sc, results[1]
    )


def _expect_condition_b(sc: Scenario, code: int, results: list[dict]) -> str | None:
    holds = condition_b_holds(sc.weights, BITS, sc.spec.level.alpha)
    if (code, results[0]["verdict"]) != ((0, "pass") if holds else (1, "fail")):
        return f"exact enumeration says condition holds={holds}, CLI exit {code}"
    return None


VAR = {"kind": "var", "alpha": 0.1}
MIX_DOC = {"kind": "distortion", "weights": [{"alpha": a, "w": w} for a, w in MIX]}

BOOK_SIZE = 24

#: (class, argv after the scenario, atoms, acceptance, risky payoff, expectation).
#: Trials and sizes put every class near 35 ms per op on the reference machine.
VERIFY_CLASSES = (
    ("var-condition-b", ["check", "--statement", "var-condition-b", "--trials", "20"], (14, 14),
     {"kind": "var", "alpha": 0.3}, True, _expect_condition_b),
    ("theorem-b-risk-free", ["check", "--statement", "theorem-b", "--trials", "70"], (9, 9),
     VAR, False, _expect_pass),
    ("theorem-b-risky", ["check", "--statement", "theorem-b", "--trials", "300"], (9, 9),
     VAR, True, _expect_theorem_b_witness),
    ("monotone", ["check", "--statement", "monotone", "--trials", "300"], (3, 20),
     VAR, True, _expect_pass),
    ("cone", ["check", "--statement", "cone", "--trials", "330"], (3, 20),
     VAR, True, _expect_pass),
    ("risk-invariant-es", ["check", "--statement", "risk-invariant", "--trials", "70"], (14, 16),
     {"kind": "es", "alpha": 0.2}, True, _expect_pass),
    ("risk-invariant-mix", ["check", "--statement", "risk-invariant", "--trials", "55"], (14, 16),
     MIX_DOC, True, _expect_pass),
    ("s-additivity", ["check", "--statement", "s-additivity", "--trials", "380"], (3, 20),
     VAR, True, _expect_pass),
    ("numeraire-identity", ["check", "--statement", "numeraire-identity", "--trials", "24"], (3, 20),
     VAR, True, _expect_pass),
    ("s-comonotone-additivity", ["check", "--statement", "s-comonotone-additivity", "--trials", "90"],
     (9, 10), VAR, True, _expect_asset_comonotone_witness),
    ("cash-reduction", ["check", "--statement", "cash-reduction", "--trials", "220"], (3, 20),
     VAR, True, _expect_pass),
    ("lemma-equality", ["check", "--statement", "lemma-equality", "--trials", "450"], (3, 20),
     VAR, True, _expect_pass),
    ("search-risky", ["search", "--budget", "400"], (3, 20), VAR, True, _expect_search_witnesses),
    ("search-risk-free", ["search", "--budget", "160"], (3, 20), VAR, False, _expect_pass),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``eligirisk`` invocation with its report captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(kind: str, argv: list[str], sc: Scenario, expect) -> Op:
    def check(outcome) -> str | None:
        code, text = outcome
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError):
            return f"no JSON report (exit {code})"
        return expect(sc, code, results)

    return Op(kind, lambda: run_cli(argv), check)


def build_verify_checks(seed: int, n_ops: int, workdir: Path) -> Workload:
    """In-process CLI checks and searches on generated scenario files, 3 to 20 atoms."""

    def ops(stream: np.random.Generator, count: int, prefix: str) -> list[Op]:
        out = []
        for k in range(count):
            kind, tail, (lo, hi), acceptance, risky, expect = VERIFY_CLASSES[k % len(VERIFY_CLASSES)]
            n = int(stream.integers(lo, hi + 1))
            sc = _scenario(stream, n, acceptance, risky, kind)
            path = workdir / f"{prefix}{k}.json"
            path.write_text(json.dumps(sc.doc), encoding="utf-8")
            argv = [tail[0], "--scenario", str(path), "--seed", str(int(stream.integers(2**31)))]
            out.append(_cli_op(kind, argv + tail[1:], sc, expect))
        return out

    return Workload(
        ops=ops(np.random.default_rng([seed, 0]), n_ops, "op"),
        warmup=ops(np.random.default_rng([seed, 1]), len(VERIFY_CLASSES), "warmup"),
        sizes={"atoms": [3, 20], "ops": n_ops, "classes": [c[0] for c in VERIFY_CLASSES]},
    )


WORKLOADS = {
    "quote-large": build_quote_large,
    "quote-solver": build_quote_solver,
    "verify-checks": build_verify_checks,
}
