"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one machine-greppable verdict line; run with

    pytest tests/test_acceptance.py -s

to see the full checklist.  Runtime budgets bound the measured core region
after a warm-up call where the criterion is about a hot path.
"""

import json
import time

import numpy as np

from eligirisk import (
    REFERENCE_VALUES,
    AcceptanceSpec,
    DistortionWeights,
    EligibleAsset,
    FiniteSpace,
    Level,
    RandVar,
    accepts,
    check_corollary_convex,
    check_theorem_condition_b,
    check_var_condition_b,
    check_var_necessary_condition,
    comono_preservation_under_numeraire,
    distortion,
    es,
    es_choquet_oracle,
    expectation,
    find_additivity_violation,
    is_comonotone,
    rho,
    var,
)
from eligirisk.cli import main

from forced_bisection import rho_bisection
from identity_audits import numeraire_identity_check, s_additivity_check
from sampling import generate_comonotone_pair


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def random_space(rng, n_min=2, n_max=12):
    n = int(rng.integers(n_min, n_max + 1))
    w = rng.integers(1, 64, n).astype(float)
    return FiniteSpace(w / w.sum())


def grid_rv(space, rng):
    return RandVar(space, rng.integers(-256, 257, space.n_atoms) / 64)


def test_criterion_1_superadditivity_numbers():
    space = FiniteSpace([0.05, 0.05, 0.9])
    spec = AcceptanceSpec.var_level(0.05)
    asset = EligibleAsset(1.0, RandVar(space, [1.0, 2.0, 1.0]))
    x = RandVar(space, [-2.0, -3.0, 2.0])
    y = RandVar(space, [-4.0, -9.0, 0.0])
    xy = x + y
    rho(spec, asset, x)  # warm the closed-form path

    start = time.perf_counter()
    vx = rho(spec, asset, x).value
    vy = rho(spec, asset, y).value
    vxy = rho(spec, asset, xy).value
    elapsed = time.perf_counter() - start

    assert abs(vx - 1.5) <= 1e-12
    assert abs(vy - 4.0) <= 1e-12
    assert abs(vxy - 6.0) <= 1e-12
    assert vxy > vx + vy
    assert elapsed < 1e-3, f"three closed-form quotes took {elapsed * 1e3:.3f} ms"
    report(1, f"requirement triple (1.5, 4, 6) exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_counterexample_replication():
    space = FiniteSpace([0.1, 0.1, 0.8])
    spec = AcceptanceSpec.var_level(0.1)
    asset = EligibleAsset(1.0, RandVar(space, [1.0, 2.0, 1.0]))
    one = RandVar.constant(space, 1.0)
    # warm the three code paths once; the budget is for the computation
    rho(spec, asset, one)
    check_var_necessary_condition(spec, asset)
    check_theorem_condition_b(spec, asset)

    start = time.perf_counter()
    r1 = rho(spec, asset, one).value
    necessary = check_var_necessary_condition(spec, asset)
    stability = check_theorem_condition_b(spec, asset)
    elapsed = time.perf_counter() - start

    assert r1 == -1.0
    assert necessary.verdict == "pass"
    assert stability.verdict == "fail"
    assert stability.witness["x"].tolist() == [-1.0, 0.0, 0.0]
    assert accepts(spec, stability.witness["x"])
    assert not accepts(spec, stability.witness["shifted"])
    assert elapsed < 1e-2, f"counterexample replication took {elapsed * 1e3:.2f} ms"
    report(2, f"rho(1) = -1, concentration holds, stability fails at -1_A ({elapsed * 1e3:.2f} ms)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_es = 0.0
    for _ in range(1000):
        sp = random_space(rng, n_max=12)
        x = grid_rv(sp, rng)
        level = Level(float(rng.uniform(0.01, 0.99)))
        worst_es = max(worst_es, abs(es(x, level) - es_choquet_oracle(x, level)))
    assert worst_es <= 1e-10

    worst_rho = 0.0
    for _ in range(1000):
        sp = random_space(rng, n_max=8)
        n = sp.n_atoms
        spec = AcceptanceSpec.var_level(float(rng.uniform(0.05, 0.6)))
        payoff = RandVar(sp, rng.integers(8, 129, n) / 32)
        asset = EligibleAsset(float(rng.integers(1, 9)) / 4, payoff)
        x = grid_rv(sp, rng)
        tol = 1e-10
        exact = rho(spec, asset, x, tol=tol).value
        numeric = rho_bisection(spec, asset, x, tol).value
        worst_rho = max(worst_rho, abs(exact - numeric))
    assert worst_rho <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"1000 shortfall oracles (max err {worst_es:.2e}) and 1000 "
              f"closed-vs-bisection quotes (max err {worst_rho:.2e}) in {elapsed:.2f} s")


def test_criterion_4_comonotonic_additivity_and_var_violation():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    mu = DistortionWeights(((0.05, 0.3), (0.3, 0.4), (1.0, 0.3)))
    worst = 0.0
    for _ in range(10000):
        sp = random_space(rng, n_max=8)
        pair = generate_comonotone_pair(sp, rng)
        alpha = float(rng.uniform(0.05, 0.9))
        level = Level(alpha)
        for fn in (
            lambda v: var(v, level),
            lambda v: es(v, level),
            lambda v: distortion(v, mu),
        ):
            gap = fn(pair.x + pair.y) - fn(pair.x) - fn(pair.y)
            worst = max(worst, abs(gap))
    assert worst <= 1e-10

    level = Level(0.1)
    witness = None
    for _ in range(5000):
        sp = random_space(rng, n_max=6)
        x, y = grid_rv(sp, rng), grid_rv(sp, rng)
        if var(x + y, level) > var(x, level) + var(y, level) + 1e-9:
            witness = (x, y)
            break
    assert witness is not None, "no quantile subadditivity violation sampled"
    x, y = witness
    assert not is_comonotone(x, y)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"10000 comonotone pairs additive within {worst:.2e}; "
              f"subadditivity violation witness x={x.tolist()}, y={y.tolist()} ({elapsed:.2f} s)")


def test_criterion_5_strict_shortfall_gap():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    min_margin = float("inf")
    for _ in range(10000):
        sp = random_space(rng, n_max=10)
        x = grid_rv(sp, rng)
        while x.is_constant:
            x = grid_rv(sp, rng)
        level = Level(float(rng.uniform(0.05, 0.95)))
        margin = es(x, level) + expectation(x)
        min_margin = min(min_margin, margin)
    assert min_margin > 1e-12

    sp = FiniteSpace([0.3, 0.7])
    for c in (-3.0, 0.0, 2.5):
        x = RandVar.constant(sp, c)
        assert abs(es(x, Level(0.4)) + expectation(x)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"strict shortfall gap on 10000 nonconstant draws "
              f"(min margin {min_margin:.2e}); equality on constants ({elapsed:.2f} s)")


def test_criterion_6_pointedness_family():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    for k in range(50):
        sp = random_space(rng, n_min=2, n_max=8)
        n = sp.n_atoms
        payoff = RandVar(sp, rng.integers(16, 129, n) / 32)
        while payoff.is_constant:
            payoff = RandVar(sp, rng.integers(16, 129, n) / 32)
        asset = EligibleAsset(float(rng.integers(2, 9)) / 4, payoff)
        es_spec = AcceptanceSpec.es_level(float(rng.uniform(0.1, 0.8)))
        a = float(rng.uniform(0.1, 0.6))
        mix_spec = AcceptanceSpec.distortion_mix(DistortionWeights(((a, 0.6), (1.0, 0.4))))
        for spec in (es_spec, mix_spec):
            assert check_corollary_convex(spec, asset).verdict == "fail", f"asset {k}"
            found = find_additivity_violation(spec, asset)
            assert found.verdict == "fail", f"no witness for asset {k} ({spec.kind})"
            x, y = found.witness["x"], found.witness["y"]
            assert is_comonotone(x, y)
            assert abs(found.witness["gap"]) > 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"50 risky assets x 2 pointed criteria: exact test fails and a "
              f"verified violation witness exists in every case ({elapsed:.2f} s)")


def test_criterion_7_condition_b_both_directions():
    start = time.perf_counter()
    holds = check_var_condition_b(FiniteSpace([0.1, 0.9]), Level(0.1))
    assert holds.verdict == "pass"
    assert holds.condition_values["witness_payoff"].tolist() == [2.0, 1.0]

    fails = check_var_condition_b(FiniteSpace([0.05] * 20), Level(0.05))
    assert fails.verdict == "fail"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, f"two-atom space admits a risky additive asset (exact theorem-b check); "
              f"uniform-20 exhaustively refuted ({elapsed:.2f} s)")


def test_criterion_8_additivity_and_numeraire_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    specs = {
        "var": lambda: AcceptanceSpec.var_level(float(rng.uniform(0.05, 0.5))),
        "es": lambda: AcceptanceSpec.es_level(float(rng.uniform(0.05, 0.5))),
        "distortion": lambda: AcceptanceSpec.distortion_mix(
            DistortionWeights(((float(rng.uniform(0.05, 0.5)), 0.5), (1.0, 0.5)))
        ),
        "expectation": lambda: AcceptanceSpec.expectation_floor(),
    }
    per_kind = 500
    assets_per_kind = 5
    for kind, make in specs.items():
        for j in range(assets_per_kind):
            sp = random_space(rng, n_min=2, n_max=6)
            payoff = RandVar(sp, rng.integers(16, 129, sp.n_atoms) / 32)
            asset = EligibleAsset(float(rng.integers(2, 9)) / 4, payoff)
            spec = make()
            # seeded grid draws first; each check then runs its fixed positions
            draws = [grid_rv(sp, rng) for _ in range(per_kind // assets_per_kind)]
            add = s_additivity_check(spec, asset, draws)
            assert add.passed, f"{kind}: {add.witness}"
            num = numeraire_identity_check(spec, asset, draws)
            assert num.passed, f"{kind}: {num.witness}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, f"500 instances per criterion kind satisfy payoff additivity and the "
              f"numeraire identity within 10x solver tolerance ({elapsed:.2f} s)")


def test_criterion_9_numeraire_non_preservation():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    fixtures = [
        EligibleAsset(1.0, RandVar(FiniteSpace([0.5, 0.5]), [1.0, 2.0])),
        EligibleAsset(1.0, RandVar(FiniteSpace([0.05, 0.05, 0.9]), [1.0, 2.0, 1.0])),
        EligibleAsset(2.0, RandVar(FiniteSpace([0.2, 0.3, 0.5]), [0.5, 1.5, 2.5])),
    ]
    for _ in range(5):
        sp = random_space(rng, n_min=2, n_max=8)
        payoff = RandVar(sp, rng.integers(16, 129, sp.n_atoms) / 32)
        while payoff.is_constant:
            payoff = RandVar(sp, rng.integers(16, 129, sp.n_atoms) / 32)
        fixtures.append(EligibleAsset(1.0, payoff))
    for i, asset in enumerate(fixtures):
        found = comono_preservation_under_numeraire(asset)
        assert not found.passed, f"fixture {i} found no witnesses"
        for direction in ("forward", "reverse"):
            w = found.witness[direction]
            assert is_comonotone(w["x_discounted"], w["y_discounted"]) == (
                direction == "forward"
            )
            assert is_comonotone(w["x"], w["y"]) == (direction == "reverse")
    elapsed = time.perf_counter() - start
    report(9, f"{len(fixtures)} nonconstant payoffs: witnesses in both directions "
              f"built by construction ({elapsed:.2f} s)")


def test_criterion_10_cli_contract(tmp_path, capsys, monkeypatch):
    assert main(["replicate"]) == 0
    capsys.readouterr()

    monkeypatch.setitem(REFERENCE_VALUES["svar-superadditivity"], "rho_sum", 6.1)
    assert main(["replicate"]) == 1
    monkeypatch.undo()
    out = capsys.readouterr().out
    rep = json.loads(out)
    failing = [r for r in rep["results"] if r["verdict"] == "fail"]
    assert failing and failing[0]["statement"] == "replicate-svar-superadditivity"

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["replicate", "--out", str(out_a)]) == 0
    assert main(["replicate", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    bad = tmp_path / "bad.json"
    exit_codes = []
    for doc in (
        '{"space": {"probs": [0.5, 0.6]}, "positions": {"x": [0, 0]}, '
        '"asset": {"price": 1, "payoff": [1, 1]}, "acceptance": {"kind": "var", "alpha": 0.1}}',
        '{"positions": {"x": [0.0]}}',
        "{ not json",
    ):
        bad.write_text(doc)
        exit_codes.append(main(["eval", "--scenario", str(bad)]))
    capsys.readouterr()
    assert exit_codes == [2, 2, 2]
    report(10, "replication suite green end-to-end, tampering detected, byte-identical "
               "reruns, malformed scenarios rejected with exit 2")
