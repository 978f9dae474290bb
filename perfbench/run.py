"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload quote-large --seed 1 --seconds 10 --trace 0

Each run executes a fixed, seeded op list, one op after another in a single
process (a closed loop with one client), in rounds: each round is a fresh
set-up of the same op list and one timed pass over it.  The round count is
``seconds`` times the workload's nominal rate over its op count, so a run
measures for about ``seconds`` on the machine the rates were measured on, and
the same seed always gives the same ops.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the op list
once untraced and once, on fresh but identical inputs, with a span around
every public function of every layer, and prints the per-layer metrics.  The
last line of standard output is the result object; the line before it
records the run's context.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the checkout's source tree stays untouched

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Per workload: the ops of one op list, nominal ops per second of a run on
#: the reference machine (set-ups included), and how a time is taken from the
#: rounds (an op's latency, and setup_s).  At least 100 ops, so that ten lie
#: beyond p90.  At 30 seconds, the ~1 ms ops and ~20 ms set-ups of
#: quote-solver are timed in some 60 rounds, often enough that the fastest
#: round meets a quiet moment of a shared machine.  The other workloads get
#: 5-6 rounds; the fastest of so few depends on luck, so their median round
#: is taken.
PLAN = {
    "quote-large": (100, 20, statistics.median),
    "quote-solver": (250, 530, min),
    "verify-checks": (100, 17, statistics.median),
}
#: Fewest rounds of an untraced run.
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_pass(ops):
    """Run every op once, in order; return the outputs and per-op seconds."""
    outputs, latencies = [], []
    gc.collect()
    clock = time.perf_counter
    for op in ops:
        start = clock()
        outputs.append(op.run())
        latencies.append(clock() - start)
    return outputs, latencies


def failures(ops, outputs) -> list[str]:
    """One message per op whose output fails its check."""
    out = []
    for k, (op, result) in enumerate(zip(ops, outputs)):
        message = op.check(result)
        if message is not None:
            out.append(f"op {k} ({op.kind}): {message}")
    return out


def build(builder, seed, n_ops, workdir: Path):
    """One set-up: generate inputs (and scenario files), then one warm-up op per class.

    Returns the workload, the set-up seconds and the failed warm-up checks.
    """
    workdir.mkdir()
    start = time.perf_counter()
    workload = builder(seed, n_ops, workdir)
    warm_outputs = [op.run() for op in workload.warmup]
    seconds = time.perf_counter() - start
    return workload, seconds, failures(workload.warmup, warm_outputs)


def latency_metrics(rounds: list[list[float]], estimate) -> dict:
    """Each op's latency, estimated from its rounds, summarised over the op list.

    Every round runs the same ops on fresh, identical inputs at a different
    time of the run, so an op's rounds sample the load that other work puts
    on a shared machine over the whole run.
    """
    ms = sorted(1e3 * estimate(samples) for samples in zip(*rounds))
    return {
        "ops_per_s": (1e3 * len(ms) / math.fsum(ms), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def untraced_metrics(builder, args, n_ops, workdir, context):
    """Set-ups, each followed by a timed pass over its fresh op list.

    The first round's outputs are checked; every later round ran identical
    inputs, scenario paths included, so each of its outputs must equal the
    first round's.
    """
    setups, rounds, failed, attempted, first = [], [], [], 0, None
    for k in range(context["rounds"]):
        shutil.rmtree(workdir / "round", ignore_errors=True)
        workload, seconds, warm_failed = build(builder, args.seed, n_ops, workdir / "round")
        outputs, latencies = timed_pass(workload.ops)
        setups.append(seconds)
        rounds.append(latencies)
        if first is None:
            first = outputs
            failed += failures(workload.ops, outputs)
        else:
            failed += [
                f"op {i} ({op.kind}): round {k} output differs from round 0"
                for i, (op, result, want) in enumerate(zip(workload.ops, outputs, first))
                if result != want
            ]
        failed += warm_failed
        attempted += len(workload.warmup) + len(workload.ops)
    estimate = PLAN[args.workload][2]
    metrics = {
        "setup_s": (estimate(setups), "s"),
        **latency_metrics(rounds, estimate),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    context["sizes"] = workload.sizes
    return metrics, failed, attempted, []


def traced_metrics(builder, args, n_ops, workdir, context):
    """Each op untraced, then its twin on fresh, identical inputs with every layer traced.

    Pairing the two runs of an op keeps other load on the machine out of
    the tracing overhead, reported as traced over untraced throughput.
    """
    import eligirisk
    from tracing import Tracer
    from workloads import level_shift

    plain, _, failed = build(builder, args.seed, n_ops, workdir / "untraced")
    traced, _, warm_failed = build(builder, args.seed, n_ops, workdir / "traced")
    tracer = Tracer(eligirisk)
    roots = {kind: tracer.root(f"op.{kind}") for kind in dict.fromkeys(op.kind for op in traced.ops)}
    plain_out, traced_out, plain_s, traced_s = [], [], 0.0, 0.0
    clock = time.perf_counter
    gc.collect()
    for k, (plain_op, traced_op) in enumerate(zip(plain.ops, traced.ops)):
        start = clock()
        plain_out.append(plain_op.run())
        plain_s += clock() - start
        with tracer:
            tracer.op = k
            start = clock()
            traced_out.append(roots[traced_op.kind](traced_op.run))
            traced_s += clock() - start
    failed += warm_failed + failures(plain.ops, plain_out) + failures(traced.ops, traced_out)

    agg = tracer.aggregate()
    calls, facts = agg["calls"], tracer.facts
    quotes = [q for _, _, _, q in tracer.quotes]
    mismatches = tally_mismatches(args.workload, traced, traced_out, calls, quotes, facts)
    unaccepted = sum(
        not eligirisk.accepts(spec, level_shift(asset, x, q.value)) for spec, asset, x, q in tracer.quotes
    )
    ms = 1e-6  # per ns
    self_ns = agg["self_ns"]
    metrics = {
        "spaces.profile_builds": (calls["spaces.RandVar.profile"], "count"),
        "spaces.profile_atoms": (facts["spaces.profile_atoms"], "count"),
        "spaces.profile_self_ms": (agg["name_self_ns"]["spaces.RandVar.profile"] * ms, "ms"),
        "measures.evals": (agg["entries"]["measures"], "count"),
        "measures.self_ms": (self_ns["measures"] * ms, "ms"),
        "engine.quotes_closed_form": (sum(q.method == "closed_form" for q in quotes), "count"),
        "engine.quotes_bisection": (sum(q.method == "bisection" for q in quotes), "count"),
        "engine.bisection_steps": (sum(q.iterations for q in quotes), "count"),
        "engine.evals_per_quote": (agg["entries"]["measures.in_rho"] / max(len(quotes), 1), "1/quote"),
        "engine.unaccepted_quotes": (unaccepted, "count"),
        "engine.self_ms": (self_ns["engine"] * ms, "ms"),
        "acceptance.membership_tests": (calls["acceptance.accepts"], "count"),
        "acceptance.self_ms": (self_ns["acceptance"] * ms, "ms"),
        "comonotone.tests_pairwise": (facts["comonotone.pairwise"], "count"),
        "comonotone.tests_sorted": (facts["comonotone.sorted"], "count"),
        "comonotone.pairwise_mb": (facts["comonotone.pairwise_bytes"] / 1e6, "MB"),
        "comonotone.self_ms": (self_ns["comonotone"] * ms, "ms"),
        "theorems.subset_entries": (facts["theorems.subset_entries"], "count"),
        "theorems.candidates_examined": (facts["theorems.candidates_examined"], "count"),
        "theorems.self_ms": (self_ns["theorems"] * ms, "ms"),
        "cli.parse_ms": (agg["name_total_ns"]["cli.load_scenario"] * ms, "ms"),
        "cli.self_ms": (self_ns["cli"] * ms, "ms"),
        "reporting.self_ms": (self_ns["reporting"] * ms, "ms"),
        "trace.spans": (len(tracer.start_of), "count"),
        "trace.throughput_ratio": (plain_s / traced_s, "ratio"),
    }
    context["sizes"] = plain.sizes
    traces = HERE / "_traces"
    traces.mkdir(exist_ok=True)
    tracer.write(traces / f"{args.workload}-seed{args.seed}.spans.jsonl.gz", context)
    attempted = 2 * (len(plain.warmup) + len(plain.ops))
    return metrics, failed, attempted, mismatches


def tally_mismatches(workload, traced, outputs, calls, quotes, facts) -> list[str]:
    """Span counts must equal what the benchmark loop saw from the outside."""
    expected = Counter()
    if workload.startswith("quote"):
        expected["engine.rho"] = len(traced.ops)
        observed_methods = Counter(q.method for q in outputs)
        if observed_methods != Counter(q.method for q in quotes):
            return [f"traced quote methods {Counter(q.method for q in quotes)} != observed {observed_methods}"]
    else:
        expected["cli.main"] = expected["cli.load_scenario"] = len(traced.ops)
        reports = [json.loads(text)["results"][0] for _, text in outputs]
        examined = [r["samples"] for r in reports if r.get("statement") == "var-condition-b"]
        if facts["theorems.candidates_examined"] != sum(examined):
            return [f"traced candidates {facts['theorems.candidates_examined']} != reported {sum(examined)}"]
        expected["theorems.check_var_condition_b"] = len(examined)
    return [
        f"{calls[name]} traced {name} spans, {count} observed"
        for name, count in expected.items()
        if calls[name] != count
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eligirisk" / "__init__.py").is_file():
        print(f"error: no eligirisk package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import eligirisk
    from workloads import WORKLOADS

    n_ops, rate, estimate = PLAN[args.workload]
    rounds = max(MIN_ROUNDS, round(args.seconds * rate / n_ops))
    builder = WORKLOADS[args.workload]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "rounds": rounds,
        "estimate": estimate.__name__,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eligirisk": eligirisk.__version__,
        "machine": platform.machine(),
    }
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        measure = traced_metrics if args.trace else untraced_metrics
        metrics, failed, attempted, mismatches = measure(builder, args, n_ops, workdir, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in (failed + mismatches)[:20]:
        print(message, file=sys.stderr)
    print(json.dumps({"context": context}))
    result = {
        "correct": not failed and not mismatches,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
