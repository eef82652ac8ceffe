#!/usr/bin/env python3
"""Run one quakeroute benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-8x8 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
wraps the package's layers (see tracer.py) and reports per-layer metrics.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are wall-clock seconds. The process runs with one BLAS thread.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One BLAS thread (at most nproc), so that a run does not depend on the core
# count. main() sets it before any module that imports numpy is loaded.
BLAS_THREADS = 1
# A set-up sample repeats set-up for at least this long, so that a sample of
# a millisecond-long set-up is not a single timer reading.
SETUP_SAMPLE_SECONDS = 0.05
MIN_TIMED_ROUNDS = 3

WORKLOAD_NAMES = ("train-8x8", "rollout-8x8", "diagnostics")

END_TO_END = {
    "work_items_per_s": "1/s",
    "aux_items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_share": "share",
}

PER_LAYER = {
    "qsim.grad.calls": "count",
    "qsim.grad.rows": "count",
    "qsim.grad.self_ms": "ms",
    "qsim.grad.us_per_row": "us",
    "qsim.expectations.calls": "count",
    "qsim.expectations.rows": "count",
    "qsim.expectations.self_ms": "ms",
    "qsim.expectations.us_per_row": "us",
    "qsim.expectations.b1_p50_us": "us",
    "qsim.expectations.b1_p99_us": "us",
    "qsim.run.calls": "count",
    "qsim.run.rows": "count",
    "qsim.run.self_ms": "ms",
    "qsim.prob_grad.calls": "count",
    "qsim.prob_grad.self_ms": "ms",
    "hybrid.forward.calls": "count",
    "hybrid.forward.rows": "count",
    "hybrid.forward.rows_per_call": "rows/call",
    "hybrid.forward.self_ms": "ms",
    "hybrid.agreement.calls": "count",
    "hybrid.agreement.ms": "ms",
    "hybrid.loss_grads.self_ms": "ms",
    "hybrid.rollout.calls": "count",
    "hybrid.rollout.self_ms": "ms",
    "hybrid.model_decisions": "count",
    "hybrid.arrival_share": "share",
    "neural.forward.calls": "count",
    "neural.forward.rows": "count",
    "neural.forward.self_ms": "ms",
    "neural.backward.self_ms": "ms",
    "neural.adam_step.calls": "count",
    "neural.adam_step.self_ms": "ms",
    "neural.cross_entropy.self_ms": "ms",
    "oracle.nodewise_dijkstra.calls": "count",
    "oracle.nodewise_dijkstra.self_ms": "ms",
    "oracle.decisions": "count",
    "oracle.us_per_decision": "us",
    "dyngraph.advance.calls": "count",
    "dyngraph.advance.self_ms": "ms",
    "dyngraph.advance.us_per_call": "us",
    "dyngraph.synth_city.ms": "ms",
    "features.build_feature_vector.calls": "count",
    "features.build_feature_vector.self_ms": "ms",
    "features.build_feature_vector.us_per_call": "us",
    "features.edge_betweenness.calls": "count",
    "features.edge_betweenness.ms": "ms",
    "features.generate_dataset.kept_share": "share",
    "features.feature_matrix.calls": "count",
    "features.feature_matrix.ms": "ms",
    "analysis.sample_fourier.calls": "count",
    "analysis.sample_fourier.self_ms": "ms",
    "analysis.fisher_matrix.calls": "count",
    "analysis.fisher_matrix.self_ms": "ms",
    "analysis.fisher_spectrum.ms": "ms",
    "trace.overhead_share": "share",
    "work.train_rows": "count",
    "work.optimizer_steps": "count",
    "work.model_decisions": "count",
    "work.oracle_decisions": "count",
    "work.dataset_samples": "count",
    "work.skipped_scenarios": "count",
    "work.fourier_draws": "count",
    "work.fisher_realizations": "count",
}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))])


def per_layer_metrics(setup_spans, round_spans, n_rounds: int, counts: dict,
                      overhead_share: float) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one average traced round.

    ``round_spans`` holds the spans of ``n_rounds`` identical traced rounds, so
    calls and rows divide exactly; times are the per-round mean.
    """
    from tracer import child_count, layer_stats

    setup, rounds = layer_stats(setup_spans), layer_stats(round_spans)
    out = dict.fromkeys(PER_LAYER, 0.0)

    def put(key, value):
        if key in out:
            out[key] = float(value)

    for name in setup.keys() | rounds.keys():
        s, r = setup.get(name), rounds.get(name)
        calls = (s.calls if s else 0) + (r.calls / n_rounds if r else 0)
        rows = (s.rows if s else 0) + (r.rows / n_rounds if r else 0)
        total_ms = ((s.total_ns if s else 0) + (r.total_ns / n_rounds if r else 0)) / 1e6
        self_ms = ((s.self_ns if s else 0) + (r.self_ns / n_rounds if r else 0)) / 1e6
        put(f"{name}.calls", calls)
        put(f"{name}.rows", rows)
        put(f"{name}.ms", total_ms)
        put(f"{name}.self_ms", self_ms)
        put(f"{name}.us_per_row", 1e3 * self_ms / rows)
        put(f"{name}.us_per_call", 1e3 * self_ms / calls)
        put(f"{name}.rows_per_call", rows / calls)
        if r and r.single_row_ns:
            put(f"{name}.b1_p50_us", _percentile(r.single_row_ns, 0.50) / 1e3)
            put(f"{name}.b1_p99_us", _percentile(r.single_row_ns, 0.99) / 1e3)

    def decisions(parent):
        return (child_count(setup_spans, "dyngraph.advance", parent)
                + child_count(round_spans, "dyngraph.advance", parent) / n_rounds)

    oracle_decisions = decisions("oracle.nodewise_dijkstra")
    put("oracle.decisions", oracle_decisions)
    if oracle_decisions:
        # self time: the distance solves and the greedy next-step choice,
        # without the traced advance and feature-vector calls inside
        put("oracle.us_per_decision", out["oracle.nodewise_dijkstra.self_ms"]
            * 1e3 / oracle_decisions)
    put("hybrid.model_decisions", decisions("hybrid.rollout"))
    put("trace.overhead_share", overhead_share)
    for key, value in counts.items():
        put(key, value)
    return out


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "cores": os.cpu_count()}


def _timed(fn):
    """Returns (fn()'s result, wall seconds)."""
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def run_round(workload):
    """Times each call of one round; returns ({op: [items, seconds]}, output)."""
    spent = {"work": [0, 0.0], "aux": [0, 0.0]}
    results = []
    for call in workload.calls():
        (result, items), seconds = _timed(call.fn)
        results.append(result)
        spent[call.op][0] += items
        spent[call.op][1] += seconds
    return spent, workload.output(results)


def measure(workload, seconds: int, trace: bool) -> dict:
    """Set up, time rounds for ``seconds``, check every round's output."""
    from tracer import Tracer
    from workloads import same

    def sample_setup() -> float:
        """Mean time of set-ups repeated for SETUP_SAMPLE_SECONDS, at least once."""
        count, start = 0, time.perf_counter()
        while True:
            workload.setup()
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SETUP_SAMPLE_SECONDS:
                return elapsed / count

    # One sample now and one after every round: the machine's speed drifts in
    # phases of seconds, so set-up is sampled across the run like the rounds.
    setup_times = [sample_setup()]
    setup_tracer, round_tracer = Tracer(), Tracer()
    if trace:
        with setup_tracer.installed():
            workload.setup()

    checks: dict[str, list[bool]] = {}

    def check(name, ok):
        checks.setdefault(name, []).append(bool(ok))

    # Round 0 warms caches and lazy set-up; its timings are not reported.
    _, first = run_round(workload)
    reference = workload.fingerprint(first)
    counts = workload.work_counts(first)
    for name, ok in workload.checks(first):
        check(name, ok)

    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(untraced):
            with round_tracer.installed():
                spent, output = run_round(workload)
            traced.append(spent)
        else:
            spent, output = run_round(workload)
            untraced.append(spent)
        setup_times.append(sample_setup())
        for name, ok in workload.checks(output):
            check(name, ok)
        check("round reproduces the first round", same(workload.fingerprint(output), reference))
        check("work counts repeat", workload.work_counts(output) == counts)
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_TIMED_ROUNDS
        if enough and time.perf_counter() >= deadline:
            break

    def rate(op):
        # all items over all timed seconds: averages the machine's speed over
        # the whole run instead of picking the speed of one round
        return sum(s[op][0] for s in untraced) / sum(s[op][1] for s in untraced)

    def median_seconds(rounds):
        return statistics.median(s["work"][1] + s["aux"][1] for s in rounds)

    attempted = sum(len(v) for v in checks.values())
    failed = sum(v.count(False) for v in checks.values())
    rates = {op: rate(op) for op in ("work", "aux")}
    if trace:
        overhead = median_seconds(traced) / median_seconds(untraced) - 1.0
        metrics = per_layer_metrics(setup_tracer.spans, round_tracer.spans,
                                    len(traced), counts, overhead)
        units = PER_LAYER
    else:
        metrics = {
            "work_items_per_s": rates["work"],
            "aux_items_per_s": rates["aux"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks_passed_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {
        "checks": {name: f"{v.count(True)}/{len(v)}" for name, v in checks.items()},
        "counts": counts,
        "rates": rates,
        "rounds": len(untraced) + len(traced),
        "setups": len(setup_times),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import quakeroute

    if SRC not in Path(quakeroute.__file__).resolve().parents:
        print(f"quakeroute was imported from {quakeroute.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    report = measure(workload, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {report['rounds']}  set-up samples {report['setups']}")
    print("environment " + json.dumps(_environment()))
    print("work per round " + json.dumps(report["counts"]))
    for op, label in (("work", workload.work_label), ("aux", workload.aux_label)):
        print(f"{label} = {report['rates'][op]:.6g} per second")
    print("checks passed " + json.dumps(report["checks"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
