"""The ordcalc benchmark: time to a checked verdict.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One client in one thread poses queries in a closed loop: ``decide`` with
its certificate written to a file, then the independent check of that
file.  Both run in this process through ``ordcalc.cli.main``; interpreter
start-up is paid once and measured in ``setup_s``.  With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run poses one fixed pass of the workload untraced, then
again traced, and reports the per-layer metrics of the traced pass.  The
end-to-end times are scaled to a reference machine speed by calibration
samples taken during the run (see ``pace.py``); the results file under
``perfbench/out/`` that every run writes holds them unscaled as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from client import Client
from pace import REF_KERNEL_S, Pacer
from spans import HOME, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = BENCH / "out"

# Per-query limit of a timed run, in seconds at the reference speed of
# ``pace``: the slowest hard-search query that finishes takes under 3 s at
# that speed; the two that do not would take over 40 s.  So the over-limit
# count repeats, and a query cut by the limit does the same work, and
# reaches the same memory, whatever the machine's speed.
QUERY_BUDGET_S = 10.0
# Per-query wall-clock limit of a traced run and of make_expected.py.  On a
# 2-vCPU Xeon at 2.0 GHz, whose speed drifts up to twofold, the slowest
# hard-search query that finishes takes 3.5 to 7.5 s; the two that do not
# take 55 s and more than 100 s.  Timed runs stop a query at four times it
# should the machine stall.
QUERY_LIMIT_S = 15.0
# limit for the opt-in slow cases, which the timed workloads leave out
SLOW_LIMIT_S = 3600.0
SETUP_REPEATS = 7
# Cycles of big-proofs shapes in a timed run: 42 queries, so that the
# tail, ten samples from the top, falls among the 400-literal ones.
BIG_CYCLES = 14
BIG_COUNT = BIG_CYCLES * len(workloads.BIG_SHAPES)
# A traced run poses two passes; these keep it within the time a run may
# take.  big-proofs: cycles of shapes; hard-search: the rows of the first
# draw of data/hard-search.tsv.
TRACED_BIG_CYCLES = 5
TRACED_HARD_ROWS = 28


def import_program():
    """Import ordcalc from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ordcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no ordcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ordcalc

    if Path(ordcalc.__file__).resolve().parent != SRC / "ordcalc":
        raise SystemExit(f"error: imported ordcalc from {ordcalc.__file__}")
    return ordcalc


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import ordcalc and build the
    workload's queries with their expected answers, several times: as
    measured, and scaled by the median of the calibration samples that all
    the probes took (one speed for the whole set-up, which lasts a second
    or two)."""
    raw, kernel_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        took = time.perf_counter() - start
        probe = json.loads(done.stdout)
        raw.append(took - probe["sampling_s"])
        kernel_s += probe["kernel_s"]
    factor = REF_KERNEL_S / statistics.median(kernel_s)
    return raw, [t * factor for t in raw]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is (the maximum when there are ten or fewer)."""
    ordered = sorted(values)
    rank = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    percentile = 100.0 * rank / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[rank], percentile


def pose(client, queries, seconds: float, pass_size: int, tracer=None, clock=None):
    """Closed loop over ``queries``, cycling, until ``seconds`` have passed
    and a whole number of passes of ``pass_size`` queries is done, so runs
    of a fixed set or of a fixed cycle of sizes measure the same mix.
    Returns the (query, outcome) pairs and each query's (start, end) on
    ``clock``, which is also the client's."""
    clock = clock or time.perf_counter
    results, spans = [], []
    start = time.perf_counter()
    while True:
        for query in queries:
            if tracer is not None:
                tracer.start_query(len(results))
            began = clock()
            results.append((query, client.run(query)))
            spans.append((began, clock()))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(results) % pass_size == 0:
                return results, spans


def end_to_end(results, spans, scale, setup_times: list[float], budget_s=None):
    """The end-to-end metrics of a run, and its sample counts.  Every
    interval is multiplied by ``scale(start, end)`` (see ``pace``); a query
    cut by a ``budget_s`` at the reference speed took exactly that."""
    outcomes = [o for _, o in results]
    decide_ms, check_ms, elapsed = [], [], 0.0
    for outcome, (start, end) in zip(outcomes, spans):
        if outcome.over_limit and budget_s is not None:
            decide_ms.append(1000 * budget_s)
            elapsed += budget_s
            continue
        decided = outcome.start + outcome.decide_s
        decide_ms.append(1000 * outcome.decide_s * scale(outcome.start, decided))
        if outcome.check_s is not None:
            checked = decided + outcome.check_s
            check_ms.append(1000 * outcome.check_s * scale(decided, checked))
        elapsed += (end - start) * scale(start, end)
    cert_bytes = [o.cert_bytes for o in outcomes if o.cert_bytes is not None]
    decide_tail, decide_pct = tail(decide_ms)
    check_tail, check_pct = tail(check_ms)
    n = len(outcomes)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "queries_per_s": (sum(o.completed for o in outcomes) / elapsed, "1/s"),
        "decide_ms_p50": (statistics.median(decide_ms), "ms"),
        "decide_ms_tail": (decide_tail, "ms"),
        "check_ms_p50": (statistics.median(check_ms), "ms"),
        "check_ms_tail": (check_tail, "ms"),
        "cert_bytes_per_query": (statistics.fmean(cert_bytes), "B"),
        "decided_frac": (sum(o.decided for o in outcomes) / n, "ratio"),
        "completed_frac": (sum(o.completed for o in outcomes) / n, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "decide": {"n": len(decide_ms), "tail_percentile": decide_pct},
        "check": {"n": len(check_ms), "tail_percentile": check_pct},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, samples


def unit_scale(start: float, end: float) -> float:
    return 1.0


def metric_values(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()}


def per_query(results) -> list[dict]:
    return [
        {
            "procedure": q.procedure,
            "words": q.text if len(q.text) < 80 else f"{q.text[:40]}...",
            "expected": q.expected,
            "verdict": o.verdict,
            "decide_ms": round(1000 * o.decide_s, 3),
            "check_ms": None if o.check_s is None else round(1000 * o.check_s, 3),
            "cert_bytes": o.cert_bytes,
            "over_limit": o.over_limit,
            "error": o.error,
        }
        for q, o in results
    ]


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "query_budget_s": None if args.trace else QUERY_BUDGET_S,
        "query_limit_s": QUERY_LIMIT_S if args.trace else 4 * QUERY_LIMIT_S,
        "clients": 1,
        "loop": "closed",
    }


def run_workload(args) -> tuple[dict, list]:
    """One run; returns the result line and the (query, outcome) pairs."""
    import_program()
    setup_raw, setup_times = measure_setup(args.workload, args.seed)
    queries = workloads.load(args.workload, args.seed, BIG_COUNT)
    OUT_ROOT.mkdir(exist_ok=True)
    stem = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "environment": environment(args),
        "reference_kernel_s": REF_KERNEL_S,
        "setup_s_samples": setup_times,
        "setup_s_unscaled_samples": setup_raw,
    }
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as workdir:
        if args.trace:
            client = Client(workdir, QUERY_LIMIT_S, digest=True)
            metrics, results = traced_run(args.workload, client, queries, report)
        else:
            pacer = Pacer()
            client = Client(workdir, 4 * QUERY_LIMIT_S, digest=False,
                            pacer=pacer, budget_s=QUERY_BUDGET_S)
            # query-mix runs for --seconds.  hard-search and big-proofs pose
            # one fixed pass each, longer than that, whose queries differ too
            # much in cost to cut it: the same sample count in every run puts
            # the median and the tail on the same queries.
            seconds, pass_size = (
                (args.seconds, 1) if args.workload == "query-mix" else (0, len(queries)))
            pacer.install()
            try:
                results, spans = pose(
                    client, queries, seconds, pass_size, clock=pacer.now)
            finally:
                pacer.uninstall()
            metrics, samples = end_to_end(
                results, spans, pacer.factor, setup_times, QUERY_BUDGET_S)
            unscaled = end_to_end(results, spans, unit_scale, setup_raw)[0]
            report.update(
                samples=samples,
                unscaled=metric_values(unscaled),
                kernel_s=pacer.kernel_s,
                query_factors=[pacer.factor(start, end) for start, end in spans],
            )
    failures = [o for _, o in results if o.error is not None]
    report.update(metrics=metrics, queries=per_query(results))
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if report.get("trace_mismatches"):
        raise SystemExit(f"error: the traced pass differs; see {stem}.json")
    if report.get("silent_layers"):
        raise SystemExit(f"error: no calls traced into {report['silent_layers']}")
    summary = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    return summary, results


def traced_run(workload: str, client, queries, report: dict):
    """One fixed pass untraced, then the same pass traced."""
    if workload == "big-proofs":
        queries = queries[: TRACED_BIG_CYCLES * len(workloads.BIG_SHAPES)]
    elif workload == "hard-search":
        first = set(workloads.table_queries(workload)[:TRACED_HARD_ROWS])
        queries = [q for q in queries if q in first]
    plain, plain_spans = pose(client, queries, 0, len(queries))
    hits, misses = client.cache_hits, client.cache_misses
    tracer = Tracer()
    tracer.install()
    tracer.patch([client], "_decide", "bench.decide")
    tracer.patch([client], "_check", "bench.check")
    try:
        traced, traced_spans = pose(client, queries, 0, len(queries), tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT_ROOT / f"{workload}-seed{report['environment']['seed']}.spans.jsonl")
    layers = tracer.metrics(
        [q.procedure for q, _ in traced],
        client.cache_hits - hits,
        client.cache_misses - misses,
    )
    # Both passes unscaled: a calibration sample inside a span would count
    # as the layer's own time.
    setup = report["setup_s_unscaled_samples"]
    plain_e2e = metric_values(end_to_end(plain, plain_spans, unit_scale, setup)[0])
    traced_e2e = metric_values(end_to_end(traced, traced_spans, unit_scale, setup)[0])
    plain_s = sum(end - start for start, end in plain_spans)
    traced_s = sum(end - start for start, end in traced_spans)
    report.update(
        untraced=plain_e2e,
        traced=traced_e2e,
        trace_overhead={k: traced_e2e[k] - plain_e2e[k] for k in plain_e2e},
        trace_overhead_frac=traced_s / plain_s - 1,
        trace_mismatches=[
            q.text
            for (q, a), (_, b) in zip(plain, traced)
            if (a.verdict, a.over_limit, a.cert_digest)
            != (b.verdict, b.over_limit, b.cert_digest)
        ],
        silent_layers=[
            layer for layer, home in HOME.items()
            if home == workload and layers["layer_calls"][layer] == 0
        ],
        layers={k: v for k, v in layers.items() if k != "metrics"},
    )
    return layers["metrics"], traced


def print_metrics(workload: str, summary: dict, results) -> None:
    for name, metric in summary["metrics"].items():
        print(f"{workload:12s} {name:34s} {metric['value']:14.4f} {metric['unit']}")
    over = sum(o.over_limit for _, o in results)
    print(
        f"{workload:12s} attempted {summary['attempted']}, failed {summary['failed']}, "
        f"over the limit {over}"
    )
    for query, outcome in results:
        if outcome.error is not None:
            print(f"{workload:12s} failed: {query.procedure} {query.text[:60]!r}: {outcome.error}")


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    code = 0
    for workload in workloads.WORKLOADS:
        command = [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: failed\n{done.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        code |= not result["correct"]
        print("\n".join(lines[:-1]))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    summary, results = run_workload(args)
    print_metrics(args.workload, summary, results)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
