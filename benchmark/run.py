#!/usr/bin/env python3
"""The rtrsim benchmark: build, run, check, report (see README.md).

A measurement runs one workload in fresh processes until --seconds have
passed, five runs at the least. Every run does identical work, so the
end-to-end host metrics are those of the best run; simulated metrics must
repeat exactly. With --trace, runs come in pairs of an untraced and a
traced run, and the per-layer metrics are medians over the traced ones.

Single-workload mode makes one measurement and prints, as its last line,
one JSON object with the checks and the BENCHMARK.json metrics (the
end-to-end ones, or with --trace 1 the per-layer ones):

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Suite mode makes --reps measurements of every workload, the workload order
rotating between repetitions so that drift hits every workload alike. It
prints one line per metric (the median over repetitions, with quartiles
and n for host metrics) and writes benchmark/results/latest.json:

    python3 benchmark/run.py [--reps 10] [--seed N] [--workloads W ...]
                             [--smoke] [--trace]

Both modes build build-bench/ in Release first, and exit non-zero when the
build fails or an output check fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "rtrsim_bench"
SPEC = ROOT / "BENCHMARK.json"
LATEST = HERE / "results" / "latest.json"

MIN_RUNS = 5        # untraced runs per measurement, at the least
RUN_TIMEOUT = 170   # seconds one benchmark process may take
SMOKE_SCALE = 50    # --smoke runs every workload at 1/50 of its size


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver in Release."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "rtrsim_bench"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout)
            raise BenchError("build failed: " + " ".join(cmd))


def run_once(workload, seed, mode, scale_div, trace_out=None):
    """One fresh benchmark process; returns its JSON line."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scale-div", str(scale_div)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(p.stderr)
        raise BenchError(f"{workload} seed {seed} {mode}: exit {p.returncode}")
    return json.loads(lines[-1])


def sim_part(run):
    return {k: m["value"] for k, m in run["metrics"].items()
            if m["clock"] == "sim"}


def check(runs):
    """Output checks over runs of one workload at one seed: every served
    output matched its golden model, and simulated metrics and
    dispositions are identical in every run. Returns failure messages."""
    bad = []
    for r in runs:
        if not r["digests_ok"]:
            bad.append("digest mismatch")
        if r["golden_mismatches"]:
            bad.append(f"{r['golden_mismatches']} golden mismatches")
    for mode in ("run", "trace"):
        same = [r for r in runs if r["mode"] == mode]
        for r in same[1:]:
            if sim_part(r) != sim_part(same[0]):
                bad.append(f"simulated {mode} metrics differ between runs")
            if (r["attempted"], r["failed"]) != (same[0]["attempted"],
                                                  same[0]["failed"]):
                bad.append("dispositions differ between runs")
    return sorted(set(bad))


def fold(runs, extra=None):
    """Metric name -> {values, unit, clock} over runs, plus the metrics
    extra(run) derives."""
    out = {}
    for r in runs:
        derived = extra(r) if extra else []
        for name, m in list(r["metrics"].items()) + derived:
            e = out.setdefault(name, {"values": [], "unit": m["unit"],
                                      "clock": m["clock"]})
            e["values"].append(m["value"])
    return out


def traced_extras(untraced):
    """Per-layer numbers a traced run takes from its untraced partner."""
    def extra(traced):
        base = untraced[traced["pair"]]["aux"]
        phase = traced["aux"]["serve_phase_ns"]
        return [
            ("bench.trace_overhead_pct",
             {"value": 100.0 * (phase / base["timed_ns"] - 1.0), "unit": "%",
              "clock": "host"}),
            ("sim.host_ns_per_bus_txn",
             {"value": base["timed_ns"] / max(base["bus_transactions"], 1),
              "unit": "ns/txn", "clock": "host"}),
        ]
    return extra


def best(values, metric):
    """Every run of a measurement does identical work (check() holds the
    simulated metrics to that), so what varies between runs is
    interference from other load on the host, which only adds time: the
    best run estimates the program's own cost."""
    return max(values) if metric["better"] == "higher" else min(values)


def median(values, metric):
    return statistics.median(values)


def select(folded, wanted, host_value):
    """The catalogue's metrics in its order, each reduced over the runs: a
    host measurement by host_value, a simulated one (equal in every run)
    to its value. A missing metric or a unit that differs from the
    catalogue is a benchmark bug."""
    out = {}
    for name, m in wanted.items():
        if name not in folded:
            raise BenchError(f"metric {name} was not produced")
        e = folded[name]
        if e["unit"] != m["unit"]:
            raise BenchError(f"{name}: unit {e['unit']} != {m['unit']}")
        value = (host_value(e["values"], m) if e["clock"] == "host"
                 else e["values"][0])
        out[name] = {"value": value, "unit": e["unit"], "clock": e["clock"]}
    return out


def catalogue():
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def measurement(workload, seed, seconds, trace, scale_div=1):
    """One measurement: (metrics, runs). The metrics are the end-to-end
    ones, or with `trace` the per-layer ones."""
    e2e, layers, _ = catalogue()
    runs, traced = [], []
    start = time.monotonic()
    while True:
        runs.append(run_once(workload, seed, "run", scale_div))
        if trace:
            t = run_once(workload, seed, "trace", scale_div,
                         BUILD / f"trace-{workload}-{seed}.json")
            t["pair"] = len(runs) - 1
            traced.append(t)
        if time.monotonic() - start >= seconds and (
                trace or len(runs) >= MIN_RUNS):
            break
    if trace:
        return select(fold(traced, traced_extras(runs)), layers,
                      median), runs + traced
    return select(fold(runs), e2e, best), runs


def single(args):
    if args.workload not in catalogue()[2]:
        raise BenchError(f"unknown workload {args.workload}")
    metrics, runs = measurement(args.workload, args.seed, args.seconds,
                                args.trace)
    bad = check(runs)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    for msg in bad:
        log("check failed:", msg)
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0 if not bad else 1


def summary(values, unit, clock):
    """One metric over a suite's repetitions, as latest.json records it."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "unit": unit, "clock": clock,
            "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def suite(args):
    names = catalogue()[2]
    workloads = args.workloads or names
    for w in workloads:
        if w not in names:
            raise BenchError(f"unknown workload {w}")
    reps, div = (1, SMOKE_SCALE) if args.smoke else (args.reps, 1)
    measured = {w: [] for w in workloads}
    runs = {w: [] for w in workloads}
    for rep in range(reps):
        k = rep % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            metrics, rs = measurement(w, args.seed, args.seconds, False, div)
            measured[w].append(metrics)
            runs[w] += rs

    report, failures = {}, []
    for w in workloads:
        first = runs[w][0]
        entry = {"attempted": first["attempted"], "failed": first["failed"],
                 "latency_samples": first["aux"]["latency_samples"],
                 "end_to_end": {
                     name: summary([m[name]["value"] for m in measured[w]],
                                   e["unit"], e["clock"])
                     for name, e in measured[w][0].items()}}
        for name, e in entry["end_to_end"].items():
            tail = (f" {e['q1']:.6g} {e['q3']:.6g} {e['n']}"
                    if e["clock"] == "host" else "")
            print(f"{w} {name} {e['median']:.6g} {e['unit']}{tail}")
        print(f"{w} failed_ratio {entry['failed'] / entry['attempted']:.6g} "
              f"fraction ({entry['failed']} of {entry['attempted']})")
        print(f"{w} latency_samples {entry['latency_samples']:.0f} count")
        if args.trace:
            layers, rs = measurement(w, args.seed, args.seconds, True, div)
            runs[w] += rs
            entry["per_layer"] = layers
            for name, m in layers.items():
                print(f"{w} {name} {m['value']:.6g} {m['unit']}")
        report[w] = entry
        failures += [f"{w}: {m}" for m in check(runs[w])]
    for msg in failures:
        log("check failed:", msg)
    if not args.smoke:
        LATEST.parent.mkdir(parents=True, exist_ok=True)
        LATEST.write_text(json.dumps({"seed": args.seed, "reps": reps,
                                      "workloads": report}, indent=1) + "\n")
        log(f"wrote {LATEST.relative_to(ROOT)}")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="measure one workload and print JSON")
    ap.add_argument("--seconds", type=float, default=0,
                    help=f"measurement length (default: {MIN_RUNS} runs)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="measure the per-layer metrics")
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--smoke", action="store_true",
                    help=f"one measurement per workload at 1/{SMOKE_SCALE} "
                    "size")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    try:
        build()
        return single(args) if args.workload else suite(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("error:", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
