#!/usr/bin/env python3
"""Benchmark self-tests, registered with ctest by CMakeLists.txt:

  selftest.py BINARY replay WORKLOAD  the traced run's replay reproduces
                                      the serve pass's swaps and stream
                                      words (bench.replay.verified == 1)
  selftest.py BINARY determinism      two runs of one seed print identical
                                      simulated metrics, traced and not
  selftest.py BINARY smoke            run.py --smoke passes in under 15 s

Every workload runs at 1/50 of its size.
"""
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCALE = "50"
SMOKE_LIMIT_S = 15


def run(binary, workload, mode):
    p = subprocess.run([binary, "--workload", workload, "--mode", mode,
                        "--scale-div", SCALE],
                       capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        sys.exit(f"{workload} {mode}: exit {p.returncode}\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def simulated(r):
    return ({k: m["value"] for k, m in r["metrics"].items()
             if m["clock"] == "sim"}, r["attempted"], r["failed"])


def replay(binary, workload):
    r = run(binary, workload, "trace")
    ok = (r["metrics"]["bench.replay.verified"]["value"] == 1 and
          r["digests_ok"] and r["golden_mismatches"] == 0)
    print(f"{workload}: replay {'verified' if ok else 'NOT verified'}")
    return ok


def determinism(binary):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        for mode in ("run", "trace"):
            same = simulated(run(binary, w, mode)) == simulated(
                run(binary, w, mode))
            print(f"{w} {mode}: {'identical' if same else 'DIFFERENT'}")
            ok = ok and same
    return ok


def smoke():
    # The first call may rebuild; the second is the one timed.
    cmd = [sys.executable, str(HERE / "run.py"), "--smoke"]
    subprocess.run(cmd, capture_output=True, timeout=900)
    t0 = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    took = time.monotonic() - t0
    print(p.stdout + p.stderr + f"smoke took {took:.1f} s")
    return p.returncode == 0 and took < SMOKE_LIMIT_S


def main():
    binary, test, *rest = sys.argv[1:]
    if test == "replay":
        ok = replay(binary, rest[0])
    elif test == "determinism":
        ok = determinism(binary)
    else:
        ok = smoke()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
