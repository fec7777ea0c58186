#!/usr/bin/env python3
"""A/B two benchmark results: compare.py PARENT CHANGE

Each side is a file run.py wrote (benchmark/results/latest.json) or a
directory of them, merged in name order so that the i-th runs of the two
sides pair up (README.md shows how to alternate the sides). Use the same
--seed on both sides. For every workload (one row each) and every
end-to-end metric of BENCHMARK.json:

  unresolved  the parent's own spread (interquartile range / median) is
              wider than the metric's bound, and not every change run beats
              every parent run: the runs cannot tell;
  gain        the change wins at least 9 in 10 pairs (runs paired in
              order, ties counting for neither) and the medians differ by
              more than the parent's interquartile range;
  REGRESSION  the change's median is worse than the parent's by more than
              the bound;
  ok          otherwise.

Simulated metrics are exact per seed: they read "same" or "changed", and a
change beyond the bound is a regression. A change that fails more requests
than its parent gets no gain. Exits 1 on any regression, unresolved pair or
extra failure.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """(verdict, relative change of the median) for one metric."""
    sign = 1 if metric["better"] == "higher" else -1
    p, c = parent["values"], change["values"]
    mp, mc = statistics.median(p), statistics.median(c)
    rel = (mc - mp) / mp if mp else 0.0
    worse = -sign * rel
    allowed = metric["bound"]
    if parent["clock"] == "sim":
        if c == p:
            return "same", rel
        return ("REGRESSION" if worse > allowed else "changed"), rel
    q1, q3 = quartiles(p)
    beats = lambda a, b: sign * (b - a) > 0  # change run b beats parent a
    if mp and (q3 - q1) / abs(mp) > allowed and not all(
            beats(a, b) for a in p for b in c):
        return "unresolved", rel
    wins = sum(beats(a, b) for a, b in zip(p, c))
    if (wins >= WIN_SHARE * min(len(p), len(c)) and abs(mc - mp) > q3 - q1
            and worse < 0):
        return "gain", rel
    return ("REGRESSION" if worse > allowed else "ok"), rel


def load(path):
    """One result file, or every *.json of a directory with the runs of
    each workload and metric concatenated in file-name order."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result files in {path}")
    merged = {"workloads": {}}
    for f in files:
        for w, e in json.loads(f.read_text())["workloads"].items():
            m = merged["workloads"].setdefault(
                w, {"failed": 0, "end_to_end": {}})
            m["failed"] = max(m["failed"], e["failed"])
            for name, s in e["end_to_end"].items():
                t = m["end_to_end"].setdefault(
                    name, {"values": [], "clock": s["clock"]})
                t["values"] += s["values"]
    return merged


def main():
    if len(sys.argv) != 3:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    parent, change = (load(a) for a in sys.argv[1:])
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    bad = False
    for w, pw in parent["workloads"].items():
        cw = change["workloads"].get(w)
        if cw is None:
            print(f"{w}: missing from {sys.argv[2]}")
            bad = True
            continue
        cells = []
        more_failed = cw["failed"] > pw["failed"]
        for m in metrics:
            v, rel = verdict(m, pw["end_to_end"][m["name"]],
                             cw["end_to_end"][m["name"]])
            if v == "gain" and more_failed:
                v = "void-gain"
            bad = bad or v in ("REGRESSION", "unresolved")
            cells.append(f"{m['name']} {v} {rel:+.1%}")
        if more_failed:
            cells.append(f"failed {pw['failed']} -> {cw['failed']} FAILURES")
            bad = True
        print(f"{w}: " + "; ".join(cells))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
