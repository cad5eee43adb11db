#!/usr/bin/env python3
"""Steadiness and A-B report for the perfbench benchmark.

Run a workload k times with different seeds and summarise each metric:

    python3 perfbench/steady.py run --workload traverse-sparse --runs 10 --out runs/a

Summarise saved runs again (every workload found in the directory):

    python3 perfbench/steady.py summary runs/a

Compare two sets of runs (for example the parent commit and a change):

    python3 perfbench/steady.py ab runs/parent runs/change

For every metric the summary prints the median, the first and third
quartiles (as Python's ``statistics.quantiles(values, n=4)`` gives them),
their distance as a share of the median (the spread), and the largest
deviation of any run from the median. End-to-end spreads are compared with
the bounds in BENCHMARK.json: ``steady`` below a third of the bound, ``ok``
below the bound, ``NOISY`` above it. The A-B mode reports each metric's
change of median against its bound in the metric's bad direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def max_deviation(values):
    """Largest |value - median| as a share of the median."""
    med = statistics.median(values)
    if not med:
        return float("inf")
    return max(abs(v - med) for v in values) / med


def verdict(spread_share, bound):
    if bound is None:
        return ""
    if spread_share < bound / 3:
        return "steady"
    if spread_share <= bound:
        return "ok"
    return "NOISY"


def change(median_a, median_b, better):
    """Relative change from A to B, signed so that positive is worse."""
    if not median_a:
        return float("inf")
    rel = median_b / median_a - 1.0
    return rel if better == "lower" else -rel


def ab_verdict(worse_share, bound, spread_a):
    """Classify a change: worse than the bound, better, or within noise."""
    if bound is None:
        return ""
    if worse_share > bound:
        return "WORSE"
    if spread_a > bound:
        return "unresolved"
    if -worse_share > spread_a:
        return "better"
    return "same"


def parse_output(text):
    """(fingerprint or None, result) from one run's standard output."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    fp = None
    if len(lines) > 1:
        try:
            fp = json.loads(lines[-2]).get("fingerprint")
        except ValueError:
            fp = None
    return fp, result


def read_runs(directory):
    """{workload: [(fingerprint, result), ...]} from saved *.json runs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            fp, result = parse_output(f.read())
        workload = (fp or {}).get("workload") or name.rsplit("-seed", 1)[0]
        runs.setdefault(workload, []).append((fp, result))
    return runs


def metric_values(runs):
    """{metric: [values]} over runs."""
    out = {}
    for _, result in runs:
        for name, m in result["metrics"].items():
            out.setdefault(name, []).append(float(m["value"]))
    return out


def bounds_of(spec):
    b = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return b, better, units


def summary(directory, spec, out=sys.stdout):
    bounds, _, units = bounds_of(spec)
    noisy = 0
    for workload, runs in read_runs(directory).items():
        failed = sum(r["failed"] for _, r in runs)
        attempted = sum(r["attempted"] for _, r in runs)
        correct = all(r["correct"] for _, r in runs)
        print(f"== {workload}: {len(runs)} runs, {failed}/{attempted} operations failed, "
              f"correct={correct}", file=out)
        print(f"{'metric':<34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'maxdev':>8} {'bound':>6}  verdict", file=out)
        for name, values in metric_values(runs).items():
            q1, med, q3 = quartiles(values)
            s = spread(values)
            b = bounds.get(name)
            v = verdict(s, b)
            if v == "NOISY":
                noisy += 1
            print(f"{name:<34} {units.get(name, ''):>6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.3f} {max_deviation(values):>8.3f} "
                  f"{'' if b is None else b:>6}  {v}", file=out)
    return noisy


def ab(dir_a, dir_b, spec, out=sys.stdout):
    bounds, better, units = bounds_of(spec)
    runs_a, runs_b = read_runs(dir_a), read_runs(dir_b)
    worse = 0
    for workload in sorted(set(runs_a) & set(runs_b)):
        va, vb = metric_values(runs_a[workload]), metric_values(runs_b[workload])
        print(f"== {workload}: A {len(runs_a[workload])} runs, B {len(runs_b[workload])} runs",
              file=out)
        print(f"{'metric':<34} {'unit':>6} {'median A':>12} {'median B':>12} {'worse by':>9} "
              f"{'spread A':>9} {'bound':>6}  verdict", file=out)
        for name in va:
            if name not in vb:
                continue
            ma, mb = statistics.median(va[name]), statistics.median(vb[name])
            w = change(ma, mb, better.get(name, "lower"))
            sa = spread(va[name])
            b = bounds.get(name)
            v = ab_verdict(w, b, sa)
            if v == "WORSE":
                worse += 1
            print(f"{name:<34} {units.get(name, ''):>6} {ma:>12.6g} {mb:>12.6g} {w:>9.3f} "
                  f"{sa:>9.3f} {'' if b is None else b:>6}  {v}", file=out)
    return worse


def run(args, spec):
    os.makedirs(args.out, exist_ok=True)
    seconds = args.seconds or spec["run_seconds"]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
        path = os.path.join(args.out, f"{args.workload}-seed{seed}.json")
        with open(path, "w") as f:
            f.write(proc.stdout)
        with open(path[:-len(".json")] + ".err", "w") as f:
            f.write(proc.stderr)
        print(f"seed {seed}: saved {path}", file=sys.stderr)
    return summary(args.out, spec)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="run a workload k times and summarise")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out", required=True, help="directory for the saved outputs")
    s = sub.add_parser("summary", help="summarise saved runs")
    s.add_argument("dir")
    a = sub.add_parser("ab", help="compare two directories of saved runs")
    a.add_argument("dir_a")
    a.add_argument("dir_b")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.mode == "run":
        bad = run(args, spec)
    elif args.mode == "summary":
        bad = summary(args.dir, spec)
    else:
        bad = ab(args.dir_a, args.dir_b, spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
