#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
spread, the way its acceptance is judged: the distance between the first
and third quartile of the runs (statistics.quantiles, n=4) as a share of
their median, against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10
    python3 perfbench/spread.py --workload edit-loop --seeds 11-15 --json runs.json

Every run's result line is kept with --json, so a second set can be
compared with a first one (--against runs.json): the second median must not
be worse than the first by more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    stamp = next((l for l in lines if l.startswith("stamp ")), "")
    print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} {stamp[:160]}", flush=True)
    return res


def worse(metric, first, second):
    """Share by which second is worse than first."""
    if first == 0:
        return 0.0
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write the result lines here")
    ap.add_argument("--against", help="earlier --json file to compare medians with")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    results = [run(args.workload, s, seconds, args.trace) for s in seeds(args.seeds)]
    if args.json:
        json.dump(results, open(args.json, "w"))
    if args.trace:
        return
    earlier = json.load(open(args.against)) if args.against else None

    ok = all(r["correct"] for r in results)
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        if m["name"] == "setup_s":
            verdict += " (spread not judged)"
        if earlier:
            first = statistics.median([r["metrics"][m["name"]]["value"] for r in earlier])
            w = worse(m, first, statistics.median(vals))
            verdict += f"; vs earlier {w:+.3f}" + (" WORSE" if w > m["bound"] else "")
        print(f"{m['name']:18} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {m['bound']:6.3f}  {verdict}")
    print("all runs correct" if ok else "SOME RUNS INCORRECT")


if __name__ == "__main__":
    main()
