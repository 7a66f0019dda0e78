#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and reports, per end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread IQR / median, next
to the metric's bound. The bounds in BENCHMARK.json are set from this
report: every spread but setup_s's should stay below a third of its
bound.

    python3 perfbench/steadiness.py --runs 10 --seed0 100 --out steady-a.json
    python3 perfbench/steadiness.py --runs 10 --seed0 200 --out steady-b.json \
        --compare steady-a.json

With --compare, each metric's median is also checked against the other
report's: it may not be worse by more than the bound.

Run it from the repository root. Exits 1 if any run failed its output
checks or any spread or comparison is out of bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    took = time.time() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    host = next((l for l in lines if l.startswith("host ")), "")
    return proc.returncode, result, took, host


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["workloads"]

    report = {"runs": args.runs, "seed0": args.seed0, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in workloads:
        values, took, host = {}, [], ""
        for k in range(args.runs):
            seed = args.seed0 + k
            code, result, secs, host = run_once(bench, w, seed)
            took.append(secs)
            if code != 0 or not result or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {code})", flush=True)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {secs:.1f} s " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items() if n in bounds), flush=True)
        rows = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            row = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": sp}
            if name in bounds:
                row["bound"] = bounds[name]
                if name != "setup_s" and sp > bounds[name] / 3:
                    row["over_third_of_bound"] = True
                    ok = False
                prev = previous.get(w, {}).get("metrics", {}).get(name)
                if prev:
                    change = med / prev["median"] - 1
                    row["change_vs_compare"] = change
                    if change > bounds[name]:
                        ok = False
            rows[name] = row
        report["workloads"][w] = {"host": host, "seconds_per_run": took, "metrics": rows}
        print(f"\n{w} ({len(took)} runs, {statistics.mean(took):.1f} s per run)")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'IQR/med':>9}{'bound':>7}{'vs cmp':>9}")
        for name, r in rows.items():
            if name not in bounds:
                continue
            cmp_text = f"{r['change_vs_compare']:+.3f}" if "change_vs_compare" in r else ""
            flag = "  <-- over bound/3" if r.get("over_third_of_bound") else ""
            print(f"  {name:<14}{r['median']:>14.6g}{r['q1']:>14.6g}{r['q3']:>14.6g}"
                  f"{r['spread']:>9.3f}{r['bound']:>7}{cmp_text:>9}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
