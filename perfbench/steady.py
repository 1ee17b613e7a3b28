#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs the benchmark on several seeds per workload and reports, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
range as a share of the median) against the metric's bound in
BENCHMARK.json. Given two sets of runs of the same commit, it also reports
how far the second median moved from the first, in the metric's worse
direction.

Run from the root of a checkout:

    python3 perfbench/steady.py run  --out .bench_build/perfbench/set1.jsonl
    python3 perfbench/steady.py run  --out .bench_build/perfbench/set2.jsonl
    python3 perfbench/steady.py report .bench_build/perfbench/set1.jsonl \\
        .bench_build/perfbench/set2.jsonl

`run` takes --workloads (default: all in BENCHMARK.json), --seeds
(default 1-10) and --seconds (default: run_seconds). `report` exits 1 when
a spread exceeds its bound or a median moved by more than its bound; it
marks spreads above a third of the bound with "!". For context it also
prints, per set, the spread the host seconds per pass had before the host
probe's normalisation (see README.md) and the range of the runs' slowdown.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

SLOWDOWN = re.compile(r"the host ran ([0-9.]+) times slower")


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for w in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.stderr.write(p.stderr)
                    sys.exit(f"{w} seed {seed}: exit {p.returncode}")
                result = json.loads(lines[-1])
                record = {"workload": w, "seed": seed, "result": result}
                m = SLOWDOWN.search(p.stderr)
                if m:
                    record["slowdown"] = float(m.group(1))
                out.write(json.dumps(record) + "\n")
                out.flush()
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
                print(f"{w} seed {seed}: correct={result['correct']} {vals}", flush=True)


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(dict(r["result"], slowdown=r.get("slowdown")))
    return runs


def cmd_report(args):
    bench = load_benchmark()
    sets = [read_set(p) for p in args.sets]
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        if not any(w in s for s in sets):
            continue
        print(f"\n{w}")
        print(f"  {'metric':<20} {'set':>3} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'moved':>8}")
        for m in bench["end_to_end"]:
            medians = []
            for i, s in enumerate(sets):
                results = s.get(w, [])
                if any(not r["correct"] for r in results):
                    print(f"  {w}: set {i + 1} has incorrect runs")
                    ok = False
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                moved = ""
                if len(medians) == 2:
                    a, b = medians
                    worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                    moved = f"{worse:+.4f}"
                    if worse > m["bound"]:
                        ok = False
                        moved += " FAIL"
                flag = ""
                if spread > m["bound"]:
                    flag, ok = " FAIL", False
                elif spread > m["bound"] / 3:
                    flag = " !"
                print(f"  {m['name']:<20} {i + 1:>3} {len(vals):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {m['bound']:>6} {moved:>8}{flag}")
        # For comparison only: the host seconds per pass before the host
        # probe's normalisation (wall_s × the run's slowdown).
        for i, s in enumerate(sets):
            results = s.get(w, [])
            if len(results) < 2 or any(r["slowdown"] is None for r in results):
                continue
            raw = [r["metrics"]["wall_s"]["value"] * r["slowdown"] for r in results]
            slow = [r["slowdown"] for r in results]
            q1, med, q3 = statistics.quantiles(raw, n=4)
            print(f"  {'(host wall_s)':<20} {i + 1:>3} {len(raw):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{(q3 - q1) / med:>8.4f}   slowdown {min(slow):.3f} to {max(slow):.3f}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the benchmark on several seeds and append the results to a set")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    p = sub.add_parser("report", help="report the spread of one or two sets of runs")
    p.add_argument("sets", nargs="+")
    args = ap.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    if len(args.sets) > 2:
        ap.error("report takes one or two sets")
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
