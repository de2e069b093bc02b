#!/usr/bin/env python3
"""Steadiness check: run every workload on several seeds and report spreads.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--same-seed] [--workload W ...] [--trace 0|1]

For each workload and end-to-end metric this prints the median of the runs
and the spread (Q3 - Q1) / median, with quartiles as
`statistics.quantiles(values, n=4)` gives them, next to the metric's bound
from BENCHMARK.json. Runs use seeds first-seed, first-seed + 1, ...; with
`--same-seed` every run uses first-seed. With `--trace 1` it runs the traced
variant and lists the per-layer counts that were identical in every run:
with `--same-seed`, the counts that repeat exactly for one lake. Results
also go to `.bench_build/steadiness-<trace>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    log = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "runs" / f"{workload}-seed{seed}-trace{trace}.err"
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("w") as err:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
    if r.returncode != 0:
        raise SystemExit(f"run failed ({r.returncode}): {' '.join(cmd)}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if a.trace else "end_to_end"]
    report = {}
    ok = True
    for w in workloads:
        results = []
        for i in range(a.runs):
            seed = a.first_seed + (0 if a.same_seed else i)
            res = run_once(w, seed, a.seconds, a.trace)
            results.append(res)
            print(f"{w} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items() if not a.trace),
                  flush=True)
        rows = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, sp = spread(vals)
            rows[m["name"]] = {"median": med, "spread": sp, "values": vals, "bound": m.get("bound")}
            if a.trace:
                continue
            bound = m["bound"]
            verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            if m["name"] != "setup_s" and sp > bound:
                ok = False
            print(f"  {m['name']:<16} median={med:<12.6g} spread={sp:.3f} bound={bound} {verdict}")
        if a.trace:
            counts = [m["name"] for m in metrics if m["unit"] == "count"]
            same = [c for c in counts if len({r["metrics"][c]["value"] for r in results}) == 1]
            differ = {c: sorted({r["metrics"][c]["value"] for r in results}) for c in counts if c not in same}
            rows["identical_across_runs"] = same
            rows["differing"] = differ
            print(f"  counts identical across all {a.runs} runs: {', '.join(same) or '-'}")
            print(f"  counts that differ: " + "; ".join(f"{c}={v}" for c, v in differ.items()))
        rows["all_correct"] = all(r["correct"] for r in results)
        ok = ok and rows["all_correct"]
        report[w] = rows
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / f"steadiness-{a.trace}.json"
    out.write_text(json.dumps(report, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
