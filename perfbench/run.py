#!/usr/bin/env python3
"""Lake -> deletion-plan benchmark: one run of one workload.

    python3 perfbench/run.py --workload lake-c1 --seed 1 --seconds 30 --trace 0 [--smoke]

Run from the repository root. Builds the program from source if needed
(see build.py), runs one workload in a fresh JVM with a local Spark master
using every core, prints every metric with its unit, and prints as the
last stdout line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. The full run document
(environment, samples, gate details, spans) is written to
`.bench_build/runs/`. Exits non-zero without a result line on any error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

RUN_TIMEOUT_S = 170
DRIVER_HEAP = "3g"
# Runs are short-lived JVMs; C2 compilation then competes with Spark for the
# cores and makes run-to-run times noisier, so the Spark driver JVM stops at C1.
# Spark generates code for every query; with C1 alone the default code cache
# fills up within a run and the JIT switches itself off.
JVM_FLAGS = ["-XX:TieredStopAtLevel=1", "-XX:ReservedCodeCacheSize=512m"]
MAIN_CLASS = "repro.perfbench.Main"
JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_jvm(cmd, env, timeout_s):
    """Run `cmd`, relaying its stdout; kill its whole process group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    deadline = time.monotonic() + timeout_s
    try:
        for line in proc.stdout:
            print(line, end="", flush=True)
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, timeout_s)
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {timeout_s} s and was killed")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="run the workload's steps on Profiles.tiny and compare edges with R2D2.run")
    a = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found: run from the repository root")
    spec = json.loads(spec_path.read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload!r}")

    try:
        classpath = build.build(root)
    except build.BuildError as e:
        fail(f"build failed: {e}")

    out_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    runs = out_dir / "runs"
    tmp = out_dir / "tmp"
    runs.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    doc_path = runs / f"{a.workload}-seed{a.seed}-trace{a.trace}{'-smoke' if a.smoke else ''}.json"
    doc_path.unlink(missing_ok=True)

    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    cmd = (["java", f"-Xmx{DRIVER_HEAP}"] + JVM_FLAGS
           + [f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS]
           + ["-cp", classpath, MAIN_CLASS, "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", str(doc_path)]
           + (["--smoke"] if a.smoke else []))
    code = run_jvm(cmd, env, RUN_TIMEOUT_S)
    if code != 0 or not doc_path.is_file():
        fail(f"benchmark JVM exited with code {code}")

    doc = json.loads(doc_path.read_text())
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    bad = [m["name"] for m in wanted if doc["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
    if bad:
        fail(f"metrics missing from the run or with another unit: {bad}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: doc["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
