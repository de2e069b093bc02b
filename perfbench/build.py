#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program and the benchmark.

The program's sources (`src/main/scala`, `src/main/resources`) and the
benchmark's own sources (`perfbench/src`) are compiled together with the
Scala compiler that ships in Spark's `jars/` directory, against Spark's
jars. Nothing is fetched. The classes land in
`$CARGO_TARGET_DIR/classes-<hash>` (default `.bench_build/`), keyed by a
hash of every source file, so an unchanged tree is not rebuilt.

    python3 perfbench/build.py      # prints the runtime classpath
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

SCALA_VERSION = "2.13.17"
SOURCE_DIRS = ("src/main/scala", "perfbench/src")
RESOURCE_DIR = "src/main/resources"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("Spark not found: set SPARK_HOME to a Spark 4.1 binary distribution")
    return Path(home) / "jars"


def sources(root: Path) -> list:
    out = []
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            raise BuildError(f"missing source directory {d} (run from the repository root)")
        out += sorted(base.rglob("*.scala"))
    if not any(p.is_relative_to(root / SOURCE_DIRS[0]) for p in out):
        raise BuildError(f"no program sources under {SOURCE_DIRS[0]}")
    return out


def build(root: Path) -> str:
    """Compile if needed; return the runtime classpath."""
    jars = spark_jars()
    srcs = sources(root)
    h = hashlib.sha256(SCALA_VERSION.encode())
    for p in srcs:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    out_base = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    classes = out_base / f"classes-{h.hexdigest()[:16]}"
    cp = f"{classes}{os.pathsep}{root / RESOURCE_DIR}{os.pathsep}{jars}/*"
    if (classes / ".complete").exists():
        return cp
    tmp = out_base / f"{classes.name}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    compiler = os.pathsep.join(
        str(jars / f"scala-{m}-{SCALA_VERSION}.jar") for m in ("compiler", "library", "reflect"))
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", compiler, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp), "-classpath", f"{jars}/*"] + [str(p) for p in srcs]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {r.returncode}")
    (tmp / ".complete").touch()
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    return cp


if __name__ == "__main__":
    try:
        print(build(Path.cwd()))
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
