#!/usr/bin/env python3
"""Run one ASTI benchmark workload and print its result as the last line.

Usage (from the repository root):

    python3 astibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is compiled from source on first use (or whenever the program's
or the harness's sources change) with sbt, into astibench/target. Each run
then starts one JVM on the compiled classpath. The last stdout line is the
JSON result; the exit code is non-zero on any failed correctness check, a
result that does not match BENCHMARK.json, a failed build or a timeout.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
CLASSPATH = TARGET / "classpath.txt"
STAMP = TARGET / "classpath.stamp"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
WORKLOADS = ("table3-nethept-ic", "adaptim-nethept-lt")

BUILD_LIMIT_S = 850
RUN_LIMIT_S = 175

# Spark on JDK 17 needs these packages opened (spark-submit adds them itself).
JVM_OPENS = [
    f"--add-opens={p}=ALL-UNNAMED"
    for p in (
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg, code):
    print(f"[astibench] {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [PROGRAM_SOURCES, HERE / "src" / "main", HERE / "project"]
    files = [HERE / "build.sbt"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.is_file() and "target" not in p.parts]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_bounded(cmd, limit_s, **kw):
    """Run `cmd` in its own process group; kill the group after `limit_s`."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=limit_s)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    digest = source_digest()
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == digest:
        return
    print("[astibench] building the harness and the program with sbt", file=sys.stderr)
    sbt_opts = os.environ.get("SBT_OPTS", "")
    env = dict(os.environ, SBT_OPTS=f"{sbt_opts} -Dsbt.server.autostart=false -Dsbt.boot.lock=false".strip())
    try:
        code, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                              BUILD_LIMIT_S, cwd=HERE, env=env, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_LIMIT_S} s", 3)
    if code != 0 or not CLASSPATH.is_file():
        fail(f"build failed (sbt exit code {code})", 3)
    STAMP.write_text(digest)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Return the parsed result, or None when it breaks the output contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if result["correct"] and got != expected_metrics(trace):
        print(f"[astibench] metrics {got} do not match BENCHMARK.json", file=sys.stderr)
        return None
    return result


def main():
    # Turn SIGTERM into SystemExit so that run_bounded kills the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not (PROGRAM_SOURCES / "repro").is_dir():
        fail(f"program sources not found under {PROGRAM_SOURCES}", 2)

    build()
    for d in ("tmp", "spark-local"):
        (TARGET / d).mkdir(parents=True, exist_ok=True)
    cmd = ["java", "-Xmx3g", *JVM_OPENS,
           f"-Djava.io.tmpdir={TARGET / 'tmp'}",
           "-cp", CLASSPATH.read_text().strip(),
           "astibench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep both in the checkout.
        env = dict(os.environ, SPARK_LOCAL_DIRS=str(TARGET / "spark-local"))
        code, out = run_bounded(cmd, RUN_LIMIT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_LIMIT_S} s", 3)
    lines = out.rstrip("\n").split("\n")
    result = check_result(lines[-1], args.trace == 1)
    if result is None:
        sys.stdout.write(out)
        fail("the run printed no valid result", code or 4)
    print("\n".join(lines))
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
