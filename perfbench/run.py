#!/usr/bin/env python3
"""Builds and runs the SCOPe benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lake-plan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The first run in a checkout compiles the program's main sources together with
the harness (sbt, offline) into perfbench/target; later runs start the JVM on
the written classpath directly. The last line of standard output is the result
object. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")
WORKLOADS = ["lake-plan", "solver-scale", "train-models"]
# Fixed heap (-Xms = -Xmx): while G1 grew the heap, the first passes after
# set-up ran up to 40% slower than later ones.
HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 175

# Module opens Spark 4 needs on JDK 17 (the same list as the main build).
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--enable-native-access=ALL-UNNAMED",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_bounded(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s")
    return proc.returncode, out


def build(current):
    """Compiles with sbt unless the classpath for these sources exists."""
    marker = os.path.join(TARGET, "built-from")
    classpath = os.path.join(TARGET, "classpath.txt")
    if os.path.exists(marker) and os.path.exists(classpath):
        with open(marker) as fh:
            if fh.read().strip() == current:
                return classpath
    if not shutil.which("sbt"):
        fail("sbt is not on PATH")
    sbt_opts = os.environ.get("SBT_OPTS", "")
    sbt_opts += f" -Dsbt.global.base={os.path.join(TARGET, 'sbt-global')} -Dsbt.server.autostart=false"
    env = dict(os.environ, SBT_OPTS=sbt_opts.strip(), COURSIER_MODE="offline")
    print("perfbench: building (sbt writeClasspath)", file=sys.stderr)
    code, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                          BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.exists(classpath):
        fail(f"build failed (sbt exit code {code})")
    with open(marker, "w") as fh:
        fh.write(current)
    return classpath


def run_workload(classpath, current, args, workload, limit):
    with open(classpath) as fh:
        cp = fh.read().strip()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    fingerprint = os.path.join(OUT, "fingerprints", f"{workload}-seed{args.seed}-{current}.tsv")
    cmd = (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1", "-Dlog4j2.configurationFile=log4j2.properties"]
           + JVM_OPENS
           + ["-cp", cp, "perfbench.Main",
              "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace),
              "--out-dir", OUT, "--fingerprint-file", fingerprint])
    code, out = run_bounded(cmd, limit, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail(f"{workload} exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed no result")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    started = time.monotonic()
    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SOURCES, ROOT)}; "
             "run from a full checkout of the repository")
    current = stamp()
    classpath = build(current)
    built = time.monotonic()

    if args.workload != "all":
        limit = RUN_LIMIT_S - (built - started if built - started < 60 else 0)
        result = run_workload(classpath, current, args, args.workload, limit)
        print(json.dumps(result))
        return

    # Every workload in turn, each in its own JVM; one combined result.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        print(f"== {w}")
        r = run_workload(classpath, current, args, w, RUN_LIMIT_S)
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = v
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
