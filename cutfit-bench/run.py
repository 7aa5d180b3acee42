#!/usr/bin/env python3
"""Cut-to-Fit benchmark entry point.

    python3 cutfit-bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The first run builds the
benchmark with sbt (the reproduction's `src/main` plus this directory's
sources); later runs reuse the build while the sources are unchanged. The
timed work runs in a plain JVM, and the last line of standard output is the
JSON result. Build output, Spark's log and Spark's scratch space stay under
this directory (`target/`, `project/target/`, `.out/`).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MAIN_SOURCES = os.path.join(ROOT, "src", "main", "scala")
OUT = os.path.join(BENCH, ".out")
STAMP = os.path.join(BENCH, "target", "cutfit-build.stamp")
CLASSES = os.path.join(BENCH, "target", "scala-2.13", "classes")
WORKLOADS = ("metrics-table", "edge-sweep", "triangle-sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Seconds after JVM start by which every timed cell has ended or been given
# up on; the rest of RUN_TIMEOUT_S is for the checks, the readout and shutdown.
CELL_DEADLINE_S = 145

# Module opens that spark-submit adds on JDK 17; GraphX's Kryo path needs them.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def spark_home():
    """$SPARK_HOME, else the installation that holds `spark-submit`."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark installation: set SPARK_HOME")
    return home


def fail(msg):
    print(f"cutfit-bench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    roots = [MAIN_SOURCES, os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    digest = source_digest()
    if os.path.exists(STAMP) and open(STAMP).read() == digest:
        return
    # Offline: every dependency comes from the local caches and $SPARK_HOME.
    sbt_opts = os.environ.get("SBT_OPTS", "") + " -Dsbt.offline=true -Dsbt.server.autostart=false" + \
        f" -Djna.tmpdir={os.path.join(BENCH, 'target', 'jna')}"
    env = dict(os.environ, SBT_OPTS=sbt_opts.strip(), COURSIER_MODE="offline", SPARK_HOME=spark_home())
    log = os.path.join(BENCH, "target", "sbt-build.log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    with open(log, "w") as fh:
        code, _ = finish(spawn(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile"],
                               cwd=BENCH, env=env, stdout=fh, stderr=subprocess.STDOUT),
                         BUILD_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(open(log).read()[-4000:])
        fail(f"build failed (exit {code}); see {log}")
    with open(STAMP, "w") as fh:
        fh.write(digest)


CHILDREN = []


def spawn(cmd, **kwargs):
    """Start `cmd` in its own process group, killed with this script."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, start_new_session=True, **kwargs)
    CHILDREN.append(proc)
    return proc


def on_term(signum, _frame):
    for proc in CHILDREN:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.exit(128 + signum)


def finish(proc, timeout):
    """(exit code, stdout) of `proc`; on timeout kill its process group and
    return a None code."""
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    if not os.path.isdir(MAIN_SOURCES):
        fail(f"reproduction sources not found at {os.path.relpath(MAIN_SOURCES)}")
    build()

    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "tmp"))
    spark_jars = os.path.join(spark_home(), "jars", "*")
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseG1GC",
           *[f"--add-opens={p}=ALL-UNNAMED" for p in OPENS],
           f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
           f"-Dcutfit.log={os.path.join(OUT, 'spark.log')}",
           "-cp", os.pathsep.join([CLASSES, spark_jars]),
           "cutfit.bench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
           "--deadline", str(CELL_DEADLINE_S)]
    code, out = finish(spawn(cmd, cwd=OUT, stdout=subprocess.PIPE, text=True), RUN_TIMEOUT_S)
    lines = out.splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark JVM exited with {code} and no result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
