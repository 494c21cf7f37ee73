#!/usr/bin/env python3
"""Runs one workload of the AdaScale serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the program and the benchmark from
source into .bench_build/perfbench, trains the detector and regressor once
into perfbench/model_cache/<hash of the program's sources> (in a process of
its own, outside every measurement), then runs perfbench_serve, whose last
line of standard output is the result.  Build and training logs go to
standard error.  Exits non-zero without a result when anything is missing.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SERVE_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 700


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 4)
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)), 4)


def sources_hash():
    """Hash of everything that decides the trained weights: the program's
    sources and build file, and the training recipe."""
    files = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(HERE, "src", "prepare.cpp")]
    for dirpath, dirnames, names in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        files += [os.path.join(dirpath, n) for n in sorted(names)]
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            300)
    run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_serve",
         "perfbench_prepare"], 800)


def prepare():
    cache = os.path.join(HERE, "model_cache", sources_hash())
    if not os.path.exists(os.path.join(cache, "READY")):
        tmp = "%s.tmp%d" % (cache, os.getpid())
        shutil.rmtree(tmp, ignore_errors=True)
        run([os.path.join(BUILD, "perfbench_prepare"), tmp], PREPARE_TIMEOUT_S)
        shutil.rmtree(cache, ignore_errors=True)
        os.rename(tmp, cache)
    return cache


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no program sources here (missing %s)" % need)

    build()
    cache = prepare()
    cmd = [os.path.join(BUILD, "perfbench_serve"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--cache", cache]
    if a.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=SERVE_TIMEOUT_S, cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        fail("perfbench_serve timed out", 4)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench_serve failed (%d)" % done.returncode, 4)
    print(lines[-1])


if __name__ == "__main__":
    main()
