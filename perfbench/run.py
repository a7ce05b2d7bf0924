#!/usr/bin/env python3
"""Build and run one workload of the wall-clock benchmark.

    python3 perfbench/run.py --workload classify_inproc --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
repository's libraries, the `ddnn` CLI and the harness under
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to stderr. The harness's stdout is passed through: a host/build
fingerprint line, then the result object as the last line.

Every workload runs at a fixed DDNN_THREADS (capped at the CPUs this
process may use) with DDNN_RESULTS_DIR=off and DDNN_CACHE_DIR=off, so a run
writes nothing under results/ or .ddnn_cache.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Compute threads per workload. Batch-1 inference and the single-threaded
# event simulator run at one thread (the pool only adds tail jitter at
# batch 1); training at batch 32 runs on two. BENCHMARK.json gates only
# classify_inproc and fleet_sim: classify_served and train run the same
# way, but their run-to-run spread exceeds any allowed bound on a shared
# host (perfbench/README.md), so only their per-layer probes are gated.
THREADS = {"classify_inproc": 1, "classify_served": 1, "fleet_sim": 1, "train": 2}

BUILD_TIMEOUT_S = 700
# A run may take --seconds plus this for set-up, probes and the gate.
RUN_MARGIN_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def local_env(**overrides):
    """The environment with temporary files kept inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **overrides)


def stop_group(pgid):
    """Kill whatever is left in the harness's process group and wait (up to
    5 s) until the group is empty."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


def build():
    jobs = str(min(4, usable_cpus()))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "ddnn"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=local_env(), timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}; run from a full checkout")

    build()
    workdir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = local_env(DDNN_THREADS=str(min(THREADS[args.workload], usable_cpus())),
                    DDNN_RESULTS_DIR="off", DDNN_CACHE_DIR="off")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--ddnn", os.path.join(BUILD, "ddnn", "tools", "ddnn"),
           "--workdir", workdir, "--commit", source_identity()]
    # Own process group: on a timeout, or if the harness dies early, the
    # serving roles it started are killed with it.
    timeout_s = args.seconds + RUN_MARGIN_S
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {timeout_s:g} s")
    finally:
        stop_group(proc.pid)
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(
                BUILD, f"spans-{args.workload}-seed{args.seed}.json"))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
