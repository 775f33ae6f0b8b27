#!/usr/bin/env python3
"""Repository benchmark: build zcbench from source, run one workload.

    python3 perfbench/run.py --workload sim-llc|kv-mix|kv-tcp \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test        # zcbench's own arithmetic
    python3 perfbench/run.py --record-expected  # rewrite sim_expected.tsv

zcbench links the repository's libraries (../src), builds
the shipped zkv_server (../bench/zkv_server.cpp) and is configured by
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last line of standard output is the JSON
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Spans of a traced run are written to .bench_out/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-llc", "kv-mix", "kv-tcp")
EXPECTED = os.path.join(HERE, "sim_expected.tsv")
# A run must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    bdir = build_dir()
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(bdir, f)) for f in generated):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return bdir


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd):
    """Run zcbench in its own process group; kill the group (zcbench
    and any zkv_server it spawned) if it overruns or run.py is
    told to stop."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: zcbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.record_expected or args.workload):
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        return run([os.path.join(bdir, "bench_stats_test")])
    zcbench = os.path.join(bdir, "zcbench")
    if args.record_expected:
        return run([zcbench, "--record-expected", "--data", EXPECTED])

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    return run([zcbench, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out-dir", out_dir,
                "--server-bin", os.path.join(bdir, "zkv_server"),
                "--data", EXPECTED, "--git-sha", git_sha()])


if __name__ == "__main__":
    sys.exit(main())
