#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload train_transformer --seed 1 \
        --seconds 30 --trace 0

The mics library is compiled from ./src together with the perfbench
binary into .bench_build/ (or $CARGO_TARGET_DIR when set); the first run
builds, later runs only relink what changed. The binary's report, ending
in one JSON line, goes to stdout; build output goes to
.bench_build/build.log and, on failure, to stderr. The exit status is the
binary's: 0 correct, 1 correctness mismatch, 2 usage; 3 means the build
failed or the run overran its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170
WORKLOADS = ("train_transformer", "train_wide_socket", "serve_open_loop")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no mics sources under %s/src; run from a repository checkout"
             % root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd[:2]))
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    out_dir = os.path.join(root, ".bench_out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s (%.0f s)" % (RUN_LIMIT_S,
                                             time.monotonic() - start))
    sys.exit(code)


if __name__ == "__main__":
    main()
