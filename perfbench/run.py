#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold_compile --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the repository libraries, gntd and gnt-perf) in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only re-check the build. The build log goes to stderr.
gnt-perf prints its report on stdout and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_compile", "gntd_zipf")
# Sources the benchmark builds and reads; without them it cannot run.
REQUIRED = ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/gntd.cpp",
            "tests/corpus", "examples/fm")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    return code


def build(build_dir):
    """Configures (once) and builds gnt-perf and gntd; True on success."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "gnt-perf", "gntd"])
    for cmd in steps:
        # The build log must not reach stdout: its last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        return fail("--seconds must be within 1..60")
    if args.seed < 0:
        return fail("--seed must be non-negative")

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        return fail("not a full checkout, missing: " + ", ".join(missing))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return fail("build failed", 1)

    cmd = [os.path.join(build_dir, "gnt-perf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--gntd", os.path.join(build_dir, "tools", "gntd")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # Own process group: on a timeout gnt-perf and any gntd it started
    # are stopped together.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, frame):
        stop_group()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group()
        proc.wait()
        return fail("the run exceeded %d s and was stopped" % RUN_TIMEOUT_S, 1)
    # A gnt-perf that died abnormally may leave a gntd behind in its group.
    stop_group()
    return code


if __name__ == "__main__":
    sys.exit(main())
