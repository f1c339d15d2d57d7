#!/usr/bin/env python3
"""End-to-end benchmark of the URL-filter identification and confirmation
program.

    python3 perfbench/run.py --workload campaign|scan|monitor|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
program and the benchmark binary from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only check that the build is current. The build
happens before the benchmark process starts, so no timed region contains
it. The last line of standard output is the result object; see README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build(out):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: program sources not found under " + ROOT,
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
            return False
    return run_quiet(["cmake", "--build", out, "--target", "perfbench",
                      "-j", JOBS], 840) == 0


def main(argv):
    out = build_dir()
    try:
        if not build(out):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except (OSError, subprocess.TimeoutExpired) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, URLF_THREADS="1")
    cmd = [os.path.join(out, "perfbench")] + argv + ["--trace-dir", traces]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
