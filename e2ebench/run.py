#!/usr/bin/env python3
"""Builds and runs the ViewSeeker end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--corrupt-expected] [--inject-failure]

Workloads: cold_explore, paper_sessions
(see e2ebench/NOTES.md).  The first run configures and builds the library
from ../src plus the driver into $CARGO_TARGET_DIR (default .bench_build)
with CMake; later runs only rebuild what changed.  The driver's standard
output is passed through; its last line is the JSON result object.  The
exit code is the driver's: 0 ok, 1 a correctness check failed, 2 a usage,
build or set-up error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_explore", "paper_sessions")
RUN_TIMEOUT_S = 175


def source_digest():
    """Short SHA-256 over the benchmarked sources and the driver."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "driver")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "vs_e2ebench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "vs_e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: checks wiring, not performance")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="perturb expected answers; the run must fail")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make one operation fail; the run must fail")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: the viewseeker sources (src/) are missing next to "
              "e2ebench/; run from a full checkout", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "e2ebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{os.getpid()}")
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work-dir={work_dir}",
               f"--source-digest={source_digest()}"]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    if args.inject_failure:
        command.append("--inject-failure")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        final = None
    if not isinstance(final, dict) or set(final) != {
            "correct", "attempted", "failed", "metrics"}:
        print("e2ebench: the driver printed no result object",
              file=sys.stderr)
        return result.returncode or 2
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
