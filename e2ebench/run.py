#!/usr/bin/env python3
"""Build and run the end-to-end solve benchmark.

    python3 e2ebench/run.py --workload chunk4k --seed 1 --seconds 15 --trace 0

Run it from the repository root. Every call configures and builds
e2ebench/ (a CMake project that compiles ../src) under
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is unset;
only the first call compiles everything. Build output goes to stderr.
The arguments are passed on to the e2e_solve binary, whose last stdout
line is the result object. A traced run (--trace 1) also writes its
spans to spans-<workload>.jsonl in the build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench")


def check(cmd):
    """Run one build step; exit with its status when it fails."""
    status = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            check=False).returncode
    if status != 0:
        sys.exit(status)


def build():
    """Configure, build, and return the path of e2e_solve."""
    out = build_dir()
    check(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    check(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    return os.path.join(out, "e2e_solve")


def main():
    binary = build()
    args = sys.argv[1:]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="run")
    parser.add_argument("--spans-out")
    known, _ = parser.parse_known_args(args)
    if known.spans_out is None:
        args += ["--spans-out", os.path.join(
            build_dir(), "spans-%s.jsonl" % known.workload)]
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
