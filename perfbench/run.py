#!/usr/bin/env python3
"""Build the MOTEUR benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. It configures and builds the CMake
package in perfbench/ (which compiles ../src) under .bench_build/, then runs
the perfbench program, whose last line of standard output is the JSON
result. Build output goes to standard error. Result files and span dumps
land in .bench_out/. --self-test builds and runs the benchmark's own tests
instead.
Workloads: table1-sim, dataplane-sim, tenant-open (see perfbench/NOTES.md).
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
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("table1-sim", "dataplane-sim", "tenant-open")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then (re)build `target`; all output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "enactor", "enactor.hpp")):
        log("MOTEUR sources not found under %s/src; nothing to build" % ROOT)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build of %s failed" % target)
        return False
    return True


def source_id():
    """The git commit when the checkout is a repository, else a digest of src/."""
    if shutil.which("git"):
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = top.stdout.split()
        # Only when the checkout itself is the repository, not a directory in one.
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return "git:" + lines[1]
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_tests"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              stdout=sys.stderr).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build("perfbench"):
        return 2
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT, "--source-id", source_id()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
