#!/usr/bin/env python3
"""Build wavebench from this checkout and run one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds benchmark/ (Release) into .bench_build/ at the root of
the checkout; the first run compiles the wavehpc libraries it links from
src/. Then runs the workload and passes its standard output through: the
last line is the result JSON. Build output goes to standard error.

The full result record is written to .bench_build/result-<W>-trace<T>.json
and a traced run's spans to .bench_build/trace-<W>.jsonl (each overwritten
by the next run of the same kind).

Exits non-zero, without a result line, when the checkout has no src/ to
build, when the build fails, or when the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "wavebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no src/CMakeLists.txt under {ROOT}: run from a full wavehpc checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "wavebench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(BUILD, f"result-{args.workload}-trace{args.trace}.json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{args.workload}.jsonl")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3


if __name__ == "__main__":
    sys.exit(main())
