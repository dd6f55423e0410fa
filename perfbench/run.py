#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload lrb-cpu|lubm-geo|wire-mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The driver and the library it links are
compiled with CMake (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to standard error. The driver's standard output is passed through; its last
line is the JSON result. The exit code is the driver's, or non-zero when the
build fails or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lrb-cpu", "lubm-geo", "wire-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(root: Path) -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "lusail_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"benchmark driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    lines = proc.stdout.splitlines()
    if not lines:
        print("benchmark driver printed nothing", file=sys.stderr)
        return 2
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("benchmark driver's last line is not JSON", file=sys.stderr)
        return 2
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("benchmark result has unexpected keys", file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
