#!/usr/bin/env python3
"""Builds the omega benchmark program from source and runs one workload.

Usage (from the root of a checkout):

    python3 omegabench/run.py --workload paper-protocol --seed 1 \
        --seconds 10 --trace 0

The build goes to .bench_build/omegabench (or $CARGO_TARGET_DIR/omegabench
when that is set); generated snapshots live under .bench_data/ for the
duration of a run, and traced runs leave their span files under
.bench_results/. The last line of standard output is the run's JSON result.
Extra arguments (e.g. --corrupt) are passed through to omega_bench.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-protocol", "crpq-cold", "serve-refresh")


def build(root: Path, build_dir: Path) -> Path:
    source = root / "omegabench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "omega_bench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "omega_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    root = Path(__file__).resolve().parent.parent
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (root / target / "omegabench").resolve()
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"omegabench: build failed: {err}", file=sys.stderr)
        return 2

    command = [str(binary),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--data-dir", str(root / ".bench_data"),
               "--results-dir", str(root / ".bench_results")] + extra
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
