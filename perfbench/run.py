#!/usr/bin/env python3
"""Time to a certified verdict: build the benchmark and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cec_mult --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
sateda-perfbench.  Everything the program prints goes to stdout; the
last line is the result object {"correct", "attempted", "failed",
"metrics"}.  Build output goes to stderr.  Traced runs write their
Chrome trace to .bench_out/.  Exits non-zero, printing no result, when
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cec_mult", "atpg_faultlist", "serve_atpg")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, bench_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {root / 'src'}; run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "sateda-perfbench", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "sateda-perfbench"


def commit_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    catalog = json.loads((Path(__file__).resolve().parent.parent /
                          "BENCHMARK.json").read_text())
    names = {m["name"] for m in catalog["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != names:
        raise ValueError("metrics differ from BENCHMARK.json: " +
                         str(sorted(set(result["metrics"]) ^ names)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    binary = build(root, bench_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(root), "--out-dir", str(root / ".bench_out")]
    try:
        run = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}")
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError) as e:
        sys.stderr.write(run.stdout)
        fail(f"bad result line: {e}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
