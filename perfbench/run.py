#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--engine-seed <n>]

Builds perfbench/ (the DDT library from src/ plus the ddt_perfbench harness)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in its own process with a fresh scratch directory under the build
directory, and prints the harness's per-driver oracle lines followed by one
JSON object as the last line:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"wall_s": {"value": 8.27, "unit": "s"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a layer the workload does not exercise reads 0);
units come from BENCHMARK.json. Exits nonzero,
printing no result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"failed: {' '.join(cmd)}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DDT sources under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log, BUILD_TIMEOUT_S)
    return build_dir / "ddt_perfbench"


def run_harness(binary, args, scratch):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(scratch)]
    if args.engine_seed is not None:
        cmd += ["--engine-seed", str(args.engine_seed)]
    # Own process group, so a timeout also reaps fleet worker processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload {args.workload} timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"workload {args.workload} exited with {proc.returncode}")
    lines = out.decode(errors="replace").strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--engine-seed", type=int, default=None,
                        help="override the engine seed (default: the program's own)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir)

    scratch = build_dir / "runs" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        rows, raw = run_harness(binary, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    got = set(raw["metrics"])
    if got - set(units):
        fail(f"unexpected metrics {sorted(got - set(units))}")
    if not args.trace and set(units) - got:
        fail(f"missing metrics {sorted(set(units) - got)}")
    for row in rows:
        print(row)
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        # A per-layer metric the workload does not exercise reads 0.
        "metrics": {name: {"value": raw["metrics"].get(name, 0), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
