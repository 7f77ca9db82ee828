#!/usr/bin/env python3
"""Build and run the uoibench benchmark from the root of a source checkout.

    python3 uoibench/run.py --workload lasso-comm --seed 1 --seconds 20 --trace 0

Configures and builds uoibench/ (an optimized build of the library tree
plus the harness binary) under $CARGO_TARGET_DIR/uoibench, default
.bench_build/uoibench, then runs one workload. The harness prints its
metrics and, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. The exit code is the
harness's: 0 when every correctness check passed.

    python3 uoibench/run.py --self-test

runs every workload at a tiny size in both modes on two fixed seeds and
checks that each metric named in BENCHMARK.json is printed with its unit,
that layers.json maps every per-layer metric, and that every correctness
check passes.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Seeds of the self-test: one used while the benchmark was written, and
# one that was not.
SELF_TEST_SEEDS = (1, 424242)


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "uoibench"


def build() -> Path:
    """Configures (once) and builds the harness; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"uoibench: build step failed: {' '.join(cmd)}")
    return out / "uoibench"


def run_harness(binary: Path, args: list, capture: bool):
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *args, "--work-dir", str(work)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.exit(f"uoibench: run exceeded {RUN_TIMEOUT_S} s")


def check_result(spec: dict, trace: int, stdout: str) -> list:
    """Problems with one run's output, as a list of messages."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        return [f"last line is not JSON: {err}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"attempted {result.get('attempted')} failed "
                        f"{result.get('failed')}")
    if result.get("correct") is False and result.get("failed") == 0:
        problems.append("correct is false but no failure is counted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ names)}")
    printed = lines[:-1]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
        elif trace == 0 and got["value"] == 0:
            problems.append(f"{m['name']}: end-to-end metric is 0")
        # The human-readable line: "<name> <value> <unit>".
        if not any(line.split()[:1] == [m["name"]] and
                   line.split()[-1:] == [m["unit"]] for line in printed):
            problems.append(f"{m['name']}: not printed with its unit")
    return problems


def check_layers(spec: dict, layers: dict) -> list:
    """layers.json must map each per-layer metric to end-to-end metrics
    and workloads that BENCHMARK.json defines."""
    problems = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for m in spec["per_layer"]:
        entry = layers.get(m["name"])
        if entry is None:
            problems.append(f"layers.json lacks {m['name']}")
            continue
        for moved in entry.get("moves", []):
            if moved not in e2e:
                problems.append(f"{m['name']}: moves unknown metric {moved}")
        for wl in entry.get("workloads", []):
            if wl not in workloads:
                problems.append(f"{m['name']}: unknown workload {wl}")
    extra = set(layers) - {m["name"] for m in spec["per_layer"]}
    if extra:
        problems.append(f"layers.json has unknown metrics {sorted(extra)}")
    return problems


def self_test() -> int:
    root = BENCH_DIR.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    failures = check_layers(spec, layers)
    binary = build()
    for seed in SELF_TEST_SEEDS:
        for wl in spec["workloads"]:
            for trace in (0, 1):
                proc = run_harness(binary, [
                    "--workload", wl["name"], "--seed", str(seed),
                    "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                    capture=True)
                problems = check_result(spec, trace, proc.stdout)
                if proc.returncode != 0:
                    problems.append(f"exit code {proc.returncode}")
                tag = f"{wl['name']} seed {seed} trace {trace}"
                print(f"{'ok  ' if not problems else 'FAIL'} {tag}")
                failures += [f"{tag}: {p}" for p in problems]
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    print("self-test " + ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        if args.seed is not None:
            parser.error("--self-test always runs its own seeds; "
                         "drop --seed")
        return self_test()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    binary = build()
    proc = run_harness(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
