#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload monitor|ingest|dashboard|fleet \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library sources under src/ plus the zsbench binary) into
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build.
zsbench's human-readable sheet goes to stdout, and its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}, is the result.
Traced runs also leave their spans in <build dir>/perfbench-spans/.
BENCHMARK.json is the one list of metrics: the result carries exactly the
ones it declares for the mode, in its order.  A per-layer metric whose
layer the workload does not run reads 0.  Exits nonzero, printing no
result, when the build fails, zsbench fails or times out, a correctness
check fails, zsbench reports a metric BENCHMARK.json does not declare or
with another unit, or an end-to-end metric was not measured (missing or 0).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir: Path) -> Path:
    binary = build_dir / "zsbench"
    cache = build_dir / "CMakeCache.txt"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "zsbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def sheet_metrics(measured, trace: bool):
    """The declared metrics in BENCHMARK.json's order, or None (logged)."""
    declared = declared_metrics(trace)
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in measured.items():
        if name not in units:
            log(f"zsbench reported an undeclared metric {name}")
            return None
        if m["unit"] != units[name]:
            log(f"{name} is in {m['unit']}, BENCHMARK.json says {units[name]}")
            return None
    out = {}
    for m in declared:
        value = measured.get(m["name"], {}).get("value", 0.0)
        if not trace and not value > 0:
            log(f"end-to-end metric {m['name']} was not measured")
            return None
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["monitor", "ingest", "dashboard", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    try:
        binary = build(build_root / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 1

    workdir = build_root / "perfbench-run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        # The spans of the latest traced run of each workload, kept.
        spans = build_root / "perfbench-spans" / f"{args.workload}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=workdir)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("zsbench printed no result line")
        return 1
    metrics = sheet_metrics(result["metrics"], bool(args.trace))
    if metrics is None or not result["correct"]:
        return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
