#!/usr/bin/env python3
"""Build and run the standing benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures the repository root in its own build directory (Release,
PCNN_DCHECKS=OFF, PCNN_COUNT_ALLOCS=OFF, passed as cache variables; the
driver target attaches through CMAKE_PROJECT_INCLUDE, so no repository
build file changes), builds the driver, runs one workload with the
library defaults, and passes its output through. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exits non-zero when the build fails, a correctness check fails, or the
result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
TRACE_DIR = ROOT / ".bench_build" / "traces"
DRIVER = BUILD_DIR / "pcnn_perfbench"
# A benchmark-owned tune-cache path that is never written, so a cache
# under ~/.cache cannot differ between the two commits compared.
TUNE_CACHE = ROOT / ".bench_build" / "hosttune-unused.json"
# Process-wide library toggles: unset, so the library defaults run.
LIBRARY_TOGGLES = ("PCNN_GRAPH", "PCNN_QUANTIZE", "PCNN_KERNEL_TIER",
                   "PCNN_THREADS", "PCNN_FOLD_RELU", "PCNN_CONV_ALGO")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no repository sources beside {BENCH_DIR.name}/; cannot build")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        ok = run_logged([
            "cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
            "-DCMAKE_BUILD_TYPE=Release",
            "-DPCNN_DCHECKS=OFF",
            "-DPCNN_COUNT_ALLOCS=OFF",
            f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'attach.cmake'}",
        ])
        if not ok:
            return False
    return run_logged(["cmake", "--build", str(BUILD_DIR), "--target",
                       "pcnn_perfbench", "-j", str(os.cpu_count() or 1)])


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", BENCH_DIR.name):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "sources sha256 " + h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    for name in LIBRARY_TOGGLES:
        env.pop(name, None)
    env["PCNN_TUNE_CACHE"] = str(TUNE_CACHE)
    return env


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parse the driver's last line and hold it to BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("driver printed no result line")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result keys differ from the contract")
        return False
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, or units differ")
        return False
    return result["correct"] is True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_mixed", "batch_offline", "paper_sim"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="corrupt every reference (self-test: must fail)")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2

    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    if TUNE_CACHE.exists():
        TUNE_CACHE.unlink()
    cmd = [str(DRIVER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference-dir", str(BENCH_DIR / "reference"),
           "--source-id", source_id()]
    if args.trace:
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")

    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 1
    return 0 if check_result(lines[-1], args.trace == 1) else 1


if __name__ == "__main__":
    sys.exit(main())
