#!/usr/bin/env python3
"""Short-mode self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload: a clean short run must pass its correctness check,
and a run with a planted mismatch (one flipped bit in every reference,
or in paper_sim's stored digest) must fail it and exit non-zero. One
traced run must emit every per-layer metric. Last, a directory holding
only BENCHMARK.json and perfbench/ must fail without printing a result.
Exits non-zero on the first expectation that does not hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve_mixed", "batch_offline", "paper_sim")


def run(workload, *extra, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or BENCH_DIR / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    for w in WORKLOADS:
        code, res = run(w, "--trace", "0")
        expect(code == 0 and res and res["correct"] and res["failed"] == 0,
               f"{w}: clean run passes its correctness check")
        code, res = run(w, "--trace", "0", "--plant-mismatch")
        expect(code != 0 and res and not res["correct"],
               f"{w}: planted mismatch fails the run")

    code, res = run("batch_offline", "--trace", "1")
    want = {m["name"] for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    expect(code == 0 and res and set(res["metrics"]) == want,
           "traced run emits every per-layer metric")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res = run("paper_sim", "--trace", "0", cwd=bare,
                    script=bare / BENCH_DIR.name / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and res is None,
           "benchmark files alone: fails without a result")


if __name__ == "__main__":
    main()
