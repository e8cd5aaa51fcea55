#!/usr/bin/env python3
"""Small-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root. Runs every workload named in BENCHMARK.json at
the small size (--small, 2 s) untraced and traced, and asserts that each run
prints every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json with its declared unit and a finite value, that every output
check passed, and that error_rate is 0. Exits 1 on the first failure.
"""
import json
import math
import subprocess
import sys


def run(workload, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "2025",
         "--seconds", "2", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr[-2000:]}")
    return out.stdout.strip().splitlines()


def check(bench, workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, lines[-4:]
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    provenance = next(l for l in lines if l.startswith("provenance: "))
    assert json.loads(provenance[len("provenance: "):])["error_rate"] == 0, provenance
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, sorted(metrics)
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            try:
                check(bench, w["name"], trace)
            except (AssertionError, StopIteration, ValueError,
                    subprocess.SubprocessError) as e:
                print(f"FAIL {w['name']} --trace {trace}: {e}")
                return 1
            print(f"ok   {w['name']} --trace {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
