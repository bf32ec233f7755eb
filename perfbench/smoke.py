"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on its tiny seeded job list: once untraced and twice
traced.  Asserts that every metric BENCHMARK.json names is reported with
its unit, that traced and untraced rounds give the same pass fraction and
worst error, and that the exact counts repeat across the two traced runs.
Then checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark.  Takes
about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(script, workload, trace):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    return proc


def results(workload, trace):
    proc = bench(os.path.join(HERE, "run.py"), workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


def check_named(result, specs):
    metrics = result["metrics"]
    assert set(metrics) == {s["name"] for s in specs}, sorted(metrics)
    for s in specs:
        assert metrics[s["name"]]["unit"] == s["unit"], s["name"]
        assert isinstance(metrics[s["name"]]["value"], (int, float)), s["name"]


def check_workload(workload, spec):
    info0, plain = results(workload, 0)
    check_named(plain, spec["end_to_end"])
    assert plain["correct"] and plain["failed"] == 0, info0["failures"]
    outcome = {k: plain["metrics"][k]["value"] for k in ("pass_frac", "rel_err.max")}
    info1, traced = results(workload, 1)
    _, again = results(workload, 1)
    check_named(traced, spec["per_layer"])
    assert traced["correct"], info1["failures"]
    assert info1["traced"] == info1["untraced"] == outcome, (info1, outcome)
    assert info1["counts_repeat"]
    for key in run.EXACT:
        assert traced["metrics"][key]["value"] == again["metrics"][key]["value"], key


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench(os.path.join(bare, os.path.basename(HERE), "run.py"), "radial", 0)
        assert proc.returncode != 0 and not proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        check_workload(workload, spec)
        print("%s: ok" % workload)
    check_refuses_without_sources()
    print("bare directory: refused")


if __name__ == "__main__":
    main()
