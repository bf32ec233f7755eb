"""Benchmark of plap, end to end and layer by layer.

    python3 perfbench/run.py --workload {radial,newton1d,newton2d,cli}
                             --seed N --seconds S --trace {0,1}

Measures the checkout that contains this directory, importing plap from
its ``src``.  A run repeats the workload's seeded batch in rounds until
the next round would end after S seconds (at least three rounds, two for
``cli``).  One client runs the jobs one after another.  Every in-process
round is a fresh worker process, because every user batch pays import
and lazy set-up again; a ``cli`` round is one cycle of CLI launches.
Children get one BLAS thread, a fixed hash seed and this checkout's
``src`` first on PYTHONPATH.

The last line on stdout is the result: with --trace 0 the end-to-end
metrics named in BENCHMARK.json, with --trace 1 the per-layer metrics,
read from traced rounds that alternate with untraced ones.  The line
before it holds diagnostics: versions, CPU count, job counts, the
host-speed reference timed at the start and end of the run, and the
traced and untraced pass fractions and errors.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
MIN_ROUNDS = {"radial": 3, "newton1d": 3, "newton2d": 3, "cli": 2}
CHILD_TIMEOUT = 150.0
# counts that must repeat exactly from round to round and run to run
EXACT = ("geometry.area.calls", "energy.linearized_action.calls",
         "solver.newton_iters", "cli.import.modules")
CLI_PROBE = "import plap.cli, sys; sys.stdout.write(plap.cli.__file__)"


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def child_env():
    env = dict(os.environ, **PINNED)
    env.pop("PLAP_OUT", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def check_plap_file(path):
    src = os.path.realpath(os.path.join(ROOT, "src")) + os.sep
    if not os.path.realpath(path).startswith(src):
        raise BenchError("plap was imported from %s, not from %s" % (path, src))


def host_reference():
    """Median seconds of a fixed pure-Python and numpy loop that uses no
    plap, over seven repeats."""
    import numpy as np

    def once():
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        x = np.linspace(0.0, 1.0, 100_000)
        for _ in range(20):
            x = np.sqrt(x * x + 1.0) - 0.5
        a = np.full((100, 100), 1.0 / 100)
        for _ in range(10):
            a = a @ a
        return time.perf_counter() - start
    return statistics.median(once() for _ in range(7))


def launch(cmd, env):
    """Run a child to completion; (wall seconds, exit code, stdout, peak
    RSS in KiB).  The child is killed after CHILD_TIMEOUT."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.monotonic() - start, proc.returncode, out, usage.ru_maxrss


def _done(rounds, start, seconds, need):
    """Stop once the minimum is met and one more round would overrun."""
    if len(rounds) < need:
        return False
    elapsed = time.monotonic() - start
    return elapsed + elapsed / len(rounds) > seconds


# ---------------------------------------------------------------------------
# in-process workloads: one worker process per round
# ---------------------------------------------------------------------------


def worker_round(args, env, workdir, traced, index):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if traced:
        cmd += ["--trace", os.path.join(workdir, "spans-r%d.json" % index)]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode,
                                                          proc.stderr[-3000:]))
    out = json.loads(proc.stdout.splitlines()[-1])
    check_plap_file(out["plap_file"])
    out["setup"] = [out["ready"] - start]
    out["traced"] = traced
    if traced:
        out["layers"] = tracing.derive(out["layers"])
        out["layers"].update({"cli.import.self_s": 0.0, "cli.import.modules": 0,
                              "cli.process.self_s": 0.0})
    return out


def measure_inprocess(args, env, workdir):
    rounds = []
    start = time.monotonic()
    need = 2 if args.trace else MIN_ROUNDS[args.workload]
    while not _done(rounds, start, args.seconds, need):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(worker_round(args, env, workdir, traced, len(rounds)))
    info = {k: rounds[0][k] for k in ("plap_file", "numpy", "scipy")}
    return rounds, info


# ---------------------------------------------------------------------------
# the cli workload: one cycle of CLI launches per round
# ---------------------------------------------------------------------------


def _read_csvs(outdir):
    if not os.path.isdir(outdir):
        return {}
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def cli_cycle(jobs, expected, env, workdir, traced, probes, index, first_csvs):
    cycle = {"traced": traced, "jobs": [], "setup": [], "trace": []}
    cycle_dir = os.path.join(workdir, "c%d" % index)
    os.makedirs(cycle_dir)
    for j, job in enumerate(jobs):
        outdir = os.path.join(cycle_dir, "j%d" % j)
        argv = job["argv"] + ["--out", outdir]
        if traced:
            trace_file = outdir + ".trace.json"
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_file] + argv
        else:
            cmd = [sys.executable, "-m", "plap.cli"] + argv
        wall, code, out, rss = launch(cmd, env)
        rec = {"kind": job["command"], "t": wall, "rss_kb": rss, "ok": False,
               "rel_err": None, "error": None}
        if code != 0:
            rec["error"] = "exit code %d: %s" % (code, out[-500:])
        else:
            rec["ok"], rec["rel_err"], rec["error"] = workloads.check_cli(
                job, expected[j], out)
            csvs = _read_csvs(outdir)
            if first_csvs.setdefault(j, csvs) != csvs:
                rec["ok"], rec["error"] = False, "CSV bytes differ from the first cycle"
        cycle["jobs"].append(rec)
        if traced and code == 0:
            with open(trace_file) as fh:
                t = json.load(fh)
            t["process_s"] = wall - t["import_s"] - t["run_s"]
            cycle["trace"].append(t)
        if probes and j % 2 == 1:
            wall, code, out, _ = launch([sys.executable, "-c", CLI_PROBE], env)
            if code != 0:
                raise BenchError("bare import failed:\n" + out[-3000:])
            check_plap_file(out)
            cycle["setup"].append(wall)
    cycle["rss_kb"] = max(r["rss_kb"] for r in cycle["jobs"])
    if traced:
        if not cycle["trace"]:
            raise BenchError("no traced CLI launch succeeded")
        cycle["layers"] = _cli_layers(cycle["trace"])
    return cycle


def _cli_layers(traces):
    """Per-layer metrics of a traced cycle: plap's layers summed over its
    launches; the cli layer as the median launch."""
    total = {}
    for t in traces:
        total = tracing.add(total, t["layers"])
    layers = tracing.derive(total)
    layers["cli.import.self_s"] = statistics.median_low(t["import_s"] for t in traces)
    layers["cli.import.modules"] = statistics.median_low(t["modules"] for t in traces)
    layers["cli.run.self_s"] = statistics.median_low(
        t["layers"]["cli.run.self_s"] for t in traces)
    layers["cli.process.self_s"] = statistics.median_low(t["process_s"] for t in traces)
    return layers


def measure_cli(args, env, workdir):
    jobs = workloads.make_jobs("cli", args.seed, args.tiny)
    for i, job in enumerate(jobs):
        job["argv"] = [job["command"]] + job["args"]
        if job["manifold"]:
            path = os.path.join(workdir, "manifold-%d.cfg" % i)
            with open(path, "w") as fh:
                fh.write(workloads.manifold_config(job["manifold"]))
            job["argv"] += ["--manifold", path]
    jobs_file = os.path.join(workdir, "jobs.json")
    with open(jobs_file, "w") as fh:
        json.dump(jobs, fh)
    _, code, out, _ = launch([sys.executable, os.path.join(HERE, "worker.py"),
                              "--cli-expected", jobs_file], env)
    if code != 0:
        raise BenchError("library values failed:\n" + out[-3000:])
    lib = json.loads(out.splitlines()[-1])
    check_plap_file(lib["plap_file"])
    cycles = []
    first_csvs = {}
    start = time.monotonic()
    need = MIN_ROUNDS["cli"]
    while not _done(cycles, start, args.seconds, need):
        traced = bool(args.trace) and len(cycles) % 2 == 1
        cycles.append(cli_cycle(jobs, lib["expected"], env, workdir, traced,
                                not args.trace, len(cycles), first_csvs))
    info = {k: lib[k] for k in ("plap_file", "numpy", "scipy")}
    return cycles, info


# ---------------------------------------------------------------------------
# reduction to metrics
# ---------------------------------------------------------------------------


def _per_job(rounds):
    """Each job's median time over the rounds: a burst in one round of one
    job drops out before jobs are combined."""
    return [statistics.median(ts)
            for ts in zip(*[[j["t"] for j in r["jobs"]] for r in rounds])]


def _outcome(rounds):
    jobs = [j for r in rounds for j in r["jobs"]]
    rels = [j["rel_err"] for j in jobs if j["rel_err"] is not None]
    return {"pass_frac": sum(j["ok"] for j in jobs) / len(jobs),
            "rel_err.max": max(rels) if rels else 0.0}


def end_to_end(rounds):
    per_job = _per_job(rounds)
    out = {"wall_s": sum(per_job),
           "job_s.p50": statistics.median(per_job),
           "setup_s": statistics.median(s for r in rounds for s in r["setup"]),
           "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024.0}
    out.update(_outcome(rounds))
    return out


def per_layer(traced, untraced):
    # median_low: a count stays the whole number every round repeats
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median_low(r["layers"][key] for r in traced)
    out["trace.overhead_frac"] = sum(_per_job(traced)) / sum(_per_job(untraced)) - 1.0
    return out


def _results_repeat(rounds):
    """Every round gave the same outcome and error for every job."""
    first = [(j["ok"], j["rel_err"]) for j in rounds[0]["jobs"]]
    return all([(j["ok"], j["rel_err"]) for j in r["jobs"]] == first for r in rounds)


def _pick(values, specs):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and the minimum number of rounds (smoke test)")
    args = ap.parse_args()
    if args.tiny:
        args.seconds = 0.0
    if not os.path.isfile(os.path.join(ROOT, "src", "plap", "__init__.py")):
        print("no plap sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.environ.update(PINNED)  # before numpy loads BLAS in this process
    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    started = time.monotonic()
    host_start = host_reference()
    measure = measure_cli if args.workload == "cli" else measure_inprocess
    try:
        rounds, info = measure(args, env, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    host_end = host_reference()

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    jobs = [j for r in rounds for j in r["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "jobs_per_round": len(rounds[0]["jobs"]), "attempted": len(jobs),
        "failed": len(failed),
        "failures": sorted({"%s: %s" % (j["kind"], j["error"]) for j in failed})[:10],
        "host_ref_s": {"start": host_start, "end": host_end},
        "untraced": _outcome(untraced) if untraced else None,
        "traced": _outcome(traced) if traced else None,
        "results_repeat": _results_repeat(rounds),
        "elapsed_s": time.monotonic() - started,
    })
    if args.trace:
        values = per_layer(traced, untraced)
        info["counts_repeat"] = all(
            r["layers"][k] == traced[0]["layers"][k] for r in traced for k in EXACT)
        metrics = _pick(values, spec["per_layer"])
    else:
        metrics = _pick(end_to_end(untraced), spec["end_to_end"])
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed and info["results_repeat"],
                      "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
