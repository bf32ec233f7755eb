"""One round of an in-process workload, in a fresh process.

    python worker.py --workload W --seed S [--tiny] [--trace SPANS_FILE]
    python worker.py --cli-expected JOBS_FILE

The first form imports plap, builds the batch's inputs (manifolds, grids,
exact fields) and prints the monotonic time at which they were ready, then
runs the jobs one after another and prints one JSON object: per-job times
and checks, and the process's peak RSS.  With --trace the
batch runs under the tracer; the raw spans go to SPANS_FILE and the
per-layer sums into the printed object.

The second form prints the library's values for the CLI jobs in
JOBS_FILE (see workloads.cli_expected).
"""

import argparse
import json
import resource
import time

import workloads


def _versions(plap):
    import numpy
    import scipy
    return {"plap_file": plap.__file__, "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_round(workload, seed, tiny, spans_file):
    import plap
    jobs = workloads.make_jobs(workload, seed, tiny)
    calls = [workloads.build(plap, job) for job in jobs]
    ready = time.monotonic()
    tracer = None
    if spans_file:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.job = i
        start = time.perf_counter()
        try:
            ok, rel = call()
            error = None
        except Exception as exc:  # a failed job is counted, the batch goes on
            ok, rel, error = False, None, "%s: %s" % (type(exc).__name__, exc)
        results.append({"kind": jobs[i]["kind"], "t": time.perf_counter() - start,
                        "ok": bool(ok), "rel_err": rel, "error": error})
    out = {"ready": ready, "jobs": results,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    out.update(_versions(plap))
    if tracer is not None:
        out["layers"] = tracer.summary()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)
    return out


def cli_expected(jobs_file):
    import plap
    with open(jobs_file) as fh:
        jobs = json.load(fh)
    out = {"expected": [workloads.cli_expected(plap, job) for job in jobs]}
    out.update(_versions(plap))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--cli-expected", default=None)
    args = ap.parse_args()
    if args.cli_expected:
        out = cli_expected(args.cli_expected)
    else:
        out = run_round(args.workload, args.seed, args.tiny, args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
