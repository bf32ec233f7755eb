"""Run one plap CLI command under the tracer.

    python traced_cli.py TRACE_FILE ARG...

Times ``import plap.cli`` and counts the modules it loads, wraps plap's
layers, calls ``plap.cli.run(ARGS)`` and writes the import and run times,
the per-layer sums and the raw spans to TRACE_FILE as JSON.  Exits with
the command's exit code.
"""

import sys
import time


def main():
    # nothing but sys and time is loaded before the timed import
    before = len(sys.modules)
    start = time.perf_counter()
    import plap.cli
    import_s = time.perf_counter() - start
    modules = len(sys.modules) - before
    import json
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    code = plap.cli.run(sys.argv[2:])
    run_s = time.perf_counter() - start
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_s": import_s, "modules": modules, "run_s": run_s,
                   "layers": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
