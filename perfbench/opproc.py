"""Run one conemult CLI operation in this fresh interpreter and report its cost.

    python3 perfbench/opproc.py RESULT_JSON TRACE -- ARGV...

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Imports
``conemult.cli``, times ``cli.main(ARGV)`` and writes the exit code, wall
and CPU time, peak resident set and, with TRACE=1, the recorded spans and
counts to RESULT_JSON.  An exception that escapes ``main`` propagates
(traceback, nonzero exit, no result file).
"""

import json
import resource
import sys
import time


def main():
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: opproc.py RESULT_JSON TRACE -- ARGV...")
    argv = sys.argv[4:]
    import conemult.cli as cli
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"rc": rc, "wall_s": wall,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "maxrss_kib": usage.ru_maxrss}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
