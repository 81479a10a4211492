"""conemult benchmark: runs one workload of CLI operations and prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of wave, shells, scan, grid, or ``all`` for the four in turn.
Run it from anywhere; it uses the ``src`` tree of the checkout it sits in.

Every operation runs in a fresh interpreter started from here, one at a
time.  The workload is repeated in passes while another pass still fits in
S seconds (at least one pass).  With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 one more pass runs
with the layers traced and the JSON carries the per-layer metrics.  Every
operation's output is checked; a failed check, a nonzero exit or a
traceback counts the operation as failed.  The full record of a run,
spans included, is written under .perfbench/results/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
OPPROC = os.path.join(HERE, "opproc.py")

SETUP_STARTS = 7        # fresh interpreters per run for setup_s (median)
OP_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class SetupFailed(RuntimeError):
    pass


def child_env():
    """Environment of the operation processes: this checkout's src first,
    and one BLAS thread, so that each process has a single worker thread
    (a spinning second BLAS thread made timings depend on other load)."""
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(starts):
    """Median time from a fresh interpreter to ``import conemult.cli`` done.

    One extra start runs first and is discarded: it may compile bytecode,
    which users pay once per install, not per invocation.
    """
    cmd = [sys.executable, "-c", "import conemult.cli"]
    times = []
    for _ in range(starts + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupFailed(f"import conemult.cli failed:\n{proc.stderr}")
    return statistics.median(times[1:]), times[1:]


def run_op(op, trace, outdir):
    """Run one op in a fresh interpreter and check its output."""
    result_path = outdir + ".result.json"
    cmd = [sys.executable, OPPROC, result_path, "1" if trace else "0", "--",
           *op.argv, "--out", outdir]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=OP_TIMEOUT_S)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = None, ""
    elapsed = time.perf_counter() - t0
    record = {"op": op.key, "subcommand": op.subcommand, "traced": trace,
              "wall_s": elapsed, "cpu_s": 0.0, "maxrss_kib": 0,
              "problems": []}
    problems = record["problems"]
    if returncode is None:
        problems.append(f"timed out after {OP_TIMEOUT_S} s")
    elif returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: "
                        + stderr.strip().splitlines()[-1])
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
        record.update(wall_s=result["wall_s"], cpu_s=result["cpu_s"],
                      maxrss_kib=result["maxrss_kib"])
        record["spans"] = result.get("spans", [])
        record["counts"] = result.get("counts", {})
        if result["rc"] != 0:
            problems.append(f"cli.main returned {result['rc']}")
    elif not problems:
        problems.append("no result from the operation process")
    if not problems:
        try:
            with open(os.path.join(outdir, "summary.json")) as fh:
                summary = json.load(fh)
            problems.extend(op.check(summary, outdir))
        except Exception as exc:    # a check that cannot run is a failure
            problems.append(f"output check raised {type(exc).__name__}: {exc}")
    shutil.rmtree(outdir, ignore_errors=True)
    return record


def run_passes(ops, seconds, workdir):
    """Untraced passes over ``ops`` while another pass fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        i = len(passes)
        passes.append([run_op(op, False, os.path.join(workdir, f"p{i}-{j}"))
                       for j, op in enumerate(ops)])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def per_op_median(passes, field):
    """Median over passes of ``field``, one value per op."""
    return [statistics.median(run[j][field] for run in passes)
            for j in range(len(passes[0]))]


def run_meta():
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    lines += sum(1 for _ in fh)
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_rev": rev,
            "src_lines": lines,
            "blas_threads": {v: child_env()[v] for v in BLAS_VARS}}


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (metrics, attempted, failed, record)."""
    workdir = os.path.join(STATE, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(name, seed, workdir)
        setup_s, setup_samples = measure_setup(SETUP_STARTS)
        passes = run_passes(ops, seconds, workdir)
        traced = [run_op(op, True, os.path.join(workdir, f"t-{j}"))
                  for j, op in enumerate(ops)] if trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = [r for p in passes for r in p] + traced
    failed = sum(1 for r in runs if r["problems"])
    walls = per_op_median(passes, "wall_s")
    wall_s = sum(walls)
    e2e = {"wall_s": wall_s, "setup_s": setup_s,
           "peak_rss_mib": max(r["maxrss_kib"] for p in passes for r in p)
           / 1024.0}
    if trace:
        by_sub = {}
        for op, wall in zip(ops, walls):
            by_sub[op.subcommand] = by_sub.get(op.subcommand, 0.0) + wall
        metrics = tracing.layer_metrics(
            [(r.get("spans", []), r.get("counts", {})) for r in traced],
            wall_s, sum(per_op_median(passes, "cpu_s")), by_sub)
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "passes": len(passes), "ops": len(ops),
              "setup_samples_s": setup_samples, "end_to_end": e2e,
              "fail_frac": failed / len(runs), "metrics": metrics,
              "runs": runs}
    return metrics, len(runs), failed, record


def print_report(record, attempted, failed):
    print(f"workload {record['workload']} (seed {record['seed']}): "
          f"{record['passes']} pass(es) of {record['ops']} operation(s)")
    for key, value in record["end_to_end"].items():
        print(f"  {key:<14} {value:12.4f} {E2E_UNITS[key]}")
    print(f"  {'fail_frac':<14} {record['fail_frac']:12.4f} ratio "
          f"({failed} of {attempted} operations)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["wave", "shells", "scan", "grid", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conemult", "cli.py")):
        print(f"benchmark: no conemult sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = (["wave", "shells", "scan", "grid"] if args.workload == "all"
             else [args.workload])
    meta = run_meta()
    total_metrics, attempted, failed = {}, 0, 0
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    for name in names:
        try:
            metrics, att, fail, record = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
        except SetupFailed as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 2
        record["meta"] = meta
        for r in record["runs"]:
            for p in r["problems"]:
                print(f"FAILED {name}/{r['op']}: {p}", file=sys.stderr)
        out = os.path.join(STATE, "results", f"{name}-seed{args.seed}"
                           f"-trace{args.trace}.json")
        with open(out, "w") as fh:
            json.dump(record, fh)
        print_report(record, att, fail)
        attempted += att
        failed += fail
        prefix = f"{name}." if len(names) > 1 else ""
        total_metrics.update({prefix + k: v for k, v in metrics.items()})
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": total_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
