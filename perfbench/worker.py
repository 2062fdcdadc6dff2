"""One fresh interpreter per sample; started by ``run.py``.

    python3 perfbench/worker.py setup --result FILE
    python3 perfbench/worker.py pass --result FILE \
        --workload NAME --seed N --trace 0|1 --tmp DIR

Run from the root of a source checkout; heis is imported from ``src/``.
``setup`` times ``import heis, heis.cli`` and records the environment.
``pass`` does the same import, then runs each job of the workload once
through ``heis.cli.main`` (optionally under the tracer) and records the wall
time of the pass (import excluded), each job's exit code and report path, and
the process's peak resident memory.  Checking the reports is left to the
caller.  The result is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def import_heis():
    """Import heis from ``src/`` under the working directory; returns the
    import time in seconds."""
    src = Path.cwd().resolve() / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import heis
    import heis.cli
    elapsed = time.perf_counter() - start
    if Path(heis.__file__).resolve().parent != src / "heis":
        raise ImportError(f"heis was imported from {heis.__file__}, not {src}")
    return elapsed


def environment():
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if blas.get(k) is not None},
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "HEIS_THREADS"},
    }


def run_jobs(jobs, seed, tmp, tracer=None):
    """Run ``jobs`` once through ``heis.cli.main``; returns the pass record.

    A job that raises is recorded with its error and the pass goes on.
    """
    import heis.cli

    records = []
    tmp = Path(tmp)
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for i, job in enumerate(jobs):
            out = tmp / f"job{i}.json"
            argv = [*job.argv, "--seed", str(seed), "--out", str(out)]
            rec = {"argv": argv, "out": str(out), "rc": None, "error": None}
            job_start = time.perf_counter()
            try:
                rec["rc"] = heis.cli.main(argv)
            except SystemExit as exc:           # argparse rejects the argv
                rec["rc"] = exc.code
            except Exception as exc:            # the job failed; record it, go on
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["wall_s"] = time.perf_counter() - job_start
            records.append(rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": time.perf_counter() - start, "jobs": records}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup").add_argument("--result", required=True)
    one_pass = modes.add_parser("pass")
    one_pass.add_argument("--result", required=True)
    one_pass.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    one_pass.add_argument("--seed", type=int, required=True)
    one_pass.add_argument("--trace", type=int, choices=(0, 1), required=True)
    one_pass.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    result = {"import_s": import_heis()}
    if args.mode == "setup":
        result["env"] = environment()
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        result.update(run_jobs(WORKLOADS[args.workload], args.seed, args.tmp, tracer))
        if tracer is not None:
            result["layers"] = tracer.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
