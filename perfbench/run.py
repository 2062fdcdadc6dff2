"""The heis benchmark: ``heis`` CLI workloads, timed from fresh interpreters.

    python3 perfbench/run.py --workload induct|foel|spectrum|spinwave \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; heis is imported from ``src/``.
Each pass over a workload's jobs runs in a fresh interpreter (``worker.py``),
as a CLI call would, so no cache carries over from one pass to the next.
The seed is forwarded as ``--seed`` to every job.  Every report is checked
(``workloads.py``); a job fails on an exception, an unexpected exit code, a
failed check or a non-finite value.

``--trace 0`` measures with tracing off.  It probes ``import heis, heis.cli``
in SETUP_PROBES fresh interpreters, then runs passes while the next one is
expected to end within ``--seconds``, and reports:

- ``wall_s``: median wall time of a pass, import excluded;
- ``setup_s``: median import time over the probes and the passes;
- ``peak_rss_mb``: median over passes of the process's peak resident memory;
- ``pass_ratio``: jobs that passed / jobs attempted (1 - the failure ratio).

``--trace 1`` runs one untraced pass, one traced pass and one pass with
``OPENBLAS_NUM_THREADS=1``, and reports per-function calls, total and self
time, the tracer's counters, ``trace_overhead_s`` (traced minus untraced wall
time), and the two other walls.  The single-thread pass is reported, never
gated: gated runs keep the BLAS library's default threading.  All passes of
``--trace 1`` set ``HEIS_THREADS=1``, because the tracer keeps one call stack.

A pass whose worker fails adds no sample: its jobs count as failed, and a
time or memory figure with no sample at all is reported as null.

The last line of standard output is the JSON result.  The full record
(environment and every sample) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNTERS, span_names  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

ROOT = Path.cwd()
SETUP_PROBES = 5
#: The run stops starting children after this many seconds.
HARD_LIMIT_S = 165.0


class Runner:
    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.jobs = WORKLOADS[workload]
        # forwarded to every job; the CLI's generators take seeds in [0, 2**32)
        self.job_seed = seed % 2 ** 32
        self.work_dir = work_dir
        self.started = time.monotonic()
        self.attempted = 0
        self.failures = []
        self._count = 0

    def _worker(self, mode, env=None, **opts):
        """Run one worker; returns (result dict or None, outside wall time)."""
        self._count += 1
        result = self.work_dir / f"result{self._count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--result", str(result)]
        for key, value in opts.items():
            cmd += [f"--{key}", str(value)]
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - start, f"timed out after {timeout:.0f} s"
        elapsed = time.monotonic() - start
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, elapsed, f"worker exit {proc.returncode}: {tail[0]}"
        return json.loads(result.read_text()), elapsed, None

    def probe_setup(self):
        rec, _, err = self._worker("setup")
        if rec is None:
            raise RuntimeError(f"setup probe failed: {err}")
        return rec

    def run_pass(self, trace=0, env=None):
        """One pass in a fresh interpreter; checks every report."""
        tmp = self.work_dir / f"pass{self._count + 1}"
        tmp.mkdir()
        rec, elapsed, err = self._worker("pass", env=env, workload=self.workload,
                                         seed=self.job_seed, trace=trace, tmp=tmp)
        self.attempted += len(self.jobs)
        if rec is None:
            self.failures += [f"{' '.join(job.argv)}: {err}" for job in self.jobs]
        else:
            for job, jrec in zip(self.jobs, rec["jobs"]):
                problems = self._job_problems(job, jrec)
                if problems:
                    self.failures.append(f"{' '.join(job.argv)}: {'; '.join(problems)}")
        shutil.rmtree(tmp)
        return rec, elapsed

    @staticmethod
    def _job_problems(job, jrec):
        if jrec["error"]:
            return [jrec["error"]]
        if jrec["rc"] != 0:
            return [f"exit code {jrec['rc']}"]
        try:
            text = Path(jrec["out"]).read_text()
        except OSError as exc:
            return [f"no report: {exc}"]
        return check_report(job, text)

    def result(self):
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures)}


def _median(values):
    return statistics.median(values) if values else None


def measure(runner, seconds):
    """Tracing off: setup probes, then passes for ``seconds``."""
    probes = [runner.probe_setup() for _ in range(SETUP_PROBES)]
    passes, outside = [], []
    while True:
        rec, elapsed = runner.run_pass()
        passes.append(rec)
        outside.append(elapsed)
        spent = time.monotonic() - runner.started
        if (spent + statistics.median(outside) > seconds
                or spent + max(outside) > HARD_LIMIT_S):
            break
    ok = [p for p in passes if p is not None]
    walls = [p["wall_s"] for p in ok]
    imports = [p["import_s"] for p in probes + ok]
    rss = [p["peak_rss_mb"] for p in ok]
    metrics = {
        "wall_s": (_median(walls), "s"),
        "setup_s": (statistics.median(imports), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "pass_ratio": ((runner.attempted - len(runner.failures)) / runner.attempted, "1"),
    }
    samples = {"wall_s": walls, "setup_s": imports, "peak_rss_mb": rss}
    return probes[0]["env"], metrics, samples


def measure_traced(runner, seconds):
    """Per-layer metrics from the first traced pass.  Untraced and traced
    passes alternate while the next pair is expected to end within
    ``seconds``; one pass with a single BLAS thread follows."""
    env = {**runner.probe_setup()["env"], "trace_passes_env": {"HEIS_THREADS": "1"}}
    one_thread = {**os.environ, "HEIS_THREADS": "1"}
    plain, traced, pairs, layers = [], [], [], {}
    while True:
        rec, plain_out = runner.run_pass(env=one_thread)
        if rec is not None:
            plain.append(rec["wall_s"])
        rec, traced_out = runner.run_pass(trace=1, env=one_thread)
        if rec is not None:
            traced.append(rec["wall_s"])
            layers = layers or rec["layers"]
        pairs.append(plain_out + traced_out)
        if time.monotonic() - runner.started + statistics.median(pairs) > seconds:
            break
    rec, _ = runner.run_pass(env={**one_thread, "OPENBLAS_NUM_THREADS": "1"})
    metrics = {}
    for name in span_names():
        for suffix, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            key = f"{name}.{suffix}"
            metrics[key] = (layers.get(key), unit)
    for key in COUNTERS:
        metrics[key] = (layers.get(key), "1" if key.endswith("ratio") else "count")
    plain_wall, traced_wall = _median(plain), _median(traced)
    overhead = traced_wall - plain_wall if plain and traced else None
    metrics["trace_overhead_s"] = (overhead, "s")
    metrics["traced.wall_s"] = (traced_wall, "s")
    metrics["blas1.wall_s"] = (rec["wall_s"] if rec is not None else None, "s")
    return env, metrics, {"untraced.wall_s": plain, "traced.wall_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heis" / "__init__.py").is_file():
        print(f"perfbench: no heis sources under {ROOT / 'src'}; "
              "run from the root of a heis checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    runner = Runner(args.workload, args.seed, work_dir)
    try:
        measure_run = measure_traced if args.trace else measure
        env, metrics, samples = measure_run(runner, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {**runner.result(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "job_seed": runner.job_seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "samples": samples, "failures": runner.failures, "result": result}
    results_dir = out_dir / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} job_seed={runner.job_seed} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        n = len(samples.get(name, ()))
        print(f"{name} {value} {unit}" + (f" (median of {n})" if n else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
