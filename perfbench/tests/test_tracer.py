"""Tests of the benchmark's tracer and of the traced pass.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import heis  # noqa: E402
import heis.cli  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import COUNTERS, TRACED, Tracer, span_names  # noqa: E402
from worker import run_jobs  # noqa: E402
from workloads import Job  # noqa: E402

#: Small jobs that reach every counter: an induction with bisection steps,
#: all sectors of a ring, a spin-wave pair and a contraction sweep.
SMALL_JOBS = tuple(Job(argv, check=None) for argv in (
    ("induct", "--d", "2", "--n", "1", "--N-max", "5"),
    ("spectrum", "--graph", "ring:L=6", "--all-sectors"),
    ("foel", "--graph", "path:L=8", "--n", "1", "--strict"),
    ("spinwave", "--d", "1", "--N", "16", "--modes", "1;2"),
    ("ineq", "--suite", "contraction", "--samples", "20"),
))


def _heis_modules():
    return [m for name, m in sys.modules.items()
            if name == "heis" or name.startswith("heis.")]


def _holders(fn):
    return {(m.__name__, attr) for m in _heis_modules()
            for attr, value in vars(m).items() if value is fn}


def test_install_rebinds_every_alias_and_uninstall_restores():
    originals = {}
    for mod, fns in TRACED.items():
        for fn in fns:
            orig = getattr(sys.modules[f"heis.{mod}"], fn)
            originals[f"{mod}.{fn}"] = (orig, _holders(orig))
    assert {("heis", "energy_level"), ("heis.cli", "energy_level"),
            ("heis.foel", "energy_level")} <= originals["foel.energy_level"][1]

    with Tracer():
        for name, (orig, holders) in originals.items():
            assert not _holders(orig), f"{name} still bound somewhere"
            mod, fn = name.split(".")
            wrapper = getattr(sys.modules[f"heis.{mod}"], fn)
            assert wrapper.__wrapped__ is orig
            assert _holders(wrapper) == holders
        assert heis.energy_level is heis.cli.energy_level is heis.foel.energy_level

    for name, (orig, holders) in originals.items():
        assert _holders(orig) == holders


def test_missing_function_is_an_error(monkeypatch):
    monkeypatch.setitem(tracer_module.TRACED, "sector",
                        ("hamiltonian_magnon", "no_such_function"))
    with pytest.raises(LookupError, match="no_such_function"):
        Tracer().install()
    # nothing stays wrapped after the failed install
    assert not hasattr(heis.sector.hamiltonian_magnon, "__wrapped__")


def test_uncalled_function_reports_zero():
    with Tracer() as tracer:
        heis.make_ring(5)
    summary = tracer.summary()
    assert summary["graph.make_ring.calls"] == 1
    for name in span_names():
        if name != "graph.make_ring":
            assert summary[f"{name}.calls"] == 0
            assert summary[f"{name}.total_s"] == 0
            assert summary[f"{name}.self_s"] == 0
    assert all(summary[key] == 0 for key in COUNTERS)


def _traced_pass(tmp_path):
    tracer = Tracer()
    record = run_jobs(SMALL_JOBS, seed=7, tmp=tmp_path, tracer=tracer)
    assert [job["rc"] for job in record["jobs"]] == [0] * len(SMALL_JOBS)
    return tracer


def test_traced_pass_counts_repeat_exactly(tmp_path):
    """Two traced passes, each in a fresh interpreter as the benchmark runs
    them (heis keeps some caches for the life of a process)."""
    def fresh_pass():
        proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                              capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout)

    first, second = fresh_pass(), fresh_pass()
    exact = [k for k in first if k.endswith(".calls")] + list(COUNTERS)
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["cli.main.calls"] == len(SMALL_JOBS)
    assert first["foel.dilute_extend.solves"] > 0
    assert 0 < first["sector.lowering_matrix.repeat_ratio"] < 1
    assert first["foel.energy_level.dim_max"] == 70            # C(8, 4)
    assert first["sector.hamiltonian_magnon.nnz_sum"] > first["sector.hamiltonian_magnon.dim_sum"]


def test_self_time_partitions_the_traced_wall(tmp_path):
    tracer = _traced_pass(tmp_path)
    summary = tracer.summary()
    for name in span_names():
        assert 0 <= summary[f"{name}.self_s"] <= summary[f"{name}.total_s"] + 1e-12
    self_total = sum(summary[f"{name}.self_s"] for name in span_names())
    assert self_total == pytest.approx(summary["cli.main.total_s"], rel=1e-9)
    assert summary["cli.main.calls"] == len(SMALL_JOBS)


if __name__ == "__main__":
    print(json.dumps(_traced_pass(Path(sys.argv[1])).summary()))
