import argparse
import json
import math
import time

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError

import heis.cli
import heis.eigen
import heis.foel
import heis.sector
from heis.cli import main, parse_graph_spec, parse_modes
from heis.errors import ParseError
from heis.graph import make_box, make_lambda, make_ring


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_graph_spec_forms(tmp_path):
    assert parse_graph_spec("box:d=2,L=3") == make_box(2, 3)
    assert parse_graph_spec("lambda:d=2,N=5") == make_lambda(2, 5)
    assert parse_graph_spec("ring:L=6") == make_ring(6)
    assert parse_graph_spec("path:L=4") == make_box(1, 4)
    p = tmp_path / "g.txt"
    p.write_text("0 1 1.0\n")
    assert parse_graph_spec(f"file:{p}").edge_count == 1
    with pytest.raises(ParseError):
        parse_graph_spec("torus:L=4")
    with pytest.raises(ParseError):
        parse_graph_spec("box:d=2")


def test_parse_modes():
    assert parse_modes("1;2", 1) == ((1,), (2,))
    assert parse_modes("1,0;0,1", 2) == ((1, 0), (0, 1))
    with pytest.raises(ParseError):
        parse_modes("1,0", 1)


def test_spectrum_two_site_all_sectors(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph", "box:d=1,L=2",
                       "--all-sectors")
    assert code == 0
    rep = json.loads(out)
    energies = sorted(
        e["energy"] for sec in rep["results"].values() for e in sec["levels"]
        for _ in range(e["multiplicity"])
    )
    assert np.allclose(energies, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_spectrum_figure_compat_b23(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph", "box:d=2,L=3",
                       "--sector", "1", "--figure-compat")
    assert code == 0
    rep = json.loads(out)
    levels = rep["results"]["1"]["levels"]
    new = sorted(
        e["energy"] for e in levels for _ in range(e["multiplicity"])
        if e["n_prime"] == 1
    )
    assert np.allclose(new, [1, 1, 2, 3, 3, 4, 4, 6], atol=1e-9)


def test_spectrum_figure_compat_scales_exactly(capsys):
    _, plain, _ = run(capsys, "spectrum", "--graph", "path:L=4", "--sector", "1")
    _, scaled, _ = run(capsys, "spectrum", "--graph", "path:L=4", "--sector", "1",
                       "--figure-compat")
    assert json.loads(plain)["meta"]["figure_scale_applied"] == 1.0
    assert json.loads(scaled)["meta"]["figure_scale_applied"] == 2.0
    a = json.loads(plain)["results"]["1"]["levels"]
    b = json.loads(scaled)["results"]["1"]["levels"]
    for x, y in zip(a, b):
        assert y["energy"] == 2.0 * x["energy"]


def test_spectrum_passes_seed_to_energy_level(capsys, monkeypatch):
    calls = []

    def record(g, n, **kwargs):
        calls.append(kwargs)
        return 0.0

    monkeypatch.setattr(heis.cli, "energy_level", record)
    run(capsys, "spectrum", "--graph", "path:L=4", "--sector", "1", "--seed", "7")
    assert calls == [{"seed": 7}]


def test_foel_passes_seed_to_energy_level(capsys, monkeypatch):
    calls = []

    def record(g, n, **kwargs):
        calls.append(kwargs)
        return 0.0

    monkeypatch.setattr(heis.foel, "energy_level", record)
    run(capsys, "foel", "--graph", "path:L=4", "--n", "1", "--seed", "7")
    assert [(set(c), c["seed"]) for c in calls] == [({"seed", "lowering"}, 7)] * 2


def test_spectrum_requires_sector(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--graph", "path:L=3"])
    assert exc.value.code == 2
    assert "sector" in capsys.readouterr().err


# Each subcommand's own options.  All also take --out, --format and --seed (the
# benchmark runner appends --seed to every job, spinwave's included).
SUBCOMMAND_OPTIONS = {
    "spectrum": {"--graph", "--sector", "--all-sectors", "--figure-compat"},
    "foel": {"--graph", "--n", "--strict", "--tol"},
    "induct": {"--d", "--n", "--N-max", "--tol"},
    "spinwave": {"--d", "--N", "--modes"},
    "ineq": {"--suite", "--samples"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = heis.cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for action in p._actions if not isinstance(action, argparse._HelpAction)
                  for flag in action.option_strings}
           for name, p in sub.choices.items()}
    assert got == {name: options | {"--out", "--format", "--seed"}
                   for name, options in SUBCOMMAND_OPTIONS.items()}


@pytest.mark.parametrize("argv, refused", [
    (("spectrum", "--graph", "path:L=4", "--sector", "1", "--tol", "nan"), "--tol"),
    (("spectrum", "--graph", "path:L=4", "--sector", "1", "--figure-compat",
      "--figure-scale", "3"), "--figure-scale"),
    (("spinwave", "--d", "1", "--N", "16", "--modes", "1;2", "--tol", "1e-8"), "--tol"),
    (("spinwave", "--d", "1", "--N", "16", "--modes", "1;2", "--method", "dense"),
     "--method"),
    (("ineq", "--suite", "rho", "--tol", "nan"), "--tol"),
    (("ineq", "--suite", "rho", "--method", "dense"), "--method"),
    (("spectrum", "--graph", "path:L=4", "--sector", "1", "--all-sectors"),
     "not allowed with argument --sector"),
    # the sector size alone picks the solver path
    (("spectrum", "--graph", "path:L=4", "--sector", "1", "--method", "dense"), "--method"),
    (("foel", "--graph", "path:L=8", "--n", "1", "--method", "dense"), "--method"),
    (("induct", "--d", "1", "--n", "1", "--N-max", "4", "--method", "krylov"), "--method"),
])
def test_unread_or_conflicting_option_is_an_argument_error(capsys, argv, refused):
    # these used to exit 0, echoing the ignored value in meta.config
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert refused in err


def test_spectrum_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--graph", "blob:L=3",
                       "--sector", "0")
    assert code == 2
    assert err.startswith("heis:")


def test_foel_missing_graph_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "foel", "--graph", f"file:{tmp_path / 'missing.txt'}",
                       "--n", "1")
    assert code == 2
    assert err.startswith("heis: cannot read graph file") and "Traceback" not in err


def test_spectrum_oversized_sector_fails_fast(capsys):
    # C(40, 20) ~ 1.4e11 subsets: refused before anything is enumerated
    start = time.perf_counter()
    code, _, err = run(capsys, "spectrum", "--graph", "path:L=40", "--sector", "20")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "budget" in err


def test_spectrum_reaches_past_dense_budget(capsys, monkeypatch):
    # ring10 sector 5 has dim 252 and highest-weight dims 1, 9, 35, 75, 90, 42
    _, want, _ = run(capsys, "spectrum", "--graph", "ring:L=10", "--sector", "5")
    monkeypatch.setattr(heis.sector, "DENSE_BUDGET", 100)
    code, got, _ = run(capsys, "spectrum", "--graph", "ring:L=10", "--sector", "5")
    assert code == 0
    assert got == want
    # ring12 sector 4 needs the highest-weight dim C(12,4) - C(12,3) = 275
    code, _, err = run(capsys, "spectrum", "--graph", "ring:L=12", "--sector", "4")
    assert code == 2
    assert "budget" in err


def test_spectrum_sector_out_of_range(capsys):
    code, _, err = run(capsys, "spectrum", "--graph", "path:L=4", "--sector", "5")
    assert code == 2
    assert "out of range" in err


def test_foel_path_holds(capsys):
    code, out, _ = run(capsys, "foel", "--graph", "box:d=1,L=8", "--n", "2",
                       "--strict")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["holds"] is True
    assert "failures" not in rep["results"]
    assert rep["results"]["violations"] == []


def test_foel_ring_violation_exit_code(capsys):
    code, out, _ = run(capsys, "foel", "--graph", "ring:L=6", "--n", "2")
    rep = json.loads(out)
    assert rep["results"]["holds"] == (code == 0)
    # the known numerical finding: level 3 dips below level 2 on the 6-ring
    assert code == 1
    assert rep["results"]["violations"][0]["n_prime"] == 3


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_bad_tolerance_is_an_argument_error(capsys, tol):
    # a NaN tol used to print holds: true for ring6's violation and exit 0
    for argv in (("foel", "--graph", "ring:L=6", "--n", "2"),
                 ("induct", "--d", "2", "--n", "1", "--N-max", "6")):
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol must be finite and nonnegative" in err


def test_foel_lambda_top_level(capsys):
    # a Krylov start from the spin-wave state alone reported E_5 = 1.80394
    code, out, _ = run(capsys, "foel", "--graph", "lambda:d=2,N=10", "--n", "1")
    assert code == 0
    assert abs(json.loads(out)["results"]["energies"]["5"] - 1.4946924698061517) <= 1e-9


def test_induct_d1(capsys):
    code, out, _ = run(capsys, "induct", "--d", "1", "--n", "1",
                       "--N-max", "8")
    assert code == 0
    rep = json.loads(out)
    rows = rep["results"]["rows"]
    assert [r["N"] for r in rows] == list(range(2, 9))
    assert all(r["is_new_low"] for r in rows)
    assert rep["results"]["new_lows"] == list(range(2, 9))
    assert [v["N"] for v in rep["results"]["verdicts"]] == rep["results"]["new_lows"]
    assert rep["results"]["verdicts"][-1] == {"N": 8, "foel_level": 1,
                                              "holds": True}


def test_induct_report_json_shape(capsys):
    code, out, _ = run(capsys, "induct", "--d", "1", "--n", "1", "--N-max", "6")
    assert code == 0
    rep = json.loads(out)["results"]
    assert rep["family"] == "lambda"
    assert {"N", "E_n", "is_new_low"} <= set(rep["rows"][0])
    assert rep["verdicts"][0]["holds"] is True


def test_induct_unfinished_low_exits_ok(capsys):
    # the last rows (N = 8, 9) are not new lows, so their couplings stay
    # diluted, and that is no violation
    code, out, _ = run(capsys, "induct", "--d", "2", "--n", "1", "--N-max", "9")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dilution_problems"] == []
    assert results["rows"][-1]["t_star"] < 1.0


def test_induct_level_zero_is_an_argument_error(capsys):
    code, out, err = run(capsys, "induct", "--d", "1", "--n", "0", "--N-max", "4")
    assert code == 2
    assert out == ""
    assert "n=0" in err and "d and N" not in err


def test_induct_dilution_solver_failure_keeps_report(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ArpackError(-9)
    monkeypatch.setattr(heis.eigen, "eigsh", fail)
    code, out, _ = run(capsys, "induct", "--d", "1", "--n", "4", "--N-max", "11")
    assert code == 3
    assert json.loads(out)["results"]["partial"] is True


def test_spinwave_command(capsys):
    code, out, _ = run(capsys, "spinwave", "--d", "1", "--N", "16",
                       "--modes", "1;2")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["mode_energy"] == 5.0
    assert rep["results"]["residual"] > 0


def test_spinwave_over_budget_fails_fast(capsys):
    # C(64, 9) ~ 2.8e10 subsets: refused before the modes' orderings are listed
    start = time.perf_counter()
    code, out, err = run(capsys, "spinwave", "--d", "1", "--N", "64",
                         "--modes", "1;2;3;4;5;6;7;8;9")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "budget" in err


@pytest.mark.parametrize("suite", ["trace", "contraction", "rho"])
@pytest.mark.parametrize("samples", ["0", "-7"])
def test_ineq_samples_below_one_is_an_argument_error(capsys, suite, samples):
    code, out, err = run(capsys, "ineq", "--suite", suite, "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples" in err


def test_ineq_unknown_suite_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ineq", "--suite", "nope"])
    assert exc.value.code == 2


def test_ineq_trace_suite(capsys):
    code, out, _ = run(capsys, "ineq", "--suite", "trace",
                       "--samples", "500")
    assert code == 0
    assert json.loads(out)["results"]["violation_count"] == 0


def test_ineq_contraction_suite(capsys):
    code, out, _ = run(capsys, "ineq", "--suite", "contraction",
                       "--samples", "40")
    assert code == 0
    assert json.loads(out)["results"]["violation_count"] == 0


def test_ineq_rho_suite(capsys):
    code, out, _ = run(capsys, "ineq", "--suite", "rho")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["max_rho"] <= rep["results"]["rho_max_bound"]


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["foel", "--graph", "ring:L=5", "--n", "1",
                     "--seed", "7", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_unwritable_out_is_an_argument_error(capsys, tmp_path, target):
    # a missing parent directory, or a directory: exit 2 with the path, no traceback
    path = tmp_path / target
    code, out, err = run(capsys, "foel", "--graph", "path:L=4", "--n", "1",
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"cannot write --out {str(path)!r}" in err


def test_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    main(["spectrum", "--graph", "path:L=3", "--sector", "1",
          "--format", "csv", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "sector,energy,n_prime,multiplicity"
    assert len(lines) > 1


def test_foel_single_vertex(capsys):
    code, out, _ = run(capsys, "foel", "--graph", "box:d=2,L=1", "--n", "0")
    assert code == 0
    assert json.loads(out)["results"]["holds"] is True


def test_report_meta_echoes_config(capsys):
    _, out, _ = run(capsys, "foel", "--graph", "path:L=4", "--n", "1",
                    "--tol", "1e-8")
    meta = json.loads(out)["meta"]
    assert meta["tool"] == "heis"
    assert meta["config"]["tol"] == 1e-8
    assert meta["config"]["graph"] == "path:L=4"
