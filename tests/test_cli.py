import json
import math
import time

import numpy as np
import pytest

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
    a = json.loads(plain)["results"]["1"]["levels"]
    b = json.loads(scaled)["results"]["1"]["levels"]
    for x, y in zip(a, b):
        assert y["energy"] == 2.0 * x["energy"]


def test_spectrum_requires_sector(capsys):
    code, _, err = run(capsys, "spectrum", "--graph", "path:L=3")
    assert code == 2
    assert "sector" in err


def test_spectrum_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--graph", "blob:L=3",
                       "--sector", "0")
    assert code == 2
    assert err.startswith("heis:")


def test_spectrum_oversized_sector_fails_fast(capsys):
    # C(40, 20) ~ 1.4e11 subsets: refused before anything is enumerated
    start = time.perf_counter()
    code, _, err = run(capsys, "spectrum", "--graph", "path:L=40", "--sector", "20")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "budget" in err


def test_foel_path_holds(capsys):
    code, out, _ = run(capsys, "foel", "--graph", "box:d=1,L=8", "--n", "2",
                       "--strict")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["holds"] is True
    assert rep["results"]["violations"] == []


def test_foel_ring_violation_exit_code(capsys):
    code, out, _ = run(capsys, "foel", "--graph", "ring:L=6", "--n", "2")
    rep = json.loads(out)
    assert rep["results"]["holds"] == (code == 0)
    # the known numerical finding: level 3 dips below level 2 on the 6-ring
    assert code == 1
    assert rep["results"]["violations"][0]["n_prime"] == 3


def test_induct_d1(capsys):
    code, out, _ = run(capsys, "induct", "--d", "1", "--n", "1",
                       "--N-max", "8")
    assert code == 0
    rep = json.loads(out)
    rows = rep["results"]["rows"]
    assert [r["N"] for r in rows] == list(range(2, 9))
    assert all(r["is_new_low"] for r in rows)
    assert rep["results"]["verdicts"][-1] == {"N": 8, "foel_level": 1,
                                              "holds": True}


def test_spinwave_command(capsys):
    code, out, _ = run(capsys, "spinwave", "--d", "1", "--N", "16",
                       "--modes", "1;2")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["mode_energy"] == 5.0
    assert rep["results"]["residual"] > 0


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
