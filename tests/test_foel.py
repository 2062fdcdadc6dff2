import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import heis.eigen
import heis.foel
from heis.errors import ConvergenceError, NumericalError, SizeBudgetError
from heis.graph import Graph, make_box, make_lambda, make_path, make_ring
from heis.sector import hamiltonian_magnon
from heis.eigen import full_spectrum, spectral_count
from heis.foel import (
    dilute_extend,
    energy_level,
    energy_levels,
    foel_check,
    induction_run,
    new_low_index,
)


def test_energy_level_two_site():
    assert energy_level(make_box(1, 2), 1) == pytest.approx(1.0, abs=1e-12)


def test_energy_level_ground_is_zero():
    for g in (make_path(5), make_ring(6), make_lambda(2, 7)):
        assert energy_level(g, 0) == 0.0


def test_energy_level_beyond_equator_is_infinite():
    assert energy_level(make_path(5), 3) == math.inf
    assert energy_level(make_path(4), 2) < math.inf


def test_energy_level_path8_closed_form():
    got = energy_level(make_box(1, 8), 1)
    assert got == pytest.approx(1 - math.cos(math.pi / 8), abs=1e-10)


def test_energy_level_path3():
    assert energy_level(make_box(1, 3), 1) == pytest.approx(0.5, abs=1e-12)


def test_energy_level_dense_krylov_agree():
    for g in (make_path(8), make_ring(6)):
        for n in range(1, g.vertex_count // 2 + 1):
            d = energy_level(g, n, method="dense")
            k = energy_level(g, n, method="krylov", tol=1e-11)
            assert abs(d - k) < 1e-8


def test_energy_level_size_budgets():
    with pytest.raises(SizeBudgetError):
        energy_level(make_path(40), 20)
    with pytest.raises(SizeBudgetError):
        energy_level(make_path(16), 8, method="dense")   # C(16,8) > DENSE_BUDGET


@pytest.mark.parametrize("exc", [
    ArpackNoConvergence("no convergence", np.array([0.5]), np.ones((28, 1))),
    ArpackError(-9),
])
def test_energy_level_wraps_arpack_failures(monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(heis.eigen, "eigsh", fail)
    with pytest.raises(ConvergenceError):
        energy_level(make_path(8), 2, method="krylov")
    v = foel_check(make_path(8), 1, method="krylov")
    assert v.incomplete
    assert math.isnan(v.energies[2])


def test_programming_errors_propagate(monkeypatch):
    def broken(g, n):
        raise TypeError("bug")
    monkeypatch.setattr(heis.foel, "hamiltonian_magnon", broken)
    with pytest.raises(TypeError):
        foel_check(make_path(6), 1)
    with pytest.raises(TypeError):
        induction_run(1, 1, 4)


def test_energy_level_beyond_dense_budget():
    # C(15,7) = 6435 is above the dense budget: the ARPACK path
    g = make_path(15)
    e6 = energy_level(g, 6, method="krylov", tol=1e-9, seed=1)
    e7 = energy_level(g, 7, method="krylov", tol=1e-9, seed=1)
    e7b = energy_level(g, 7, method="krylov", tol=1e-9, seed=9)
    assert abs(e7 - e7b) < 1e-8          # seed-independent value
    assert 0 < e6 < e7 < 1.0             # ordering expected for chains


def test_energy_level_matches_spectral_count_jump():
    # independent route: the first dimension jump between consecutive sectors
    g = make_lambda(2, 7)
    for n in (1, 2, 3):
        Hn = hamiltonian_magnon(g, n)
        Hm = hamiltonian_magnon(g, n - 1)
        vals = full_spectrum(Hn, with_vectors=False).values
        jump = next(
            float(E) for E in vals
            if spectral_count(Hn, E) > spectral_count(Hm, E)
        )
        assert energy_level(g, n) == pytest.approx(jump, abs=1e-9)


def test_energy_levels_container():
    lv = energy_levels(make_path(4), graph_id="path4")
    assert lv[0] == 0.0
    assert lv[2] > lv[1] > 0
    assert lv[7] == math.inf
    assert all(v >= -1e-10 for v in lv.values.values())


def test_coupling_monotonicity_of_levels():
    g = make_path(6)
    boosted = g.with_couplings({e: (1.5 if e == (2, 3) else 1.0) for e in g.edges})
    for n in (1, 2, 3):
        assert energy_level(boosted, n) >= energy_level(g, n) - 1e-9


def test_inductive_refined_inequality(rng):
    # E_n(G') >= min(E_n(G), E_{n-1}(G)) for one-vertex extensions, J' >= J
    for trial in range(6):
        V = int(rng.integers(3, 7))
        edges = set()
        for u in range(1, V):
            edges.add((int(rng.integers(0, u)), u))
        for _ in range(2):
            u, v = sorted(rng.choice(V, size=2, replace=False))
            edges.add((int(u), int(v)))
        J = {e: float(rng.uniform(0.1, 1.0)) for e in edges}
        g = Graph(tuple(range(V)), tuple(sorted(edges)),
                  tuple(J[e] for e in sorted(edges)))
        new_edges = set(edges)
        for u in sorted(rng.choice(V, size=2, replace=False)):
            new_edges.add((int(u), V))
        J2 = {e: (J[e] + float(rng.uniform(0, 0.5)) if e in J else
                  float(rng.uniform(0.1, 1.0))) for e in new_edges}
        g2 = Graph(tuple(range(V + 1)), tuple(sorted(new_edges)),
                   tuple(J2[e] for e in sorted(new_edges)))
        for n in range(1, (V + 1) // 2 + 1):
            lhs = energy_level(g2, n)
            rhs = min(energy_level(g, n), energy_level(g, n - 1))
            assert lhs >= rhs - 1e-9


def test_foel_holds_for_small_paths():
    for L in range(2, 9):
        g = make_path(L)
        for n in range(L // 2 + 1):
            v = foel_check(g, n, strict=True)
            assert v.holds, (L, n, v.violations)


def test_foel_level_zero_always_holds():
    for g in (make_path(5), make_ring(6), make_box(2, 2)):
        assert foel_check(g, 0).holds
        assert foel_check(g, 0, strict=True).holds  # connected graphs


def test_foel_ring6_violation_recorded():
    # the known counterexample level: n = L/2 - 1
    v = foel_check(make_ring(6), 2)
    assert not v.incomplete
    assert set(v.energies) == {2, 3}
    if not v.holds:  # empirical finding, not asserted as ground truth
        assert v.violations and v.violations[0][0] == 3


def test_foel_bad_level():
    with pytest.raises(ValueError):
        foel_check(make_path(4), 3)


def test_dilute_extend_case1():
    prev = make_box(1, 2)
    step = dilute_extend((prev, None, energy_level(prev, 1)), make_path(3), 1)
    assert step.case == 1
    assert step.t_star == 1.0
    assert step.energy == pytest.approx(0.5, abs=1e-12)
    assert all(j == 1.0 for j in step.couplings.values())


def test_dilute_extend_case2_triangle():
    # closing the triangle raises the level-1 energy to 1.5 > 1
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    tri = make_ring(3)
    step = dilute_extend((prev, {(0, 1): 1.0}, 1.0), tri, 1, tol=1e-10)
    assert step.case == 2
    assert 0.0 < step.t_star < 1.0
    assert step.energy == pytest.approx(1.0, abs=1e-9)
    # scan confirms the located crossing is the rightmost one
    for t in np.linspace(step.t_star + 1e-6, 1.0, 8):
        J = {e: (1 - t) * ({(0, 1): 1.0}.get(e, 0.0)) + t for e in tri.edges}
        assert energy_level(tri.with_couplings(J), 1) > 1.0


def test_dilute_extend_solves_t0_once(monkeypatch):
    # the t = 0 couplings come from the pre-scan, not from a second solve
    solved = []

    def counting(g, n, **kwargs):
        solved.append(g.couplings)
        return energy_level(g, n, **kwargs)
    monkeypatch.setattr(heis.foel, "energy_level", counting)
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    step = dilute_extend((prev, {(0, 1): 1.0}, 1.0), make_ring(3), 1, tol=1e-10)
    assert step.case == 2
    assert solved.count((1.0, 0.0, 0.0)) == 1


def test_dilute_extend_rejects_infinite_start():
    with pytest.raises(ValueError):
        dilute_extend((make_box(1, 2), None, math.inf), make_path(3), 2)


def test_dilute_extend_requires_extension():
    with pytest.raises(ValueError):
        dilute_extend((make_path(3), None, 0.5), make_path(5), 1)


@given(st.lists(st.floats(0.1, 10, allow_nan=False), min_size=1, max_size=12),
       st.integers(1, 12))
def test_new_low_index_definition(seq, N):
    got = new_low_index(seq, N)
    candidates = [
        i + 1 for i in range(len(seq))
        if i + 1 >= N and seq[i] == min(seq[: i + 1])
    ]
    assert got == (candidates[0] if candidates else math.inf)


def test_new_low_index_examples():
    assert new_low_index((3, 2, 1), 2) == 2
    assert new_low_index((5, 4, 3, 2), 1) == 1          # decreasing: nu(N) = N
    assert new_low_index((1, 2, 3), 2) == math.inf
    assert new_low_index((1.0, 0.5), 10, start=9) == 10


def test_induction_run_d1_n1():
    rep = induction_run(1, 1, 8)
    energies = [r.energy for r in rep.rows]
    assert all(np.diff(energies) < 0)           # strictly decreasing in L
    assert all(r.is_new_low for r in rep.rows)
    assert rep.new_lows == list(range(2, 9))
    assert not rep.grid_violations
    assert not rep.partial
    assert 8 in rep.foel_conclusions
    assert rep.diluted is not None
    assert not rep.dilution_problems
    assert all(t == 1.0 for t in rep.diluted.t_values)  # case 1 throughout


def test_induction_run_d1_n2_agrees_with_direct_check():
    rep = induction_run(1, 2, 10)
    assert 10 in rep.foel_conclusions
    assert foel_check(make_lambda(1, 10), 2).holds
    assert not rep.grid_violations


def test_induction_run_d2_smoke():
    rep = induction_run(2, 1, 9)
    assert [r.N for r in rep.rows] == list(range(2, 10))
    assert not rep.partial
    assert not rep.grid_violations
    assert foel_check(make_lambda(2, 9), 1).holds


def test_induction_report_json_shape():
    rep = induction_run(1, 1, 6).to_dict()
    assert rep["family"] == "lambda"
    assert {"N", "E_n", "is_new_low"} <= set(rep["rows"][0])
    assert rep["verdicts"][0]["holds"] is True
