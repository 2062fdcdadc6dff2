import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

import heis.eigen
import heis.foel
import heis.sector
from heis.cli import main
from heis.errors import ConvergenceError, NumericalError, SizeBudgetError
from heis.graph import Graph, make_box, make_lambda, make_path, make_ring
from heis.eigen import highest_weight_levels
from heis.sector import hamiltonian_magnon, highest_weight_projector
from heis.foel import (
    DilutedSequence,
    dilute_extend,
    energy_level,
    foel_check,
    induction_run,
)
from conftest import product_level, solver_path, spectral_count


def test_energy_level_two_site():
    assert energy_level(make_box(1, 2), 1) == pytest.approx(1.0, abs=1e-12)


def test_energy_level_ground_is_zero():
    for g in (make_path(5), make_ring(6), make_lambda(2, 7)):
        assert energy_level(g, 0) == 0.0


def test_energy_level_beyond_equator_is_infinite():
    assert energy_level(make_path(5), 3) == math.inf
    assert energy_level(make_path(4), 2) < math.inf


def test_path_one_magnon_levels_closed_form():
    # the one-magnon block of the open chain is the path Laplacian (1/2
    # convention), whose eigenvalues are 1 - cos(pi k / L), k = 0..L-1
    for L in range(2, 41):
        g = make_path(L)
        exact = 1 - np.cos(np.pi * np.arange(L) / L)
        levels = np.linalg.eigvalsh(hamiltonian_magnon(g, 1).toarray())
        assert np.allclose(levels, np.sort(exact), rtol=0, atol=1e-13)
        assert energy_level(g, 1) == pytest.approx(exact[1], abs=1e-13)


def test_energy_level_path3():
    assert energy_level(make_box(1, 3), 1) == pytest.approx(0.5, abs=1e-12)


def test_energy_level_dense_krylov_agree():
    # the Krylov solves at n >= 2 start from the spin-wave state
    for g in (make_path(8), make_ring(6), make_path(14), make_ring(12), make_lambda(2, 14),
              make_lambda(2, 10), make_lambda(3, 9), make_lambda(3, 12)):
        for n in range(1, g.vertex_count // 2 + 1):
            # a dense solve of C(14, 6) or C(14, 7) states takes 2-3 s and
            # 0.5 GB; there the valence-bond spectrum, which shares no code
            # with P, stands in
            if math.comb(g.vertex_count, n) > 2048:
                d = highest_weight_levels(g, n)[0]
            else:
                with solver_path("dense"):
                    d = energy_level(g, n)
            with solver_path("krylov"):
                k = energy_level(g, n)
            assert abs(d - k) < 1e-10


def test_spin_wave_start_falls_back_when_projected_away():
    # phi is the zero mode that tells the isolated vertex from the path, so
    # the start lies in the sum of two full-spin blocks and P kills it at n = 4
    path = make_path(13)
    g = Graph(tuple(range(14)), path.edges, path.couplings)
    s = heis.foel._spin_wave_state(g, 4)
    assert len(s) == 1001
    assert np.linalg.norm(highest_weight_projector(g, 4)(s)) < 1e-12 * np.linalg.norm(s)
    with solver_path("dense"):
        dense = energy_level(g, 4)
    assert energy_level(g, 4) == pytest.approx(dense, abs=1e-10)


@pytest.mark.parametrize("d, N, n", [(2, 10, 5), (2, 15, 3), (3, 12, 5), (3, 12, 6),
                                     (3, 13, 4), (3, 15, 4)])
def test_auto_level_matches_dense_where_the_spin_wave_state_misses(d, N, n):
    # the spin-wave state has the symmetry of the lowest one-magnon mode; a
    # Krylov space grown from it alone never reached these ground states
    # (lambda(2, 10) at n = 5 gave 1.80394 instead of 1.49469)
    g = make_lambda(d, N)
    with solver_path("dense"):
        dense = energy_level(g, n)
    assert abs(energy_level(g, n) - dense) < 1e-10


@pytest.mark.parametrize("d, N", [(2, 10), (3, 9)])
def test_krylov_level_matches_product_oracle_where_the_spin_wave_state_misses(d, N):
    g = make_lambda(d, N)
    with solver_path("krylov"):
        assert abs(energy_level(g, 3) - product_level(g, 3)) < 1e-10


def test_dense_level_builds_the_matrix_in_column_blocks():
    # pushing all of I through the projector's sweep at once kept a
    # (C(V, k), dim) block for every k <= n: 4.9x the matrix at path12 n = 6
    g, n = make_path(12), 6
    dim = math.comb(12, 6)
    with solver_path("dense"):
        energy_level(g, 2)
        tracemalloc.start()
        try:
            e = energy_level(g, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * 8 * dim * dim
    assert abs(e - 0.25895175088059297) < 1e-12       # the one-piece build's value


def test_spin_wave_start_saves_matvecs(monkeypatch):
    # from P applied to a random vector, path16 at n = 3..8 took 946 matvecs;
    # from P applied to the spin-wave state alone, with the lowered states
    # lifted by ||H||_inf + 1, 596 there and 546 on the 4x4 box
    matvecs = 0

    def counting(A, *args, **kwargs):
        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            return A.matvec(x)
        return eigsh(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), *args, **kwargs)
    monkeypatch.setattr(heis.eigen, "eigsh", counting)
    for g, before in ((make_path(16), 596), (make_lambda(2, 16), 546)):
        matvecs = 0
        for n in range(3, 9):
            energy_level(g, n)
        assert 0 < matvecs < before


def test_one_lowering_chain_per_vertex_count(monkeypatch):
    built = []

    def counting(g, n):
        built.append((g.vertex_count, n))
        return lowering_matrix(g, n)
    lowering_matrix = heis.sector.lowering_matrix
    monkeypatch.setattr(heis.sector, "lowering_matrix", counting)
    foel_check(make_path(16), 1, strict=True)
    assert built == [(16, k) for k in range(8, 0, -1)]
    built.clear()
    # the level grid and the dilution step of each N share one chain
    induction_run(2, 4, 14)
    assert built == [(N, k) for N in range(8, 15) for k in range(N // 2, 0, -1)]


def test_energy_level_takes_a_shared_lowering_chain():
    g = make_lambda(2, 12)
    chain = heis.sector.lowering_chain(g, 6)
    for n in (1, 3, 6):
        assert energy_level(g, n, lowering=chain) == energy_level(g, n)
    with pytest.raises(ValueError):
        energy_level(g, 6, lowering=chain[:5])


def test_energy_level_size_budgets():
    with pytest.raises(SizeBudgetError):
        energy_level(make_path(40), 20)
    with solver_path("dense"), pytest.raises(SizeBudgetError):
        energy_level(make_path(16), 8)   # C(16,8) > DENSE_BUDGET


@pytest.mark.parametrize("exc", [
    ArpackNoConvergence("no convergence", np.array([0.5]), np.ones((28, 1))),
    ArpackError(-9),
])
def test_energy_level_wraps_arpack_failures(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(heis.eigen, "eigsh", fail)
    with solver_path("krylov"):
        with pytest.raises(ConvergenceError):
            energy_level(make_path(8), 2)
        v = foel_check(make_path(8), 1)
        assert v.incomplete
        assert math.isnan(v.energies[2])
        # every level but the dim-1 n = 0 one runs ARPACK, and each keeps its reason
        assert [f["n_prime"] for f in v.failures] == [1, 2, 3, 4]
        assert all(f["error"].startswith("ConvergenceError: ARPACK") for f in v.failures)
        assert main(["foel", "--graph", "path:L=8", "--n", "1"]) == 3
    assert json.loads(capsys.readouterr().out)["results"]["failures"] == v.failures
    complete = foel_check(make_path(8), 1)
    assert complete.failures == [] and not complete.incomplete
    # the chain step to N = 11 solves a dim-330 sector by ARPACK: the failure
    # is recorded, not raised
    rep = induction_run(1, 4, 11)
    assert rep.partial and rep.diluted is None
    assert rep.failures[-1]["stage"] == "dilution"


def test_failed_levels_are_null_in_json_reports(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ArpackError(-9)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setattr(heis.eigen, "eigsh", fail)
    with solver_path("krylov"):
        assert main(["foel", "--graph", "path:L=8", "--n", "1"]) == 3
        res = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
        assert res["energies"] == {"1": None, "2": None, "3": None, "4": None}
        assert [f["n_prime"] for f in res["failures"]] == [1, 2, 3, 4]
        assert main(["induct", "--d", "1", "--n", "4", "--N-max", "9"]) == 3
    res = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
    assert [r["E_n"] for r in res["rows"]] == [None, None]
    assert res["partial"] is True


def test_partial_induct_report_lists_failures(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ArpackError(-9)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    argv = ["induct", "--d", "1", "--n", "4", "--N-max", "9"]
    with monkeypatch.context() as m, solver_path("krylov"):
        m.setattr(heis.eigen, "eigsh", fail)
        assert main(argv) == 3
        res = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
    assert res["partial"] is True
    assert [(f["N"], f["r"]) for f in res["failures"][:2]] == [(8, 4), (9, 4)]
    assert all(f["error"].startswith("ConvergenceError: ARPACK") for f in res["failures"][:2])
    # the chain cannot start from the failed N = 8 level
    assert res["failures"][-1] == {
        "stage": "dilution",
        "error": "ValueError: previous energy must be finite; start the chain at 2n vertices",
    }
    # a complete report carries no failures key
    assert main(argv) == 0
    res = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
    assert res["partial"] is False and "failures" not in res


def test_e_min_up_is_null_when_any_level_failed(monkeypatch, capsys):
    # a failed level above r = n used to drop out of min() unnoticed
    def injected(g, r, **kwargs):
        if (g.vertex_count, r) in {(8, 3), (9, 2)}:
            raise ConvergenceError("injected")
        return energy_level(g, r, **kwargs)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setattr(heis.foel, "energy_level", injected)
    rep = induction_run(1, 2, 9)
    assert [N for N, e in rep.e_min_up.items() if math.isnan(e)] == [8, 9]
    assert rep.e_min_up[7] == min(energy_level(make_lambda(1, 7), r) for r in (2, 3))
    assert main(["induct", "--d", "1", "--n", "2", "--N-max", "9"]) == 3
    res = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
    assert res["e_min_up"]["8"] is None and res["e_min_up"]["9"] is None
    assert res["failures"] == [
        {"N": 8, "r": 3, "error": "ConvergenceError: injected"},
        {"N": 9, "r": 2, "error": "ConvergenceError: injected"},
        {"stage": "dilution", "error": "ConvergenceError: injected"},
    ]


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
    e6 = energy_level(g, 6, seed=1)
    e7 = energy_level(g, 7, seed=1)
    e7b = energy_level(g, 7, seed=9)
    assert abs(e7 - e7b) < 1e-8          # seed-independent value
    assert 0 < e6 < e7 < 1.0             # ordering expected for chains


def test_energy_level_matches_spectral_count_jump():
    # independent route: the first dimension jump between consecutive sectors
    g = make_lambda(2, 7)
    for n in (1, 2, 3):
        Hn = hamiltonian_magnon(g, n).toarray()
        Hm = hamiltonian_magnon(g, n - 1).toarray()
        vals = np.linalg.eigvalsh(Hn)
        jump = next(
            float(E) for E in vals
            if spectral_count(Hn, E) > spectral_count(Hm, E)
        )
        assert energy_level(g, n) == pytest.approx(jump, abs=1e-9)


def test_foel_check_passes_method_and_seed(monkeypatch):
    calls = []

    def record(g, n, **kwargs):
        calls.append(kwargs)
        return 0.0
    monkeypatch.setattr(heis.foel, "energy_level", record)
    foel_check(make_path(4), 0, seed=7)
    assert [(set(c), c["seed"]) for c in calls] == [({"seed", "lowering"}, 7)] * 3
    # every level gets the one S^- chain of the graph, S^-_1 and S^-_2
    assert [low.shape for low in calls[0]["lowering"]] == [(4, 1), (6, 4)]
    assert all(c["lowering"] is calls[0]["lowering"] for c in calls)


def test_energy_levels_container():
    # the verdict keeps every level from n up to V/2, keyed by level
    energies = foel_check(make_path(4), 0).energies
    assert sorted(energies) == [0, 1, 2]
    assert energies[0] == 0.0
    assert energies[2] > energies[1] > 0
    assert energy_level(make_path(4), 7) == math.inf


def test_cube_violates_foel_3():
    # lambda(3, 8) is the 2x2x2 cube: E_3 = 1.8299135 > E_4 = 1.7205477
    g = make_lambda(3, 8)
    e3, e4 = product_level(g, 3), product_level(g, 4)
    assert e3 == pytest.approx(1.8299135, abs=1e-7)
    assert e4 == pytest.approx(1.7205477, abs=1e-7)
    verdict = foel_check(g, 3)
    assert not verdict.holds and not verdict.incomplete
    assert [m for m, _ in verdict.violations] == [4]
    assert verdict.energies[3] == pytest.approx(e3, abs=1e-9)
    assert verdict.energies[4] == pytest.approx(e4, abs=1e-9)


def test_two_by_two_box_fails_strict_foel_1():
    # lambda(2, 4) is the 4-cycle: E_1 = E_2 = 1
    g = make_lambda(2, 4)
    assert product_level(g, 1) == pytest.approx(1.0, abs=1e-12)
    assert product_level(g, 2) == pytest.approx(1.0, abs=1e-12)
    assert abs(energy_level(g, 2) - energy_level(g, 1)) < 1e-12
    assert foel_check(g, 1).holds
    strict = foel_check(g, 1, strict=True)
    assert not strict.holds and [m for m, _ in strict.violations] == [2]


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


@pytest.mark.parametrize("L", range(9, 15))
def test_open_chain_levels_strictly_ordered(L):
    # E_0 < E_1 < ... < E_{L/2} on open chains (Nachtergaele, Spitzer and
    # Starr, J. Stat. Phys. 2004); the smallest gap here is 0.025 at L = 14
    levels = [energy_level(make_path(L), n) for n in range(L // 2 + 1)]
    assert np.all(np.diff(levels) > 1e-3)


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
    step = dilute_extend((prev, energy_level(prev, 1)), make_path(3), 1)
    assert step.case == 1
    assert step.t_star == 1.0
    assert step.energy == pytest.approx(0.5, abs=1e-12)
    assert all(j == 1.0 for j in step.graph.couplings)


def test_dilute_extend_case2_triangle():
    # closing the triangle raises the level-1 energy to 1.5 > 1; with the new
    # edges at t the one-magnon levels are 1 + t/2 and 3t/2, so
    # E(t) = min(1 + t/2, 3t/2) crosses 1 at t* = 2/3
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    tri = make_ring(3)
    step = dilute_extend((prev, 1.0), tri, 1, tol=1e-10)
    assert step.case == 2
    assert step.t_star == pytest.approx(2 / 3, abs=1e-12)
    assert step.energy == pytest.approx(1.0, abs=1e-9)
    # scan confirms the located crossing is the rightmost one
    for t in np.linspace(step.t_star + 1e-6, 1.0, 8):
        J = {e: (1 - t) * ({(0, 1): 1.0}.get(e, 0.0)) + t for e in tri.edges}
        assert energy_level(tri.with_couplings(J), 1) > 1.0


def test_dilute_extend_solves_t0_once(monkeypatch):
    # t = 1 is solved by energy_level and again for its vector once case 2
    # is known; every other t is solved once, and the Newton steps close the
    # triangle in a handful of solves
    solved = []

    def counting(g, n, *args, **kwargs):
        solved.append(g.couplings)
        return lowest_level(g, n, *args, **kwargs)
    lowest_level = heis.foel._lowest_level
    monkeypatch.setattr(heis.foel, "_lowest_level", counting)
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    step = dilute_extend((prev, 1.0), make_ring(3), 1, tol=1e-10)
    assert step.case == 2
    assert solved[0] == solved[1] == (1.0, 1.0, 1.0)
    assert len(set(solved[1:])) == len(solved) - 1 <= 5


def test_dilute_extend_case1_solves_once(monkeypatch):
    # a step that closes at t = 1 makes only its t = 1 check
    solved = []

    def recording(g, *args, **kwargs):
        solved.append(g.couplings)
        return lowest_level(g, *args, **kwargs)
    lowest_level = heis.foel._lowest_level
    monkeypatch.setattr(heis.foel, "_lowest_level", recording)
    prev = make_box(1, 2)
    assert dilute_extend((prev, 1.0), make_path(3), 1).case == 1
    assert solved == [(1.0, 1.0)]


def test_dilute_extend_tolerates_solver_noise_at_crossing(monkeypatch):
    # an energy solved slightly above the previous one near t* (here by
    # 1e-12, far inside tol; a small slope makes roundoff act the same way)
    # sends the Newton step back: that is convergence, not an error
    def noisy(*args, **kwargs):
        e, psi = lowest_level(*args, **kwargs)
        return (e + 1e-12 if abs(e - 1.0) < 1e-6 else e), psi
    lowest_level = heis.foel._lowest_level
    monkeypatch.setattr(heis.foel, "_lowest_level", noisy)
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    step = dilute_extend((prev, 1.0), make_ring(3), 1, tol=1e-10)
    assert step.case == 2
    assert step.t_star == pytest.approx(2 / 3, abs=1e-11)
    assert step.energy == pytest.approx(1.0, abs=1e-10)


def test_dilute_extend_rejects_iterate_above_previous_energy(monkeypatch):
    # the supergradient bound keeps every iterate below t = 1 at or under
    # the previous energy; a solve that breaks it by more than tol raises
    def broken(*args, **kwargs):
        e, psi = lowest_level(*args, **kwargs)
        return (e + 1e-6 if abs(e - 1.0) < 1e-3 else e), psi
    lowest_level = heis.foel._lowest_level
    monkeypatch.setattr(heis.foel, "_lowest_level", broken)
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    with pytest.raises(NumericalError, match="rose above"):
        dilute_extend((prev, 1.0), make_ring(3), 1, tol=1e-10)


def _below_t1(change):
    """A ``_lowest_level`` that applies ``change`` to (E, psi) where some
    coupling of the graph is below 1, i.e. at a dilution iterate t < 1."""
    lowest_level = heis.foel._lowest_level

    def changed(g, *args, **kwargs):
        e, psi = lowest_level(g, *args, **kwargs)
        return change(e, psi) if min(g.couplings) < 1.0 else (e, psi)
    return changed


def test_dilute_extend_rejects_flat_slope_below_t1(monkeypatch):
    # a zero state below t = 1 has slope 0, which the concave E(t) forbids
    monkeypatch.setattr(heis.foel, "_lowest_level", _below_t1(lambda e, psi: (e, 0 * psi)))
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    with pytest.raises(NumericalError, match="slope is not positive below t=1"):
        dilute_extend((prev, 1.0), make_ring(3), 1, tol=1e-10)


def test_dilute_extend_rejects_unmatched_crossing(monkeypatch):
    # an energy held 1e-6 below the previous one, with a slope of order
    # 1e12, stops the Newton steps at the first iterate below t = 1, away
    # from the crossing.  Ring3's t = 1 level is two-fold degenerate, so
    # that iterate depends on the vector solved there; the held energy
    # does not
    monkeypatch.setattr(heis.foel, "_lowest_level",
                        _below_t1(lambda e, psi: (1.0 - 1e-6, 1e6 * psi)))
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    with pytest.raises(NumericalError, match="failed to match the previous energy"):
        dilute_extend((prev, 1.0), make_ring(3), 1, tol=1e-10)


def test_dilute_extend_solve_budget(monkeypatch):
    # running out of solves raises instead of returning an unmatched t
    monkeypatch.setattr(heis.foel, "_MAX_SOLVES", 1)
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    with pytest.raises(NumericalError, match="1 solves"):
        dilute_extend((prev, 1.0), make_ring(3), 1)


def test_dilute_extend_rejects_shrinking_coupling(monkeypatch):
    # E(t) is non-decreasing only while every coupling grows
    def fail(*args, **kwargs):
        raise AssertionError("solved before the coupling check")
    monkeypatch.setattr(heis.foel, "_lowest_level", fail)
    prev = make_box(1, 2)
    with pytest.raises(ValueError, match="shrink"):
        dilute_extend((prev.with_couplings({e: 2.0 for e in prev.edges}), 1.0), make_path(3), 1)


@pytest.mark.parametrize("n", [0, 1])
def test_dilute_extend_no_bracket(n):
    # E(0) = 0 (edge (1, 2) off leaves a zero mode; level 0 is 0 at every
    # coupling) is already above -0.5
    with pytest.raises(NumericalError, match="no bracket"):
        dilute_extend((make_box(1, 2), -0.5), make_path(3), n)


@pytest.mark.parametrize("d, n, N_max", [(2, 4, 14), (2, 1, 12), (3, 1, 10)])
def test_dilution_crossings_are_unique(monkeypatch, d, n, N_max):
    # every case-2 step meets the previous energy at t* and exceeds it just
    # beyond, in at most 10 solves
    per_step = []
    solves = []

    def counting(*args, **kwargs):
        solves.append(1)
        return lowest_level(*args, **kwargs)

    def stepping(*args, **kwargs):
        solves.clear()
        step = dilute(*args, **kwargs)
        per_step.append(len(solves))
        return step
    lowest_level, dilute = heis.foel._lowest_level, heis.foel.dilute_extend
    monkeypatch.setattr(heis.foel, "_lowest_level", counting)
    monkeypatch.setattr(heis.foel, "dilute_extend", stepping)
    rep = induction_run(d, n, N_max)
    seq = rep.diluted
    assert not rep.partial and not rep.dilution_problems
    case2 = [k for k, t in enumerate(seq.t_values) if t < 1.0]
    assert case2
    for k in case2:
        prev_energy = seq.energies[k - 1]
        assert seq.energies[k] == pytest.approx(prev_energy, abs=heis.foel.ENERGY_TOL)
        assert per_step[k - 1] <= 10
        s = seq.t_values[k] + 1e-6
        # the stage graph holds J(t*); the targets are the fully-coupled graph's
        full = make_lambda(d, seq.graphs[k].vertex_count)
        data = heis.foel._match_couplings(seq.graphs[k - 1], full)
        J = {e: (1 - s) * start + s * target for e, start, target in data}
        assert energy_level(full.with_couplings(J), n) > prev_energy


def test_solve_counts_pinned(monkeypatch):
    # induction_run(2, 4, 14): per chain step a t = 1 check (6) and the
    # case-2 Newton solves (5), then 10 table levels: r = 4..N/2 at N = 8,
    # r = 5..N/2 for N = 9..14, whose E_4 is the step's t = 1 check.
    # A solve is keyed by its caller and by whether it went through
    # energy_level (a level) or straight to _lowest_level (a Newton pair)
    calls, depth, level = [], [], []

    def counting(*args, **kwargs):
        calls.append(("dilute" if depth else "table", "level" if level else "pair"))
        return lowest_level(*args, **kwargs)

    def nested(stack, fn):
        def wrapped(*args, **kwargs):
            stack.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapped
    lowest_level = heis.foel._lowest_level
    monkeypatch.setattr(heis.foel, "_lowest_level", counting)
    monkeypatch.setattr(heis.foel, "dilute_extend", nested(depth, heis.foel.dilute_extend))
    monkeypatch.setattr(heis.foel, "energy_level", nested(level, heis.foel.energy_level))
    induction_run(2, 4, 14)
    assert {key: calls.count(key) for key in set(calls)} == {
        ("table", "level"): 10, ("dilute", "level"): 6, ("dilute", "pair"): 5}
    calls.clear()
    foel_check(make_path(16), 1)
    assert calls == [("table", "level")] * 8


@pytest.mark.parametrize("d, n, N_max, seed", [(2, 4, 14, 0), (1, 3, 14, 3), (3, 4, 12, 7)])
def test_induction_levels_match_fresh_solves(d, n, N_max, seed):
    # the table takes E_n from the dilution step's t = 1 check: bit for bit
    # the level a fresh solve of the fully-coupled graph gives
    rep = induction_run(d, n, N_max, seed=seed)
    assert not rep.partial
    for row in rep.rows:
        assert row.energy == energy_level(make_lambda(d, row.N), n, seed=seed)


def test_failed_dilution_step_leaves_levels_to_the_table(monkeypatch):
    # a case-2 Newton solve that raises ends the chain; every later table
    # solves its own E_n, to the same values
    clean = induction_run(2, 4, 14)
    level = []

    def failing(*args, **kwargs):
        if not level:
            raise NumericalError("injected")
        return lowest_level(*args, **kwargs)

    def nested(*args, **kwargs):
        level.append(1)
        try:
            return energy(*args, **kwargs)
        finally:
            level.pop()
    lowest_level, energy = heis.foel._lowest_level, heis.foel.energy_level
    monkeypatch.setattr(heis.foel, "_lowest_level", failing)
    monkeypatch.setattr(heis.foel, "energy_level", nested)
    rep = induction_run(2, 4, 14)
    assert all(math.isfinite(r.energy) for r in rep.rows)
    assert [r.energy for r in rep.rows] == [r.energy for r in clean.rows]
    assert rep.failures == [{"stage": "dilution", "error": "NumericalError: injected"}]
    assert rep.partial and rep.diluted is None


def test_foel_check_solves_the_spin_wave_mode_once(monkeypatch):
    built = []

    def counting(g, n):
        built.append(n)
        return hamiltonian(g, n)
    hamiltonian = heis.foel.hamiltonian_magnon
    monkeypatch.setattr(heis.foel, "hamiltonian_magnon", counting)
    heis.foel._lowest_mode.cache_clear()
    foel_check(make_path(16), 1)
    # the levels r = 3..8 take the Krylov path, each from the same mode
    assert built.count(1) == 2      # the level E_1 and the mode
    assert sorted(built) == [1, 1, *range(2, 9)]


def test_dilute_extend_rejects_infinite_start():
    with pytest.raises(ValueError):
        dilute_extend((make_box(1, 2), math.inf), make_path(3), 2)
    # level 2 is empty on two vertices, whatever energy is passed
    with pytest.raises(ValueError):
        dilute_extend((make_box(1, 2), 0.5), make_path(3), 2)
    # a failed grid solve leaves NaN, which must not pass for an energy
    with pytest.raises(ValueError):
        dilute_extend((make_box(1, 2), math.nan), make_path(3), 1)


def test_diluted_sequence_checks_new_lows():
    # only a new-low stage must be fully coupled
    seq = DilutedSequence(graphs=[make_path(2),
                                  make_path(3).with_couplings({(0, 1): 1.0, (1, 2): 0.5})],
                          t_values=[1.0, 0.5], energies=[1.0, 1.0], new_lows=[2])
    assert seq.check_invariants() == []
    seq.new_lows = [2, 3]
    assert seq.check_invariants() == ["new-low stage 1: J(1, 2) = 0.5 != 1"]


def _stage(V, edges, couplings):
    return Graph(tuple(range(V)), tuple(edges), tuple(couplings))


@pytest.mark.parametrize("stage1, energies, message", [
    (_stage(4, [(0, 1), (1, 2), (2, 3)], [1.5, 1.0, 0.5]), [1.0, 1.0],
     "stage 1: J(0, 1) = 1.5 exceeds 1"),
    (_stage(4, [(0, 1), (2, 3)], [1.0, 1.0]), [1.0, 1.0], "stage 0: edge {1, 2} disappears"),
    (_stage(4, [(0, 1), (1, 2), (2, 3)], [1.0, 0.5, 1.0]), [1.0, 1.0],
     "stage 0: J{1, 2} decreases"),
    (_stage(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0]), [1.0, 1.5],
     "stage 0: energy rises 1.0 -> 1.5"),
], ids=["exceeds", "disappears", "decreases", "rises"])
def test_diluted_sequence_reports_each_broken_invariant(stage1, energies, message):
    # a fully-coupled 3-vertex new low, then a 4-vertex stage that breaks one rule
    seq = DilutedSequence(graphs=[_stage(3, [(0, 1), (1, 2)], [1.0, 1.0]), stage1],
                          t_values=[1.0, 0.5], energies=energies, new_lows=[3])
    assert seq.check_invariants() == [message]
    # within tol of the rule is no violation
    seq.graphs[1] = _stage(4, [(0, 1), (1, 2), (2, 3)], [1.0 + 1e-9, 1.0 - 1e-9, 0.5])
    seq.energies = [1.0, 1.0 + 1e-9]
    assert seq.check_invariants() == []


@pytest.mark.parametrize("d, n, N_max", [(2, 4, 14), (2, 1, 12), (3, 1, 10)])
def test_diluted_stage_graphs_solve_to_their_energies(d, n, N_max):
    # each stage graph carries its diluted couplings J(t*), not the targets
    seq = induction_run(d, n, N_max).diluted
    assert any(t < 1.0 for t in seq.t_values)
    assert [g.vertex_count for g in seq.graphs] == list(range(2 * n, N_max + 1))
    for g, e in zip(seq.graphs, seq.energies):
        assert energy_level(g, n) == e


def test_induction_run_rejects_level_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n={n}"):
            induction_run(1, n, 4)


def test_dilute_extend_requires_extension():
    with pytest.raises(ValueError):
        dilute_extend((make_path(3), 0.5), make_path(5), 1)


@st.composite
def weighted_graphs(draw):
    V = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(V), 2))
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True)))
    couplings = draw(st.lists(st.floats(0, 2), min_size=len(edges), max_size=len(edges)))
    return Graph(tuple(range(V)), tuple(edges), tuple(couplings))


@settings(max_examples=40, deadline=None)
@given(weighted_graphs())
def test_foel_one_holds_on_random_graphs(g):
    # Aldous' spectral-gap conjecture (Caputo, Liggett, Richthammer 2010):
    # the interchange process has the random walk's gap, so E_1 <= E_n
    verdict = foel_check(g, 1)
    assert verdict.holds and not verdict.incomplete


def test_induction_run_d1_n1():
    rep = induction_run(1, 1, 8)
    energies = [r.energy for r in rep.rows]
    assert all(np.diff(energies) < 0)           # strictly decreasing in L
    assert all(r.is_new_low for r in rep.rows)
    assert rep.new_lows == list(range(2, 9))
    assert not rep.grid_violations
    assert not rep.partial
    assert rep.diluted is not None
    assert not rep.dilution_problems
    assert all(t == 1.0 for t in rep.diluted.t_values)  # case 1 throughout


def test_induction_run_d1_n2_agrees_with_direct_check():
    rep = induction_run(1, 2, 10)
    assert 10 in rep.new_lows
    assert foel_check(make_lambda(1, 10), 2).holds
    assert not rep.grid_violations


def test_induction_run_d2_smoke():
    rep = induction_run(2, 1, 9)
    assert [r.N for r in rep.rows] == list(range(2, 10))
    assert not rep.partial
    assert not rep.grid_violations
    assert foel_check(make_lambda(2, 9), 1).holds


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -0.5])
def test_bad_tolerance_is_refused_before_any_solve(monkeypatch, tol):
    # every comparison with NaN is false, so a NaN tol passed ring6's violation
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the tolerance was checked")
    monkeypatch.setattr(heis.foel, "energy_level", refuse)
    monkeypatch.setattr(heis.foel, "_lowest_level", refuse)
    monkeypatch.setattr(heis.foel, "hamiltonian_magnon", refuse)
    with pytest.raises(ValueError, match="tol"):
        foel_check(make_ring(6), 2, tol=tol)
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    with pytest.raises(ValueError, match="tol"):
        dilute_extend((prev, 1.0), make_ring(3), 1, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        induction_run(2, 1, 6, tol=tol)


def test_zero_tolerance_is_accepted():
    assert not foel_check(make_ring(6), 2, tol=0.0).holds
    assert foel_check(make_path(8), 1, strict=True, tol=0.0).holds
