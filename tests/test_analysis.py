import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heis.graph import lambda_spec, make_box, make_lambda
from heis.sector import contraction_T_box, free_laplacian, hamiltonian_magnon
from heis.analysis import (
    DeficitBound,
    GoodSet,
    contraction_deficit,
    extension_Xi,
    extension_energy_ratio,
    rho,
    rho_max,
    trace_check,
    _deficit_rows,
    _geometry,
)
from heis.spinwave import bose_basis


# ---------------------------------------------------------------- trace

def test_trace_constant_function():
    r = trace_check(np.ones(4))
    assert r.lhs == 1.0
    assert r.rhs == pytest.approx(2.0, abs=1e-14)
    assert r.holds


def test_trace_delta_function():
    r = trace_check(np.array([1.0, 0.0]))
    assert r.lhs == 1.0
    assert r.rhs == pytest.approx(4 / 3 + 1.0, abs=1e-14)
    assert r.holds


def test_trace_tight_case_documented():
    # with the smaller textbook-looking constant 2(L-1)/L^2 the inequality
    # fails at L=2; the implemented 2/L keeps a margin there
    f = np.array([1.05, 1.0])
    bad_rhs = (4 / 3) * 0.05 ** 2 + 0.5 * (1.05 ** 2 + 1.0)
    assert f[0] ** 2 > bad_rhs            # the printed constant is violated
    assert trace_check(f).holds           # the assembled constant is not


def test_trace_requires_two_points():
    with pytest.raises(ValueError):
        trace_check(np.ones(1))


def test_trace_random_sweep(rng):
    for L in (2, 4, 8, 16, 32):
        for _ in range(2000):
            f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            assert trace_check(f).holds


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=33))
def test_trace_property(values):
    assert trace_check(np.array(values)).holds


# ---------------------------------------------------------------- deficit

def test_deficit_coefficients():
    c = DeficitBound(L=8, n=2, d=1)
    assert c.kinetic_coefficient == pytest.approx(2 * 2 * 8 / 3)
    assert c.mass_coefficient == pytest.approx(4 * 4 * 1 / 4)


def test_deficit_good_set_support_is_lossless():
    # symmetric, off-diagonal, inside the lattice points: nothing is lost
    d, N, n = 1, 8, 2
    V = lambda_spec(d, N).L_plus
    cube = np.zeros((V, V))
    cube[2, 5] = cube[5, 2] = 1.0
    r = contraction_deficit(d, N, n, cube.ravel())
    assert abs(r.deficit) < 1e-12
    assert r.holds


def test_deficit_bose_ground_state():
    d, N, n = 1, 8, 2
    F = bose_basis(d, 8, [(0,), (0,)])
    r = contraction_deficit(d, N, n, F)
    assert r.deficit > 0
    assert r.holds


def test_deficit_rejects_asymmetric():
    V = lambda_spec(1, 8).L_plus
    cube = np.zeros((V, V))
    cube[1, 2] = 1.0
    with pytest.raises(ValueError):
        contraction_deficit(1, 8, 2, cube.ravel())


@pytest.mark.parametrize("d,n,N", [(1, 2, 8), (2, 2, 9)])
def test_deficit_random_sweep(d, n, N, rng):
    V = lambda_spec(d, N).L_plus ** d
    for _ in range(300):
        cube = rng.standard_normal((V,) * n)
        cube = cube + cube.T
        r = contraction_deficit(d, N, n, cube.ravel())
        assert r.holds


def test_deficit_complex_input(rng):
    V = lambda_spec(1, 8).L_plus
    cube = rng.standard_normal((V, V)) + 1j * rng.standard_normal((V, V))
    cube = cube + cube.T
    assert contraction_deficit(1, 8, 2, cube.ravel()).holds


def test_deficit_block_matches_one_row_calls(rng):
    # the sweep's block kernel gives each row what a one-row call gives it,
    # and scales each row's symmetry tolerance by that row alone
    d, n, N = 2, 2, 9
    V = lambda_spec(d, N).L_plus ** d
    cubes = rng.standard_normal((5, V, V)) * np.array([1e6, 1.0, 1e-3, 1.0, 10.0])[:, None, None]
    cubes = cubes + np.swapaxes(cubes, 1, 2)
    _, deficit, bound, holds = _deficit_rows(d, N, n, cubes.reshape(5, -1))
    for i, cube in enumerate(cubes):
        r = contraction_deficit(d, N, n, cube.ravel())
        assert r.deficit == pytest.approx(deficit[i], rel=1e-13)
        assert r.bound == pytest.approx(bound[i], rel=1e-13)
        assert r.holds == holds[i]
    cubes[1, 0, 1] += 1e-7          # beyond 1e-10 of row 1, within 1e-10 of row 0
    with pytest.raises(ValueError, match="not symmetric"):
        _deficit_rows(d, N, n, cubes.reshape(5, -1))


def test_deficit_with_shell_boundary(rng):
    # N=8 in two dimensions leaves one box point outside the lattice graph,
    # so the boundary part of the loss is exercised, not just the diagonal
    d, n, N = 2, 2, 8
    V = lambda_spec(d, N).L_plus ** d
    for _ in range(100):
        cube = rng.standard_normal((V,) * n)
        cube = cube + cube.T
        assert contraction_deficit(d, N, n, cube.ravel()).holds


# ---------------------------------------------------------------- rho

def test_rho_zero_on_good_set():
    assert rho(2, 8, 2, ((1, 1), (2, 2))) == 0
    gs = GoodSet(2, 8, 2)
    assert ((1, 1), (2, 2)) in gs
    assert not gs.contains(((1, 1), (1, 1)))
    assert not gs.contains(((1, 1), (3, 3)))  # (3,3) is outside the 8-point graph


def test_good_set_points_are_the_lattice_graphs():
    for d in (1, 2, 3):
        for N in range(1, 130):
            assert GoodSet(d, N, 2).lattice_points == frozenset(make_lambda(d, N).points)


def test_good_set_builds_no_graph():
    # built through the whole make_lambda graph this took 1.9 s (6.3 s at
    # N = 10**6); from the box and the fill it takes 0.1-0.2 s
    start = time.perf_counter()
    gs = GoodSet(2, 250_000, 2)
    assert time.perf_counter() - start < 1.0
    assert len(gs.lattice_points) == 250_000


def test_rho_doubled_interior_point():
    assert rho(1, 6, 2, ((3,), (3,))) == 1


def test_rho_exhaustive_bound_d2_n2():
    d, n, N = 2, 2, 12  # L+ = 4
    spec = lambda_spec(d, N)
    bound = rho_max(n, d)
    pts = list(itertools.product(range(1, spec.L_plus + 1), repeat=d))
    worst = max(rho(d, N, n, pair) for pair in itertools.product(pts, repeat=n))
    assert worst <= bound


def test_rho_max_formula():
    assert rho_max(2, 2) == 2 * 2 + 2 * max(1, 2)
    assert rho_max(1, 3) == 3
    assert rho_max(3, 1) == 3 + 3 * max(2, 8)


def test_rho_rejects_outside_box():
    # L+ = 3: a coordinate out of range or not an integer, a wrong point
    # count, a wrong coordinate count
    for bad in (((0, 0), (1, 1)), ((1, 1), (1, 4)), ((1, 1.5), (2, 2)),
                ((1, 1),), ((1, 1), (2, 2), (3, 3)), ((1, 1, 1), (2, 2, 2)), ((1,), (2,))):
        with pytest.raises(ValueError):
            rho(2, 8, 2, bad)
    assert rho(2, 8, 2, ((1, 1), (1.0, 2.0))) == rho(2, 8, 2, ((1, 1), (1, 2))) == 0


def test_rho_empty_good_set():
    with pytest.raises(ValueError):
        _geometry(1, 1, 2)  # one lattice point cannot host two distinct magnons


def _nearest_good_oracle(d, N, n):
    """Brute force over all pairs of box tuple and good tuple: l1 distance to
    the good set and the smallest row-major index attaining it."""
    L = lambda_spec(d, N).L_plus
    lattice = set(make_lambda(d, N).points)
    box = list(itertools.product(range(1, L + 1), repeat=d))
    tuples = list(itertools.product(box, repeat=n))  # row-major order
    good = [i for i, t in enumerate(tuples) if set(t) <= lattice and len(set(t)) == n]
    arr = np.array(tuples)
    l1 = np.abs(arr[:, None] - arr[good][None]).sum(axis=(2, 3))
    dist = l1.min(axis=1)
    return dist, np.array(good)[np.argmax(l1 == dist[:, None], axis=1)]


@pytest.mark.parametrize("d, N, n", [
    (1, 4, 2), (1, 6, 2), (2, 8, 2), (2, 12, 2), (2, 7, 3), (3, 10, 2), (1, 8, 3),
])
def test_geometry_matches_l1_oracle(d, N, n):
    dist, nearest = _nearest_good_oracle(d, N, n)
    geo = _geometry(d, N, n)
    assert np.array_equal(geo.dist, dist)
    assert np.array_equal(geo.nearest, nearest)


# ---------------------------------------------------------------- extension

def test_extension_roundtrip_exact_basis_vectors():
    d, N, n = 2, 8, 2
    T = contraction_T_box(d, N, n)
    for i in range(math.comb(N, n)):
        e = np.zeros(math.comb(N, n))
        e[i] = 1.0
        assert np.array_equal(T @ extension_Xi(d, N, n, e), e)


def test_extension_roundtrip_exact_n1():
    d, N, n = 2, 8, 1
    T = contraction_T_box(d, N, n)
    for i in range(math.comb(N, n)):
        e = np.zeros(math.comb(N, n))
        e[i] = 1.0
        assert np.array_equal(T @ extension_Xi(d, N, n, e), e)


def test_extension_roundtrip_random(rng):
    d, N, n = 2, 8, 2
    T = contraction_T_box(d, N, n)
    psi = rng.standard_normal(math.comb(N, n))
    assert np.max(np.abs(T @ extension_Xi(d, N, n, psi) - psi)) < 1e-14


def test_extension_output_symmetric(rng):
    for (d, N, n) in ((2, 8, 2), (1, 6, 2), (2, 12, 2)):
        V = lambda_spec(d, N).L_plus ** d
        xi = extension_Xi(d, N, n, rng.standard_normal(math.comb(N, n)))
        cube = xi.reshape((V,) * n)
        assert np.array_equal(cube, np.swapaxes(cube, 0, 1))


def test_extension_copies_nearest_value():
    # a diagonal tuple takes its value from one step away
    d, N, n = 1, 4, 2
    psi = np.arange(1.0, math.comb(N, n) + 1)
    xi = extension_Xi(d, N, n, psi).reshape(4, 4)
    # (r, r) copies from ((r-1), r): lexicographically smallest neighbor
    for r in range(1, 4):
        assert xi[r, r] == xi[r - 1, r]
    assert xi[0, 0] == xi[0, 1]


def test_extension_energy_ratio_finite_and_stable():
    top, ratios = extension_energy_ratio(2, 8, 2)
    assert np.isfinite(top)
    assert all(r > 0 for r in ratios)
    top12, _ = extension_energy_ratio(2, 12, 2)
    assert abs(top12 - top) / top < 0.5


def test_extension_energy_ratio_pinned():
    # the largest ratio does not depend on which orthonormal basis spans the
    # highest-weight space; values from the pivoted QR of the lowering matrix
    assert extension_energy_ratio(2, 8, 2)[0] == pytest.approx(3.444433588528355, abs=1e-10)
    assert extension_energy_ratio(2, 12, 2)[0] == pytest.approx(4.178744892788336, abs=1e-10)


def test_extension_dominates_hamiltonian_energy():
    # <Xi psi, h Xi psi> >= <psi, H psi>: the contraction only loses energy
    d, N, n = 2, 8, 2
    g = make_lambda(d, N)
    H = hamiltonian_magnon(g, n)
    h = free_laplacian(make_box(d, lambda_spec(d, N).L_plus), n)
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = rng.standard_normal(H.shape[0])
        xi = extension_Xi(d, N, n, psi)
        assert xi @ (h @ xi) >= psi @ (H @ psi) - 1e-10
