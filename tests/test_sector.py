import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heis.errors import ParseError, SizeBudgetError
from heis.graph import make_box, make_lambda, make_path, make_ring
from heis.sector import (
    SECTOR_BUDGET,
    FunctionSpaceIndex,
    MagnonBasis,
    SparseSymOp,
    assemble_full,
    casimir_magnon,
    contraction_T,
    contraction_T_box,
    free_laplacian,
    hamiltonian_magnon,
    highest_weight_basis,
    highest_weight_projector,
    load_op,
    lower_function,
    lowering_matrix,
)
from conftest import (
    product_casimir,
    product_hamiltonian,
    product_spin_ops,
    project_sector,
    sector_masks,
)


# ---------------------------------------------------------------- basis

@given(st.integers(0, 12), st.integers(0, 12))
def test_rank_unrank_round_trip(V, n):
    if n > V:
        return
    basis = MagnonBasis(V, n)
    for i in range(basis.dim):
        assert basis.rank(basis.unrank(i)) == i
    sub = basis.array()
    assert sub.shape == (basis.dim, n)
    assert [tuple(row) for row in sub] == list(basis.subsets())
    assert np.array_equal(basis.rank_array(sub), np.arange(basis.dim))


def test_basis_dimension():
    assert MagnonBasis(9, 4).dim == math.comb(9, 4)
    assert MagnonBasis(5, 0).dim == 1
    with pytest.raises(ValueError):
        MagnonBasis(4, 5)


def test_basis_enumerates_all_subsets():
    basis = MagnonBasis(6, 3)
    seen = set(basis.subsets())
    assert seen == set(itertools.combinations(range(6), 3))


# ---------------------------------------------------------------- hamiltonian

def test_two_site_hamiltonian_exact():
    H = hamiltonian_magnon(make_box(1, 2), 1).to_dense()
    assert np.array_equal(H, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.allclose(np.linalg.eigvalsh(H), [0.0, 1.0], atol=1e-14)


def test_grid_single_magnon_spectrum():
    # half the standard 3x3 grid Laplacian spectrum
    H = hamiltonian_magnon(make_box(2, 3), 1).to_dense()
    expected = [0.0, 0.5, 0.5, 1.0, 1.5, 1.5, 2.0, 2.0, 3.0]
    assert np.allclose(np.linalg.eigvalsh(H), expected, atol=1e-10)


def test_empty_sector_is_zero_operator():
    H = hamiltonian_magnon(make_ring(4), 0)
    assert H.dim == 1
    assert np.array_equal(H.to_dense(), [[0.0]])


@pytest.mark.parametrize("g", [
    make_box(1, 5),
    make_box(2, 2),
    make_ring(5),
    make_lambda(2, 6),
    make_path(4).with_couplings({(0, 1): 0.3, (1, 2): 0.0, (2, 3): 2.5}),
])
def test_hamiltonian_matches_product_space_oracle(g):
    V = g.vertex_count
    full = product_hamiltonian(g)
    for n in range(V + 1):
        got = hamiltonian_magnon(g, n).to_dense()
        want = project_sector(full, V, n)
        assert np.max(np.abs(got - want)) < 1e-12


def test_product_hamiltonian_preserves_sectors():
    g = make_box(1, 4)
    full = product_hamiltonian(g)
    for n in range(5):
        for m in range(5):
            if m != n:
                assert np.max(np.abs(project_sector(full, 4, n, m))) == 0.0


def test_hamiltonian_ten_site_spot_check():
    g = make_path(10)
    full = product_hamiltonian(g)
    got = hamiltonian_magnon(g, 2).to_dense()
    assert np.max(np.abs(got - project_sector(full, 10, 2))) < 1e-12


@pytest.mark.parametrize("g", [
    make_path(7).with_couplings({(k, k + 1): 0.25 * (k + 1) for k in range(6)}),
    make_ring(9),
    make_lambda(2, 10),
])
def test_builders_match_product_space_oracle_up_to_ten_sites(g):
    V = g.vertex_count
    full = product_hamiltonian(g)
    _, sm = product_spin_ops(V)
    for n in range(V + 1):
        got = hamiltonian_magnon(g, n).to_dense()
        assert np.max(np.abs(got - project_sector(full, V, n))) < 1e-12
        if n:
            low = lowering_matrix(g, n).to_dense()
            assert np.array_equal(low, project_sector(sm, V, n, n - 1))


def _reference_entries(g, n):
    """Per-subset loop over the sector: {(row, col): value} of H and of S^-."""
    idx = g.index_of()
    edges = [(idx[a], idx[b], J) for (a, b), J in zip(g.edges, g.couplings)]
    basis = MagnonBasis(g.vertex_count, n)
    H = {}
    for i, X in enumerate(basis.subsets()):
        inX = set(X)
        for (u, v, J) in edges:
            if (u in inX) != (v in inX):
                H[i, i] = H.get((i, i), 0.0) + 0.5 * J
                H[i, basis.rank(inX ^ {u, v})] = -0.5 * J
    low = {}
    for j, X in enumerate(MagnonBasis(g.vertex_count, n - 1).subsets()):
        for x in set(range(g.vertex_count)) - set(X):
            low[basis.rank(X + (x,)), j] = 1.0
    return H, low


def test_builders_match_reference_loop_at_64_sites():
    # V = 64 is beyond int64 bitmasks; the ranks come from the binomial table
    g = make_lambda(2, 64)
    g = g.with_couplings({e: 1.0 + 0.01 * k for k, e in enumerate(g.edges)})
    H_ref, low_ref = _reference_entries(g, 2)
    H = hamiltonian_magnon(g, 2).to_csr().todok()
    low = lowering_matrix(g, 2).to_csr().todok()
    assert dict(H.items()) == H_ref
    assert dict(low.items()) == low_ref


def test_sector_budget_fails_fast():
    assert math.comb(20, 10) <= SECTOR_BUDGET
    g = make_path(40)
    for build in (hamiltonian_magnon, lowering_matrix, casimir_magnon):
        with pytest.raises(SizeBudgetError):
            build(g, 20)
    with pytest.raises(SizeBudgetError):
        MagnonBasis(40, 20).array()


def test_hamiltonian_sign_structure():
    op = hamiltonian_magnon(make_lambda(2, 7), 3)
    diag = op.rows == op.cols
    assert np.all(op.vals[diag] >= 0)
    assert np.all(op.vals[~diag] <= 0)


def test_hamiltonian_bad_sector():
    with pytest.raises(ValueError):
        hamiltonian_magnon(make_box(1, 3), 4)


def test_edge_monotonicity_psd():
    # adding an edge or increasing a coupling only raises the Hamiltonian
    g = make_path(5)
    ring = make_ring(5)  # path + closing edge
    for n in range(1, 3):
        a = hamiltonian_magnon(g, n).to_dense()
        b = hamiltonian_magnon(ring, n).to_dense()
        assert np.linalg.eigvalsh(b - a)[0] >= -1e-10
    stronger = g.with_couplings({e: (2.0 if e == (1, 2) else 1.0) for e in g.edges})
    for n in range(1, 3):
        a = hamiltonian_magnon(g, n).to_dense()
        b = hamiltonian_magnon(stronger, n).to_dense()
        assert np.linalg.eigvalsh(b - a)[0] >= -1e-10


# ---------------------------------------------------------------- lowering

def test_lowering_two_site():
    low = lowering_matrix(make_box(1, 2), 1).to_dense()
    assert np.array_equal(low, [[1.0], [1.0]])


def test_lowering_matches_product_space_oracle():
    g = make_box(1, 5)
    _, sm = product_spin_ops(5)
    for n in range(1, 6):
        got = lowering_matrix(g, n).to_dense()
        want = sm[np.ix_(sector_masks(5, n), sector_masks(5, n - 1))]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("V,n", [(6, 1), (6, 2), (6, 3), (7, 3)])
def test_lowering_full_rank_below_equator(V, n):
    low = lowering_matrix(make_path(V), n).to_dense()
    assert np.linalg.matrix_rank(low, tol=1e-10) == math.comb(V, n - 1)


def test_commutation_on_sectors():
    # S+S- - S-S+ = 2M on mag(n)
    V = 6
    g = make_path(V)
    for n in range(0, 3):
        up = lowering_matrix(g, n + 1).to_csr()
        comm = (up.T @ up).toarray()
        if n > 0:
            down = lowering_matrix(g, n).to_csr()
            comm -= (down @ down.T).toarray()
        M = V / 2 - n
        assert np.max(np.abs(comm - 2 * M * np.eye(math.comb(V, n)))) < 1e-12


def test_hamiltonian_commutes_with_lowering():
    for g in (make_path(6), make_box(2, 2), make_ring(5)):
        V = g.vertex_count
        for n in range(1, V + 1):
            Hn = hamiltonian_magnon(g, n).to_csr()
            Hm = hamiltonian_magnon(g, n - 1).to_csr()
            low = lowering_matrix(g, n).to_csr()
            assert abs(Hn @ low - low @ Hm).max() <= 1e-10


# ---------------------------------------------------------------- casimir

def test_casimir_two_site():
    C = casimir_magnon(make_box(1, 2), 1).to_dense()
    assert np.allclose(sorted(np.linalg.eigvalsh(C)), [0.0, 2.0], atol=1e-12)


def test_casimir_top_sector():
    C = casimir_magnon(make_box(1, 4), 0).to_dense()
    s = 2.0
    assert np.allclose(C, [[s * (s + 1)]])


def test_casimir_multiplicities_four_site():
    C = casimir_magnon(make_box(1, 4), 2).to_dense()
    vals = np.round(np.linalg.eigvalsh(C), 9)
    counts = {v: int(np.sum(vals == v)) for v in np.unique(vals)}
    assert counts == {0.0: 2, 2.0: 3, 6.0: 1}


def test_casimir_matches_product_space_oracle():
    g = make_ring(5)
    C_full = product_casimir(5)
    for n in range(6):
        got = casimir_magnon(g, n).to_dense()
        want = project_sector(C_full, 5, n)
        assert np.max(np.abs(got - want)) < 1e-11


def test_casimir_commutes_with_hamiltonian():
    for g in (make_path(7), make_lambda(2, 6)):
        for n in range(g.vertex_count + 1):
            H = hamiltonian_magnon(g, n).to_csr()
            C = casimir_magnon(g, n).to_csr()
            assert abs(H @ C - C @ H).max() <= 1e-10


# ---------------------------------------------------------------- highest weight

def test_highest_weight_trivial_cases():
    g = make_path(8)
    assert highest_weight_basis(g, 0).shape == (1, 1)
    assert highest_weight_basis(g, 1).shape == (8, 7)


def test_highest_weight_dimension_nine_choose_four():
    basis = highest_weight_basis(make_box(2, 3), 4)
    assert basis.shape == (126, 42)
    assert np.allclose(basis.T @ basis, np.eye(42), atol=1e-12)


def test_highest_weight_orthogonal_to_lowered_states():
    g = make_path(6)
    for n in (1, 2, 3):
        basis = highest_weight_basis(g, n)
        low = lowering_matrix(g, n).to_dense()
        assert np.max(np.abs(basis.T @ low)) < 1e-10
        assert basis.shape[1] == math.comb(6, n) - math.comb(6, n - 1)


def test_highest_weight_above_equator_warns():
    with pytest.warns(UserWarning):
        basis = highest_weight_basis(make_path(4), 3)
    assert basis.shape == (4, 0)


def test_highest_weight_projector_exact():
    for g, n in ((make_path(8), 3), (make_ring(7), 2), (make_lambda(2, 7), 2)):
        V = g.vertex_count
        project = highest_weight_projector(g, n)
        P = project(np.eye(math.comb(V, n)))
        H = hamiltonian_magnon(g, n).to_dense()
        low = lowering_matrix(g, n).to_dense()
        assert np.max(np.abs(P @ P - P)) <= 1e-12
        assert np.max(np.abs(project(low))) <= 1e-12
        assert np.linalg.matrix_rank(P, tol=1e-8) == math.comb(V, n) - math.comb(V, n - 1)
        assert np.linalg.norm(H @ P - P @ H, 2) <= 1e-12
        # the same projector as the one built from the QR basis
        basis = highest_weight_basis(g, n)
        assert np.max(np.abs(P - basis @ basis.T)) <= 1e-12


def test_multiplet_dimension_identity():
    # sum over sectors of hw-dim times multiplet length recovers 2^V
    for V in (4, 7, 10):
        total = sum(
            (math.comb(V, n) - math.comb(V, n - 1) if n else 1) * (V - 2 * n + 1)
            for n in range(V // 2 + 1)
        )
        assert total == 2 ** V


# ---------------------------------------------------------------- free laplacian

def test_free_laplacian_single_particle():
    g = make_box(2, 2)
    one = free_laplacian(g, 1).to_dense()
    lap = np.zeros((4, 4))
    for (u, v) in g.edges:
        lap[u, u] += 0.5
        lap[v, v] += 0.5
        lap[u, v] -= 0.5
        lap[v, u] -= 0.5
    assert np.array_equal(one, lap)


def test_free_laplacian_row_sums_zero():
    op = free_laplacian(make_path(2), 2).to_dense()
    assert op.shape == (4, 4)
    assert np.allclose(op.sum(axis=1), 0.0, atol=1e-14)


def test_free_laplacian_commutes_with_permutation():
    V, n = 3, 2
    g = make_path(V)
    op = free_laplacian(g, n).to_dense()
    findex = FunctionSpaceIndex(V, n)
    perm = np.zeros((9, 9))
    for tup in findex.tuples():
        perm[findex.encode(tup[::-1]), findex.encode(tup)] = 1.0
    assert np.max(np.abs(perm.T @ op @ perm - op)) == 0.0


def test_function_space_budget():
    with pytest.raises(SizeBudgetError):
        free_laplacian(make_path(40), 5)


def test_function_space_index_round_trip():
    findex = FunctionSpaceIndex(5, 3)
    for i in range(findex.dim):
        assert findex.encode(findex.decode(i)) == i
    assert findex.in_deleted_diagonal((1, 2, 1))
    assert not findex.in_deleted_diagonal((0, 2, 1))


# ---------------------------------------------------------------- contraction

def test_contraction_single_particle_is_identity():
    T = contraction_T(make_path(3), 1).to_dense()
    assert np.array_equal(T, np.eye(3))


def test_contraction_kills_diagonal():
    V, n = 3, 2
    T = contraction_T(make_path(V), n).to_csr()
    findex = FunctionSpaceIndex(V, n)
    F = np.zeros(findex.dim)
    F[findex.encode((1, 1))] = 1.0
    assert np.max(np.abs(T @ F)) == 0.0


def test_contraction_isometry_on_symmetric_offdiagonal(rng):
    V, n = 4, 2
    T = contraction_T(make_path(V), n).to_csr()
    cube = rng.standard_normal((V, V))
    cube = cube + cube.T
    np.fill_diagonal(cube, 0.0)
    F = cube.ravel()
    assert abs(np.linalg.norm(T @ F) - np.linalg.norm(F)) < 1e-12


def test_contraction_nonexpansive_on_anything(rng):
    V, n = 4, 2
    T = contraction_T(make_path(V), n).to_dense()
    s = np.linalg.svd(T, compute_uv=False)
    assert s[0] <= 1.0 + 1e-12


def test_contraction_dominates_sector_hamiltonian():
    # T h T* >= H on mag(n)
    for g in (make_path(4), make_box(2, 2)):
        for n in (1, 2):
            T = contraction_T(g, n).to_csr()
            h = free_laplacian(g, n).to_csr()
            H = hamiltonian_magnon(g, n).to_dense()
            diff = (T @ h @ T.T).toarray() - H
            assert np.linalg.eigvalsh(diff)[0] >= -1e-10


def test_contraction_box_restricts_to_lattice_points():
    # tuples touching the box corner outside the 8-point lattice graph act as zero
    T = contraction_T_box(2, 8, 1).to_dense()
    assert T.shape == (8, 9)
    corner = np.zeros(9)
    corner[8] = 1.0  # point (3,3), lexicographically last in the box
    assert np.max(np.abs(T @ corner)) == 0.0


def test_lower_function_base_cases():
    assert np.array_equal(lower_function(np.float64(2.5), 4), np.full(4, 2.5))
    F = np.zeros(4)
    F[2] = 1.0
    G = lower_function(F, 4)
    expected = np.add.outer(F, F)
    assert np.array_equal(G, expected)


def test_lower_function_intertwines_with_contraction(rng):
    V, n = 4, 2
    g = make_path(V)
    F = rng.standard_normal((V,) * n)
    Tn = contraction_T(g, n).to_csr()
    Tn1 = contraction_T(g, n + 1).to_csr()
    low = lowering_matrix(g, n + 1).to_csr()
    lhs = Tn1 @ lower_function(F, V).ravel()
    # with orthonormal flipped states the function-space lowering carries
    # an extra sqrt(n+1) relative to the sector lowering operator
    rhs = math.sqrt(n + 1) * (low @ (Tn @ F.ravel()))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------- dump/load

def test_operator_dump_golden(tmp_path):
    p = tmp_path / "op.txt"
    hamiltonian_magnon(make_box(1, 2), 1).dump(p)
    assert p.read_text() == "#dim 2 symmetric=true\n0 0 0.5\n0 1 -0.5\n1 1 0.5\n"


def test_operator_dump_round_trip(tmp_path):
    p = tmp_path / "op.txt"
    op = hamiltonian_magnon(make_lambda(2, 6), 2)
    op.dump(p)
    back = load_op(p)
    assert back.symmetric == op.symmetric
    assert np.array_equal(back.to_dense(), op.to_dense())


def test_rectangular_dump_round_trip(tmp_path):
    p = tmp_path / "rect.txt"
    op = lowering_matrix(make_path(4), 2)
    op.dump(p)
    back = load_op(p)
    assert back.shape == op.shape
    assert np.array_equal(back.to_dense(), op.to_dense())


def test_load_op_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 1.0\n")
    with pytest.raises(ParseError):
        load_op(p)
    p.write_text("#dim 2 symmetric=true\n0 0\n")
    with pytest.raises(ParseError) as err:
        load_op(p)
    assert err.value.line_number == 2


# ---------------------------------------------------------------- assembled

def test_assembled_two_site_spectrum():
    full = assemble_full(make_box(1, 2)).to_dense()
    assert np.allclose(np.linalg.eigvalsh(full), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_assembled_dimension():
    assert assemble_full(make_path(5)).dim == 32
