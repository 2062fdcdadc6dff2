import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import heis.sector
from heis.eigen import full_spectrum, highest_weight_levels, lowest_eig
from heis.foel import _levels
from heis.errors import SizeBudgetError
from heis.graph import Graph, lambda_spec, make_box, make_lambda, make_path, make_ring
from heis.sector import (
    DENSE_BUDGET,
    FUNCTION_SPACE_BUDGET,
    SECTOR_BUDGET,
    MagnonBasis,
    casimir_magnon,
    contraction_T_box,
    free_laplacian,
    hamiltonian_magnon,
    highest_weight_basis,
    highest_weight_projector,
    lowering_chain,
    lowering_matrix,
    product_state,
    valence_bond_basis,
)
from heis.spinwave import bose_basis, trial_state
from conftest import (
    colex,
    colex_rank,
    colex_unrank,
    coo_hamiltonian,
    coo_lowering,
    lower_function,
    product_casimir,
    product_hamiltonian,
    product_spin_ops,
    project_sector,
    sector_masks,
    solver_path,
)


# ---------------------------------------------------------------- basis

@given(st.integers(0, 12), st.integers(0, 12))
def test_rank_unrank_round_trip(V, n):
    if n > V:
        return
    basis = MagnonBasis(V, n)
    subsets = colex(V, n)
    assert len(subsets) == basis.dim
    for i, X in enumerate(subsets):
        assert colex_rank(X) == i
        assert colex_unrank(i, V, n) == X
    sub = basis.array()
    assert sub.shape == (basis.dim, n)
    assert [tuple(row) for row in sub] == subsets
    assert np.array_equal(basis.rank_array(sub), np.arange(basis.dim))
    rows = sub[::-1]
    assert basis.rank_array(rows).tolist() == [colex_rank(X) for X in rows.tolist()]


def test_basis_dimension():
    assert MagnonBasis(9, 4).dim == math.comb(9, 4)
    assert MagnonBasis(5, 0).dim == 1
    with pytest.raises(ValueError):
        MagnonBasis(4, 5)


def test_basis_enumerates_all_subsets():
    seen = {tuple(X) for X in MagnonBasis(6, 3).array().tolist()}
    assert seen == set(itertools.combinations(range(6), 3))


# ---------------------------------------------------------------- hamiltonian

def test_two_site_hamiltonian_exact():
    H = hamiltonian_magnon(make_box(1, 2), 1).toarray()
    assert np.array_equal(H, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.allclose(np.linalg.eigvalsh(H), [0.0, 1.0], atol=1e-14)


def test_grid_single_magnon_spectrum():
    # half the standard 3x3 grid Laplacian spectrum
    H = hamiltonian_magnon(make_box(2, 3), 1).toarray()
    expected = [0.0, 0.5, 0.5, 1.0, 1.5, 1.5, 2.0, 2.0, 3.0]
    assert np.allclose(np.linalg.eigvalsh(H), expected, atol=1e-10)


def test_empty_sector_is_zero_operator():
    H = hamiltonian_magnon(make_ring(4), 0)
    assert H.shape == (1, 1)
    assert np.array_equal(H.toarray(), [[0.0]])


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
        got = hamiltonian_magnon(g, n).toarray()
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
    got = hamiltonian_magnon(g, 2).toarray()
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
        got = hamiltonian_magnon(g, n).toarray()
        assert np.max(np.abs(got - project_sector(full, V, n))) < 1e-12
        if n:
            low = lowering_matrix(g, n).toarray()
            assert np.array_equal(low, project_sector(sm, V, n, n - 1))


def _reference_entries(g, n):
    """Per-subset loop over the sector: {(row, col): value} of H and of S^-."""
    V = g.vertex_count
    idx = g.index_of()
    edges = [(idx[a], idx[b], J) for (a, b), J in zip(g.edges, g.couplings)]
    at = [[] for _ in range(V)]
    for e, (u, v, _) in enumerate(edges):
        at[u].append(e)
        at[v].append(e)
    rank = {frozenset(X): i for i, X in enumerate(colex(V, n))}
    H = {}
    for inX, i in rank.items():
        # the edges touching X, in edge order (the order the diagonal sums in)
        for e in sorted({e for x in inX for e in at[x]}):
            u, v, J = edges[e]
            if (u in inX) != (v in inX):
                H[i, i] = H.get((i, i), 0.0) + 0.5 * J
                H[i, rank[inX ^ {u, v}]] = -0.5 * J
    low = {}
    for j, X in enumerate(colex(V, n - 1)):
        for x in set(range(V)) - set(X):
            low[rank[frozenset(X + (x,))], j] = 1.0
    return H, low


def test_builders_match_reference_loop_at_64_sites():
    # V = 64 is beyond int64 bitmasks; the ranks come from the binomial table
    g = make_lambda(2, 64)
    g = g.with_couplings({e: 1.0 + 0.01 * k for k, e in enumerate(g.edges)})
    H_ref, low_ref = _reference_entries(g, 2)
    H = hamiltonian_magnon(g, 2).todok()
    low = lowering_matrix(g, 2).todok()
    assert dict(H.items()) == H_ref
    assert dict(low.items()) == low_ref


def _stored_entries(op):
    """{(row, col): value} of every entry a sparse matrix stores."""
    coo = op.tocoo()
    got = dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))
    assert len(got) == coo.nnz
    return got


def _assert_builders_match_reference_loop(g, n):
    """The stored entries of H (both triangles) and S^- equal the reference
    loop's nonzero entries exactly; neither stores a zero."""
    H_ref, low_ref = _reference_entries(g, n)
    assert _stored_entries(hamiltonian_magnon(g, n)) == {
        k: v for k, v in H_ref.items() if v != 0.0}
    assert _stored_entries(lowering_matrix(g, n)) == low_ref


@pytest.mark.parametrize("d", [1, 2])
def test_builders_match_reference_loop_in_spinwave_sectors(d):
    # the sectors of `heis spinwave --N 64` with three modes: dim C(64, 3) = 41664
    _assert_builders_match_reference_loop(make_lambda(d, 64), 3)


@pytest.mark.parametrize("g", [make_path(12), make_lambda(3, 12)], ids=["path12", "lambda3_12"])
def test_builders_match_reference_loop_at_equator(g):
    _assert_builders_match_reference_loop(g, 6)


def test_builders_match_reference_loop_with_zero_couplings():
    # the dilution at t = 0: the newest edges carry coupling 0, and their hops
    # are not stored
    g = make_lambda(2, 10)
    older = make_lambda(2, 9).edge_keys()
    keys = list(g.edge_keys())
    assert len(keys) > len(older)
    g = g.with_couplings({e: 0.0 if key not in older else 1.0 + 0.125 * k
                          for k, (e, key) in enumerate(zip(g.edges, keys))})
    for n in range(1, g.vertex_count + 1):
        _assert_builders_match_reference_loop(g, n)
    H_ref, _ = _reference_entries(g, 2)
    zero_hops = {k for k, v in H_ref.items() if k[0] != k[1] and v == 0.0}
    assert zero_hops
    assert not zero_hops & _stored_entries(hamiltonian_magnon(g, 2)).keys()


def test_builders_match_reference_loop_on_sparse_vertex_ids():
    g = Graph(vertices=(2, 5, 7, 11, 13, 20, 31),
              edges=((2, 5), (2, 13), (5, 7), (5, 31), (7, 20), (11, 13), (11, 20), (13, 31)),
              couplings=(1.0, 0.5, 2.0, 0.25, 0.0, 1.5, 0.3, 0.75))
    for n in range(1, g.vertex_count + 1):
        _assert_builders_match_reference_loop(g, n)


def _dilution_start(d, N):
    # lambda(d, N) with the edges new since lambda(d, N - 1) at coupling 0
    g = make_lambda(d, N)
    older = make_lambda(d, N - 1).edge_keys()
    return g.with_couplings({e: 1.0 if key in older else 0.0
                             for e, key in zip(g.edges, g.edge_keys())})


def _assert_same_csr(op, ref):
    assert type(op) is type(ref) and op.shape == ref.shape
    assert op.has_canonical_format and ref.has_canonical_format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(op, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


_WEIGHTED = make_lambda(2, 12)
_ORACLE_GRAPHS = {
    "path2": make_path(2), "path9": make_path(9), "path17": make_path(17),
    "ring3": make_ring(3), "ring12": make_ring(12), "box2x3": make_box(2, 3),
    "box4x4": make_box(2, 4), "box2x2x2": make_box(3, 2),
    "lambda1_5": make_lambda(1, 5), "lambda2_10": make_lambda(2, 10),
    "lambda2_20": make_lambda(2, 20), "lambda3_27": make_lambda(3, 27),
    "lambda1_64": make_lambda(1, 64), "lambda2_64": make_lambda(2, 64),
    "lambda3_64": make_lambda(3, 64),
    "weighted": _WEIGHTED.with_couplings(
        {e: 0.25 + 0.7 * (k % 5) for k, e in enumerate(_WEIGHTED.edges)}),
    "zero_coupling": _dilution_start(2, 12),
    "sparse_ids": Graph(vertices=(2, 5, 7, 11, 13, 20, 31),
                        edges=((2, 5), (2, 13), (5, 7), (5, 31), (7, 20), (11, 13),
                               (11, 20), (13, 31)),
                        couplings=(1.0, 0.5, 2.0, 0.25, 0.0, 1.5, 0.3, 0.75)),
    "edgeless": Graph(vertices=(0, 3, 4), edges=(), couplings=()),
}


@pytest.mark.parametrize("name", list(_ORACLE_GRAPHS))
def test_builders_match_the_coo_assembly(name):
    # every array, dtype and the canonical flag of H and S^- equal those of
    # the COO + mirror + CSR-sum assembly, on every sector that fits 50000
    g = _ORACLE_GRAPHS[name]
    V = g.vertex_count
    for n in range(V + 1):
        if max(math.comb(V, n), math.comb(V, n - 1) if n else 1) > 50000:
            continue
        _assert_same_csr(hamiltonian_magnon(g, n), coo_hamiltonian(g, n))
        if n:
            _assert_same_csr(lowering_matrix(g, n), coo_lowering(V, n))
    if name == "zero_coupling":
        assert 0.0 in g.couplings and np.all(hamiltonian_magnon(g, 2).data != 0)


def _assert_canonical_csr(op):
    """A CSR matrix with strictly ascending column indices in every row and
    no stored zero."""
    assert isinstance(op, sp.csr_matrix)
    assert op.has_canonical_format
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    assert np.all(np.diff(rows * op.shape[1] + op.indices) > 0)
    assert np.all(op.data != 0)


@pytest.mark.parametrize(
    "g", [make_path(7), make_ring(6), make_lambda(2, 9), _dilution_start(2, 9)],
    ids=["path7", "ring6", "lambda2_9", "lambda2_9_diluted"])
def test_builders_return_canonical_csr(g):
    V = g.vertex_count
    for n in range(V + 1):
        for build in (hamiltonian_magnon, casimir_magnon):
            op = build(g, n)
            _assert_canonical_csr(op)
            assert op.shape == (math.comb(V, n),) * 2
            assert (op != op.T).nnz == 0
        if n:
            _assert_canonical_csr(lowering_matrix(g, n))
    for n in (1, 2):
        op = free_laplacian(g, n)
        _assert_canonical_csr(op)
        assert (op != op.T).nnz == 0
    zero = hamiltonian_magnon(g, 0)
    _assert_canonical_csr(zero)
    assert zero.shape == (1, 1) and zero.nnz == 0


def _traced_build(build, g, n):
    tracemalloc.start()
    try:
        op = build(g, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return op, peak, op.data.nbytes + op.indices.nbytes + op.indptr.nbytes


def test_hamiltonian_build_peak_is_a_few_times_its_csr():
    # the sectors of `heis spinwave --N 64` with three modes: dim 41664.  The
    # build holds the (V, C(V, n-1)) int64 table `into` and fills the CSR
    # arrays in place; a COO assembly with a mirrored copy peaks at 4x the CSR
    g = make_lambda(2, 64)
    H, peak, csr = _traced_build(hamiltonian_magnon, g, 3)
    into = 8 * g.vertex_count * math.comb(g.vertex_count, 2)
    assert peak < 2 * csr + into


def test_lowering_build_peak_is_near_its_csr():
    # every row has n entries, filled in place: no COO copy of the entries;
    # path18 at n = 9 (dim 48620) is the largest S^- of the CI runs
    for g, n in ((make_lambda(2, 64), 3), (make_path(18), 9)):
        _, peak, csr = _traced_build(lowering_matrix, g, n)
        assert peak < 1.5 * csr, (g.vertex_count, n, peak / csr)


def test_sector_budget_fails_fast():
    assert math.comb(20, 10) <= SECTOR_BUDGET
    g = make_path(40)
    for build in (hamiltonian_magnon, lowering_matrix, casimir_magnon):
        with pytest.raises(SizeBudgetError):
            build(g, 20)
    with pytest.raises(SizeBudgetError):
        MagnonBasis(40, 20).array()
    # C(22, 15) is inside the budget and C(22, 14) is not
    for build in (hamiltonian_magnon, lowering_matrix):
        with pytest.raises(SizeBudgetError, match=r"C\(22,14\)"):
            build(make_path(22), 15)


@given(st.integers(0, 10), st.integers(0, 10))
def test_product_state_matches_the_basis_rows(V, n):
    if n > V:
        return
    phi = np.arange(1.0, V + 1.0) * (-1.0) ** np.arange(V)
    rows = MagnonBasis(V, n).array()
    assert np.array_equal(product_state(np.tile(phi[:, None], (1, n))),
                          np.prod(phi[rows], axis=1))
    # slot k of X = {c_0 < ... < c_{n-1}} reads column k
    cols = np.arange(1.0, V * n + 1.0).reshape(V, n) % 7 - 3
    assert np.array_equal(product_state(cols), np.prod(cols[rows, np.arange(n)], axis=1))


def test_product_state_budget():
    with pytest.raises(SizeBudgetError):
        product_state(np.ones((40, 20)))
    with pytest.raises(ValueError, match="out of range"):
        product_state(np.ones((3, 4)))


def test_hamiltonian_above_equator_checks_the_lower_sector_budget():
    # C(25, 19) fits the budget but C(25, 18), the sector its hops pass
    # through, does not: the build fails before any sector-sized allocation
    assert math.comb(25, 19) <= SECTOR_BUDGET < math.comb(25, 18)
    g = make_path(25)
    tracemalloc.start()
    try:
        with pytest.raises(SizeBudgetError):
            hamiltonian_magnon(g, 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hamiltonian_on_long_path_allocates_no_vertex_by_sector_table():
    # at n = 1 the sector is the vertex set: a (V, dim) table would be V^2
    # entries, 36 MB of bytes at V = 6000, for 3V - 2 stored entries
    V = 6000
    g = make_path(V)
    tracemalloc.start()
    try:
        H = hamiltonian_magnon(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20
    # the path Laplacian: diagonal 1/2 at the ends and 1 inside, hops -1/2
    assert H.nnz == 3 * V - 2
    assert np.array_equal(H.diagonal(), np.r_[0.5, np.ones(V - 2), 0.5])
    upper = sp.triu(H, k=1).tocoo()
    assert np.array_equal(upper.row, np.arange(V - 1))
    assert np.array_equal(upper.col, np.arange(1, V))
    assert np.all(upper.data == -0.5)
    assert (H != H.T).nnz == 0


def test_hamiltonian_sign_structure():
    op = hamiltonian_magnon(make_lambda(2, 7), 3).tocoo()
    diag = op.row == op.col
    assert np.all(op.data[diag] >= 0)
    assert np.all(op.data[~diag] <= 0)


def test_hamiltonian_bad_sector():
    with pytest.raises(ValueError, match="out of range"):
        hamiltonian_magnon(make_box(1, 3), 4)
    for n in (0, 5):
        with pytest.raises(ValueError, match="out of range"):
            lowering_matrix(make_path(4), n)


def test_edge_monotonicity_psd():
    # adding an edge or increasing a coupling only raises the Hamiltonian
    g = make_path(5)
    ring = make_ring(5)  # path + closing edge
    for n in range(1, 3):
        a = hamiltonian_magnon(g, n).toarray()
        b = hamiltonian_magnon(ring, n).toarray()
        assert np.linalg.eigvalsh(b - a)[0] >= -1e-10
    stronger = g.with_couplings({e: (2.0 if e == (1, 2) else 1.0) for e in g.edges})
    for n in range(1, 3):
        a = hamiltonian_magnon(g, n).toarray()
        b = hamiltonian_magnon(stronger, n).toarray()
        assert np.linalg.eigvalsh(b - a)[0] >= -1e-10


# ---------------------------------------------------------------- lowering

def test_lowering_two_site():
    low = lowering_matrix(make_box(1, 2), 1).toarray()
    assert np.array_equal(low, [[1.0], [1.0]])


def test_lowering_matches_product_space_oracle():
    g = make_box(1, 5)
    _, sm = product_spin_ops(5)
    for n in range(1, 6):
        got = lowering_matrix(g, n).toarray()
        want = sm[np.ix_(sector_masks(5, n), sector_masks(5, n - 1))]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("V,n", [(6, 1), (6, 2), (6, 3), (7, 3)])
def test_lowering_full_rank_below_equator(V, n):
    low = lowering_matrix(make_path(V), n).toarray()
    assert np.linalg.matrix_rank(low, tol=1e-10) == math.comb(V, n - 1)


def test_commutation_on_sectors():
    # S+S- - S-S+ = 2M on mag(n)
    V = 6
    g = make_path(V)
    for n in range(0, 3):
        up = lowering_matrix(g, n + 1)
        comm = (up.T @ up).toarray()
        if n > 0:
            down = lowering_matrix(g, n)
            comm -= (down @ down.T).toarray()
        M = V / 2 - n
        assert np.max(np.abs(comm - 2 * M * np.eye(math.comb(V, n)))) < 1e-12


def test_hamiltonian_commutes_with_lowering():
    for g in (make_path(6), make_box(2, 2), make_ring(5)):
        V = g.vertex_count
        for n in range(1, V + 1):
            Hn = hamiltonian_magnon(g, n)
            Hm = hamiltonian_magnon(g, n - 1)
            low = lowering_matrix(g, n)
            assert abs(Hn @ low - low @ Hm).max() <= 1e-10


# ---------------------------------------------------------------- casimir

def test_casimir_two_site():
    C = casimir_magnon(make_box(1, 2), 1).toarray()
    assert np.allclose(sorted(np.linalg.eigvalsh(C)), [0.0, 2.0], atol=1e-12)


def test_casimir_top_sector():
    C = casimir_magnon(make_box(1, 4), 0).toarray()
    s = 2.0
    assert np.allclose(C, [[s * (s + 1)]])


def test_casimir_multiplicities_four_site():
    C = casimir_magnon(make_box(1, 4), 2).toarray()
    vals = np.round(np.linalg.eigvalsh(C), 9)
    counts = {v: int(np.sum(vals == v)) for v in np.unique(vals)}
    assert counts == {0.0: 2, 2.0: 3, 6.0: 1}


def test_casimir_matches_product_space_oracle():
    g = make_ring(5)
    C_full = product_casimir(5)
    for n in range(6):
        got = casimir_magnon(g, n).toarray()
        want = project_sector(C_full, 5, n)
        assert np.max(np.abs(got - want)) < 1e-11


def test_casimir_commutes_with_hamiltonian():
    for g in (make_path(7), make_lambda(2, 6)):
        for n in range(g.vertex_count + 1):
            H = hamiltonian_magnon(g, n)
            C = casimir_magnon(g, n)
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
        low = lowering_matrix(g, n).toarray()
        assert np.max(np.abs(basis.T @ low)) < 1e-10
        assert basis.shape[1] == math.comb(6, n) - math.comb(6, n - 1)


def test_highest_weight_basis_dense_budget(monkeypatch):
    # path18 at n = 9: a dense (48620, 4862) matrix, 1.9 GB, refused first
    start = time.perf_counter()
    with pytest.raises(SizeBudgetError, match="dense budget"):
        highest_weight_basis(make_path(18), 9)
    assert time.perf_counter() - start < 1.0
    # the valence-bond basis checks its own budget: highest-weight dims 16796
    # (n = 10 of 20) and 4862 (n = 9 of 18) would be 17.2M and 2.5M entries,
    # and highest_weight_levels builds it before the sector Hamiltonian
    g = make_path(20)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        for build in (lambda: valence_bond_basis(20, 10), lambda: valence_bond_basis(18, 9),
                      lambda: highest_weight_levels(g, 10)):
            with pytest.raises(SizeBudgetError, match="dense budget"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 5 << 20
    # the largest basis inside the budget: highest-weight dim 3432 at n = 7 of 16
    assert valence_bond_basis(16, 7).nnz == 3432 << 7
    # box 3x3 at n = 4 has highest-weight dim 42
    monkeypatch.setattr(heis.sector, "DENSE_BUDGET", 41)
    with pytest.raises(SizeBudgetError):
        highest_weight_basis(make_box(2, 3), 4)
    monkeypatch.setattr(heis.sector, "DENSE_BUDGET", 42)
    assert highest_weight_basis(make_box(2, 3), 4).shape == (126, 42)


def test_highest_weight_above_equator_warns():
    with pytest.warns(UserWarning):
        basis = highest_weight_basis(make_path(4), 3)
    assert basis.shape == (4, 0)


def test_highest_weight_projector_exact():
    for g, n in ((make_path(8), 3), (make_ring(7), 2), (make_lambda(2, 7), 2)):
        V = g.vertex_count
        project = highest_weight_projector(g, n)
        P = project(np.eye(math.comb(V, n)))
        H = hamiltonian_magnon(g, n).toarray()
        low = lowering_matrix(g, n).toarray()
        assert np.max(np.abs(P @ P - P)) <= 1e-12
        assert np.max(np.abs(project(low))) <= 1e-12
        assert np.linalg.matrix_rank(P, tol=1e-8) == math.comb(V, n) - math.comb(V, n - 1)
        assert np.linalg.norm(H @ P - P @ H, 2) <= 1e-12
        # the same projector as the one built from the QR basis
        basis = highest_weight_basis(g, n)
        assert np.max(np.abs(P - basis @ basis.T)) <= 1e-12


@pytest.mark.parametrize("g", [make_path(10), make_ring(10), make_lambda(2, 11)],
                         ids=["path10", "ring10", "lambda2_11"])
def test_highest_weight_projector_matches_valence_bond_oracle(g):
    V = g.vertex_count
    for n in range(1, V // 2 + 1):
        # QQ^T from a thin QR of the Rumer basis shares no code with the sweep
        q = np.linalg.qr(valence_bond_basis(V, n).toarray())[0]
        P = highest_weight_projector(g, n)(np.eye(math.comb(V, n)))
        assert np.max(np.abs(P - q @ q.T)) <= 1e-12
    for n in (0, V // 2 + 1):
        with pytest.raises(ValueError):
            highest_weight_projector(g, n)


def test_highest_weight_projector_takes_a_lowering_chain():
    g = make_lambda(2, 10)
    chain = lowering_chain(g, 5)
    assert [low.shape for low in chain] == [
        (math.comb(10, k), math.comb(10, k - 1)) for k in range(1, 6)]
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        x = rng.standard_normal(math.comb(10, n))
        shared = highest_weight_projector(g, n, lowering=chain)(x)
        assert np.array_equal(shared, highest_weight_projector(g, n)(x))
    with pytest.raises(ValueError):
        highest_weight_projector(g, 5, lowering=chain[:4])
    with pytest.raises(ValueError):
        highest_weight_projector(make_path(11), 3, lowering=chain)


@pytest.mark.parametrize("V", [14, 16])
def test_highest_weight_projector_at_equator(V):
    # n = V/2 is the worst-conditioned level: the sweep runs through every
    # sector below it
    g, n = make_path(V), V // 2
    project = highest_weight_projector(g, n)
    low = lowering_matrix(g, n)
    rng = np.random.default_rng(V)
    x = rng.standard_normal(math.comb(V, n))
    z = rng.standard_normal(math.comb(V, n - 1))
    px = project(x)
    tol = 1e-11 * np.max(np.abs(x))
    assert np.max(np.abs(low.T @ px)) <= tol
    assert np.max(np.abs(project(px) - px)) <= tol
    assert np.max(np.abs(project(low @ z))) <= 1e-11 * np.max(np.abs(z))


@pytest.mark.parametrize("V", range(1, 11))
def test_valence_bond_basis_spans_highest_weight_space(V):
    for n in range(V // 2 + 1):
        B = valence_bond_basis(V, n)
        dim = math.comb(V, n) - (math.comb(V, n - 1) if n else 0)
        assert B.shape == (math.comb(V, n), dim)
        assert np.allclose(B.multiply(B).sum(axis=0), 1.0, rtol=0, atol=1e-14)
        assert np.linalg.matrix_rank(B.toarray()) == dim
        if n:
            raised = lowering_matrix(make_path(V), n).T @ B
            assert np.abs(raised.toarray()).max() <= 1e-14
    assert valence_bond_basis(V, 0).toarray().tolist() == [[1.0]]


def test_valence_bond_basis_pairs_by_ballot_scan():
    # V = 4, n = 2: the ballot down sets {1,3} and {2,3} pair as (0,1)(2,3)
    # and (1,2)(0,3); rows are the colex-ordered 01 02 12 03 13 23
    B = valence_bond_basis(4, 2).toarray()
    assert np.array_equal(2 * B[:, 0], [0, 1, -1, -1, 1, 0])
    assert np.array_equal(2 * B[:, 1], [1, -1, 0, 0, -1, 1])
    with pytest.raises(ValueError):
        valence_bond_basis(4, 3)


def _valence_bond_entries(V, n):
    """Per-column loop: {(row, col): value} of the valence-bond basis.

    A down set is a column when the stack scan finds an open up for every
    down; each down pairs with the nearest open up before it.
    """
    subsets = colex(V, n)
    rank = {frozenset(X): i for i, X in enumerate(subsets)}
    entries, col = {}, 0
    for down in subsets:
        stack, pairs = [], []
        for x in range(V):
            if x not in down:
                stack.append(x)
            elif stack:
                pairs.append((stack.pop(), x))
            else:
                break
        if len(pairs) < n:
            continue
        for on_up in itertools.product((False, True), repeat=n):
            flipped = frozenset(a if up else c for (a, c), up in zip(pairs, on_up))
            entries[rank[flipped], col] = (-1.0) ** sum(on_up) * 2.0 ** (-0.5 * n)
        col += 1
    return entries


@pytest.mark.parametrize("V", range(0, 13))
def test_valence_bond_basis_matches_stack_scan_loop(V):
    for n in range(V // 2 + 1):
        B = valence_bond_basis(V, n).tocoo()
        got = dict(zip(zip(B.row.tolist(), B.col.tolist()), B.data.tolist()))
        assert len(got) == B.nnz
        assert got == _valence_bond_entries(V, n)


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
    one = free_laplacian(g, 1).toarray()
    lap = np.zeros((4, 4))
    for (u, v) in g.edges:
        lap[u, u] += 0.5
        lap[v, v] += 0.5
        lap[u, v] -= 0.5
        lap[v, u] -= 0.5
    assert np.array_equal(one, lap)


def test_free_laplacian_row_sums_zero():
    op = free_laplacian(make_path(2), 2).toarray()
    assert op.shape == (4, 4)
    assert np.allclose(op.sum(axis=1), 0.0, atol=1e-14)


def test_free_laplacian_commutes_with_permutation():
    V, n = 3, 2
    g = make_path(V)
    op = free_laplacian(g, n).toarray()
    perm = np.zeros((9, 9))
    for tup in itertools.product(range(V), repeat=n):
        perm[np.ravel_multi_index(tup[::-1], (V,) * n), np.ravel_multi_index(tup, (V,) * n)] = 1.0
    assert np.max(np.abs(perm.T @ op @ perm - op)) == 0.0


def test_function_space_budget():
    with pytest.raises(SizeBudgetError):
        free_laplacian(make_path(40), 5)


def _dense_lowest_eig(dim):
    with solver_path("dense"):
        return lowest_eig(None, None, dim, seed=0)


@pytest.mark.parametrize("build, size, cap", [
    (lambda: MagnonBasis(40, 20).array(), math.comb(40, 20), SECTOR_BUDGET),
    (lambda: casimir_magnon(make_path(40), 20), math.comb(40, 20), SECTOR_BUDGET),
    (lambda: valence_bond_basis(18, 9), 4862, DENSE_BUDGET),
    (lambda: bose_basis(1, 40, [(k,) for k in range(5)]), 40 ** 5, FUNCTION_SPACE_BUDGET),
    (lambda: free_laplacian(make_path(40), 5), 40 ** 5, FUNCTION_SPACE_BUDGET),
    (lambda: trial_state(1, 20, [(k,) for k in range(1, 11)]),
     math.factorial(10) * math.comb(20, 10), FUNCTION_SPACE_BUDGET),
    (lambda: full_spectrum(sp.csr_matrix((4097, 4097))), 4097, DENSE_BUDGET),
    (lambda: _dense_lowest_eig(4097), 4097, DENSE_BUDGET),
])
def test_budget_messages_name_size_and_cap(build, size, cap):
    with pytest.raises(SizeBudgetError, match=rf" {size} exceeds the [a-z-]+ budget {cap}$"):
        build()


def test_budget_messages_name_huge_sizes_by_bit_length():
    # C(20000, 10000) has 6018 digits, past the 4300 that int-to-str allows
    with pytest.raises(SizeBudgetError,
                       match=r"C\(20000,10000\) = a 19993-bit number exceeds the sector budget"):
        heis.sector.check_sector_budget(20000, 10000)
    with pytest.raises(SizeBudgetError, match=r"a 19053-bit number orderings"):
        trial_state(1, 2000, [(k,) for k in range(2000)])
    # so the level table records the refusal instead of raising a bare ValueError
    energies, errors = _levels(make_ring(20000), 10000, 0, [])
    assert math.isnan(energies[10000])
    assert errors[10000].startswith("SizeBudgetError: sector C(20000,10000) = a 19993-bit")


def _in_deleted_diagonal(tup):
    """A tuple is diagonal when two of its coordinates coincide."""
    return len(set(tup)) < len(tup)


# ---------------------------------------------------------------- contraction

def test_contraction_single_particle_is_identity():
    T = contraction_T_box(1, 3, 1).toarray()
    assert np.array_equal(T, np.eye(3))


def test_contraction_kills_diagonal():
    V, n = 3, 2
    T = contraction_T_box(1, V, n)
    F = np.zeros(V ** n)
    F[np.ravel_multi_index((1, 1), (V,) * n)] = 1.0
    assert np.max(np.abs(T @ F)) == 0.0
    # exactly the diagonal tuples have an empty column
    hit = np.diff(T.tocsc().indptr) > 0
    for tup in itertools.product(range(V), repeat=n):
        assert hit[np.ravel_multi_index(tup, (V,) * n)] != _in_deleted_diagonal(tup)


def test_contraction_isometry_on_symmetric_offdiagonal(rng):
    V, n = 4, 2
    T = contraction_T_box(1, V, n)
    cube = rng.standard_normal((V, V))
    cube = cube + cube.T
    np.fill_diagonal(cube, 0.0)
    F = cube.ravel()
    assert abs(np.linalg.norm(T @ F) - np.linalg.norm(F)) < 1e-12


def test_contraction_nonexpansive_on_anything(rng):
    V, n = 4, 2
    T = contraction_T_box(1, V, n).toarray()
    s = np.linalg.svd(T, compute_uv=False)
    assert s[0] <= 1.0 + 1e-12


def test_contraction_dominates_sector_hamiltonian():
    # T h T* >= H on mag(n)
    for d, g in ((1, make_path(4)), (2, make_box(2, 2))):
        for n in (1, 2):
            T = contraction_T_box(d, 4, n)
            h = free_laplacian(g, n)
            H = hamiltonian_magnon(g, n).toarray()
            diff = (T @ h @ T.T).toarray() - H
            assert np.linalg.eigvalsh(diff)[0] >= -1e-10


def test_contraction_box_restricts_to_lattice_points():
    # tuples touching the box corner outside the 8-point lattice graph act as zero
    T = contraction_T_box(2, 8, 1).toarray()
    assert T.shape == (8, 9)
    corner = np.zeros(9)
    corner[8] = 1.0  # point (3,3), lexicographically last in the box
    assert np.max(np.abs(T @ corner)) == 0.0


def _contraction_reference(ids, size, n):
    """Per-tuple loop: every ordering of every n-subset of sector vertices,
    each at the row-major index of its function-space coordinates."""
    V = len(ids)
    T = np.zeros((math.comb(V, n), size ** n))
    for subset in itertools.combinations(range(V), n):
        for perm in itertools.permutations(subset):
            col = 0
            for v in perm:
                col = col * size + ids[v]
            T[colex_rank(subset), col] = math.sqrt(1.0 / math.factorial(n))
    return T


@pytest.mark.parametrize("g, n", [(make_path(5), 2), (make_path(6), 3)])
def test_contraction_matches_reference_loop(g, n):
    # on a path (d = 1) the box is the graph itself: identity coordinates
    V = g.vertex_count
    assert np.array_equal(contraction_T_box(1, V, n).toarray(),
                          _contraction_reference(range(V), V, n))


@pytest.mark.parametrize("d, N, n", [
    (1, 4, 2), (1, 6, 2), (2, 8, 1), (2, 8, 2), (2, 9, 2), (2, 12, 2),
    (2, 16, 3), (3, 27, 2), (1, 8, 3),
])
def test_contraction_box_matches_reference_loop(d, N, n):
    box = make_box(d, lambda_spec(d, N).L_plus)
    box_pos = {p: i for i, p in enumerate(box.points)}
    ids = [box_pos[p] for p in make_lambda(d, N).points]
    T = contraction_T_box(d, N, n)
    _assert_canonical_csr(T)
    assert np.array_equal(T.toarray(), _contraction_reference(ids, box.vertex_count, n))


def test_contraction_zero_particles_is_unit():
    _assert_canonical_csr(contraction_T_box(1, 3, 0))
    assert np.array_equal(contraction_T_box(1, 3, 0).toarray(), [[1.0]])
    assert np.array_equal(contraction_T_box(2, 8, 0).toarray(), [[1.0]])


def test_lower_function_scalar_intertwines_with_contraction():
    g = make_path(4)
    lhs = contraction_T_box(1, 4, 1) @ lower_function(np.float64(2.5), 4)
    rhs = lowering_matrix(g, 1) @ (contraction_T_box(1, 4, 0) @ [2.5])
    assert np.array_equal(lhs, rhs)


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
    Tn = contraction_T_box(1, V, n)
    Tn1 = contraction_T_box(1, V, n + 1)
    low = lowering_matrix(g, n + 1)
    lhs = Tn1 @ lower_function(F, V).ravel()
    # with orthonormal flipped states the function-space lowering carries
    # an extra sqrt(n+1) relative to the sector lowering operator
    rhs = math.sqrt(n + 1) * (low @ (Tn @ F.ravel()))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------- assembled

def _sector_union(g):
    """Ascending union of the spectra of mag(0), ..., mag(V)."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(hamiltonian_magnon(g, n).toarray())
                                   for n in range(g.vertex_count + 1)]))


def test_assembled_two_site_spectrum():
    g = make_box(1, 2)
    assert np.allclose(_sector_union(g), [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(_sector_union(g), np.linalg.eigvalsh(product_hamiltonian(g)),
                       atol=1e-12)


def test_assembled_dimension():
    g = make_path(5)
    assert sum(hamiltonian_magnon(g, n).shape[0] for n in range(6)) == 32
    assert np.allclose(_sector_union(g), np.linalg.eigvalsh(product_hamiltonian(g)),
                       atol=1e-12)
