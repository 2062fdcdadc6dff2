import math

import numpy as np
import pytest
import scipy.linalg

from heis.errors import LabelingError, SizeBudgetError
from heis.graph import make_box, make_lambda, make_path, make_ring
from heis.sector import (
    SparseSymOp,
    assemble_full,
    hamiltonian_magnon,
    lowering_matrix,
)
from heis.eigen import (
    DENSE_BUDGET,
    full_spectrum,
    label_spins,
    min_eig,
    spectral_count,
)


def test_full_spectrum_grid():
    eig = full_spectrum(hamiltonian_magnon(make_box(2, 3), 1))
    expected = [0.0, 0.5, 0.5, 1.0, 1.5, 1.5, 2.0, 2.0, 3.0]
    assert np.allclose(eig.values, expected, atol=1e-10)
    assert eig.method == "dense"
    assert np.all(np.diff(eig.values) >= 0)


def test_full_spectrum_residuals_small():
    op = hamiltonian_magnon(make_lambda(2, 7), 3)
    eig = full_spectrum(op)
    assert np.max(eig.residual_norms) <= 1e-10 * max(1.0, op.norm_inf())


def test_full_spectrum_trivial():
    eig = full_spectrum(SparseSymOp.zero(1))
    assert np.array_equal(eig.values, [0.0])


def test_full_spectrum_budget():
    big = SparseSymOp.zero(DENSE_BUDGET + 1)
    with pytest.raises(SizeBudgetError):
        full_spectrum(big)


def test_full_spectrum_assembled_two_site():
    eig = full_spectrum(assemble_full(make_box(1, 2)))
    assert np.allclose(eig.values, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_min_eig_zero_operator():
    val, vec = min_eig(SparseSymOp.zero(5), method="krylov", seed=1)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_min_eig_two_site_deflated():
    g = make_box(1, 2)
    H = hamiltonian_magnon(g, 1)
    ground = np.array([[1.0], [1.0]]) / math.sqrt(2)  # lowered all-up state
    for method in ("dense", "krylov"):
        val, vec = min_eig(H, deflate=ground, method=method)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert abs(ground[:, 0] @ vec) < 1e-8


def test_min_eig_path8_deflated_closed_form():
    g = make_path(8)
    H = hamiltonian_magnon(g, 1)
    rng_basis = scipy.linalg.orth(lowering_matrix(g, 1).to_dense())
    expected = 1 - math.cos(math.pi / 8)  # 2 sin^2(pi/2L)
    for method in ("dense", "krylov"):
        val, _ = min_eig(H, deflate=rng_basis, method=method)
        assert val == pytest.approx(expected, abs=1e-9)


def test_min_eig_dense_krylov_agree():
    for g in (make_path(9), make_ring(6), make_lambda(2, 7)):
        for n in (1, 2):
            H = hamiltonian_magnon(g, n)
            vd, _ = min_eig(H, method="dense")
            vk, _ = min_eig(H, method="krylov", tol=1e-11)
            assert abs(vd - vk) < 1e-8


def test_min_eig_seed_determinism():
    H = hamiltonian_magnon(make_path(7), 2)
    a = min_eig(H, method="krylov", seed=3)
    b = min_eig(H, method="krylov", seed=3)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_min_eig_rejects_sloppy_deflation():
    H = hamiltonian_magnon(make_path(4), 1)
    bad = np.ones((4, 1))  # not unit norm
    with pytest.raises(ValueError):
        min_eig(H, deflate=bad)


def test_min_eig_permutation_invariance(rng):
    H = hamiltonian_magnon(make_ring(7), 2).to_dense()
    perm = rng.permutation(H.shape[0])
    val, _ = min_eig(H)
    val_p, _ = min_eig(H[np.ix_(perm, perm)])
    assert val == pytest.approx(val_p, abs=1e-12)


def test_spectral_count_basic():
    H2 = hamiltonian_magnon(make_box(1, 2), 1)
    assert spectral_count(H2, 0.5) == 1
    H9 = hamiltonian_magnon(make_box(2, 3), 1)
    assert spectral_count(H9, 1.6) == 6
    assert spectral_count(H9, -0.5) == 0


def test_spectral_count_monotone_in_energy_and_sector():
    g = make_path(6)
    ops = {n: hamiltonian_magnon(g, n) for n in (1, 2, 3)}
    grid = np.linspace(0, 4, 17)
    for n in (2, 3):
        prev = None
        for E in grid:
            c = spectral_count(ops[n], E)
            assert c >= spectral_count(ops[n - 1], E)
            if prev is not None:
                assert c >= prev
            prev = c


def test_spectral_count_requires_psd():
    neg = SparseSymOp.from_scipy(np.diag([-1.0, 1.0]), symmetric=True)
    with pytest.raises(ValueError):
        spectral_count(neg, 1.0)


def test_label_spins_two_site():
    g = make_box(1, 2)
    labeled = label_spins(g, 1, full_spectrum(hamiltonian_magnon(g, 1)))
    assert [(e.energy, e.n_prime) for e in labeled.entries] == [(0.0, 0), (1.0, 1)]


def test_label_spins_highest_weight_count():
    # exactly C(V,n)-C(V,n-1) vectors labeled n' = n in mag(n)
    for g, sectors in ((make_path(8), (1, 2, 3, 4)), (make_box(2, 3), (1, 2))):
        V = g.vertex_count
        for n in sectors:
            labeled = label_spins(g, n, full_spectrum(hamiltonian_magnon(g, n)))
            count = sum(e.multiplicity for e in labeled.entries if e.n_prime == n)
            assert count == math.comb(V, n) - math.comb(V, n - 1)


def test_label_spins_casimir_accuracy():
    from heis.sector import casimir_magnon
    g = make_lambda(2, 6)
    n = 2
    labeled = label_spins(g, n, full_spectrum(hamiltonian_magnon(g, n)))
    C = casimir_magnon(g, n).to_csr()
    V = g.vertex_count
    for k in range(labeled.vectors.shape[1]):
        v = labeled.vectors[:, k]
        s = 0.5 * V - labeled.labels[k]
        assert np.linalg.norm(C @ v - s * (s + 1) * v) <= 1e-8


def test_label_spins_rejects_bad_casimir():
    # an operator that is not a Casimir projected from spin structure
    g = make_box(1, 2)
    eig = full_spectrum(hamiltonian_magnon(g, 1))
    with pytest.raises(LabelingError):
        from heis.eigen import _spin_from_casimir
        _spin_from_casimir(1.2345, 2)
    assert label_spins(g, 1, eig)  # sane input still labels fine


def test_kernel_dimension_connected_graphs(rng):
    # kernel of the assembled Hamiltonian = one multiplet of dimension V+1
    graphs = [make_path(5), make_box(2, 2), make_lambda(2, 6)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]
    from heis.graph import Graph
    graphs.append(Graph(tuple(range(5)), tuple(sorted(edges)),
                        (1.0,) * len(edges)))
    for g in graphs:
        V = g.vertex_count
        kernel = 0
        for n in range(V + 1):
            vals = full_spectrum(hamiltonian_magnon(g, n), with_vectors=False).values
            kernel += int(np.sum(vals <= 1e-10))
        assert kernel == V + 1


def test_lowest_n_labeled_energy_is_energy_level():
    from heis.foel import energy_level
    g = make_path(8)
    n = 4
    labeled = label_spins(g, n, full_spectrum(hamiltonian_magnon(g, n)))
    lowest = min(labeled.energies_with_label(n))
    assert lowest == pytest.approx(energy_level(g, n), abs=1e-10)
    # the figure lists 0.7350 at doubled scale
    assert 2 * lowest == pytest.approx(0.7350, abs=1e-3)
