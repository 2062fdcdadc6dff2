import contextlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import heis.eigen
import heis.sector
from heis.errors import LabelingError, NumericalError, SizeBudgetError
from heis.graph import Graph, make_box, make_lambda, make_path, make_ring
from heis.sector import (
    DENSE_BUDGET,
    hamiltonian_magnon,
    lowering_matrix,
    valence_bond_basis,
)
from heis.eigen import (
    DEGENERACY_TOL,
    DENSE_CUTOFF,
    KRYLOV_TOL,
    EigResult,
    _spin_entries,
    degenerate_runs,
    full_spectrum,
    label_spins,
    labeled_spectra,
    lowest_eig,
    min_eig,
)
from conftest import (
    product_casimir,
    product_hamiltonian,
    project_sector,
    solver_path,
    spectral_count,
    spin_entries_loop,
)


def test_full_spectrum_grid():
    eig = full_spectrum(hamiltonian_magnon(make_box(2, 3), 1))
    expected = [0.0, 0.5, 0.5, 1.0, 1.5, 1.5, 2.0, 2.0, 3.0]
    assert np.allclose(eig.values, expected, atol=1e-10)
    assert np.all(np.diff(eig.values) >= 0)


def test_full_spectrum_residuals_small():
    op = hamiltonian_magnon(make_lambda(2, 7), 3)
    eig = full_spectrum(op)
    assert np.max(eig.residual_norms) <= 1e-10 * max(1.0, abs(op).sum(axis=1).max())


def test_full_spectrum_trivial():
    eig = full_spectrum(scipy.sparse.csr_matrix((1, 1)))
    assert np.array_equal(eig.values, [0.0])


def test_full_spectrum_budget():
    big = scipy.sparse.csr_matrix((DENSE_BUDGET + 1, DENSE_BUDGET + 1))
    with pytest.raises(SizeBudgetError):
        full_spectrum(big)


def test_full_spectrum_assembled_two_site():
    g = make_box(1, 2)
    union = np.sort(np.concatenate([full_spectrum(hamiltonian_magnon(g, n)).values
                                    for n in range(3)]))
    assert np.allclose(union, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(union, np.linalg.eigvalsh(product_hamiltonian(g)), atol=1e-12)


def test_min_eig_zero_operator():
    with solver_path("krylov"):
        val, vec = min_eig(scipy.sparse.csr_matrix((5, 5)), seed=1)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_min_eig_two_site_deflated():
    g = make_box(1, 2)
    H = hamiltonian_magnon(g, 1)
    ground = np.array([[1.0], [1.0]]) / math.sqrt(2)  # lowered all-up state
    for path in ("dense", "krylov"):
        with solver_path(path):
            val, vec = min_eig(H, deflate=ground)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert abs(ground[:, 0] @ vec) < 1e-8


def test_min_eig_path8_deflated_closed_form():
    g = make_path(8)
    H = hamiltonian_magnon(g, 1)
    rng_basis = scipy.linalg.orth(lowering_matrix(g, 1).toarray())
    expected = 1 - math.cos(math.pi / 8)  # 2 sin^2(pi/2L)
    for path in ("dense", "krylov"):
        with solver_path(path):
            val, _ = min_eig(H, deflate=rng_basis)
        assert val == pytest.approx(expected, abs=1e-9)


def test_min_eig_dense_krylov_agree():
    for g in (make_path(9), make_ring(6), make_lambda(2, 7)):
        for n in (1, 2):
            H = hamiltonian_magnon(g, n)
            with solver_path("dense"):
                vd, _ = min_eig(H)
            with solver_path("krylov"):
                vk, _ = min_eig(H)
            assert abs(vd - vk) < 1e-8


def test_min_eig_seed_determinism():
    H = hamiltonian_magnon(make_path(7), 2)
    with solver_path("krylov"):
        a = min_eig(H, seed=3)
        b = min_eig(H, seed=3)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_min_eig_rejects_sloppy_deflation():
    H = hamiltonian_magnon(make_path(4), 1)
    bad = np.ones((4, 1))  # not unit norm
    with pytest.raises(ValueError):
        min_eig(H, deflate=bad)


@pytest.mark.parametrize("deflate", [np.ones(4) / 2, np.eye(5)[:, :1]])
def test_min_eig_rejects_misshapen_deflation(deflate):
    with pytest.raises(ValueError, match="deflation"):
        min_eig(hamiltonian_magnon(make_path(4), 1), deflate=deflate)


@pytest.mark.parametrize("path", ["dense", "krylov"])
def test_min_eig_rejects_full_deflation(path):
    with solver_path(path), pytest.raises(ValueError, match="whole operator domain"):
        min_eig(np.diag([1.0, 2.0, 3.0]), deflate=np.eye(3))


@pytest.mark.parametrize("path", [pytest.param(None, id="auto"), "dense", "krylov"])
def test_empty_operator_is_a_value_error(path):
    def unreachable(x):
        raise AssertionError("called on an empty space")
    with solver_path(path) if path else contextlib.nullcontext():
        with pytest.raises(ValueError, match="dimension 0"):
            min_eig(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="dimension 0"):
            lowest_eig(unreachable, unreachable, 0, 0, start=unreachable)


def test_min_eig_dense_budget():
    # the budget check comes before the dense matrix is built
    with solver_path("dense"), pytest.raises(SizeBudgetError):
        min_eig(scipy.sparse.csr_matrix((DENSE_BUDGET + 1, DENSE_BUDGET + 1)))


def test_min_eig_permutation_invariance(rng):
    H = hamiltonian_magnon(make_ring(7), 2).toarray()
    perm = rng.permutation(H.shape[0])
    val, _ = min_eig(H)
    val_p, _ = min_eig(H[np.ix_(perm, perm)])
    assert val == pytest.approx(val_p, abs=1e-12)


@pytest.mark.parametrize("path", ["dense", "krylov"])
def test_lowest_eig_returns_a_deterministic_pair(path):
    # both paths return the eigenvector, and the seeded lift makes a repeat
    # with the same seed return the same pair
    H = hamiltonian_magnon(make_lambda(2, 9), 2)
    apply, project = (lambda x: H @ x), (lambda x: x)
    with solver_path(path):
        value, vec = lowest_eig(apply, project, H.shape[0], 0)
        again, same = lowest_eig(apply, project, H.shape[0], 0)
    assert again == value
    assert np.array_equal(same, vec)
    assert np.linalg.norm(H @ vec - value * vec) < 1e-8


def test_lowest_eig_start_falls_back_to_the_seeded_random_vector():
    # project() annihilates the constant start, so ARPACK starts from the
    # same seeded random vector as with no start at all
    H = hamiltonian_magnon(make_lambda(2, 9), 2)
    dim = H.shape[0]
    apply, project = (lambda x: H @ x), (lambda x: x - x.mean())
    with solver_path("krylov"):
        plain = lowest_eig(apply, project, dim, 3)
        started = lowest_eig(apply, project, dim, 3, start=lambda: np.ones(dim))
    assert started[0] == plain[0]
    assert np.array_equal(started[1], plain[1])


def test_lowest_eig_start_mixes_in_the_random_vector():
    # the diagonal operator keeps the start's support, so a Krylov space
    # grown from the start alone never meets the lowest state, at index 0;
    # the projected random part reaches it
    d = np.arange(1.0, 301.0)
    value, vec = lowest_eig((lambda x: d * x), (lambda x: x), len(d), 0,
                            start=lambda: np.r_[np.zeros(150), np.ones(150)])
    assert value == pytest.approx(1.0, abs=1e-10)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("path", ["dense", "krylov"])
def test_lowest_eig_lifts_the_complement_above_the_level(path):
    # apply is 0 on the complement of the range: lifted to c, every state
    # there sits above the range's lowest value 5
    d = np.r_[np.zeros(150), np.arange(5.0, 155.0)]
    keep = (d > 0).astype(float)
    with solver_path(path):
        value, vec = lowest_eig((lambda x: (d * x.T).T), (lambda x: (keep * x.T).T), len(d), 0)
    assert value == pytest.approx(5.0, abs=1e-10)
    assert abs(vec[150]) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dim, arpack_calls", [(1, 0), (DENSE_CUTOFF, 0), (DENSE_CUTOFF + 1, 1)])
def test_size_alone_picks_the_solver_path(monkeypatch, dim, arpack_calls):
    # dense up to DENSE_CUTOFF (and at dim 1), one ARPACK solve at KRYLOV_TOL above
    calls, arpack = [], heis.eigen.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs["tol"])
        return arpack(*args, **kwargs)
    monkeypatch.setattr(heis.eigen, "eigsh", counted)
    d = np.arange(1.0, dim + 1.0)
    value, vec = lowest_eig((lambda x: (d * x.T).T), (lambda x: x), dim, 0)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-8)
    assert calls == [KRYLOV_TOL] * arpack_calls


def test_lowest_eig_builds_the_start_on_the_krylov_path_only():
    H = hamiltonian_magnon(make_lambda(2, 9), 2)
    built = []

    def start():
        built.append(True)
        return np.arange(H.shape[0], dtype=float)
    for path in ("dense", "krylov"):
        with solver_path(path):
            lowest_eig((lambda x: H @ x), (lambda x: x), H.shape[0], 0, start=start)
        assert len(built) == (path == "krylov")


def test_spectral_count_basic():
    H2 = hamiltonian_magnon(make_box(1, 2), 1).toarray()
    assert spectral_count(H2, 0.5) == 1
    H9 = hamiltonian_magnon(make_box(2, 3), 1).toarray()
    assert spectral_count(H9, 1.6) == 6
    assert spectral_count(H9, -0.5) == 0


def test_spectral_count_monotone_in_energy_and_sector():
    g = make_path(6)
    ops = {n: hamiltonian_magnon(g, n).toarray() for n in (1, 2, 3)}
    grid = np.linspace(0, 4, 17)
    for n in (2, 3):
        prev = None
        for E in grid:
            c = spectral_count(ops[n], E)
            assert c >= spectral_count(ops[n - 1], E)
            if prev is not None:
                assert c >= prev
            prev = c


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


def test_label_spins_ring_multiplet_counts():
    # rings have +-k degeneracies that mix spins inside one energy group;
    # mag(n) holds C(V,n') - C(V,n'-1) states of every n' <= min(n, V - n)
    for g in (make_ring(8), make_ring(10)):
        V = g.vertex_count
        for n in range(V + 1):
            labeled = label_spins(g, n, full_spectrum(hamiltonian_magnon(g, n)))
            counts = {}
            for e in labeled.entries:
                counts[e.n_prime] = counts.get(e.n_prime, 0) + e.multiplicity
            expected = {m: math.comb(V, m) - (math.comb(V, m - 1) if m else 0)
                        for m in range(min(n, V - n) + 1)}
            assert counts == expected


def test_clustered_spectrum_grouping():
    # gaps of 0.6e-8 chain into one group of three, though its ends are
    # 1.2e-8 apart; degenerate_runs and label_spins must group alike
    g = make_path(4)
    vectors = full_spectrum(hamiltonian_magnon(g, 1)).vectors
    eig = EigResult(values=np.array([0.0, 0.6e-8, 1.2e-8, 1.0]), vectors=vectors)
    runs = [(float(eig.values[i]), j - i) for i, j in degenerate_runs(eig.values)]
    assert runs == [(0.0, 3), (1.0, 1)]
    labeled = label_spins(g, 1, eig)
    per_energy = {}
    for e in labeled.entries:
        per_energy[e.energy] = per_energy.get(e.energy, 0) + e.multiplicity
    assert list(per_energy.values()) == [m for _, m in runs]
    assert sorted(labeled.labels[:3]) == [0, 1, 1]


def _assert_entries_match_loop(values, labels):
    values, labels = np.asarray(values, dtype=float), np.asarray(labels)
    got = _spin_entries(values, labels)
    want = spin_entries_loop(values, labels, DEGENERACY_TOL)
    assert [(e.n_prime, e.multiplicity) for e in got] == [(lab, c) for _, lab, c in want]
    for e, (energy, _, _) in zip(got, want):
        assert abs(e.energy - energy) <= 4 * np.spacing(abs(energy))
    return got


def test_spin_entries_gap_at_the_tolerance():
    t = DEGENERACY_TOL
    # gaps of exactly t stay in the run (2t - t is exact)
    values = np.array([0.0, t, 2 * t])
    assert np.all(np.diff(values) == t)
    got = _assert_entries_match_loop(values, [1, 0, 1])
    assert [(e.n_prime, e.multiplicity) for e in got] == [(0, 1), (1, 2)]
    assert [e.energy for e in got] == pytest.approx([t, t], rel=1e-15)
    # one ulp above t splits it
    values = np.array([0.0, np.nextafter(t, np.inf)])
    got = _assert_entries_match_loop(values, [1, 1])
    assert [(e.energy, e.multiplicity) for e in got] == [(0.0, 1), (values[1], 1)]


def test_spin_entries_match_the_per_run_loop(rng):
    # runs of length 1 and 12 (np.mean sums 8 or more terms in eight
    # partial sums, another order than the one-pass reduction), labels out
    # of order inside a run
    long_run = 0.7 + 0.5e-9 * np.arange(12)
    values = np.concatenate([[0.1], long_run, [0.9], 1.3 + 1e-9 * np.arange(3)])
    labels = [0, 3, 1, 2, 1, 0, 3, 3, 1, 2, 0, 1, 2, 4, 2, 0, 2]
    got = _assert_entries_match_loop(values, labels)
    assert [(e.n_prime, e.multiplicity) for e in got][:6] == [
        (0, 1), (0, 2), (1, 4), (2, 3), (3, 3), (4, 1)]
    _assert_entries_match_loop([2.5], [3])
    # clustered random spectra: near-degenerate runs amid distinct levels
    for _ in range(20):
        values = np.repeat(rng.uniform(0, 4, 40), rng.integers(1, 12, 40))
        values = np.sort(values + rng.uniform(0, 2e-9, len(values)))
        _assert_entries_match_loop(values, rng.integers(0, 7, len(values)))


def test_label_spins_casimir_accuracy():
    from heis.sector import casimir_magnon
    g = make_lambda(2, 6)
    n = 2
    labeled = label_spins(g, n, full_spectrum(hamiltonian_magnon(g, n)))
    C = casimir_magnon(g, n)
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


# ---------------------------------------------------------------- labeled spectra

def _weighted_graph():
    edges = ((0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5))
    return Graph(tuple(range(6)), edges, (1.0, 0.35, 2.2, 0.8, 1.3, 0.6, 1.9))


def _label_energies(entries, n_prime):
    return [e.energy for e in entries if e.n_prime == n_prime for _ in range(e.multiplicity)]


@pytest.mark.parametrize("g", [make_ring(8), make_ring(12), make_path(10), make_box(2, 3),
                               make_lambda(2, 11), _weighted_graph()])
def test_labeled_spectra_match_label_spins(g):
    V = g.vertex_count
    spectra = labeled_spectra(g, range(V + 1))
    for n in range(V + 1):
        want = label_spins(g, n, full_spectrum(hamiltonian_magnon(g, n))).entries
        got = spectra[n].entries
        assert [(e.n_prime, e.multiplicity) for e in got] == \
            [(e.n_prime, e.multiplicity) for e in want]
        assert np.allclose([e.energy for e in got], [e.energy for e in want],
                           rtol=0, atol=1e-10)


@pytest.mark.parametrize("g", [make_ring(7), make_path(8), make_lambda(2, 7), _weighted_graph()])
def test_labeled_spectra_match_product_space_oracle(g):
    # the spin-deviate-m highest-weight spectrum is H on the Casimir
    # eigenspace s(s+1), s = V/2 - m, of the mag(m) block of the 2^V space
    V = g.vertex_count
    H, C = product_hamiltonian(g), product_casimir(V)
    oracle = []
    for m in range(V // 2 + 1):
        s = 0.5 * V - m
        cvals, cvecs = np.linalg.eigh(project_sector(C, V, m))
        Q = cvecs[:, np.abs(cvals - s * (s + 1)) < 1e-8]
        oracle.append(np.linalg.eigvalsh(Q.T @ project_sector(H, V, m) @ Q))
    spectra = labeled_spectra(g, range(V + 1))
    for n in range(V + 1):
        entries = spectra[n].entries
        assert {e.n_prime for e in entries} == set(range(min(n, V - n) + 1))
        for m in range(min(n, V - n) + 1):
            assert np.allclose(_label_energies(entries, m), oracle[m], rtol=0, atol=1e-10)


def test_labeled_spectra_mirror_sectors_are_equal_and_distinct():
    g = make_ring(8)
    V = g.vertex_count
    spectra = labeled_spectra(g, range(V + 1))
    for n in range(V // 2):
        a, b = spectra[n], spectra[V - n]
        assert a.entries == b.entries
        assert a is not b and a.entries is not b.entries


def test_labeled_spectra_rejects_large_residuals(monkeypatch):
    # a basis that is not H-invariant gives Ritz vectors that are no eigenvectors
    def skewed(V, n):
        B = valence_bond_basis(V, n)
        return B + 0.1 * scipy.sparse.eye(*B.shape)
    monkeypatch.setattr(heis.eigen, "valence_bond_basis", skewed)
    with pytest.raises(NumericalError):
        labeled_spectra(make_path(6), [3])


def test_labeled_spectra_check_budgets_before_solving(monkeypatch):
    solved = []
    monkeypatch.setattr(heis.eigen, "highest_weight_levels",
                        lambda g, n: solved.append(n))
    # highest-weight dims at n' = 0..3 of 40 vertices: 1, 39, 740, 9100
    with pytest.raises(SizeBudgetError, match="highest-weight dim 9100"):
        labeled_spectra(make_path(40), [0, 37])
    monkeypatch.setattr(heis.sector, "DENSE_BUDGET", 1 << 40)
    with pytest.raises(SizeBudgetError, match="sector budget"):
        labeled_spectra(make_path(40), [20])
    with pytest.raises(ValueError):
        labeled_spectra(make_path(4), [5])
    assert solved == []
