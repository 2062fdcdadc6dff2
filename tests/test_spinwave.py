import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from heis.errors import SizeBudgetError
from heis.graph import make_box, make_lambda
from heis.sector import (
    FUNCTION_SPACE_BUDGET,
    SECTOR_BUDGET,
    contraction_T_box,
    hamiltonian_magnon,
    lowering_matrix,
)
from heis.spinwave import (
    GAP_SCALE,
    _distinct_arrangements,
    arrangement_count,
    bose_basis,
    bose_energy,
    f_profile,
    gram_limit,
    gram_matrix,
    jump_level,
    mode_count_R,
    occupation_from_modes,
    occupations,
    residual,
    trial_state,
)
from heis.foel import energy_level
from conftest import gram_limit_oracle, trial_state_oracle


# ---------------------------------------------------------------- profiles

def test_profile_zero_frequency():
    assert f_profile(0, 17) == 1.0
    assert f_profile(0, -3) == 1.0


def test_profile_cosine_zero():
    assert f_profile(1, 1) == pytest.approx(0.0, abs=1e-15)


def test_profile_discrete_orthogonality():
    L = 8
    for k, kp in itertools.product(range(L), repeat=2):
        s = sum(f_profile(k / L, r) * f_profile(kp / L, r) for r in range(1, L + 1))
        assert s == pytest.approx(L if k == kp else 0.0, abs=1e-10)


# ---------------------------------------------------------------- trial states

def test_trial_state_uniform_single_magnon():
    L = 5
    st = trial_state(1, L, [(0,)])
    assert np.allclose(st.coefficients, L ** -0.5, atol=1e-15)


def test_trial_state_mode_permutation_invariance():
    a = trial_state(1, 6, [(1,), (2,)])
    b = trial_state(1, 6, [(2,), (1,)])
    assert np.array_equal(a.coefficients, b.coefficients)
    c = trial_state(2, 9, [(1, 0), (0, 1)])
    d = trial_state(2, 9, [(0, 1), (1, 0)])
    assert np.array_equal(c.coefficients, d.coefficients)


@pytest.mark.parametrize("d,N,modes", [
    (1, 12, [(1,), (2,)]),
    (1, 20, [(2,), (2,), (1,)]),
    (1, 64, [(1,), (2,), (3,)]),
    (2, 10, [(0, 1), (1, 0)]),
    (2, 30, [(1, 0), (1, 0), (1, 1)]),
    (2, 64, [(1, 0), (0, 1), (1, 1)]),
    (3, 27, [(1, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 1)]),
    (3, 30, [(1, 0, 0), (0, 1, 0), (1, 0, 0)]),
])
def test_trial_state_matches_subset_table_oracle(d, N, modes):
    got = trial_state(d, N, modes).coefficients
    assert np.array_equal(got, trial_state_oracle(d, N, modes))


def test_trial_state_over_budget_fails_fast():
    # C(64, 9) ~ 2.8e10 subsets: refused before the 9! orderings are listed
    modes = [(k,) for k in range(1, 10)]
    start = time.perf_counter()
    with pytest.raises(SizeBudgetError):
        trial_state(1, 64, modes)
    with pytest.raises(SizeBudgetError):
        gram_matrix(1, 64, [modes])
    assert time.perf_counter() - start < 1.0


def test_trial_state_over_work_cap_fails_fast():
    # C(20, 10) fits the sector budget, but 10 distinct modes have 10!
    # orderings: 3.6M products of a 184756-entry state
    modes = [(k,) for k in range(1, 11)]
    assert math.comb(20, 10) <= SECTOR_BUDGET
    assert arrangement_count(modes) * math.comb(20, 10) > FUNCTION_SPACE_BUDGET
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(SizeBudgetError, match="function-space budget"):
            trial_state(1, 20, modes)
        with pytest.raises(SizeBudgetError, match="function-space budget"):
            gram_matrix(1, 20, [modes])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20           # one C(20, 10) state is 1.5 MB


@pytest.mark.parametrize("modes", [
    [], [(1,)], [(2,), (1,), (2,)], [(3,), (1,), (2,), (0,)],
    [(1, 0), (0, 1), (1, 0), (1, 1), (0, 1)], [(0,)] * 5,
])
def test_distinct_arrangements_are_the_sorted_distinct_permutations(modes):
    arrangements, mult = _distinct_arrangements(modes)
    want = sorted(set(itertools.permutations(tuple(modes))))
    assert arrangements == want
    assert mult == math.factorial(len(modes)) // len(want)


def test_trial_state_mode_out_of_range():
    with pytest.raises(ValueError):
        trial_state(1, 4, [(4,)])
    with pytest.raises(ValueError):
        trial_state(2, 9, [(0,)])


def test_spin_lowering_identity():
    # with orthonormal flipped states the lowering identity carries a
    # 1/sqrt(n+1) relative to the raw symmetrization count
    L, n = 6, 1
    g = make_box(1, L)
    st_n = trial_state(1, L, [(1,)])
    st_n1 = trial_state(1, L, [(1,), (0,)])
    low = lowering_matrix(g, n + 1)
    lhs = low @ st_n.coefficients
    rhs = L ** 0.5 / math.sqrt(n + 1) * st_n1.coefficients
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_spin_lowering_identity_on_shell_graph():
    # N=6 in two dimensions has floor size 2 and ceiling size 3, so the
    # normalization (floor) and profile frequency (ceiling) scales differ
    d, N, n = 2, 6, 1
    spec_L = 2
    from heis.graph import make_lambda
    g = make_lambda(d, N)
    st_n = trial_state(d, N, [(1, 0)])
    st_n1 = trial_state(d, N, [(1, 0), (0, 0)])
    low = lowering_matrix(g, n + 1)
    lhs = low @ st_n.coefficients
    rhs = spec_L ** (d / 2) / math.sqrt(n + 1) * st_n1.coefficients
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_residual_finite_on_shell_graph():
    assert np.isfinite(residual(2, 8, [(1, 0)]))


def test_identity_with_bose_route():
    # trial state = n! |K(nu)|^(-1/2) T F(nu) when the box is exact
    d, L, n = 1, 6, 2
    modes = [(1,), (2,)]
    nu = occupation_from_modes(modes)
    psi = trial_state(d, L, modes).coefficients
    T = contraction_T_box(d, L, n)
    other = math.factorial(n) / math.sqrt(arrangement_count(nu)) * (
        T @ bose_basis(d, L, nu))
    assert np.max(np.abs(psi - other)) < 1e-12


# ---------------------------------------------------------------- bose gas

def test_bose_single_particle_condensate():
    F = bose_basis(2, 3, [(0, 0)])
    assert np.allclose(F, 3.0 ** -1.0, atol=1e-15)  # L^{-d/2} with L=3, d=2


def test_bose_occupation_count():
    assert len(occupations(1, 4, 2)) == math.comb(4 + 2 - 1, 2)
    assert len(occupations(2, 3, 2)) == math.comb(9 + 2 - 1, 2)


@pytest.mark.parametrize("d,L,n", [(1, 4, 2), (2, 3, 2)])
def test_bose_basis_orthonormal_eigen(d, L, n):
    from heis.sector import free_laplacian
    occs = occupations(d, L, n)
    B = np.column_stack([bose_basis(d, L, nu) for nu in occs])
    assert np.max(np.abs(B.T @ B - np.eye(len(occs)))) < 1e-10
    h = free_laplacian(make_box(d, L), n)
    for i, nu in enumerate(occs):
        lam = bose_energy(d, L, nu)
        assert np.max(np.abs(h @ B[:, i] - lam * B[:, i])) < 1e-10


def test_bose_energy_values():
    assert bose_energy(1, 8, [(0,), (0,)]) == 0.0
    assert bose_energy(1, 8, [(1,)]) == pytest.approx(
        2 * math.sin(math.pi / 16) ** 2, abs=1e-15)
    a = bose_energy(2, 5, [(1, 2)])
    b = bose_energy(2, 5, [(3, 1)])
    assert bose_energy(2, 5, [(1, 2), (3, 1)]) == pytest.approx(a + b, abs=1e-14)


def test_bose_symmetric_under_coordinate_swap():
    d, L, n = 1, 4, 2
    F = bose_basis(d, L, [(1,), (3,)]).reshape(L, L)
    assert np.max(np.abs(F - F.T)) < 1e-14


# ---------------------------------------------------------------- residual, gram

def test_residual_condensate_exact():
    for L in (4, 7):
        assert residual(1, L, [(0,)]) < 1e-12


def test_residual_single_magnon_closed_form():
    L = 8
    got = residual(2, 64, [(1, 0)])
    expected = abs(L ** 2 / GAP_SCALE * 2 * math.sin(math.pi / (2 * L)) ** 2 - 1)
    assert got == pytest.approx(expected, abs=1e-10)


def test_residual_decays_with_size():
    r16 = residual(1, 16, [(1,), (2,)])
    r64 = residual(1, 64, [(1,), (2,)])
    assert r64 < r16


def test_gram_single_mode_near_unit():
    G = gram_matrix(1, 32, [[(1,)], [(2,)]])
    assert abs(G[0, 0] - 1.0) < 0.05
    assert abs(G[1, 1] - 1.0) < 0.05
    assert abs(G[0, 1]) < 0.05


def test_gram_repeated_mode_doubles():
    tuples = [[(1,), (1,)]]
    G = gram_matrix(1, 32, tuples)
    # exact finite-size value 4 - 6/L approaches the limit 2! * 2
    assert G[0, 0] == pytest.approx(4 - 6 / 32, abs=1e-10)
    assert gram_limit(tuples)[0, 0] == 4.0


def test_gram_limit_matchings():
    tuples = [[(0,), (1,)], [(1,), (1,)], [(1,), (2,)]]
    limit = gram_limit(tuples)
    assert np.array_equal(limit, np.diag([2.0, 4.0, 2.0]))


@pytest.mark.parametrize("tuples", [
    [[(1,), (2,)], [(2,), (1,)], [(1,), (1,), (2,)], [(2,), (1,), (1,)],
     [(3,)], [(1,), (1,), (1,)], []],
    [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 0)],
     [(1, 0), (1, 0), (1, 1)], [(1, 1), (1, 0), (1, 0)]],
    [[(1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 2)],
     [(0, 0, 2), (1, 0, 0), (1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0)]],
], ids=["d1", "d2", "d3"])
def test_gram_limit_matches_permutation_oracle(tuples):
    assert np.array_equal(gram_limit(tuples), gram_limit_oracle(tuples))


def test_energy_asymptotics_towards_gap_scale():
    # gamma^-1 L^2 E_n / n approaches 1 along a doubling ladder
    for n in (1, 2):
        discrepancies = []
        for L in (8, 16, 32):
            E = energy_level(make_box(1, L), n)
            discrepancies.append(abs(L ** 2 * E / (GAP_SCALE * n) - 1))
        assert discrepancies[2] < discrepancies[1] < discrepancies[0]


# ---------------------------------------------------------------- mode counting

def test_mode_count_examples():
    assert mode_count_R(2, 1, 1) == 2          # (1,0) and (0,1)
    assert mode_count_R(1, 2, 2) == 1          # {(1),(1)}
    assert mode_count_R(1, 1, 2) == 0          # 2 is not a square... of one mode
    assert mode_count_R(1, 1, 4) == 1          # {(2)}
    assert mode_count_R(3, 0, 0) == 1
    assert mode_count_R(3, 0, 3) == 0


def test_mode_count_brute_force_cross_check():
    # independent enumeration over ordered tuples, then quotient by sorting
    def brute(d, n, m):
        bound = int(math.isqrt(m))
        pool = [k for k in itertools.product(range(bound + 1), repeat=d)]
        seen = set()
        for tup in itertools.product(pool, repeat=n):
            if sum(c * c for k in tup for c in k) == m:
                seen.add(tuple(sorted(tup)))
        return len(seen)

    for d in (1, 2):
        for n in (1, 2, 3):
            for m in range(0, 7):
                assert mode_count_R(d, n, m) == brute(d, n, m)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mode_count_stability_below_jump(d, n):
    for m in range(n):
        assert mode_count_R(d, n, m) == mode_count_R(d, n - 1, m)
    assert mode_count_R(d, n, n) > mode_count_R(d, n - 1, n)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jump_level_equals_n(d, n):
    assert jump_level(d, n) == n
