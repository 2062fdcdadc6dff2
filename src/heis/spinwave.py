"""Spin-wave trial states, the ideal-Bose-gas eigenbasis, and mode counting.

Trial states are symmetrized products of half-integer-shifted cosine
profiles mapped into the magnon sector of the growing lattice family; they
approximate eigenvectors with energies near (pi^2/2) L^-2 sum |kappa|^2.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import lambda_spec, make_box, make_lambda
from .sector import (
    _dot,
    _shown,
    check_function_space_budget,
    check_sector_budget,
    hamiltonian_magnon,
    product_state,
)

#: Spectral-gap scale: the trial-state energy is GAP_SCALE * L^-2 * sum |kappa|^2.
GAP_SCALE = math.pi ** 2 / 2.0


def f_profile(xi, r):
    """Half-integer cosine profile; identically 1 at frequency 0."""
    if xi == 0:
        return 1.0
    return math.sqrt(2.0) * math.cos(math.pi * xi * (r - 0.5))


def _profile_column(kappa, points, L):
    """Product of per-axis profiles evaluated at every lattice point."""
    out = np.empty(len(points))
    for i, p in enumerate(points):
        v = 1.0
        for kj, rj in zip(kappa, p):
            v *= f_profile(kj / L, rj)
        out[i] = v
    return out


def _distinct_arrangements(modes):
    """The distinct orderings of the modes, sorted, and prod_k nu(k)!.

    The orderings are listed by lexicographic next-permutation steps from
    the sorted modes, so each is made once and no other is made.
    """
    arr = sorted(tuple(k) for k in modes)
    out = [tuple(arr)]
    while True:
        i = len(arr) - 2
        while i >= 0 and arr[i] >= arr[i + 1]:
            i -= 1
        if i < 0:
            return out, math.factorial(len(arr)) // arrangement_count(arr)
        j = len(arr) - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
        arr[i + 1:] = arr[:i:-1]
        out.append(tuple(arr))


def occupation_from_modes(modes):
    """Canonical multiset form (sorted tuple of mode tuples)."""
    return tuple(sorted(tuple(k) for k in modes))


def occupations(d, L, n):
    """All size-n occupation multisets of the mode set {0..L-1}^d."""
    mode_list = list(itertools.product(range(L), repeat=d))
    return [occupation_from_modes(c)
            for c in itertools.combinations_with_replacement(mode_list, n)]


def arrangement_count(nu):
    """Number of ordered mode tuples realizing the occupation: n!/prod nu(k)!."""
    total = math.factorial(len(nu))
    for c in Counter(nu).values():
        total //= math.factorial(c)
    return total


@dataclass
class TrialState:
    d: int
    N: int
    modes: tuple                # ordered mode tuples as given
    coefficients: np.ndarray    # on the MagnonBasis of mag(n)

    @property
    def n(self):
        return len(self.modes)

    def norm(self):
        return math.sqrt(_dot(self.coefficients, self.coefficients))


def trial_state(d, N, modes):
    """Spin-wave trial state on the n-magnon sector of the N-vertex lattice graph.

    The underlying n-particle function uses profile frequencies over the
    ceiling box size and normalization L^(-nd/2) with the floor size; the
    symmetrization sum runs over distinct mode arrangements weighted by the
    multiplicity of repeats, one :func:`heis.sector.product_state` of the
    modes' profile columns per arrangement.  Raises :class:`SizeBudgetError`
    before any arrangement is enumerated above ``SECTOR_BUDGET`` on
    C(N, n), or when the sum's work, :func:`arrangement_count` times
    C(N, n), exceeds ``FUNCTION_SPACE_BUDGET``: the sum runs over ordered
    n-tuples of distinct sites.
    """
    spec = lambda_spec(d, N)
    modes = tuple(tuple(int(c) for c in k) for k in modes)
    n = len(modes)
    for k in modes:
        if len(k) != d:
            raise ValueError(f"mode {k} has wrong dimension")
        if any(c < 0 or c >= spec.L_plus for c in k):
            raise ValueError(f"mode {k} out of range for L+ = {spec.L_plus}")
    check_sector_budget(N, n)
    orderings = arrangement_count(modes)
    check_function_space_budget(
        f"trial-state sum of {_shown(orderings)} orderings x C({N},{n}) subsets",
        orderings * math.comb(N, n))
    arrangements, mult = _distinct_arrangements(modes)
    cols = {k: _profile_column(k, spec.points, spec.L_plus) for k in set(modes)}
    norm = spec.L ** (-n * d / 2.0)
    sqrt_fact = math.sqrt(math.factorial(n))
    total = sum(product_state(np.column_stack([cols[k] for k in arr]))
                for arr in arrangements)
    # T applied to the symmetric function: sqrt(n!) * F(X)
    coeffs = sqrt_fact * norm * mult * total
    return TrialState(d=d, N=N, modes=modes, coefficients=coeffs)


def bose_basis(d, L, nu):
    """Normalized ideal-Bose-gas eigenfunction for an occupation multiset.

    Returned as a flat array over (B^d(L))^n in row-major tuple order.
    """
    nu = occupation_from_modes(nu)
    n = len(nu)
    check_function_space_budget(f"function space |V|^n = {L ** d}^{n}", L ** (d * n))
    box = make_box(d, L)
    arrangements, _ = _distinct_arrangements(nu)
    cols = {k: _profile_column(k, box.points, L) for k in set(nu)}
    out = np.zeros(L ** (d * n))
    for arr in arrangements:
        term = cols[arr[0]]
        for k in arr[1:]:
            term = np.kron(term, cols[k])
        out += term
    out *= L ** (-n * d / 2.0) / math.sqrt(len(arrangements))
    return out


def bose_energy(d, L, nu):
    """Ideal-gas eigenvalue: sum over modes of 2 sin^2(pi kappa_j / 2L)."""
    total = 0.0
    for k in nu:
        for kj in k:
            total += 2.0 * math.sin(math.pi * kj / (2.0 * L)) ** 2
    return total


def residual(d, N, modes):
    """Relative residual of the trial state against its nominal mode energy.

    Measures how far the trial state is from an eigenvector of the rescaled
    Hamiltonian (GAP_SCALE^-1 L^2 H) at eigenvalue sum |kappa|^2.
    """
    return _residual(trial_state(d, N, modes))


def _residual(state):
    """:func:`residual` of a trial state that is already built."""
    spec = lambda_spec(state.d, state.N)
    g = make_lambda(state.d, state.N)
    H = hamiltonian_magnon(g, state.n)
    m = sum(c * c for k in state.modes for c in k)
    psi = state.coefficients
    lhs = (spec.L ** 2 / GAP_SCALE) * (H @ psi) - m * psi
    return math.sqrt(_dot(lhs, lhs) / _dot(psi, psi))


def gram_matrix(d, N, mode_tuples):
    """Pairwise inner products of trial states for the given mode tuples."""
    states = [trial_state(d, N, modes) for modes in mode_tuples]
    k = len(states)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = _dot(states[i].coefficients, states[j].coefficients)
    return out


def gram_limit(mode_tuples):
    """Large-volume limit of the gram matrix: n! prod_k nu(k)! =
    (n!)^2 / arrangement_count(nu) between tuples of one occupation nu, else 0."""
    nus = [occupation_from_modes(modes) for modes in mode_tuples]
    out = np.zeros((len(nus), len(nus)))
    for i, a in enumerate(nus):
        for j, b in enumerate(nus):
            if a == b:
                out[i, j] = math.factorial(len(a)) ** 2 // arrangement_count(a)
    return out


def _modes_with_norm_at_most(d, m):
    bound = int(math.isqrt(m))
    return [k for k in itertools.product(range(bound + 1), repeat=d)
            if sum(c * c for c in k) <= m]


def mode_count_R(d, n, m):
    """Number of size-n mode multisets with squared norms summing to m."""
    if d < 1 or n < 0 or m < 0:
        raise ValueError("d >= 1, n >= 0, m >= 0 required")
    if n == 0:
        return 1 if m == 0 else 0
    pool = _modes_with_norm_at_most(d, m)
    count = 0
    for combo in itertools.combinations_with_replacement(pool, n):
        if sum(c * c for k in combo for c in k) == m:
            count += 1
    return count


def jump_level(d, n, search_limit=None):
    """Smallest m >= 1 where the level-n mode count exceeds the level-(n-1) count."""
    if n < 1:
        raise ValueError("n must be positive")
    limit = search_limit or max(4 * n, 8)
    for m in range(1, limit + 1):
        if mode_count_R(d, n, m) > mode_count_R(d, n - 1, m):
            return m
    raise RuntimeError(f"no jump found below m={limit}")
