"""Spin-wave trial states, the ideal-Bose-gas eigenbasis, and mode counting.

Trial states are symmetrized products of half-integer-shifted cosine
profiles mapped into the magnon sector of the growing lattice family; they
approximate eigenvectors with energies near (pi^2/2) L^-2 sum |kappa|^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import lambda_spec, make_box, make_lambda
from .sector import FunctionSpaceIndex, MagnonBasis, hamiltonian_magnon

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
    modes = tuple(tuple(k) for k in modes)
    seen = sorted(set(itertools.permutations(modes)))
    counts = {}
    for k in modes:
        counts[k] = counts.get(k, 0) + 1
    mult = 1
    for c in counts.values():
        mult *= math.factorial(c)
    return seen, mult


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
    counts = {}
    for k in nu:
        counts[k] = counts.get(k, 0) + 1
    total = math.factorial(len(nu))
    for c in counts.values():
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
        return float(np.linalg.norm(self.coefficients))


def trial_state(d, N, modes):
    """Spin-wave trial state on the n-magnon sector of the N-vertex lattice graph.

    The underlying n-particle function uses profile frequencies over the
    ceiling box size and normalization L^(-nd/2) with the floor size; the
    symmetrization sum runs over distinct mode arrangements weighted by the
    multiplicity of repeats.
    """
    spec = lambda_spec(d, N)
    modes = tuple(tuple(int(c) for c in k) for k in modes)
    n = len(modes)
    for k in modes:
        if len(k) != d:
            raise ValueError(f"mode {k} has wrong dimension")
        if any(c < 0 or c >= spec.L_plus for c in k):
            raise ValueError(f"mode {k} out of range for L+ = {spec.L_plus}")
    g = make_lambda(d, N)
    basis = MagnonBasis(g.vertex_count, n)
    arrangements, mult = _distinct_arrangements(modes)
    cols = [
        np.column_stack([_profile_column(k, g.points, spec.L_plus) for k in arr])
        for arr in arrangements
    ]
    norm = spec.L ** (-n * d / 2.0)
    sqrt_fact = math.sqrt(math.factorial(n))
    sub = basis.array()
    slots = np.arange(n)
    total = sum(np.prod(mat[sub, slots], axis=1) for mat in cols)
    # T applied to the symmetric function: sqrt(n!) * F(X)
    coeffs = sqrt_fact * norm * mult * total
    return TrialState(d=d, N=N, modes=modes, coefficients=coeffs)


def bose_basis(d, L, nu):
    """Normalized ideal-Bose-gas eigenfunction for an occupation multiset.

    Returned as a flat array over (B^d(L))^n in row-major tuple order.
    """
    nu = occupation_from_modes(nu)
    n = len(nu)
    box = make_box(d, L)
    findex = FunctionSpaceIndex(box.vertex_count, n)
    arrangements, _ = _distinct_arrangements(nu)
    cols = {k: _profile_column(k, box.points, L) for k in set(nu)}
    out = np.zeros(findex.dim)
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
    state = trial_state(d, N, modes)
    spec = lambda_spec(d, N)
    g = make_lambda(d, N)
    H = hamiltonian_magnon(g, state.n).to_csr()
    m = sum(c * c for k in state.modes for c in k)
    psi = state.coefficients
    lhs = (spec.L ** 2 / GAP_SCALE) * (H @ psi) - m * psi
    return float(np.linalg.norm(lhs) / np.linalg.norm(psi))


def gram_matrix(d, N, mode_tuples):
    """Pairwise inner products of trial states for the given mode tuples."""
    states = [trial_state(d, N, modes) for modes in mode_tuples]
    k = len(states)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = float(
                states[i].coefficients @ states[j].coefficients
            )
    return out


def gram_limit(mode_tuples):
    """Large-volume limit of the gram matrix: n! sum over permutation matchings."""
    k = len(mode_tuples)
    out = np.zeros((k, k))
    for i in range(k):
        a = [tuple(m) for m in mode_tuples[i]]
        for j in range(k):
            b = [tuple(m) for m in mode_tuples[j]]
            if len(a) != len(b):
                continue
            n = len(a)
            total = sum(
                1 for pi in itertools.permutations(range(n))
                if all(a[pi[r]] == b[r] for r in range(n))
            )
            out[i, j] = math.factorial(n) * total
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
