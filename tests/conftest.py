"""Shared fixtures and independent brute-force oracles.

The oracles work on the full 2^V product space, applying each bond term of
the Hamiltonian directly to bitmask basis states (bit x set = spin at x
flipped down).  The COO assemblies of the sector H and S^- rank subsets by
binary search in the sorted bitmasks.  The spin-wave oracles gather
trial states from an explicit subset table and count Gram limits by
matching permutations.  Spin-labelled entries are grouped by a per-run
loop.  The highest-weight projector's sweep is applied with scipy's ``@``
and ``.T`` views.  No oracle shares code with the sector-basis
builders it checks.
"""

import contextlib
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

import heis.eigen
import heis.foel


def product_hamiltonian(g):
    """Dense 2^V Hamiltonian assembled bond by bond on the product space."""
    V = g.vertex_count
    idx = g.index_of()
    dim = 1 << V
    H = np.zeros((dim, dim))
    for (u, v), J in zip(g.edges, g.couplings):
        a, b = idx[u], idx[v]
        for m in range(dim):
            ai = (m >> a) & 1
            bi = (m >> b) & 1
            if ai != bi:
                H[m, m] += 0.5 * J
                H[m ^ (1 << a) ^ (1 << b), m] -= 0.5 * J
    return H


def product_spin_ops(V):
    """Total S^3 (diagonal) and S^- on the product space."""
    dim = 1 << V
    s3 = np.array([0.5 * V - bin(m).count("1") for m in range(dim)])
    sminus = np.zeros((dim, dim))
    for m in range(dim):
        for x in range(V):
            if not (m >> x) & 1:
                sminus[m | (1 << x), m] += 1.0
    return s3, sminus


def product_casimir(V):
    s3, sm = product_spin_ops(V)
    sp = sm.T
    return np.diag(s3 ** 2) + 0.5 * (sp @ sm + sm @ sp)


def colex(V, n):
    """The size-n subsets of range(V) as ascending tuples, in colex order:
    sorted by their largest element first."""
    return sorted(itertools.combinations(range(V), n), key=lambda X: X[::-1])


def colex_rank(subset):
    """Position of a subset in :func:`colex` order, by the combinatorial
    number system: ascending c_0 < c_1 < ... rank to sum of C(c_i, i+1)."""
    return sum(math.comb(v, i + 1) for i, v in enumerate(sorted(subset)))


def colex_unrank(index, V, n):
    """The ascending n-subset of range(V) at position ``index`` in colex order."""
    if not 0 <= index < math.comb(V, n):
        raise ValueError(f"rank {index} out of range")
    out = []
    for i in range(n, 0, -1):
        # largest c with C(c, i) <= index; search down from the previous element
        c = out[-1] - 1 if out else V - 1
        while math.comb(c, i) > index:
            c -= 1
        out.append(c)
        index -= math.comb(c, i)
    return tuple(reversed(out))


def sector_masks(V, n):
    """Bitmasks of the n-magnon basis states in rank order."""
    return [sum(1 << x for x in X) for X in colex(V, n)]


def _rank_masks(V, n):
    # colex order is the numeric order of the bitmasks, so a sorted mask
    # array ranks any subset by binary search
    return np.array(sector_masks(V, n), dtype=np.uint64)


def coo_hamiltonian(g, n):
    """Sector Hamiltonian assembled as COO triplets and summed into CSR.

    The nonzero diagonal and the hops of the upper triangle are COO
    entries, the strict upper triangle is mirrored as a second COO matrix,
    and the CSR sum of the two drops the zeros that hops along zero
    couplings store.  The diagonal is summed edge by edge in edge order.
    Ranks come from binary search in the sorted bitmasks.
    """
    if n == 0:
        return sp.csr_matrix((1, 1))
    V = g.vertex_count
    masks = _rank_masks(V, n)
    idx = g.index_of()
    diag = np.zeros(len(masks))
    rows, cols, vals = [], [], []
    for (u, v), J in zip(g.edges, g.couplings):
        x, y = idx[u], idx[v]
        has_x = ((masks >> np.uint64(x)) & np.uint64(1)) == 1
        has_y = ((masks >> np.uint64(y)) & np.uint64(1)) == 1
        diag[has_x != has_y] += 0.5 * J
        r = np.flatnonzero(has_x & ~has_y)      # Z + {x} ranks below Z + {y}
        rows.append(r)
        cols.append(np.searchsorted(masks, masks[r] ^ np.uint64((1 << x) | (1 << y))))
        vals.append(np.full(len(r), -0.5 * J))
    index = np.flatnonzero(diag)
    rows.append(index)
    cols.append(index)
    vals.append(diag[index])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    dim = len(masks)
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    off = rows != cols
    return (upper + sp.coo_matrix((vals[off], (cols[off], rows[off])),
                                  shape=(dim, dim))).tocsr()


def coo_lowering(V, n):
    """S^-: mag(n-1) -> mag(n) assembled as unit COO entries, converted to CSR."""
    masks, lower = _rank_masks(V, n), _rank_masks(V, n - 1)
    rows, cols = [], []
    for x in range(V):
        r = np.flatnonzero((masks >> np.uint64(x)) & np.uint64(1))
        rows.append(r)
        cols.append(np.searchsorted(lower, masks[r] ^ np.uint64(1 << x)))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(len(masks), len(lower))).tocsr()


def sweep_projector(lows, V):
    """The highest-weight projector on mag(n), n = len(lows), swept with ``@``.

    ``lows`` is the S^-_1..S^-_n chain for V vertices.  The scalars c_k
    are the divided differences of f_n (1 on the highest-weight space),
    y_k runs down through ``.T`` views, and w_k = c_k y_k + S^-_k w_{k-1}
    back up, every product by scipy's own ``@``.
    """
    n = len(lows)
    f = np.r_[1.0, np.zeros(n)]
    coef = []
    for k in range(n, 0, -1):
        coef.append(f[0])
        i = np.arange(1, k + 1)
        f = (f[1:] - f[0]) / (i * (V - 2 * k + i + 1))
    coef.append(f[0])
    coef.reverse()
    ups = [low.T for low in reversed(lows)]

    def project(x):
        ys = [x]
        for up in ups:
            ys.append(up @ ys[-1])
        w = coef[0] * ys.pop()
        for low, c in zip(lows, coef[1:]):
            w = c * ys.pop() + low @ w
        return w

    return project


def project_sector(mat, V, n, m=None):
    """Block of a product-space matrix between the mag(m) and mag(n) bases."""
    rows = sector_masks(V, n)
    cols = sector_masks(V, m if m is not None else n)
    return mat[np.ix_(rows, cols)]


def product_level(g, n):
    """Lowest energy among product-space states of S^3 = S = V/2 - n.

    The S^3 block is cut from the diagonal of :func:`product_spin_ops`, and
    total spin is read from the eigenvalues of :func:`product_casimir` in it.
    """
    V = g.vertex_count
    s = 0.5 * V - n
    s3, _ = product_spin_ops(V)
    block = np.flatnonzero(s3 == s)
    cas_vals, cas_vecs = np.linalg.eigh(product_casimir(V)[np.ix_(block, block)])
    Q = cas_vecs[:, np.abs(cas_vals - s * (s + 1)) < 1e-8]
    H = product_hamiltonian(g)[np.ix_(block, block)]
    return float(np.linalg.eigvalsh(Q.T @ H @ Q)[0])


def spectral_count(mat, energy, tol=1e-8):
    """Number of eigenvalues of the dense symmetric ``mat`` at most ``energy + tol``."""
    return int(np.sum(np.linalg.eigvalsh(mat) <= energy + tol))


def spin_entries_loop(values, labels, tol):
    """(energy, n', multiplicity) per label of each degenerate run, run by run.

    A run of the ascending ``values`` continues while consecutive gaps are
    at most ``tol`` (found by a Python walk); each run reports ``np.mean`` of
    its values and the ``np.unique`` labels and counts of its slice.
    """
    bounds = [0] + [i for i in range(1, len(values))
                    if values[i] - values[i - 1] > tol] + [len(values)]
    out = []
    for i, j in zip(bounds[:-1], bounds[1:]):
        energy = float(np.mean(values[i:j]))
        for lab, count in zip(*np.unique(labels[i:j], return_counts=True)):
            out.append((energy, int(lab), int(count)))
    return out


def lower_function(F, vertex_count):
    """Function-space counterpart of the lowering operator.

    Maps F on V^n to the function on V^(n+1) obtained by summing F over all
    n+1 ways of deleting one coordinate; a scalar F maps to a constant on V.
    """
    F = np.asarray(F, dtype=float)
    out = np.zeros((vertex_count,) * (F.ndim + 1))
    for k in range(F.ndim + 1):
        out += np.expand_dims(F, axis=k)
    return out


def trial_state_oracle(d, N, modes):
    """Spin-wave trial-state coefficients gathered from the subset table.

    Per distinct ordering of the modes, a (C(N, n), n) gather of their
    profile columns at the :func:`colex` subset rows is multiplied along
    each row; the sum over orderings is weighted by prod_k nu(k)!, counted
    here mode by mode, and by sqrt(n!) L^(-nd/2).
    """
    from heis.graph import lambda_spec, make_lambda
    from heis.spinwave import f_profile

    spec = lambda_spec(d, N)
    points = make_lambda(d, N).points
    modes = tuple(tuple(k) for k in modes)
    n = len(modes)
    counts = {}
    for k in modes:
        counts[k] = counts.get(k, 0) + 1
    mult = 1
    for c in counts.values():
        mult *= math.factorial(c)

    def column(kappa):
        out = np.empty(len(points))
        for i, p in enumerate(points):
            v = 1.0
            for kj, rj in zip(kappa, p):
                v *= f_profile(kj / spec.L_plus, rj)
            out[i] = v
        return out

    sub = np.array(colex(N, n), dtype=np.int64).reshape(-1, n)
    slots = np.arange(n)
    total = sum(np.prod(np.column_stack([column(k) for k in arr])[sub, slots], axis=1)
                for arr in sorted(set(itertools.permutations(modes))))
    return math.sqrt(math.factorial(n)) * spec.L ** (-n * d / 2.0) * mult * total


def gram_limit_oracle(mode_tuples):
    """n! times the number of permutations matching mode tuple i to tuple j."""
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


@contextlib.contextmanager
def solver_path(path):
    """Force :func:`heis.eigen.lowest_eig` onto one path inside the block:
    ``"dense"`` at every size, ``"krylov"`` (ARPACK) at every size above 1,
    by substituting ``heis.eigen.DENSE_CUTOFF``.  The cached one-magnon mode
    (:func:`heis.foel._lowest_mode`) is cleared on entry and exit, so no
    mode solved on the forced path outlives the block."""
    saved = heis.eigen.DENSE_CUTOFF
    heis.eigen.DENSE_CUTOFF = {"dense": math.inf, "krylov": 1}[path]
    heis.foel._lowest_mode.cache_clear()
    try:
        yield
    finally:
        heis.eigen.DENSE_CUTOFF = saved
        heis.foel._lowest_mode.cache_clear()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
