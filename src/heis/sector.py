"""Magnon-sector bases and the sparse operators acting on them.

Every operator builder returns a canonical ``scipy.sparse.csr_matrix`` with
no stored zeros.

The n-magnon sector of a graph with V vertices is spanned by the states
obtained from the all-up product state by flipping the spins on a size-n
vertex subset X.  These states are orthonormal, so the sector is identified
with C^(V choose n) once a deterministic ordering of subsets is fixed;
here the combinatorial number system (colexicographic order) is used.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import SizeBudgetError
from .graph import lambda_spec

#: Cap on |V|**n for operators living on the full n-particle function space.
FUNCTION_SPACE_BUDGET = 1 << 21

#: Cap on the sector dimension C(V, n) of every array built over a magnon sector.
SECTOR_BUDGET = 1 << 18

#: Cap on the dimension of every matrix handed to a dense eigensolver.
DENSE_BUDGET = 4096


class MagnonBasis:
    """Ranked enumeration of size-n subsets of {0..vertex_count-1}.

    Uses the combinatorial number system: a subset with ascending elements
    c_0 < c_1 < ... ranks to sum of C(c_i, i+1), which enumerates subsets in
    colexicographic order.  Subsets and ranks are built as whole arrays.
    """

    def __init__(self, vertex_count, n):
        if not 0 <= n <= vertex_count:
            raise ValueError(f"magnon number {n} out of range for {vertex_count} vertices")
        self.vertex_count = vertex_count
        self.n = n
        self.dim = math.comb(vertex_count, n)

    def array(self):
        """All subsets in rank order, as a (dim, n) int64 array of ascending rows.

        Built one column at a time by the recursion that :func:`product_state`
        and :func:`_removal_ranks` share: the colex-ordered k-subsets with
        largest element c are the first C(c, k-1) (k-1)-subsets with c
        appended.  Raises :class:`SizeBudgetError` above ``SECTOR_BUDGET``.
        """
        check_sector_budget(self.vertex_count, self.n)
        V, n = self.vertex_count, self.n
        sub = np.zeros((1, 0), dtype=np.int64)
        for k in range(1, n + 1):
            # the k-th smallest element leaves room for the n - k larger ones
            sub = np.concatenate([
                np.column_stack((sub[: math.comb(c, k - 1)],
                                 np.full(math.comb(c, k - 1), c, dtype=np.int64)))
                for c in range(k - 1, V - n + k)
            ])
        return sub

    @functools.cached_property
    def _weights(self):
        # [v, i] = C(v, i+1), the rank weight of v at slot i; entries no
        # n-subset can reach stay 0, which keeps the table inside int64
        V, n = self.vertex_count, self.n
        return np.array(
            [[math.comb(v, i + 1) if v - i <= V - n else 0 for i in range(n)]
             for v in range(V)], dtype=np.int64).reshape(V, n)

    def rank_array(self, sub):
        """Ranks of the ascending rows of a (m, n) subset array."""
        return self._weights[sub, np.arange(self.n)].sum(axis=1)


def _shown(size):
    """``size`` in digits below 2^1024, else by its bit length: such digits
    are unreadable, and past 4300 of them Python refuses to print an int."""
    return size if size < 1 << 1024 else f"a {size.bit_length()}-bit number"


def _check_budget(what, size, cap, budget):
    """Raise :class:`SizeBudgetError`, naming ``size`` and ``cap``, when ``size`` > ``cap``."""
    if size > cap:
        raise SizeBudgetError(f"{what} {_shown(size)} exceeds the {budget} budget {cap}")


def check_sector_budget(vertex_count, n):
    """Raise :class:`SizeBudgetError` when C(vertex_count, n) exceeds ``SECTOR_BUDGET``."""
    _check_budget(f"sector C({vertex_count},{n}) =", math.comb(vertex_count, n),
                  SECTOR_BUDGET, "sector")


def check_highest_weight_budget(vertex_count, n):
    """Raise :class:`SizeBudgetError` above ``SECTOR_BUDGET`` on C(V, n) or above
    ``DENSE_BUDGET`` on the highest-weight dimension C(V, n) - C(V, n-1)."""
    check_sector_budget(vertex_count, n)
    dim = math.comb(vertex_count, n) - (math.comb(vertex_count, n - 1) if n else 0)
    _check_budget(f"at n'={n} the highest-weight dim", dim, DENSE_BUDGET, "dense")


def check_dense_budget(dim):
    """Raise :class:`SizeBudgetError` when a dense solve's ``dim`` exceeds ``DENSE_BUDGET``."""
    _check_budget("dense solve of dim", dim, DENSE_BUDGET, "dense")


def check_function_space_budget(what, size):
    """Raise :class:`SizeBudgetError` when ``size`` exceeds ``FUNCTION_SPACE_BUDGET``."""
    _check_budget(f"{what} =", size, FUNCTION_SPACE_BUDGET, "function-space")


def _dot(x, y):
    """<x, y> of two real 1-D sector vectors, by numpy's own summation loop.

    Every 1-D inner product and 2-norm of a sector-sized vector in the
    library goes through here.  ``np.dot``, ``@``, ``np.vecdot`` and
    ``np.linalg.norm`` call numpy's bundled OpenBLAS, which runs ``ddot`` on
    its own thread pool above 10000 entries; the woken worker then spins for
    about 0.13 s of CPU (measured on a 2-core VM), which on a small machine
    competes with the main thread and with scipy's (separate) BLAS pool for
    the rest of a solve.  ``einsum`` without ``optimize`` never calls BLAS.
    Matrix products stay on BLAS.
    """
    return float(np.einsum("i,i", x, y))


def _spmv(A, x, transpose=False):
    """``A @ x``, or ``A.T @ x`` with ``transpose``, for a CSR matrix ``A``.

    A 1-D ``x`` of ``A``'s dtype goes straight to scipy's compiled
    ``csr_matvec`` (``csc_matvec`` on the same three arrays for ``A.T``),
    the kernel that ``@`` itself runs, into a fresh ``np.zeros``: the
    result is bit-identical, without the Python dispatch that ``@`` adds
    per product (~2.5 us on a 2-core VM), more than the kernel itself takes
    on the small sectors of a Krylov matvec.  Anything else falls back to
    ``@``.
    """
    data = A.data
    if x.ndim != 1 or x.dtype != data.dtype:
        return A.T @ x if transpose else A @ x
    rows, cols = A.shape[::-1] if transpose else A.shape
    out = np.zeros(rows, dtype=data.dtype)
    kernel = _sparsetools.csc_matvec if transpose else _sparsetools.csr_matvec
    kernel(rows, cols, A.indptr, A.indices, data, x, out)
    return out


def product_state(cols):
    """The n-magnon product state with coefficient prod_k cols[c_k, k] at
    X = {c_0 < ... < c_{n-1}}, for a (V, n) array ``cols``.

    Returned in rank order as a 1-D array over mag(n), built one subset size
    at a time by the recursion of :meth:`MagnonBasis.array`: the k-subsets
    with largest element c are the first C(c, k-1) (k-1)-subsets with c
    appended, so their coefficients are those times cols[c, k-1].
    Raises :class:`ValueError` for n > V and :class:`SizeBudgetError` above
    ``SECTOR_BUDGET``.
    """
    V, n = cols.shape
    if n > V:
        raise ValueError(f"magnon number {n} out of range for {V} vertices")
    check_sector_budget(V, n)
    s = np.ones(1)
    for k in range(1, n + 1):
        s = np.concatenate([s[: math.comb(c, k - 1)] * cols[c, k - 1]
                            for c in range(k - 1, V - n + k)])
    return s


def _removal_ranks(vertex_count, n):
    """(C(V, n), n) int32 table whose row X lists the ranks in mag(n-1) of
    the X - {c}, ascending, that is with c descending.

    Built as :meth:`MagnonBasis.array` builds its rows: Y + {c}, for Y among
    the first C(c, k-1) (k-1)-subsets, loses c to rank(Y) and any other
    element y to rank(Y - {y}) + C(c, k-1).  Raises :class:`ValueError`
    unless 1 <= n <= V, and :class:`SizeBudgetError` on C(V, n), then on
    C(V, n-1), above ``SECTOR_BUDGET`` before any table is built.
    """
    V = vertex_count
    MagnonBasis(V, n)
    check_sector_budget(V, n)
    check_sector_budget(V, n - 1)
    ranks = np.zeros((1, 0), dtype=np.int32)
    for k in range(1, n + 1):
        prev, ranks = ranks, np.empty((math.comb(V - n + k, k), k), dtype=np.int32)
        for c in range(k - 1, V - n + k):       # from row C(c, k): largest element c
            at, m = math.comb(c, k), math.comb(c, k - 1)
            ranks[at : at + m, 0] = np.arange(m)
            np.add(prev[:m], m, out=ranks[at : at + m, 1:])
    return ranks


def hamiltonian_magnon(g, n):
    """Heisenberg Hamiltonian restricted to the n-magnon sector.

    In the flipped-subset basis the matrix is the graph Laplacian (with the
    1/2 convention) of the hard-core hopping graph: the diagonal entry of a
    subset X is half the total coupling crossing the boundary of X, and each
    single-magnon hop along an edge of coupling J contributes -J/2.  Hops
    along zero couplings and zero diagonal entries are not stored.  Raises
    :class:`SizeBudgetError` when C(V, n) or C(V, n-1) exceeds the budget.
    """
    if n == 0:
        return sp.csr_matrix((1, 1))
    V = g.vertex_count
    ranks = _removal_ranks(V, n)                # checks both budgets before `into` exists
    dim = len(ranks)
    sub = MagnonBasis(V, n).array()
    # into[x, j]: the rank of Z_j + {x}, or -1 when x is in Z_j
    into = np.full((V, math.comb(V, n - 1)), -1, dtype=np.int64)
    for k in range(n):                          # column k of `ranks` removes sub[:, n-1-k]
        into[sub[:, n - 1 - k], ranks[:, k]] = np.arange(dim)
    del sub, ranks
    free = into >= 0                            # free[x, j]: x is not in Z_j
    idx = g.index_of()

    # a hop along {x, y} joins Z + {x} and Z + {y}, for each (n-1)-subset Z free of both
    def hops():
        for (u, v), J in zip(g.edges, g.couplings):
            if J:
                x, y = idx[u], idx[v]
                z = np.flatnonzero(free[x] & free[y])
                yield J, into[x, z], into[y, z]

    diag = np.zeros(dim)
    fill = np.zeros(dim, dtype=np.int64)        # per row: entries, then the fill point
    # pass 1 sums the diagonal and counts hops; no rank repeats within an edge
    for J, r, c in hops():
        for a in (r, c):
            diag[a] += 0.5 * J
            fill[a] += 1
    fill += diag != 0
    np.cumsum(fill, out=fill)                   # one past each row's last entry
    nnz = int(fill[-1])                         # scipy's rule: int32 below 2**31
    indptr = np.r_[0, fill].astype(np.int32 if nnz < 1 << 31 else np.int64)
    indices = np.empty(nnz, dtype=indptr.dtype)
    data = np.empty(nnz)
    for J, r, c in hops():                      # pass 2 fills both rows of a hop from their ends
        for a, b in ((r, c), (c, r)):
            at = fill[a] - 1
            indices[at] = b
            data[at] = -0.5 * J
            fill[a] = at
    index = np.flatnonzero(diag)
    indices[fill[index] - 1] = index
    data[fill[index] - 1] = diag[index]
    H = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    H.sort_indices()
    return H


def lowering_matrix(g, n):
    """Total spin lowering operator as a map mag(n-1) -> mag(n).

    The column of a subset X with |X| = n-1 has a unit entry at every
    superset X + {x}; the transpose represents the raising operator.  Row X
    has n entries, the ranks of X - {x} in ascending order, so with x
    descending.
    """
    V = g.vertex_count
    if not 1 <= n <= V:
        raise ValueError(f"magnon number {n} out of range")
    ranks = _removal_ranks(V, n)
    dim = len(ranks)
    # both sector budgets keep n C(V, n) and every index below 2**31
    indptr = np.arange(0, dim * n + 1, n, dtype=np.int32)
    return sp.csr_matrix((np.ones(dim * n), ranks.ravel(), indptr),
                         shape=(dim, math.comb(V, n - 1)))


def lowering_chain(g, n):
    """S^-_1, ..., S^-_n as CSR matrices, S^-_k: mag(k-1) -> mag(k).

    Built largest first, so each build's temporaries sit beside the smaller
    matrices only.  They depend on the vertex count alone.
    """
    return [lowering_matrix(g, k) for k in range(n, 0, -1)][::-1]


def casimir_magnon(g, n):
    """Total-spin (Casimir) operator on the n-magnon sector.

    Computed as (M^2 + M) I + S^- S^+ with M = V/2 - n, which keeps the
    intermediate sector at n-1 rather than n+1.
    """
    V = g.vertex_count
    if not 0 <= n <= V:
        raise ValueError(f"magnon number {n} out of range")
    check_sector_budget(V, n)
    dim = math.comb(V, n)
    M = 0.5 * V - n
    base = (M * M + M) * sp.identity(dim, format="csr")
    if n == 0:
        return base
    low = lowering_matrix(g, n)
    cas = base + low @ low.T
    cas.sort_indices()                  # the sparse product leaves rows unsorted
    return cas


def highest_weight_basis(g, n):
    """Orthonormal basis of the highest-weight subspace of mag(n).

    This is the orthogonal complement of range(S^-) inside the sector; its
    dimension is C(V,n) - C(V,n-1).  The basis is the thin QR factor of
    :func:`valence_bond_basis`.  For n beyond V/2 the subspace is empty
    and an empty basis is returned with a warning.  The budgets are those of
    :func:`valence_bond_basis`, checked before anything dense is built.
    """
    V = g.vertex_count
    if n > V // 2:
        warnings.warn(f"no highest-weight vectors at n={n} for {V} vertices")
        return np.zeros((math.comb(V, n), 0))
    return np.linalg.qr(valence_bond_basis(V, n).toarray())[0]


def valence_bond_basis(vertex_count, n):
    """Valence-bond (Rumer) basis of the highest-weight subspace of mag(n).

    The columns are indexed by the ballot subsets, in rank order: down
    positions c_0 < ... < c_{n-1} with c_k >= 2k + 1.  Scanning the vertices
    in order, each down c_k is paired with the nearest open up a_k before
    it (a stack scan), so the pairs never cross.  The column is the product
    of the singlets (|up_a down_c> - |down_a up_c>) / sqrt(2) with every
    other spin up: 2^n entries +-2^(-n/2), the sign (-1)^j when j singlets
    put their flip on a.  Every column is annihilated by S^+, and the
    C(V,n) - C(V,n-1) columns are independent but not orthogonal.

    Returned as a (C(V,n), C(V,n) - C(V,n-1)) CSR matrix.  It depends on the
    vertex count only.  :func:`check_highest_weight_budget` runs before
    anything is built.
    """
    V = vertex_count
    if not 0 <= n <= V // 2:
        raise ValueError(f"no highest-weight vectors at n={n} for {V} vertices")
    check_highest_weight_budget(V, n)
    basis = MagnonBasis(V, n)
    sub = basis.array()
    down = sub[(sub >= 2 * np.arange(n) + 1).all(axis=1)]
    m = len(down)
    pad = np.column_stack((down, np.full(m, V))).ravel()   # V: past every down
    stack = np.empty((m, V), dtype=np.int64)
    depth = np.zeros(m, dtype=np.int64)
    seen = np.zeros(m, dtype=np.int64)          # downs passed so far, per column
    up = np.empty((m, n), dtype=np.int64)       # up[:, k] is paired with down[:, k]
    cols = np.arange(m)
    for x in range(V):
        is_down = pad.take(cols * (n + 1) + seen) == x
        d, u = cols[is_down], cols[~is_down]
        depth[d] -= 1
        up[d, seen[d]] = stack[d, depth[d]]
        seen[d] += 1
        stack[u, depth[u]] = x
        depth[u] += 1
    # bit k of s set: singlet k puts its flip on the up partner a_k
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    flipped = np.where(bits.astype(bool), up[:, None, :], down[:, None, :])
    flipped = flipped.reshape(m << n, n)
    flipped.sort(axis=1)
    signs = np.where(bits.sum(axis=1) % 2, -1.0, 1.0) * 2.0 ** (-0.5 * n)
    return sp.csr_matrix(
        (np.tile(signs, m), (basis.rank_array(flipped), np.repeat(cols, 1 << n))),
        shape=(basis.dim, m))


def highest_weight_projector(g, n, *, lowering=None):
    """Exact orthogonal projector onto the highest-weight subspace of mag(n).

    Returned as a function applying P to a vector or to the columns of a
    matrix.  On mag(k), A_k = S^- S^+ acts on the spin V/2 - k + i component
    as lambda_i = i (V - 2k + i + 1), with lambda_0 = 0 on the highest-weight
    space; so P = f_n(A_n), where f_n is 1 on component 0 and 0 on the
    others.  Any f_k(A_k) equals f_k(0) I + S^- f_{k-1}(A_{k-1}) S^+, where
    f_{k-1} on component i - 1 of mag(k-1), which S^- maps onto component i,
    is the divided difference (f_k(lambda_i) - f_k(0)) / lambda_i.  Unrolled
    down to mag(0) with scalars c_k = f_k(0), P x is one sweep: y_n = x,
    y_{k-1} = S^+ y_k down to level 0, then w_0 = c_0 y_0 and
    w_k = c_k y_k + S^- w_{k-1} back up to P x = w_n.  That is 2n sparse
    products, with k C(V, k) entries each at k = 1..n, and no factorization.

    ``lowering`` is a :func:`lowering_chain` of at least n matrices for V
    vertices, of which the first n are used; without it the chain is built.
    """
    V = g.vertex_count
    if not 1 <= n <= V // 2:
        raise ValueError(f"no lowered states to project out at n={n} for {V} vertices")
    if lowering is None:
        lows = lowering_chain(g, n)
    else:
        lows = lowering[:n]
        if len(lows) < n or lows[-1].shape != (math.comb(V, n), math.comb(V, n - 1)):
            raise ValueError(f"the lowering chain does not reach S^-_{n} on {V} vertices")
    f = np.r_[1.0, np.zeros(n)]                # f_n: 1 on the highest-weight space
    coef = []
    for k in range(n, 0, -1):
        coef.append(f[0])
        i = np.arange(1, k + 1)
        f = (f[1:] - f[0]) / (i * (V - 2 * k + i + 1))
    coef.append(f[0])
    coef.reverse()                              # coef[k] = c_k

    def project(x):
        ys = [x]
        for low in reversed(lows):              # S^+_k y_k = (S^-_k)^T y_k
            ys.append(_spmv(low, ys[-1], transpose=True))
        w = coef[0] * ys.pop()
        for low, c in zip(lows, coef[1:]):
            w = c * ys.pop() + _spmv(low, w)
        return w

    return project


def free_laplacian(g, n):
    """Total n-particle graph Laplacian on the full function space V^n.

    Kronecker sum of n copies of the single-particle Laplacian (with the 1/2
    convention); equivalently the Laplacian of the product graph in which one
    particle at a time hops along an edge of g.
    """
    V = g.vertex_count
    dim = V ** n
    check_function_space_budget(f"function space |V|^n = {V}^{n}", dim)
    one = hamiltonian_magnon(g, 1)              # the one-particle Laplacian
    total = sp.csr_matrix((dim, dim))
    for k in range(n):
        left = sp.identity(V ** k, format="csr")
        right = sp.identity(V ** (n - k - 1), format="csr")
        total = total + sp.kron(sp.kron(left, one), right, format="csr")
    return total


def _sqrt_factorial_scales(n):
    # paired floats a*b rounding to 1/n! as exactly as the format allows
    fact = math.factorial(n)
    a = math.sqrt(1.0 / fact)
    b = 1.0 / math.sqrt(fact)
    if a * b * fact != 1.0:
        for cand in (b, np.nextafter(b, 0.0), np.nextafter(b, 2.0)):
            if a * cand * fact == 1.0:
                b = float(cand)
                break
    return a, b


def contraction_T_box(d, N, n):
    """Contraction from functions on the surrounding box to mag(n) of the lattice graph.

    Sends F on (B^d(L+))^n to (n!)^(-1/2) sum_x F(x_1..x_n) times the flipped
    state at {x_1..x_n}; only tuples of distinct points of the N-vertex
    lattice graph count.  At d = 1 the box is the N-vertex path.  Row X
    carries its entries at the row-major indices of the orderings of X's
    points, read as n d coordinates in {1..L+}.
    """
    spec = lambda_spec(d, N)
    L = spec.L_plus
    check_function_space_budget(f"function space |V|^n = {L ** d}^{n}", L ** (d * n))
    basis = MagnonBasis(N, n)
    points = np.array(spec.points, dtype=np.int64) - 1
    # (n!, n) orderings; at n = 0 the one empty ordering gives shape (1, 0)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    rows = np.repeat(np.arange(basis.dim), len(perms))
    coords = points[basis.array()][:, perms].reshape(len(rows), n * d)
    # np.ravel: at n = 0 the index of the empty tuple comes back as a scalar
    cols = np.ravel(np.ravel_multi_index(tuple(coords.T), (L,) * (n * d)))
    scale, _ = _sqrt_factorial_scales(n)
    return sp.coo_matrix((np.full(len(rows), scale), (rows, cols)),
                         shape=(basis.dim, L ** (d * n))).tocsr()
