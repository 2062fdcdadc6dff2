"""Magnon-sector bases and the sparse operators acting on them.

The n-magnon sector of a graph with V vertices is spanned by the states
obtained from the all-up product state by flipping the spins on a size-n
vertex subset X.  These states are orthonormal, so the sector is identified
with C^(V choose n) once a deterministic ordering of subsets is fixed;
here the combinatorial number system (colexicographic order) is used.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.linalg

from .errors import ParseError, SizeBudgetError

#: Cap on |V|**n for operators living on the full n-particle function space.
FUNCTION_SPACE_BUDGET = 1 << 21

#: Cap on the sector dimension C(V, n) of every array built over a magnon sector.
SECTOR_BUDGET = 1 << 18

_QR_RANK_TOL = 1e-12


class MagnonBasis:
    """Ranked enumeration of size-n subsets of {0..vertex_count-1}.

    Uses the combinatorial number system: a subset with ascending elements
    c_0 < c_1 < ... ranks to sum of C(c_i, i+1), which enumerates subsets in
    colexicographic order with O(n) rank/unrank and no tables.
    """

    def __init__(self, vertex_count, n):
        if not 0 <= n <= vertex_count:
            raise ValueError(f"magnon number {n} out of range for {vertex_count} vertices")
        self.vertex_count = vertex_count
        self.n = n
        self.dim = math.comb(vertex_count, n)
        self._weights = None

    def rank(self, subset):
        c = sorted(subset)
        if len(c) != self.n:
            raise ValueError(f"subset size {len(c)} != {self.n}")
        return sum(math.comb(v, i + 1) for i, v in enumerate(c))

    def unrank(self, index):
        if not 0 <= index < self.dim:
            raise ValueError(f"rank {index} out of range")
        out = []
        r = index
        for i in range(self.n, 0, -1):
            # largest c with comb(c, i) <= r; search down from previous element
            c = out[-1] - 1 if out else self.vertex_count - 1
            while math.comb(c, i) > r:
                c -= 1
            out.append(c)
            r -= math.comb(c, i)
        return tuple(reversed(out))

    def subsets(self):
        """All subsets in rank order."""
        return (self.unrank(i) for i in range(self.dim))

    def array(self):
        """All subsets in rank order, as a (dim, n) int64 array of ascending rows.

        Built one column at a time: the colex-ordered k-subsets with largest
        element c are the first C(c, k-1) colex-ordered (k-1)-subsets with c
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

    def rank_array(self, sub):
        """Ranks of the ascending rows of a (m, n) subset array."""
        if self._weights is None:
            # weights[v, i] = C(v, i+1); entries no n-subset can reach stay 0,
            # which keeps the table inside int64 for any vertex count
            V, n = self.vertex_count, self.n
            self._weights = np.array(
                [[math.comb(v, i + 1) if v - i <= V - n else 0 for i in range(n)]
                 for v in range(V)], dtype=np.int64).reshape(V, n)
        return self._weights[sub, np.arange(self.n)].sum(axis=1)


def check_sector_budget(vertex_count, n):
    """Raise :class:`SizeBudgetError` when C(vertex_count, n) exceeds ``SECTOR_BUDGET``."""
    dim = math.comb(vertex_count, n)
    if dim > SECTOR_BUDGET:
        raise SizeBudgetError(
            f"sector C({vertex_count},{n}) = {dim} exceeds the sector budget {SECTOR_BUDGET}"
        )


@dataclass
class SparseSymOp:
    """Sparse operator in coordinate format.

    Symmetric operators store each unordered entry pair once (row <= col);
    ``to_csr`` mirrors the strict upper triangle.  Rectangular operators set
    ``symmetric=False`` and store entries verbatim.
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    symmetric: bool = True
    _csr: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if self.symmetric:
            if self.shape[0] != self.shape[1]:
                raise ValueError("symmetric operator must be square")
            if np.any(self.rows > self.cols):
                raise ValueError("symmetric storage requires row <= col")

    @property
    def dim(self):
        if self.shape[0] != self.shape[1]:
            raise ValueError("dim is only defined for square operators")
        return self.shape[0]

    def to_csr(self):
        if self._csr is None:
            m = sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=self.shape)
            if self.symmetric:
                off = self.rows != self.cols
                m = m + sp.coo_matrix(
                    (self.vals[off], (self.cols[off], self.rows[off])), shape=self.shape
                )
            self._csr = m.tocsr()
        return self._csr

    def to_dense(self):
        return self.to_csr().toarray()

    def norm_inf(self):
        m = self.to_csr()
        return float(np.max(np.abs(m).sum(axis=1))) if m.nnz else 0.0

    @classmethod
    def from_scipy(cls, mat, symmetric):
        coo = sp.coo_matrix(mat)
        coo.sum_duplicates()
        r, c, v = coo.row, coo.col, coo.data
        if symmetric:
            keep = r <= c
            r, c, v = r[keep], c[keep], v[keep]
        return cls(shape=coo.shape, rows=r, cols=c, vals=v, symmetric=symmetric)

    @classmethod
    def zero(cls, dim):
        e = np.empty(0)
        return cls(shape=(dim, dim), rows=e, cols=e, vals=e, symmetric=True)

    def dump(self, path):
        """Write the operator in the golden-test text format."""
        with open(path, "w") as fh:
            if self.shape[0] == self.shape[1]:
                fh.write(f"#dim {self.shape[0]} symmetric={str(self.symmetric).lower()}\n")
            else:
                fh.write(
                    f"#dim {self.shape[0]} {self.shape[1]} "
                    f"symmetric={str(self.symmetric).lower()}\n"
                )
            order = np.lexsort((self.cols, self.rows))
            for i in order:
                fh.write(f"{self.rows[i]} {self.cols[i]} {float(self.vals[i])!r}\n")


def load_op(path):
    """Read an operator written by :meth:`SparseSymOp.dump`."""
    rows, cols, vals = [], [], []
    shape = None
    symmetric = True
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#dim"):
                parts = line.split()
                try:
                    dims = [int(p) for p in parts[1:] if "=" not in p]
                    shape = (dims[0], dims[0]) if len(dims) == 1 else (dims[0], dims[1])
                    symmetric = parts[-1].split("=")[1] == "true"
                except (IndexError, ValueError):
                    raise ParseError("bad operator header", lineno)
                continue
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'row col value', got {line!r}", lineno)
            try:
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                vals.append(float(parts[2]))
            except ValueError:
                raise ParseError(f"could not parse {line!r}", lineno)
    if shape is None:
        raise ParseError("missing #dim header")
    return SparseSymOp(shape=shape, rows=np.array(rows), cols=np.array(cols),
                       vals=np.array(vals), symmetric=symmetric)


class FunctionSpaceIndex:
    """Row-major bijection between {0..V^n-1} and tuples in V^n.

    Also provides the deleted-diagonal predicate: a tuple is diagonal when
    two of its coordinates coincide.
    """

    def __init__(self, vertex_count, n):
        self.vertex_count = vertex_count
        self.n = n
        self.dim = vertex_count ** n
        if self.dim > FUNCTION_SPACE_BUDGET:
            raise SizeBudgetError(f"|V|^n = {self.dim} exceeds function-space budget")

    def encode(self, tup):
        idx = 0
        for x in tup:
            if not 0 <= x < self.vertex_count:
                raise ValueError(f"vertex index {x} out of range")
            idx = idx * self.vertex_count + x
        return idx

    def decode(self, index):
        out = []
        for _ in range(self.n):
            index, x = divmod(index, self.vertex_count)
            out.append(x)
        return tuple(reversed(out))

    def in_deleted_diagonal(self, tup):
        return len(set(tup)) < len(tup)

    def tuples(self):
        return itertools.product(range(self.vertex_count), repeat=self.n)


def _indexed_edges(g):
    idx = g.index_of()
    return [(idx[u], idx[v], j) for (u, v), j in zip(g.edges, g.couplings)]


def _membership(sub, vertex_count):
    """(V, dim) boolean table whose row x marks the subsets containing x."""
    member = np.zeros((vertex_count, len(sub)), dtype=bool)
    member[sub, np.arange(len(sub))[:, None]] = True
    return member


def hamiltonian_magnon(g, n):
    """Heisenberg Hamiltonian restricted to the n-magnon sector.

    In the flipped-subset basis the matrix is the graph Laplacian (with the
    1/2 convention) of the hard-core hopping graph: the diagonal entry of a
    subset X is half the total coupling crossing the boundary of X, and each
    single-magnon hop along an edge of coupling J contributes -J/2.
    """
    V = g.vertex_count
    if not 0 <= n <= V:
        raise ValueError(f"magnon number {n} out of range")
    basis = MagnonBasis(V, n)
    sub = basis.array()
    member = _membership(sub, V)
    index = np.arange(basis.dim)
    diag = np.zeros(basis.dim)
    rows, cols, vals = [], [], []
    for (u, v, j) in _indexed_edges(g):
        cross = member[u] != member[v]
        diag[cross] += 0.5 * j
        # the magnon on the edge hops to its other end: swap u and v
        hop = sub[cross]
        hopped = np.where(hop == u, v, np.where(hop == v, u, hop))
        hopped.sort(axis=1)
        i, k = index[cross], basis.rank_array(hopped)
        upper = i < k
        rows.append(i[upper])
        cols.append(k[upper])
        vals.append(np.full(int(upper.sum()), -0.5 * j))
    nonzero = diag != 0.0
    rows.append(index[nonzero])
    cols.append(index[nonzero])
    vals.append(diag[nonzero])
    return SparseSymOp(shape=(basis.dim, basis.dim), rows=np.concatenate(rows),
                       cols=np.concatenate(cols), vals=np.concatenate(vals),
                       symmetric=True)


def lowering_matrix(g, n):
    """Total spin lowering operator as a map mag(n-1) -> mag(n).

    The column of a subset X with |X| = n-1 has a unit entry at every
    superset X + {x}; the transpose represents the raising operator.
    """
    V = g.vertex_count
    if not 1 <= n <= V:
        raise ValueError(f"magnon number {n} out of range")
    check_sector_budget(V, n)
    src = MagnonBasis(V, n - 1)
    dst = MagnonBasis(V, n)
    sub = src.array()
    member = _membership(sub, V)
    index = np.arange(src.dim)
    rows, cols = [], []
    for x in range(V):
        free = ~member[x]
        grown = np.column_stack((sub[free], np.full(int(free.sum()), x, dtype=np.int64)))
        grown.sort(axis=1)
        rows.append(dst.rank_array(grown))
        cols.append(index[free])
    rows = np.concatenate(rows)
    return SparseSymOp(shape=(dst.dim, src.dim), rows=rows,
                       cols=np.concatenate(cols), vals=np.ones(len(rows)),
                       symmetric=False)


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
        return SparseSymOp.from_scipy(base, symmetric=True)
    low = lowering_matrix(g, n).to_csr()
    return SparseSymOp.from_scipy(base + low @ low.T, symmetric=True)


def highest_weight_basis(g, n):
    """Orthonormal basis of the highest-weight subspace of mag(n).

    This is the orthogonal complement of range(S^-) inside the sector; its
    dimension is C(V,n) - C(V,n-1).  For n beyond V/2 the subspace is empty
    and an empty basis is returned with a warning.
    """
    V = g.vertex_count
    if n == 0:
        return np.ones((1, 1))
    if n > V // 2:
        warnings.warn(f"no highest-weight vectors at n={n} for {V} vertices")
        return np.zeros((math.comb(V, n), 0))
    L = lowering_matrix(g, n).to_dense()
    q, r, _ = scipy.linalg.qr(L, mode="full", pivoting=True)
    d = np.abs(np.diag(r))
    rank = int(np.sum(d > _QR_RANK_TOL * max(d[0], 1.0)))
    return q[:, rank:]


def highest_weight_projector(g, n):
    """Exact orthogonal projector onto the highest-weight subspace of mag(n).

    Returned as a function applying P to a vector or to the columns of a
    matrix.  On mag(n), A = S^- S^+ acts on spin s = M + j (M = V/2 - n) as
    lambda_j = (M+j)(M+j+1) - M(M+1), with lambda_0 = 0 on the highest-weight
    space, so P = prod_{j=1..n} (I - A/lambda_j): 2n sparse products and no
    factorization.  The factors run from the largest lambda_j down, so every
    factor shrinks the components that survive it and rounding never grows.
    """
    V = g.vertex_count
    if not 1 <= n <= V // 2:
        raise ValueError(f"no lowered states to project out at n={n} for {V} vertices")
    low = lowering_matrix(g, n).to_csr()
    up = low.T.tocsr()
    M = 0.5 * V - n
    lams = [(M + j) * (M + j + 1) - M * (M + 1) for j in range(n, 0, -1)]

    def project(x):
        for lam in lams:
            x = x - (low @ (up @ x)) / lam
        return x

    return project


def free_laplacian(g, n):
    """Total n-particle graph Laplacian on the full function space V^n.

    Kronecker sum of n copies of the single-particle Laplacian (with the 1/2
    convention); equivalently the Laplacian of the product graph in which one
    particle at a time hops along an edge of g.
    """
    V = g.vertex_count
    if V ** n > FUNCTION_SPACE_BUDGET:
        raise SizeBudgetError(f"|V|^n = {V ** n} exceeds function-space budget")
    edges = _indexed_edges(g)
    one = sp.lil_matrix((V, V))
    for (u, v, j) in edges:
        one[u, u] += 0.5 * j
        one[v, v] += 0.5 * j
        one[u, v] -= 0.5 * j
        one[v, u] -= 0.5 * j
    one = one.tocsr()
    total = sp.csr_matrix((V ** n, V ** n))
    for k in range(n):
        left = sp.identity(V ** k, format="csr")
        right = sp.identity(V ** (n - k - 1), format="csr")
        total = total + sp.kron(sp.kron(left, one), right, format="csr")
    return SparseSymOp.from_scipy(total, symmetric=True)


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


def contraction_T(g, n):
    """The map from n-particle functions to the n-magnon sector.

    Sends F to (n!)^(-1/2) sum_x F(x_1..x_n) times the flipped state at
    {x_1..x_n}; tuples with repeated vertices are annihilated.
    """
    V = g.vertex_count
    findex = FunctionSpaceIndex(V, n)
    basis = MagnonBasis(V, n)
    scale, _ = _sqrt_factorial_scales(n)
    rows, cols = [], []
    for tup in findex.tuples():
        if len(set(tup)) == n:
            rows.append(basis.rank(tup))
            cols.append(findex.encode(tup))
    return SparseSymOp(shape=(basis.dim, findex.dim), rows=np.array(rows),
                       cols=np.array(cols),
                       vals=np.full(len(rows), scale), symmetric=False)


def contraction_T_box(d, N, n):
    """Contraction from functions on the surrounding box to mag(n) of the lattice graph.

    Functions live on (B^d(L+))^n; they are restricted to tuples of distinct
    points of the N-vertex lattice graph and then contracted as in
    :func:`contraction_T`.
    """
    from .graph import lambda_spec, make_box, make_lambda

    spec = lambda_spec(d, N)
    box = make_box(d, spec.L_plus)
    lam = make_lambda(d, N)
    box_pos = {p: i for i, p in enumerate(box.points)}
    lam_ids = [box_pos[p] for p in lam.points]  # box index of each lattice vertex
    findex = FunctionSpaceIndex(box.vertex_count, n)
    basis = MagnonBasis(lam.vertex_count, n)
    scale, _ = _sqrt_factorial_scales(n)
    rows, cols = [], []
    for subset in itertools.combinations(range(lam.vertex_count), n):
        r = basis.rank(subset)
        box_tuple = [lam_ids[v] for v in subset]
        for perm in itertools.permutations(box_tuple):
            rows.append(r)
            cols.append(findex.encode(perm))
    return SparseSymOp(shape=(basis.dim, findex.dim), rows=np.array(rows),
                       cols=np.array(cols),
                       vals=np.full(len(rows), scale), symmetric=False)


def lower_function(F, vertex_count):
    """Function-space counterpart of the lowering operator.

    Maps F on V^n to the function on V^(n+1) obtained by summing F over all
    n+1 ways of deleting one coordinate.  Intertwines with the contraction:
    T o lower_function = S^- o T.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim == 0:
        return np.full(vertex_count, float(F))
    n = F.ndim
    if F.shape != (vertex_count,) * n:
        raise ValueError("F must be an n-fold array over the vertex set")
    if vertex_count ** (n + 1) > FUNCTION_SPACE_BUDGET:
        raise SizeBudgetError("target function space exceeds budget")
    out = np.zeros((vertex_count,) * (n + 1))
    for k in range(n + 1):
        out += np.expand_dims(F, axis=k)
    return out


def assemble_full(g):
    """Block-diagonal Hamiltonian over all magnon sectors n = 0..V.

    The blocks are ordered by n; the total dimension is 2^V.
    """
    V = g.vertex_count
    if 2 ** V > FUNCTION_SPACE_BUDGET:
        raise SizeBudgetError(f"2^{V} exceeds budget")
    blocks = [hamiltonian_magnon(g, n).to_csr() for n in range(V + 1)]
    return SparseSymOp.from_scipy(sp.block_diag(blocks, format="csr"), symmetric=True)
