"""Discrete Sobolev machinery: trace inequality, contraction deficit bound,
nearest-good-point extension, and distance-to-good-set diagnostics.

The "good set" for n particles on the N-vertex lattice graph inside its
surrounding box consists of the n-tuples whose points all lie in the lattice
graph and are pairwise distinct.  The extension operator copies values to a
box tuple t from its nearest good tuple g: the one minimising the l1 distance
sum_i |t_i - g_i|_1, ties broken by the smallest row-major index, which is
the lexicographic order of the flattened coordinate tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import lambda_spec, make_box, make_lambda
from .sector import (
    _dot,
    _sqrt_factorial_scales,
    contraction_T_box,
    free_laplacian,
    hamiltonian_magnon,
    highest_weight_basis,
)

_REL_SLACK = 1e-10


@dataclass(frozen=True)
class TraceResult:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class DeficitBound:
    """Assembled constants of the contraction deficit bound."""

    L: int
    n: int
    d: int

    @property
    def kinetic_coefficient(self):
        return 2.0 * self.n * self.L / 3.0

    @property
    def mass_coefficient(self):
        return 4.0 * self.n * self.n * self.d / (self.L // 2)


@dataclass(frozen=True)
class DeficitResult:
    deficit: float
    bound: float
    holds: bool
    coefficients: DeficitBound


def trace_check(f):
    """Boundary-value trace inequality for a function on {1..L}.

    |f(1)|^2 <= (2L/3) sum |f(l)-f(l+1)|^2 + (2/L) sum |f(l)|^2.

    The mass coefficient 2/L comes from taking Cauchy-Schwarz over all L
    terms of the averaged telescoping identity; the often-quoted 2(L-1)/L^2
    is smaller than that and actually fails at L=2 (a near-constant f
    violates it), so the assembled constant is used here.
    """
    f = np.asarray(f)
    L = f.shape[0]
    if L < 2:
        raise ValueError("trace_check needs L >= 2")
    lhs = float(abs(f[0]) ** 2)
    kinetic = float(np.sum(np.abs(np.diff(f)) ** 2))
    mass = float(np.sum(np.abs(f) ** 2))
    rhs = (2.0 * L / 3.0) * kinetic + (2.0 / L) * mass
    return TraceResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-12))


@lru_cache(maxsize=16)
def _deficit_operators(d, N, n):
    spec = lambda_spec(d, N)
    box = make_box(d, spec.L_plus)
    return (spec.L_plus, box.vertex_count,
            contraction_T_box(d, N, n),
            free_laplacian(box, n))


def _deficit_rows(d, N, n, Fs):
    """(coefficients, deficits, bounds, holds) of the rows of ``Fs``, functions
    on the n-fold box; ``ValueError`` unless each is symmetric to 1e-10 max(1, max |F|)."""
    L, box_vertices, T, h = _deficit_operators(d, N, n)
    cube = Fs.reshape((len(Fs),) + (box_vertices,) * n)
    scale = np.maximum(1.0, np.abs(Fs).max(axis=1))
    for k in range(1, n):
        asym = np.abs(cube - np.swapaxes(cube, k, k + 1)).reshape(len(Fs), -1)
        if np.any(asym.max(axis=1) > 1e-10 * scale):
            raise ValueError("F is not symmetric under coordinate permutations")
    norm2 = np.real(np.einsum("ij,ij->i", Fs.conj(), Fs))
    tf = T @ Fs.T
    deficit = norm2 - np.real(np.einsum("ij,ij->j", tf.conj(), tf))
    kinetic = np.real(np.einsum("ij,ji->i", Fs.conj(), h @ Fs.T))
    coeff = DeficitBound(L=L, n=n, d=d)
    bound = coeff.kinetic_coefficient * kinetic + coeff.mass_coefficient * norm2
    return coeff, deficit, bound, deficit <= bound * (1.0 + _REL_SLACK)


def contraction_deficit(d, N, n, F):
    """Norm lost by the box-to-sector contraction, against the bound

    deficit = ||F||^2 - ||T F||^2 <= (2nL/3) <F, h F> + (4 n^2 d / floor(L/2)) ||F||^2

    for a symmetric function on the n-fold box, with L the ceiling box size
    and h the free n-particle Laplacian of that box.
    """
    coeff, deficit, bound, holds = _deficit_rows(d, N, n, np.asarray(F).reshape(1, -1))
    return DeficitResult(deficit=float(deficit[0]), bound=float(bound[0]),
                         holds=bool(holds[0]), coefficients=coeff)


def rho_max(n, d):
    """Worst-case l1 distance from any box tuple to the good set."""
    return n * d + n * max(n - 1, (n - 1) * (2 * n - 2))


class GoodSet:
    """Membership predicate for distinct-point lattice tuples inside the box."""

    def __init__(self, d, N, n):
        self.d = d
        self.N = N
        self.n = n
        spec = lambda_spec(d, N)
        self.L_plus = spec.L_plus
        self.lattice_points = frozenset(spec.points)

    def contains(self, point_tuple):
        pts = tuple(tuple(p) for p in point_tuple)
        if len(pts) != self.n:
            raise ValueError(f"expected {self.n} points")
        return all(p in self.lattice_points for p in pts) and len(set(pts)) == self.n

    __contains__ = contains


class _Geometry:
    """Distances to the good set and nearest good tuples on the n-fold box.

    ``dist`` and ``nearest`` are indexed by the row-major flat index of the
    box tuple; ``rank`` is the sector rank of each tuple's nearest good tuple.
    ``shape`` is the box's, (L+,) * d.
    """

    def __init__(self, d, N, n):
        # the contraction has one entry per good tuple, in the row of its sector
        # rank; the off-diagonal entries of the free Laplacian are the hops
        L, _, T, h = _deficit_operators(d, N, n)
        self.shape = (L,) * d
        dim = T.shape[1]
        T, h = T.tocoo(), h.tocoo()
        rank = np.zeros(dim, dtype=np.int64)
        rank[T.col] = T.row
        dist = np.full(dim, -1, dtype=np.int64)
        dist[T.col] = 0
        nearest = np.full(dim, dim, dtype=np.int64)
        nearest[T.col] = T.col
        # level-synchronous BFS: a tuple first reached at a level takes the
        # smallest nearest-good index among its neighbours one level down
        off = h.row != h.col
        src, dst = h.row[off], h.col[off]
        level = 0
        while True:
            hop = (dist[src] == level) & (dist[dst] < 0)
            if not hop.any():
                break
            level += 1
            dist[dst[hop]] = level
            np.minimum.at(nearest, dst[hop], nearest[src[hop]])
        self.dist = dist
        self.nearest = nearest
        self.rank = rank[nearest]


@lru_cache(maxsize=32)
def _geometry(d, N, n):
    return _Geometry(d, N, n)


def rho(d, N, n, point_tuple):
    """Exact l1 distance from a box tuple to the good set (0 on the good set).

    Raises :class:`ValueError` unless ``point_tuple`` is n points of d integer
    coordinates in {1..L+}.
    """
    geo = _geometry(d, N, n)
    pts = np.asarray(point_tuple)
    if (pts.shape != (n, d) and not (n == 0 and pts.size == 0)) or pts.dtype.kind not in "iuf":
        raise ValueError(f"expected {n} points of {d} coordinates, got {point_tuple}")
    if not np.all((pts >= 1) & (pts <= geo.shape[0]) & (pts == np.round(pts))):
        raise ValueError(f"{point_tuple} are not integer points of the surrounding box")
    flat = np.ravel_multi_index(tuple(pts.astype(np.int64).ravel() - 1), geo.shape * n)
    return int(geo.dist[flat])


def extension_Xi(d, N, n, psi):
    """Extend sector coefficients to a symmetric function on the n-fold box.

    On the good set the values invert the contraction (so that applying the
    contraction afterwards reproduces ``psi``); everywhere else the value is
    copied from the nearest good tuple, with lexicographic tie-break.
    """
    geo = _geometry(d, N, n)
    psi = np.asarray(psi)
    if psi.shape != (math.comb(N, n),):
        raise ValueError(f"psi must have length {math.comb(N, n)}")
    _, inv_scale = _sqrt_factorial_scales(n)
    return psi[geo.rank] * inv_scale


def extension_energy_ratio(d, N, n):
    """Free-gas energy of extended highest-weight eigenvectors over their own energy.

    Returns ``(max_ratio, ratios)``, the empirical stand-in for the extension
    bound's non-constructive constant.
    """
    lam = make_lambda(d, N)
    H = hamiltonian_magnon(lam, n)
    basis = highest_weight_basis(lam, n)
    small = basis.T @ H @ basis
    vals, vecs = np.linalg.eigh(small)
    h = _deficit_operators(d, N, n)[3]
    ratios = []
    for i in range(len(vals)):
        psi = basis @ vecs[:, i]
        xi = extension_Xi(d, N, n, psi)
        num = _dot(xi, h @ xi)
        den = _dot(psi, H @ psi)
        ratios.append(num / den)
    return max(ratios), ratios
