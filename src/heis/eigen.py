"""Extremal and full eigensolvers and total-spin labeling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceError, LabelingError, NumericalError
from .sector import (
    _dot,
    casimir_magnon,
    check_dense_budget,
    check_highest_weight_budget,
    hamiltonian_magnon,
    valence_bond_basis,
)

#: Largest dimension that :func:`lowest_eig` solves densely; ARPACK takes
#: the larger ones (measured dense/ARPACK crossover: 220-250).
DENSE_CUTOFF = 240

#: Relative residual to which ARPACK solves in :func:`lowest_eig`.
KRYLOV_TOL = 1e-10

#: Eigenvalues closer than this are treated as degenerate.
DEGENERACY_TOL = 1e-8

#: Largest relative residual ||Hy - Ey|| / ||y|| accepted for a
#: highest-weight level.
RESIDUAL_TOL = 1e-8

#: Smallest ||project(s)|| / ||s|| of a start vector s that :func:`lowest_eig`
#: hands to ARPACK; below it the seeded random start is used.
_MIN_START_WEIGHT = 1e-3

#: Weight of the projected random vector in a Krylov start with a given state.
_START_NOISE = 0.1

#: Entries of one column block of the sector vectors y = Bx.
_BLOCK_ENTRIES = 1 << 20

#: Entries of one column block of the identity pushed through the operator
#: and the projector by :func:`lowest_eig`'s dense path.
_DENSE_BLOCK_ENTRIES = 1 << 17


@dataclass
class EigResult:
    values: np.ndarray                  # ascending
    vectors: np.ndarray = None          # orthonormal columns, optional
    residual_norms: np.ndarray = None


@dataclass
class SpinLabel:
    energy: float
    n_prime: int
    multiplicity: int


@dataclass
class SpinLabeledSpectrum:
    entries: list                       # of SpinLabel, ascending energy
    vectors: np.ndarray = None          # rotated eigenvectors
    labels: np.ndarray = None           # n' per column of ``vectors``

    def energies_with_label(self, n_prime):
        return [e.energy for e in self.entries if e.n_prime == n_prime]


def _run_bounds(values):
    """Start index of every run of an ascending array whose consecutive gaps
    are at most ``DEGENERACY_TOL``, followed by the array's length."""
    gaps = np.diff(np.asarray(values, dtype=float), prepend=-np.inf, append=np.inf)
    return np.flatnonzero(gaps > DEGENERACY_TOL)


def degenerate_runs(values):
    """(start, stop) index pairs of the runs of an ascending array whose
    consecutive gaps are at most ``DEGENERACY_TOL``."""
    bounds = _run_bounds(values).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _as_csr(op):
    if sp.issparse(op):
        return op.tocsr()
    return sp.csr_matrix(np.asarray(op, dtype=float))


def full_spectrum(op, with_vectors=True):
    """All eigenvalues (and optionally vectors) of a symmetric operator.

    Dense path only; raises :class:`SizeBudgetError` above ``sector.DENSE_BUDGET``
    (use :func:`min_eig`, which runs ARPACK above ``DENSE_CUTOFF``, for the
    lowest value there).
    """
    mat = _as_csr(op)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("full_spectrum needs a square operator")
    check_dense_budget(mat.shape[0])
    dense = mat.toarray()
    if with_vectors:
        vals, vecs = np.linalg.eigh(dense)
        res = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
        return EigResult(values=vals, vectors=vecs, residual_norms=res)
    return EigResult(values=np.linalg.eigvalsh(dense))


def lowest_eig(apply, project, dim, seed, start=None):
    """Lowest eigenpair of the symmetric operator x -> apply(x) on the range
    of the orthogonal projector x -> project(x) in R^dim.

    ``apply`` must commute with the projector and be positive semidefinite
    on the complement of its range.  The solve is then of the lifted
    A = apply + c(I - project): each state of the complement sits at c or
    higher, so for c above the sought eigenvalue it is A's lowest.  Both
    callables act on vectors and on the columns of a matrix.  Both paths
    take c = <v0, apply v0> / <v0, v0> + 1 at a start v0 in the range (an
    upper bound on the sought eigenvalue plus 1, so A's spectrum spans
    little more than that of ``apply``), from v0 = Pr with r drawn with
    ``seed``: the result is deterministic for a fixed seed.

    ``dim`` below 1 raises ``ValueError`` before either callable is called.
    The size alone picks the path: dense at or below ``DENSE_CUTOFF`` and
    ARPACK above.  The dense solve (also for dim 1, which ARPACK cannot
    take) raises :class:`SizeBudgetError` above ``sector.DENSE_BUDGET``
    first, then builds A in one pass over column blocks of the identity of
    ``_DENSE_BLOCK_ENTRIES`` entries, so the projector's temporaries stay a
    block wide.

    ARPACK solves to relative residual ``KRYLOV_TOL``.  Given a zero-argument
    callable ``start`` (called on this path only) and s = ``start()``, it
    starts from v0 = Ps / ||Ps|| + ``_START_NOISE`` Pr / ||Pr|| unless
    ||Ps|| <= ``_MIN_START_WEIGHT`` ||s||; the random part reaches every
    symmetry sector, which s alone may miss.  ``seed`` also seeds the
    restart vectors.  ARPACK stops with error -9 when the operator
    annihilates its start vector (the zero operator does, at every size), so
    it runs on A plus the identity and the shift is undone.  ARPACK failures
    raise :class:`ConvergenceError`.
    """
    if dim < 1:
        raise ValueError(f"no lowest eigenpair on a space of dimension {dim}")
    dense = dim <= DENSE_CUTOFF or dim < 2
    if dense:
        check_dense_budget(dim)
    v0 = project(np.random.default_rng(seed).standard_normal(dim))
    if start is not None and not dense:
        s = start()
        ps = project(s)
        weight = math.sqrt(_dot(ps, ps))
        if weight > _MIN_START_WEIGHT * math.sqrt(_dot(s, s)):
            v0 = ps / weight + _START_NOISE / math.sqrt(_dot(v0, v0)) * v0
    lift = _dot(v0, apply(v0)) / _dot(v0, v0) + 1.0

    def lifted(x):
        return apply(x) + lift * (x - project(x))
    if dense:
        A = np.empty((dim, dim), order="F")
        width = max(1, _DENSE_BLOCK_ENTRIES // dim)
        for i in range(0, dim, width):
            A[:, i:i + width] = lifted(np.eye(dim, min(width, dim - i), -i))
        vals, vecs = scipy.linalg.eigh(A, subset_by_index=[0, 0], overwrite_a=True)
        return float(vals[0]), vecs[:, 0]
    shifted = LinearOperator((dim, dim), matvec=lambda x: lifted(x) + x, dtype=np.float64)
    try:
        vals, vecs = eigsh(shifted, k=1, which="SA", v0=v0, tol=KRYLOV_TOL,
                           rng=np.random.default_rng(seed))
    except ArpackNoConvergence as exc:
        best = len(exc.eigenvalues) > 0
        raise ConvergenceError(
            f"ARPACK did not converge: {exc}",
            best_value=float(exc.eigenvalues[0]) - 1.0 if best else None,
            best_vector=exc.eigenvectors[:, 0] if best else None,
        ) from exc
    except ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from exc
    return float(vals[0]) - 1.0, vecs[:, 0]


def min_eig(op, deflate=None, seed=0):
    """Minimum eigenvalue and eigenvector, optionally deflated.

    ``deflate`` is a matrix of orthonormal columns; the minimum is taken over
    their orthogonal complement (the minimum Rayleigh quotient there), as the
    lowest eigenpair of P M P on the range of P, the complement projector,
    where P M P vanishes on the rest.  Solved by :func:`lowest_eig`, so
    the solver path and the size budgets are those of ``energy_level``.
    Deterministic for a fixed seed.
    """
    mat = _as_csr(op)
    dim = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("min_eig needs a square operator")
    if deflate is not None:
        deflate = np.asarray(deflate, dtype=float)
        if deflate.size == 0:
            deflate = None
        elif deflate.ndim != 2 or deflate.shape[0] != dim:
            raise ValueError(
                f"deflation must be a ({dim}, k) matrix of columns, got shape {deflate.shape}")
        else:
            gram = deflate.T @ deflate
            if not np.allclose(gram, np.eye(deflate.shape[1]), atol=1e-10):
                raise ValueError("deflation columns are not orthonormal to 1e-10")
            if deflate.shape[1] >= dim:
                raise ValueError("deflation space spans the whole operator domain")

    def project(x):
        return x if deflate is None else x - deflate @ (deflate.T @ x)

    return lowest_eig(lambda x: project(mat @ project(x)), project, dim, seed=seed)


def _spin_from_casimir(c, V, tol=1e-8):
    s = 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * c)))
    n_prime = 0.5 * V - s
    n_int = int(round(n_prime))
    s_int = 0.5 * V - n_int
    if n_int < 0 or abs(s_int * (s_int + 1.0) - c) > tol:
        raise LabelingError(
            f"Casimir eigenvalue {c!r} is not near any s(s+1)", offending_value=c
        )
    return n_int


def label_spins(g, n, eig, tol=1e-8):
    """Attach an integer spin-deviate label to every eigenvector.

    Within each degenerate Hamiltonian eigenspace (a run of
    :func:`degenerate_runs`) the restricted Casimir is diagonalized jointly
    (the two operators commute exactly), so each returned column has a
    definite total spin s = V/2 - n', read from its Casimir eigenvalue
    s(s+1).
    """
    if eig.vectors is None:
        raise ValueError("label_spins needs eigenvectors")
    V = g.vertex_count
    values = eig.values
    vectors = eig.vectors.copy()
    CV = casimir_magnon(g, n) @ vectors
    labels = np.empty(len(values), dtype=int)
    for i, j in degenerate_runs(values):
        W = vectors[:, i:j]
        cvals, cvecs = np.linalg.eigh(W.T @ CV[:, i:j])
        group = np.array([_spin_from_casimir(float(c), V, tol) for c in cvals], dtype=int)
        order = np.argsort(group, kind="stable")
        vectors[:, i:j] = (W @ cvecs)[:, order]
        labels[i:j] = group[order]
    return SpinLabeledSpectrum(entries=_spin_entries(values, labels), vectors=vectors,
                               labels=labels)


def _spin_entries(values, labels):
    """One :class:`SpinLabel` per label of each :func:`degenerate_runs` run
    of the ascending ``values``: the run's mean energy, labels ascending,
    multiplicity the label's count in the run.

    One pass: the (run, label) pairs are counted by one ``np.unique`` over
    run (max label + 1) + label, and the run means come from one reduction.
    """
    bounds = _run_bounds(values)
    sizes = np.diff(bounds)
    means = np.add.reduceat(values, bounds[:-1]) / sizes
    width = int(labels.max(initial=0)) + 1
    keys, counts = np.unique(np.repeat(np.arange(len(sizes)), sizes) * width + labels,
                             return_counts=True)
    runs, labs = np.divmod(keys, width)
    return [SpinLabel(energy=e, n_prime=lab, multiplicity=c)
            for e, lab, c in zip(means[runs].tolist(), labs.tolist(), counts.tolist())]


def highest_weight_levels(g, n):
    """Ascending energies of the highest-weight states of spin deviate n.

    Solves B^T H B x = lambda B^T B x densely in the valence-bond basis B
    (:func:`heis.sector.valence_bond_basis`).  B^T B is ill-conditioned
    (condition number 6.6e5 on ring12 at n = 6), so each level is reported
    as the Rayleigh quotient of y = Bx on the sector Hamiltonian, built in
    column blocks of y, with Hy applied by H itself.  Raises
    :class:`NumericalError` when a relative residual ||Hy - Ey|| / ||y||
    exceeds ``RESIDUAL_TOL``.  B is built first: its budget check comes
    before any sector-sized array.
    """
    B = valence_bond_basis(g.vertex_count, n)
    H = hamiltonian_magnon(g, n)
    _, X = scipy.linalg.eigh((B.T @ (H @ B)).toarray(), (B.T @ B).toarray())
    energies = np.empty(X.shape[1])
    width = max(1, _BLOCK_ENTRIES // H.shape[0])
    for i in range(0, X.shape[1], width):
        Y = B @ X[:, i:i + width]
        HY = H @ Y
        norms = np.linalg.norm(Y, axis=0)
        e = np.einsum("ij,ij->j", Y, HY) / norms ** 2
        res = np.linalg.norm(HY - Y * e, axis=0) / norms
        if res.max() > RESIDUAL_TOL:
            raise NumericalError(
                f"highest-weight level at n={n} has residual {res.max():.3e} "
                f"above {RESIDUAL_TOL:g}", diagnostics={"n": n, "residual": float(res.max())})
        energies[i:i + width] = e
    return np.sort(energies)


def labeled_spectra(g, sectors):
    """Spin-labeled spectrum of every sector n in ``sectors``, keyed by n.

    Sector n holds one copy of each highest-weight state of spin deviate
    n' <= min(n, V - n) (its S^- descendant), so its spectrum is the union of
    those :func:`highest_weight_levels`, each level labeled n' by
    construction, grouped as in :func:`label_spins`.  Each highest-weight
    spectrum is solved once for all sectors, and the entries are grouped
    once per m = min(n, V - n): sectors n and V - n get distinct spectra
    and entry lists that hold the same :class:`SpinLabel` objects.  Every
    budget of every n' is checked before the first solve: ``SECTOR_BUDGET``
    on C(V, n') and ``sector.DENSE_BUDGET`` on the highest-weight dimension
    C(V, n') - C(V, n'-1).  The entries carry no vectors.
    """
    V = g.vertex_count
    for n in sectors:
        if not 0 <= n <= V:
            raise ValueError(f"magnon number {n} out of range")
    top = max((min(n, V - n) for n in sectors), default=-1)
    for m in range(top + 1):
        check_highest_weight_budget(V, m)
    levels = [highest_weight_levels(g, m) for m in range(top + 1)]
    entries = {}
    for m in {min(n, V - n) for n in sectors}:
        parts = levels[:m + 1]
        values = np.concatenate(parts)
        labels = np.repeat(np.arange(m + 1), [len(p) for p in parts])
        order = np.argsort(values, kind="stable")
        entries[m] = _spin_entries(values[order], labels[order])
    return {n: SpinLabeledSpectrum(entries=list(entries[min(n, V - n)])) for n in sectors}
