"""Extremal and full eigensolvers, spectral counting, and total-spin labeling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceError, LabelingError, SizeBudgetError
from .sector import SparseSymOp, casimir_magnon

#: Largest dimension handed to the dense eigensolver.
DENSE_BUDGET = 4096

#: Eigenvalues closer than this are treated as degenerate.
DEGENERACY_TOL = 1e-8


@dataclass
class EigResult:
    values: np.ndarray                  # ascending
    vectors: np.ndarray = None          # orthonormal columns, optional
    residual_norms: np.ndarray = None
    method: str = "dense"

    def multiplicities(self, tol=DEGENERACY_TOL):
        """(value, multiplicity) pairs grouped by the degeneracy threshold."""
        groups = []
        for v in self.values:
            if groups and v - groups[-1][0] <= tol:
                groups[-1][1] += 1
            else:
                groups.append([float(v), 1])
        return [(v, m) for v, m in groups]


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


def _as_csr(op):
    if isinstance(op, SparseSymOp):
        return op.to_csr()
    if sp.issparse(op):
        return op.tocsr()
    return sp.csr_matrix(np.asarray(op, dtype=float))


def full_spectrum(op, with_vectors=True):
    """All eigenvalues (and optionally vectors) of a symmetric operator.

    Dense path only; raises :class:`SizeBudgetError` above ``DENSE_BUDGET``
    (use :func:`min_eig` with the Krylov method for extremal values there).
    """
    mat = _as_csr(op)
    dim = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("full_spectrum needs a square operator")
    if dim > DENSE_BUDGET:
        raise SizeBudgetError(
            f"dim {dim} exceeds dense budget {DENSE_BUDGET}; use the krylov path"
        )
    dense = mat.toarray()
    if with_vectors:
        vals, vecs = np.linalg.eigh(dense)
        res = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
        return EigResult(values=vals, vectors=vecs, residual_norms=res, method="dense")
    vals = np.linalg.eigvalsh(dense)
    return EigResult(values=vals, method="dense")


def arpack_min(apply, v0, tol=0.0, seed=0):
    """Lowest eigenpair of the symmetric operator x -> apply(x), by ARPACK.

    Deterministic for a fixed start vector ``v0`` and ``seed``, which seeds
    the restart vectors.  ARPACK stops with error -9 when the operator
    annihilates its start vector (the zero operator does, at every size), so
    the solve runs on the operator plus the identity and the shift is undone.
    ARPACK failures raise :class:`ConvergenceError`.
    """
    dim = v0.shape[0]
    shifted = LinearOperator((dim, dim), matvec=lambda x: apply(x) + x, dtype=np.float64)
    try:
        vals, vecs = eigsh(shifted, k=1, which="SA", v0=v0, tol=tol,
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


def min_eig(op, deflate=None, tol=1e-10, seed=0, method="auto"):
    """Minimum eigenvalue and eigenvector, optionally deflated.

    ``deflate`` is a matrix of orthonormal columns; the minimum is taken over
    their orthogonal complement (the minimum Rayleigh quotient there).
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
        else:
            gram = deflate.T @ deflate
            if not np.allclose(gram, np.eye(deflate.shape[1]), atol=1e-10):
                raise ValueError("deflation columns are not orthonormal to 1e-10")
    if method == "auto":
        method = "dense" if dim <= DENSE_BUDGET else "krylov"
    if method not in ("dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    if method == "krylov" and dim > 1:      # ARPACK needs two dimensions
        def project(x):
            return x if deflate is None else x - deflate @ (deflate.T @ x)

        # the deflation space is lifted above the whole spectrum of ``mat``
        lift = float(abs(mat).sum(axis=1).max()) + 1.0

        def apply(x):
            return project(mat @ project(x)) + lift * (x - project(x))

        v0 = project(np.random.default_rng(seed).standard_normal(dim))
        if np.linalg.norm(v0) < 1e-13:
            raise ValueError("deflation space spans the whole operator domain")
        return arpack_min(apply, v0, tol=tol, seed=seed)
    dense = mat.toarray()
    if deflate is None:
        vals, vecs = np.linalg.eigh(dense)
        return float(vals[0]), vecs[:, 0]
    # restrict to the orthogonal complement of the deflation space
    q, _ = np.linalg.qr(deflate, mode="complete")
    comp = q[:, deflate.shape[1]:]
    small = comp.T @ dense @ comp
    vals, vecs = np.linalg.eigh(small)
    vec = comp @ vecs[:, 0]
    return float(vals[0]), vec / np.linalg.norm(vec)


def spectral_count(op, energy, degeneracy_tol=DEGENERACY_TOL, psd_tol=1e-10):
    """Dimension of the spectral subspace for energies in [0, energy].

    Counts eigenvalues at most ``energy + degeneracy_tol``.  Requires the
    operator to be positive semi-definite up to ``psd_tol``.
    """
    vals = full_spectrum(op, with_vectors=False).values
    if vals.size and vals[0] < -psd_tol:
        raise ValueError(f"operator is not PSD (min eig {vals[0]:.3e})")
    return int(np.sum(vals <= energy + degeneracy_tol))


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

    Within each degenerate Hamiltonian eigenspace the restricted Casimir is
    diagonalized jointly (the two operators commute exactly), so each
    returned column has a definite total spin s = V/2 - n'.
    """
    if eig.vectors is None:
        raise ValueError("label_spins needs eigenvectors")
    V = g.vertex_count
    C = casimir_magnon(g, n).to_csr()
    values = eig.values
    vectors = eig.vectors.copy()
    labels = np.empty(len(values), dtype=int)
    entries = []
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j] - values[j - 1] <= DEGENERACY_TOL:
            j += 1
        W = vectors[:, i:j]
        block = W.T @ (C @ W)
        cvals, cvecs = np.linalg.eigh(block)
        W = W @ cvecs
        group = np.empty(j - i, dtype=int)
        for k in range(j - i):
            measured = float(W[:, k] @ (C @ W[:, k]))
            group[k] = _spin_from_casimir(measured, V, tol)
        order = np.argsort(group, kind="stable")
        vectors[:, i:j] = W[:, order]
        labels[i:j] = group[order]
        energy = float(np.mean(values[i:j]))
        for lab in labels[i:j]:
            if entries and entries[-1].energy == energy and entries[-1].n_prime == lab:
                entries[-1].multiplicity += 1
            else:
                entries.append(SpinLabel(energy=energy, n_prime=int(lab), multiplicity=1))
        i = j
    return SpinLabeledSpectrum(entries=entries, vectors=vectors, labels=labels)
