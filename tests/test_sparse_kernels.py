"""The compiled sparse products of the Krylov matvec are bit-identical to
scipy's ``@``."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp

import heis.foel
from heis.eigen import lowest_eig
from heis.graph import Graph, make_lambda, make_path, make_ring
from heis.sector import (
    _spmv,
    hamiltonian_magnon,
    highest_weight_projector,
    lowering_chain,
    lowering_matrix,
)

from conftest import sweep_projector


def _with_int64_indices(A):
    return sp.csr_matrix((A.data, A.indices.astype(np.int64), A.indptr.astype(np.int64)),
                         shape=A.shape)


def _matrices():
    # vertex 4 has no edge and (3, 4)'s coupling is 0, so H at n = 1 has an empty row
    isolated = Graph((0, 1, 2, 3, 4), ((0, 1), (1, 2), (2, 3), (3, 4)), (1.0, 0.5, 2.0, 0.0))
    H = hamiltonian_magnon(isolated, 1)
    assert np.diff(H.indptr).min() == 0
    low = lowering_matrix(make_path(10), 4)
    return {
        "lowering path10 n4": low,
        "lowering path10 n1": lowering_matrix(make_path(10), 1),
        "H with an empty row": H,
        "H ring9 n3": hamiltonian_magnon(make_ring(9), 3),
        "lowering int64 indices": _with_int64_indices(low),
        "H int64 indices": _with_int64_indices(H),
    }


@pytest.mark.parametrize("name", list(_matrices()))
@pytest.mark.parametrize("width", [None, 1, 3])
def test_spmv_equals_matmul_bitwise(name, width):
    A = _matrices()[name]
    rng = np.random.default_rng(len(name))
    for transpose, size in ((False, A.shape[1]), (True, A.shape[0])):
        x = rng.standard_normal(size if width is None else (size, width))
        want = A.T @ x if transpose else A @ x
        got = _spmv(A, x, transpose=transpose)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    # a strided 1-D view goes through the kernel too
    x = rng.standard_normal(2 * A.shape[1])[::2]
    assert np.array_equal(_spmv(A, x), A @ x)


def test_spmv_falls_back_to_matmul_for_other_dtypes():
    # the kernel writes into a float64 output, which a complex x cannot fill
    A = lowering_matrix(make_path(8), 3)
    for transpose, size in ((False, A.shape[1]), (True, A.shape[0])):
        for x in (np.arange(size), np.arange(size) * (1 - 2j)):
            want = A.T @ x if transpose else A @ x
            got = _spmv(A, x, transpose=transpose)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("g, n", [(make_path(12), 5), (make_ring(11), 4),
                                  (make_lambda(2, 10), 3), (make_path(9), 1)])
def test_projector_matches_the_matmul_sweep_bitwise(g, n):
    lows = lowering_chain(g, n)
    project = highest_weight_projector(g, n, lowering=lows)
    oracle = sweep_projector(lows, g.vertex_count)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(lows[-1].shape[0])
    assert np.array_equal(project(x), oracle(x))
    block = rng.standard_normal((lows[-1].shape[0], 4))
    assert np.array_equal(project(block), oracle(block))


def test_krylov_level_matches_the_matmul_operators_bitwise():
    g, n = make_path(16), 6
    energy, vector = heis.foel._lowest_level(g, n, seed=0)
    H = hamiltonian_magnon(g, n)
    want_energy, want_vector = lowest_eig(
        lambda x: H @ x, sweep_projector(lowering_chain(g, n), g.vertex_count),
        H.shape[0], seed=0,
        start=functools.partial(heis.foel._spin_wave_state, g, n))
    assert energy == want_energy
    assert np.array_equal(vector, want_vector)
