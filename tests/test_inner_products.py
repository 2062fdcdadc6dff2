import math

import numpy as np
import pytest

from heis.eigen import highest_weight_levels
from heis.foel import dilute_extend, energy_level
from heis.graph import Graph, make_path, make_ring
from heis.sector import _dot
from heis.spinwave import gram_matrix, residual


@pytest.mark.parametrize("length", [0, 1, 10001, 41664])
def test_dot_matches_exact_sum_to_rounding(length):
    rng = np.random.default_rng(length)
    x, y = rng.standard_normal(length), rng.standard_normal(length)
    got = _dot(x, y)
    assert type(got) is float
    # the forward error bound of recursive summation, n eps sum |x_i y_i|
    bound = max(length, 1) * np.finfo(float).eps * math.fsum(np.abs(x * y))
    assert abs(got - math.fsum(x * y)) <= bound


def test_sector_vector_products_stay_off_numpy_blas(monkeypatch):
    """The Krylov solve, a case-2 dilution step, and the spin-wave residual
    and gram matrix at V = 64 make no call to numpy's BLAS-backed vector
    products.  A bare ``x @ y`` of two vectors goes to ``np.matmul`` and is
    not caught here."""
    chain = make_path(14)
    lowest = highest_weight_levels(chain, 7)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("BLAS-backed vector product called")
    for owner, name in [(np.linalg, "norm"), (np, "dot"), (np, "vdot"), (np, "inner"),
                        (np, "vecdot")]:
        # numpy < 2 has no vecdot
        monkeypatch.setattr(owner, name, refuse, raising=False)

    assert energy_level(chain, 7) == pytest.approx(lowest, abs=1e-9)
    prev = Graph((0, 1), ((0, 1),), (1.0,))
    step = dilute_extend((prev, 1.0), make_ring(3), 1, tol=1e-10)
    assert step.case == 2
    modes = ((1, 0), (0, 1))
    assert math.isfinite(residual(2, 64, modes))
    gram = gram_matrix(2, 64, [modes, ((1, 1), (0, 0))])
    assert gram.shape == (2, 2) and np.all(np.isfinite(gram))
