"""Independent checks of the stored reference values and of the report checks.

The oracles build the growing lattice family from its definition and
diagonalise the Hamiltonian on the full 2^V product space, bond by bond;
they share no code with ``heis``.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from workloads import REFERENCES, WORKLOADS, check_report  # noqa: E402


def lambda_points(d, N):
    """The box {1..L}^d, L^d <= N, plus the lexicographically first points
    of the next shell."""
    L = 1
    while (L + 1) ** d <= N:
        L += 1
    box = list(itertools.product(range(1, L + 1), repeat=d))
    shell = sorted(p for p in itertools.product(range(1, L + 2), repeat=d) if max(p) > L)
    return box + shell[:N - len(box)]


def lattice_edges(points):
    return [(p, q) for p, q in itertools.combinations(points, 2)
            if sum(abs(a - b) for a, b in zip(p, q)) == 1]


def product_hamiltonian(points, couplings):
    """Dense 2^V Hamiltonian; bit x set = spin at x flipped.  A bond of
    coupling J has singlet energy J."""
    idx = {p: i for i, p in enumerate(points)}
    dim = 1 << len(points)
    H = np.zeros((dim, dim))
    for (p, q), J in couplings.items():
        a, b = idx[p], idx[q]
        for m in range(dim):
            if (m >> a) & 1 != (m >> b) & 1:
                H[m, m] += 0.5 * J
                H[m ^ (1 << a) ^ (1 << b), m] -= 0.5 * J
    return H


def level_energy(points, couplings, n):
    """Lowest energy with spin deviate exactly n: H on the kernel of S^+
    inside the states with n flipped spins."""
    V = len(points)
    H = product_hamiltonian(points, couplings)
    sector = [m for m in range(1 << V) if bin(m).count("1") == n]
    lower = {m: i for i, m in enumerate(m for m in range(1 << V) if bin(m).count("1") == n - 1)}
    raise_op = np.zeros((len(lower), len(sector)))
    for j, m in enumerate(sector):
        for x in range(V):
            if (m >> x) & 1:
                raise_op[lower[m ^ (1 << x)], j] = 1.0
    Q = scipy.linalg.null_space(raise_op)
    assert Q.shape[1] == math.comb(V, n) - math.comb(V, n - 1)
    block = H[np.ix_(sector, sector)]
    return float(np.linalg.eigvalsh(Q.T @ block @ Q)[0])


def unit(points):
    return {e: 1.0 for e in lattice_edges(points)}


def test_oracle_reproduces_one_magnon_path_levels():
    pts = [(x,) for x in range(1, 7)]
    assert level_energy(pts, unit(pts), 1) == pytest.approx(1 - math.cos(math.pi / 6), abs=1e-12)


INDUCT = {row["N"]: row for row in REFERENCES["induct"]["rows"]}
SMALL = [N for N in INDUCT if N <= 10]


@pytest.mark.parametrize("N", SMALL)
def test_induct_row_energy_matches_product_space(N):
    pts = lambda_points(2, N)
    assert level_energy(pts, unit(pts), 4) == pytest.approx(INDUCT[N]["E_n"], abs=1e-10)


def test_induct_new_lows_match_product_space():
    energies = {N: INDUCT[N]["E_n"] for N in SMALL}
    running = math.inf
    for N in SMALL:
        assert INDUCT[N]["is_new_low"] == (energies[N] <= running + 1e-9)
        running = min(running, energies[N])


def test_induct_dilution_t_star_matches_product_space():
    """At the one bisection step the stored t* puts coupling t* on the new
    vertex's edges and matches the previous stage's energy."""
    bisected = [N for N in SMALL if INDUCT[N].get("t_star", 1.0) < 1.0]
    assert bisected == [9]
    prev, nxt = lambda_points(2, 8), lambda_points(2, 9)
    old = set(lattice_edges(prev))
    t = INDUCT[9]["t_star"]
    couplings = {e: 1.0 if e in old else t for e in lattice_edges(nxt)}
    assert set(old) <= set(couplings)
    assert level_energy(nxt, couplings, 4) == pytest.approx(INDUCT[8]["E_n"], abs=1e-8)


def trial_norm_squared(d, N, modes):
    """Squared norm of the symmetrised cosine-profile product over n-tuples
    of distinct sites (the trial state), and over all n-tuples (the limit)."""
    pts = np.array(lambda_points(d, N))
    L = round(N ** (1 / d))
    assert L ** d == N
    cols = []
    for k in modes:
        col = np.ones(len(pts))
        for kj, rj in zip(k, pts.T):
            if kj:
                col = col * math.sqrt(2) * np.cos(math.pi * kj / L * (rj - 0.5))
        cols.append(col)
    n = len(modes)
    F = sum(_outer([cols[i] for i in perm])
            for perm in itertools.permutations(range(n)))
    F = F * L ** (-n * d / 2)
    idx = np.indices(F.shape)
    distinct = np.ones(F.shape, dtype=bool)
    for a, b in itertools.combinations(range(n), 2):
        distinct &= idx[a] != idx[b]
    return float(np.sum(F[distinct] ** 2)), float(np.sum(F ** 2))


def _outer(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


@pytest.mark.parametrize("job", WORKLOADS["spinwave"][:2], ids=lambda j: j.argv[2])
def test_spinwave_norm_matches_direct_sum(job):
    argv = dict(zip(job.argv[1::2], job.argv[2::2]))
    d, N = int(argv["--d"]), int(argv["--N"])
    modes = [tuple(int(c) for c in m.split(",")) for m in argv["--modes"].split(";")]
    key = f"d{d}_N{N}_{argv['--modes']}"
    norm, limit = trial_norm_squared(d, N, modes)
    assert limit == pytest.approx(math.factorial(len(modes)), abs=1e-12)
    assert norm == pytest.approx(REFERENCES["spinwave"][key]["norm_squared"], abs=1e-10)
    assert norm < limit - 0.1        # "within 0.1 of the limit" fails on correct output


def _report(results):
    return json.dumps({"meta": {}, "results": results}, allow_nan=True)


def test_bare_nan_counts_as_a_failure():
    job = WORKLOADS["spinwave"][2]
    assert check_report(job, _report({"cases": 2000, "violation_count": 0,
                                      "violations": []})) == []
    problems = check_report(job, _report({"cases": 2000, "violation_count": 0,
                                          "violations": [], "max": math.nan}))
    assert problems == ["non-finite max = nan"]
    assert check_report(job, "{not json") != []


def test_infinity_only_where_documented():
    spectrum = WORKLOADS["spectrum"][0]
    results = {str(n): {"E_n": math.inf} for n in (6, 7)}     # V = 12: E_7 is +inf
    problems = check_report(spectrum, _report(results))
    assert [p for p in problems if p.startswith("non-finite")] == ["non-finite 6.E_n = inf"]
    induct = WORKLOADS["induct"][0]
    rows = [dict(row) for row in REFERENCES["induct"]["rows"]]
    ok = {"rows": rows, "grid_violations": [], "dilution_problems": [], "partial": False}
    assert check_report(induct, _report(ok)) == []
    rows[0]["E_n"] = math.inf
    assert any(p.startswith("non-finite rows.0.E_n") for p in check_report(induct, _report(ok)))
