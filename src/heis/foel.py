"""Minimum sector energies, energy-level ordering checks, and the
diluted-coupling induction harness over the growing lattice family."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HeisError, NumericalError, SizeBudgetError
from .graph import make_lambda
from .sector import hamiltonian_magnon, highest_weight_projector
from .eigen import DENSE_BUDGET, arpack_min

#: Absolute tolerance for energy comparisons (spectra here are O(1)).
ENERGY_TOL = 1e-9

#: Largest sector that ``energy_level`` solves densely under ``method="auto"``.
DENSE_CUTOFF = 240

_BISECT_MAX_ITER = 60
_PRESCAN_POINTS = 16


@dataclass
class EnergyLevels:
    """Map n -> minimum energy among states of spin deviate exactly n."""

    graph_id: str
    values: dict

    def __getitem__(self, n):
        return self.values.get(n, math.inf)


@dataclass
class FoelVerdict:
    n: int
    holds: bool
    strict: bool
    violations: list            # (n', E_n') pairs below the level-n energy
    tol: float
    energies: dict
    incomplete: bool = False


@dataclass
class DiluteStep:
    t_star: float
    couplings: dict             # keyed by the next graph's normalized edges
    energy: float
    case: int                   # 1: couplings reached the target, 2: interpolated


@dataclass
class DilutedSequence:
    graphs: list
    couplings: list             # list of per-graph edge -> J dicts
    t_values: list
    energies: list

    def check_invariants(self, tol=1e-8):
        """Verify the defining properties of a diluted system.

        Couplings stay at most the target (1 at the end), grow along the
        chain on shared edges, and the level energies never increase.
        """
        problems = []
        for k, (g, J) in enumerate(zip(self.graphs, self.couplings)):
            last = k == len(self.graphs) - 1
            for e in g.edges:
                if J[e] > 1.0 + tol:
                    problems.append(f"stage {k}: J{e} = {J[e]} exceeds 1")
                if last and abs(J[e] - 1.0) > tol:
                    problems.append(f"final stage: J{e} = {J[e]} != 1")
        for k in range(len(self.graphs) - 1):
            nxt = self.graphs[k + 1]
            nxt_J = nxt.with_couplings(self.couplings[k + 1]).edge_keys()
            prev_J = self.graphs[k].with_couplings(self.couplings[k]).edge_keys()
            for key, j in prev_J.items():
                if key not in nxt_J:
                    problems.append(f"stage {k}: edge {set(key)} disappears")
                elif nxt_J[key] < j - tol:
                    problems.append(f"stage {k}: J{set(key)} decreases")
        for k in range(len(self.energies) - 1):
            if self.energies[k + 1] > self.energies[k] + tol:
                problems.append(
                    f"stage {k}: energy rises {self.energies[k]} -> {self.energies[k + 1]}"
                )
        return problems


def energy_level(g, n, method="auto", tol=1e-10, seed=0):
    """Minimum energy among states of spin deviate exactly n.

    Returns +inf for n beyond V/2 (the subspace is empty).  H commutes with
    the exact highest-weight projector P (:func:`highest_weight_projector`),
    so the result is the lowest eigenvalue of H + c(I - P) with
    c = ||H||_inf + 1, which lifts every lowered state above the spectrum of
    H.  Sectors up to ``DENSE_CUTOFF`` (any sector up to ``DENSE_BUDGET`` with
    ``method="dense"``) materialise that operator for ``eigvalsh``; larger
    ones (and ``method="krylov"``) solve it by ARPACK, to relative residual
    ``tol``, from P applied to a seeded random vector.  Raises
    :class:`SizeBudgetError` when the sector exceeds ``SECTOR_BUDGET`` and
    :class:`ConvergenceError` when ARPACK fails.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if method not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    V = g.vertex_count
    if n > V // 2:
        return math.inf
    if n == 0:
        return 0.0
    H = hamiltonian_magnon(g, n)
    dim = H.dim
    if method == "auto":
        method = "dense" if dim <= DENSE_CUTOFF else "krylov"
    if method == "dense" and dim > DENSE_BUDGET:
        raise SizeBudgetError(
            f"dim {dim} exceeds dense budget {DENSE_BUDGET}; use the krylov path")
    lift = H.norm_inf() + 1.0
    H = H.to_csr()
    project = highest_weight_projector(g, n)

    def apply(x):
        return H @ x + lift * (x - project(x))

    if method == "dense":
        return float(np.linalg.eigvalsh(apply(np.eye(dim)))[0])
    v0 = project(np.random.default_rng(seed).standard_normal(dim))
    return arpack_min(apply, v0, tol=tol, seed=seed)[0]


def energy_levels(g, method="auto", graph_id=""):
    vals = {n: energy_level(g, n, method=method) for n in range(g.vertex_count // 2 + 1)}
    return EnergyLevels(graph_id=graph_id, values=vals)


def foel_check(g, n, strict=False, tol=ENERGY_TOL, method="auto"):
    """Check that no level above n dips below the level-n energy.

    In strict mode every level n' > n must exceed the level-n energy by more
    than ``tol``.  Solver failures mark the verdict incomplete instead of
    deciding it.
    """
    V = g.vertex_count
    if n > V // 2:
        raise ValueError(f"n={n} exceeds half the vertex count")
    energies = {}
    incomplete = False
    for m in range(n, V // 2 + 1):
        try:
            energies[m] = energy_level(g, m, method=method)
        except HeisError:
            incomplete = True
            energies[m] = math.nan
    base = energies[n]
    violations = []
    for m in range(n, V // 2 + 1):
        e = energies[m]
        if math.isnan(e):
            continue
        if e < base - tol:
            violations.append((m, e))
        elif strict and m > n and e <= base + tol:
            violations.append((m, e))
    return FoelVerdict(n=n, holds=not violations, strict=strict,
                       violations=violations, tol=tol, energies=energies,
                       incomplete=incomplete)


def _match_couplings(prev_graph, prev_J, next_graph):
    """Interpolation data: per next-edge (J_start, J_target)."""
    prev_map = prev_graph.with_couplings(prev_J).edge_keys()
    prev_keys = set(prev_graph.vertex_keys())
    next_keys = set(next_graph.vertex_keys())
    if not prev_keys < next_keys or len(next_keys) != len(prev_keys) + 1:
        raise ValueError("next graph must extend the previous one by one vertex")
    idx = next_graph.index_of()
    data = []
    covered = set()
    for (u, v), target in zip(next_graph.edges, next_graph.couplings):
        key = frozenset((next_graph.key(idx[u]), next_graph.key(idx[v])))
        start = prev_map.get(key, 0.0)
        if key in prev_map:
            covered.add(key)
        data.append(((u, v), start, target))
    if covered != set(prev_map):
        raise ValueError("previous edges are not a subset of the next graph's")
    return data


def dilute_extend(prev, next_graph, n, tol=ENERGY_TOL, method="auto", seed=0):
    """One induction step of the diluted-system construction.

    ``prev`` is a (graph, couplings, energy) triple; ``next_graph`` adds one
    vertex and possibly new edges.  Couplings are interpolated as
    (1-t) J_prev + t J_target; if the fully-coupled energy does not exceed
    the previous one the step closes at t=1, otherwise the largest t with
    matching energy is found by bisection (the map t -> energy is
    non-decreasing, which a coarse pre-scan verifies).
    """
    prev_graph, prev_J, prev_energy = prev
    if math.isinf(prev_energy):
        raise ValueError("previous energy is infinite; start the chain at 2n vertices")
    if prev_J is None:
        prev_J = dict(zip(prev_graph.edges, prev_graph.couplings))
    data = _match_couplings(prev_graph, prev_J, next_graph)

    def energy_at(t):
        J = {e: (1.0 - t) * start + t * target for e, start, target in data}
        return energy_level(next_graph.with_couplings(J), n, method=method, seed=seed), J

    e1, J1 = energy_at(1.0)
    if e1 <= prev_energy + tol:
        return DiluteStep(t_star=1.0, couplings=J1, energy=e1, case=1)

    # Case 2: scan to confirm monotonicity, then bisect for the rightmost crossing.
    grid = np.linspace(0.0, 1.0, _PRESCAN_POINTS)
    scan = [energy_at(t) for t in grid]
    energies = [e for e, _ in scan]
    drops = [energies[i + 1] - energies[i] for i in range(len(energies) - 1)]
    if min(drops) < -100 * tol:
        raise NumericalError(
            "energy is not monotone in the interpolation parameter",
            diagnostics={"t_grid": list(grid), "energies": energies},
        )
    lo, (e_lo, J_lo) = 0.0, scan[0]
    if e_lo > prev_energy + tol:
        raise NumericalError(
            "no bracket: energy at t=0 already exceeds the previous level",
            diagnostics={"energy_at_0": e_lo, "prev_energy": prev_energy},
        )
    hi = 1.0
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= 1e-13 and abs(e_lo - prev_energy) <= tol:
            break
        mid = 0.5 * (lo + hi)
        e_mid, J_mid = energy_at(mid)
        # keep lo on the <= side so it converges to the rightmost crossing
        if e_mid <= prev_energy:
            lo, e_lo, J_lo = mid, e_mid, J_mid
        else:
            hi = mid
    if abs(e_lo - prev_energy) > tol:
        raise NumericalError(
            "bisection failed to match the previous energy",
            diagnostics={"t": lo, "energy": e_lo, "prev_energy": prev_energy},
        )
    return DiluteStep(t_star=lo, couplings=J_lo, energy=e_lo, case=2)


def new_low_index(seq, N, start=1):
    """Smallest labeled index >= N at which the sequence attains a running minimum.

    ``seq[i]`` carries the label ``start + i``.  Returns ``math.inf`` when no
    index in range qualifies.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    running = math.inf
    for i, value in enumerate(seq):
        running = min(running, value)
        if start + i >= N and value == running:
            return start + i
    return math.inf


@dataclass
class InductionRow:
    N: int
    energy: float
    is_new_low: bool
    t_star: float = None


@dataclass
class InductionReport:
    d: int
    n: int
    rows: list
    e_min_up: dict              # N -> min over r >= n of E_r
    new_lows: list
    grid_violations: list       # (new_low, k, r, E_r) below the new-low energy
    foel_conclusions: list      # N values where FOEL-n is concluded
    diluted: DilutedSequence = None
    dilution_problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    partial: bool = False

    def to_dict(self):
        return {
            "family": "lambda",
            "d": self.d,
            "n": self.n,
            "rows": [
                {"N": r.N, "E_n": r.energy, "is_new_low": r.is_new_low,
                 **({"t_star": r.t_star} if r.t_star is not None else {})}
                for r in self.rows
            ],
            "e_min_up": {str(k): v for k, v in sorted(self.e_min_up.items())},
            "new_lows": self.new_lows,
            "verdicts": [
                {"N": N, "foel_level": self.n, "holds": True} for N in self.foel_conclusions
            ],
            "grid_violations": self.grid_violations,
            "dilution_problems": self.dilution_problems,
            "partial": self.partial,
        }


def induction_run(d, n, N_max, tol=ENERGY_TOL, method="auto", seed=0):
    """Run the growing-family induction for level n up to N_max vertices.

    Computes the level energies along the lattice family, marks new lows,
    builds the diluted coupling chain, and at every new low verifies that the
    new-low energy is at most every E_r(k-vertex graph) with r >= n, k <= N.
    """
    if N_max < 2 * n:
        raise ValueError("N_max must be at least 2n")
    N_values = list(range(2 * n, N_max + 1))
    graphs = {N: make_lambda(d, N) for N in N_values}
    failures = []

    def level(N, r):
        try:
            return energy_level(graphs[N], r, method=method, seed=seed)
        except HeisError as exc:
            failures.append({"N": N, "r": r, "error": str(exc)})
            return math.nan

    energy = {(N, r): level(N, r) for N in N_values for r in range(n, N // 2 + 1)}

    rows = []
    running = math.inf
    new_lows = []
    for N in N_values:
        e = energy[(N, n)]
        is_low = not math.isnan(e) and e <= running + tol
        running = min(running, e) if not math.isnan(e) else running
        if is_low:
            new_lows.append(N)
        rows.append(InductionRow(N=N, energy=e, is_new_low=is_low))

    e_min_up = {
        N: min(energy[(N, r)] for r in range(n, N // 2 + 1)) for N in N_values
    }

    grid_violations = []
    for N_star in new_lows:
        base = energy[(N_star, n)]
        for k in range(2 * n, N_star + 1):
            for r in range(n, k // 2 + 1):
                e = energy[(k, r)]
                if not math.isnan(e) and e < base - tol:
                    grid_violations.append((N_star, k, r, e))

    diluted = None
    problems = []
    try:
        chain_graphs = [graphs[N] for N in N_values]
        couplings = [dict(zip(chain_graphs[0].edges, chain_graphs[0].couplings))]
        energies = [energy[(N_values[0], n)]]
        t_values = [1.0]
        for i in range(1, len(N_values)):
            step = dilute_extend(
                (chain_graphs[i - 1], couplings[-1], energies[-1]),
                chain_graphs[i], n, tol=max(tol, 1e-10), method=method, seed=seed,
            )
            couplings.append(step.couplings)
            energies.append(step.energy)
            t_values.append(step.t_star)
            rows[i].t_star = step.t_star
        diluted = DilutedSequence(graphs=chain_graphs, couplings=couplings,
                                  t_values=t_values, energies=energies)
        problems = diluted.check_invariants(tol=max(tol, 1e-8))
    except (NumericalError, ValueError) as exc:
        failures.append({"stage": "dilution", "error": str(exc)})

    return InductionReport(
        d=d, n=n, rows=rows, e_min_up=e_min_up, new_lows=new_lows,
        grid_violations=grid_violations, foel_conclusions=list(new_lows),
        diluted=diluted, dilution_problems=problems, failures=failures,
        partial=bool(failures),
    )
