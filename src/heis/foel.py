"""Minimum sector energies, energy-level ordering checks, and the
diluted-coupling induction harness over the growing lattice family."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HeisError, NumericalError
from .graph import Graph, make_lambda
from .sector import (
    SECTOR_BUDGET,
    _dot,
    _spmv,
    hamiltonian_magnon,
    highest_weight_projector,
    lowering_chain,
    product_state,
)
from .eigen import lowest_eig

#: Absolute tolerance for energy comparisons (spectra here are O(1)).
ENERGY_TOL = 1e-9

#: The dilution's Newton iteration stops at a step of at most this width.
_STEP_TOL = 1e-13

#: Most energy solves one dilution step may make.
_MAX_SOLVES = 60


def _check_tol(tol):
    """Raise ``ValueError`` unless ``tol`` is a finite number >= 0: every
    comparison with NaN is false, so a NaN tolerance would pass any
    violation."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


@dataclass
class FoelVerdict:
    n: int
    holds: bool
    strict: bool
    violations: list            # (n', E_n') pairs below the level-n energy
    tol: float
    energies: dict
    incomplete: bool = False
    failures: list = field(default_factory=list)    # {"n_prime", "error"} per failed level


@dataclass
class DiluteStep:
    """One step of :func:`dilute_extend`: ``graph`` is the next graph with
    the couplings J(t_star), and ``energy`` its level-n energy."""

    t_star: float
    graph: Graph
    energy: float
    case: int                   # 1: couplings reached the target, 2: interpolated
    target_energy: float = None     # E_n at t=1, the fully-coupled next graph


@dataclass
class DilutedSequence:
    graphs: list                # the stage graphs, each with its diluted couplings
    t_values: list
    energies: list
    new_lows: list              # vertex counts N of new-low stages

    def check_invariants(self, tol=1e-8):
        """Verify the defining properties of a diluted system.

        Couplings stay at most the target 1, reach it at every new-low stage
        (there the fully-coupled energy is a running minimum, so the step
        closes at t=1), grow along the chain on shared edges, and the level
        energies never increase.
        """
        problems = []
        for k, g in enumerate(self.graphs):
            new_low = g.vertex_count in self.new_lows
            for e, j in zip(g.edges, g.couplings):
                if j > 1.0 + tol:
                    problems.append(f"stage {k}: J{e} = {j} exceeds 1")
                if new_low and abs(j - 1.0) > tol:
                    problems.append(f"new-low stage {k}: J{e} = {j} != 1")
        for k, (g, nxt) in enumerate(zip(self.graphs, self.graphs[1:])):
            nxt_J = nxt.edge_keys()
            for key, j in g.edge_keys().items():
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


def energy_level(g, n, seed=0, *, lowering=None):
    """Minimum energy among states of spin deviate exactly n.

    Returns +inf for n beyond V/2 (the subspace is empty).  H commutes with
    the exact highest-weight projector P (:func:`highest_weight_projector`,
    applied by one sweep down through the sectors below n and back up), and
    H >= 0 (couplings are nonnegative), so :func:`heis.eigen.lowest_eig`
    finds the result as the lowest eigenvalue of H + c(I - P), with every
    lowered state lifted to c or higher: densely up to ``DENSE_CUTOFF``,
    else by ARPACK to relative residual ``KRYLOV_TOL``.  For n >= 2 ARPACK
    starts from P applied to the spin-wave state of n magnons in the graph's
    lowest non-constant one-magnon mode (:func:`_spin_wave_state`) plus a
    little of P applied to a random vector drawn with ``seed``, which also
    seeds ARPACK's restarts; when P nearly annihilates the spin-wave state,
    and for n = 1, from the projected random vector alone.  The lift depends on
    ``seed``, and so does the vector returned within a degenerate level.
    ``lowering`` is a :func:`heis.sector.lowering_chain` for V vertices
    reaching at least n, shared by the solves of one vertex count; without
    it P builds its own.
    Raises :class:`SizeBudgetError` when the sector exceeds ``SECTOR_BUDGET``
    and :class:`ConvergenceError` when ARPACK fails.
    """
    return _lowest_level(g, n, seed=seed, lowering=lowering)[0]


def _lowest_level(g, n, seed, lowering=None):
    """(E_n, unit eigenvector in the highest-weight space) as in
    :func:`energy_level`; the vector is ``None`` when n > V/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    V = g.vertex_count
    if n > V // 2:
        return math.inf, None
    if n == 0:
        return 0.0, np.ones(1)
    H = hamiltonian_magnon(g, n)
    project = highest_weight_projector(g, n, lowering=lowering)
    # at n = 1 the start would be the mode itself, found by a solve as large
    # as the one it would replace
    start = functools.partial(_spin_wave_state, g, n) if n >= 2 else None
    return lowest_eig(lambda x: _spmv(H, x), project, H.shape[0], seed=seed, start=start)


def _spin_wave_state(g, n):
    """The state with coefficient prod_{x in X} phi(x) on mag(n), for phi
    the lowest non-constant one-magnon mode of g (:func:`_lowest_mode`).  At
    large L the low levels of spin deviate n are close to n magnons in that
    mode."""
    return product_state(np.column_stack([_lowest_mode(g)] * n))


@functools.lru_cache(maxsize=1)
def _lowest_mode(g):
    """The lowest eigenvector of the one-magnon H of g on the complement of
    the constant mode (energy 0), read-only.  A fixed seed picks the mode
    where it is degenerate (ring10).  The solves of one graph's levels come
    one after another, so the last graph's mode (V floats) is kept."""
    one = hamiltonian_magnon(g, 1)
    _, phi = lowest_eig(lambda x: one @ x, lambda x: x - x.mean(axis=0), g.vertex_count,
                        seed=0)
    phi.flags.writeable = False
    return phi


def foel_check(g, n, strict=False, tol=ENERGY_TOL, seed=0):
    """Check that no level above n dips below the level-n energy.

    In strict mode every level n' > n must exceed the level-n energy by more
    than ``tol``.  The levels come from one :func:`_levels` table.  Solver
    failures mark the verdict incomplete instead of deciding it: a failed
    level is NaN, which no comparison counts as a violation, and keeps its
    level and ``"Type: message"`` text in ``failures``.  ``seed`` seeds
    ARPACK's restarts and its random start vectors, which
    :func:`energy_level` mixes into its starts and uses alone when the
    spin-wave start fails.  A ``tol`` that is not finite or is below 0
    raises ``ValueError`` before any solve.
    """
    _check_tol(tol)
    if n > g.vertex_count // 2:
        raise ValueError(f"n={n} exceeds half the vertex count")
    energies, errors = _levels(g, n, seed, _level_lowering(g))
    base = energies[n]
    violations = [(m, e) for m, e in energies.items()
                  if e < base - tol or (strict and m > n and e <= base + tol)]
    return FoelVerdict(n=n, holds=not violations, strict=strict,
                       violations=violations, tol=tol, energies=energies,
                       incomplete=bool(errors),
                       failures=[{"n_prime": m, "error": text} for m, text in errors.items()])


def _levels(g, n, seed, lowering, e_n=None):
    """The level table of g: E_r for r = n..V/2 by :func:`energy_level`,
    every solve sharing ``lowering``.  Returns ({r: E_r}, {r: text}), with
    E_r NaN where the solve raised :class:`HeisError` and the text
    ``"Type: message"`` of each such failure.  A given ``e_n`` is taken as
    E_n, already solved with the same seed, and only
    r = n+1..V/2 are solved."""
    energies, errors = {}, {}
    if e_n is not None:
        energies[n] = e_n
    for r in range(n if e_n is None else n + 1, g.vertex_count // 2 + 1):
        try:
            energies[r] = energy_level(g, r, seed=seed, lowering=lowering)
        except HeisError as exc:
            energies[r] = math.nan
            errors[r] = f"{type(exc).__name__}: {exc}"
    return energies, errors


def _level_lowering(g):
    """The :func:`heis.sector.lowering_chain` for every level of g that
    fits ``SECTOR_BUDGET``: up to the largest m <= V/2 with C(V, m) within
    it.  A level above fails its own budget check in :func:`energy_level`."""
    V = g.vertex_count
    top = 0                     # C(V, m) grows with m up to V/2
    while top < V // 2 and math.comb(V, top + 1) <= SECTOR_BUDGET:
        top += 1
    return lowering_chain(g, top)


def _match_couplings(prev_graph, next_graph):
    """Interpolation data: per next-edge (J_start, J_target), J_start from
    ``prev_graph``'s couplings and J_target from ``next_graph``'s.

    Both graphs are matched through :meth:`Graph.edge_keys`, so an edge of
    the previous graph is the next graph's edge between the same vertex keys.
    """
    prev_map = prev_graph.edge_keys()
    prev_keys = set(prev_graph.vertex_keys())
    next_keys = set(next_graph.vertex_keys())
    if not prev_keys < next_keys or len(next_keys) != len(prev_keys) + 1:
        raise ValueError("next graph must extend the previous one by one vertex")
    next_map = next_graph.edge_keys()
    if not set(prev_map) <= set(next_map):
        raise ValueError("previous edges are not a subset of the next graph's")
    return [(e, prev_map.get(key, 0.0), target)
            for e, (key, target) in zip(next_graph.edges, next_map.items())]


def dilute_extend(prev, next_graph, n, tol=ENERGY_TOL, seed=0, *, lowering=None):
    """One induction step of the diluted-system construction.

    ``prev`` is a (graph, energy) pair, the graph carrying the previous
    stage's couplings J_prev; ``next_graph`` adds one vertex and possibly new
    edges, and its couplings are the targets.  Couplings are interpolated as
    J(t) = (1-t) J_prev + t J_target, and none may shrink: a target below
    its start by more than ``tol`` raises ``ValueError`` before any solve.
    If the fully-coupled energy (:func:`energy_level`) does not exceed the
    previous one the step closes at t=1 (case 1); otherwise at the t* where
    the level-n energy E(t) meets the previous energy (case 2).  Either way
    the step carries that t=1 energy as ``target_energy``: the couplings at
    t=1 are exactly the targets, so it is E_n of ``next_graph`` with the
    targets, as :func:`energy_level` gives it with the same seed and
    ``lowering``.

    H is linear in the couplings, so H(J(t)) = H_0 + t D with
    H_0 = H(J_prev) and D = H(J_target - J_prev), a sum of bond terms with
    nonnegative couplings and hence positive semidefinite.  The
    highest-weight subspace of spin deviate n does not depend on the
    couplings, so E(t) = min over its unit states psi of
    <psi, H_0 psi> + t <psi, D psi> is a minimum of non-decreasing affine
    functions of t: concave and non-decreasing, so with E(1) above the
    previous energy the crossing t* is unique.  For the unit lowest state
    psi_t at t, the line l_t(s) = E(t) + (s - t) <psi_t, D psi_t> is one of
    those functions, so l_t(s) >= E(s) with equality at s = t (a
    supergradient).  Each Newton step moves to the s where l_t(s) meets the
    previous energy, clamped at 0; then E(s) <= l_t(s), so s <= t*, and
    from t = 1 the iterates rise monotonically to t*.  They stop when a
    step forward is at most 1e-13, or at a step back, which only solver
    noise in E near t* can cause.  Case 2 solves t = 1 once more for psi_1
    and then each iterate once, and counts these solves against
    ``_MAX_SOLVES``; the two checks of an iterate's energy (no bracket at
    t = 0, or a rise above the previous energy) follow its solve.

    ``lowering`` is handed to every solve, as in :func:`energy_level`.

    Raises :class:`NumericalError` when E(0) already exceeds the previous
    energy (no crossing), when a slope below t = 1 is not positive or an
    iterate's energy exceeds the previous one by more than ``tol`` (both
    contradict the bound), after ``_MAX_SOLVES`` solves, or when the final
    energy misses the previous one by more than ``tol``.  A ``tol`` that is
    not finite or is below 0 raises ``ValueError`` before any solve.
    """
    _check_tol(tol)
    prev_graph, prev_energy = prev
    if not math.isfinite(prev_energy) or 2 * n > prev_graph.vertex_count:
        raise ValueError("previous energy must be finite; start the chain at 2n vertices")
    data = _match_couplings(prev_graph, next_graph)
    shrunk = [row for row in data if row[2] < row[1] - tol]
    if shrunk:
        raise ValueError(f"couplings shrink along the chain (edge, J_prev, J_target): {shrunk}")

    def couple(t):
        return next_graph.with_couplings(
            {e: (1.0 - t) * start + t * target for e, start, target in data})

    g = couple(1.0)
    e = target_energy = energy_level(g, n, seed=seed, lowering=lowering)
    if e <= prev_energy + tol:
        return DiluteStep(t_star=1.0, graph=g, energy=e, case=1, target_energy=e)

    increments = {edge: target - start for edge, start, target in data}
    D = hamiltonian_magnon(next_graph.with_couplings(increments), n)
    t = 1.0
    for solves in itertools.count(1):
        g = couple(t)
        e, psi = _lowest_level(g, n, seed=seed, lowering=lowering)
        # the bound keeps every iterate after t = 1 within tol of the previous energy
        if solves > 1 and e > prev_energy + tol:
            if t == 0.0:
                raise NumericalError(
                    "no bracket: energy at t=0 already exceeds the previous level",
                    diagnostics={"energy_at_0": e, "prev_energy": prev_energy},
                )
            raise NumericalError("dilution iterate rose above the previous energy",
                                 diagnostics={**diagnostics, "next_t": t, "next_energy": e})
        slope = _dot(psi, D @ psi)
        diagnostics = {"t": t, "energy": e, "slope": slope, "prev_energy": prev_energy}
        if slope > 0:
            s = max(0.0, t - (e - prev_energy) / slope)
        elif t == 1.0:
            s = 0.0
        else:
            raise NumericalError("energy slope is not positive below t=1",
                                 diagnostics=diagnostics)
        # below t=1, E <= E_prev + tol: a step back is solver noise at t*
        if t < 1.0 and s <= t + _STEP_TOL:
            break
        if solves >= _MAX_SOLVES:
            raise NumericalError(f"no crossing within {_MAX_SOLVES} solves",
                                 diagnostics=diagnostics)
        t = s
    if abs(e - prev_energy) > tol:
        raise NumericalError(
            "dilution failed to match the previous energy",
            diagnostics={"t": t, "energy": e, "prev_energy": prev_energy},
        )
    return DiluteStep(t_star=t, graph=g, energy=e, case=2, target_energy=target_energy)


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
    diluted: DilutedSequence = None
    dilution_problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    partial: bool = False


def induction_run(d, n, N_max, tol=ENERGY_TOL, seed=0):
    """Run the growing-family induction for level n up to N_max vertices.

    Per vertex count N it first extends the diluted coupling chain to N
    (:func:`dilute_extend`), then solves one :func:`_levels` table (E_r for
    r >= n); both share one :func:`_level_lowering`.  The table takes E_n
    from the step's ``target_energy``, the t=1 solve of the same level,
    and solves it itself only at the first N, after a failed step, or once
    the chain has broken.  Everything else is read from the tables: the
    rows and new lows of E_n, ``e_min_up`` (NaN when a level of that N
    failed), and at every new low the check that the new-low energy is at
    most every E_r(k-vertex graph) with r >= n, k <= N.  A failed level or
    dilution step is listed in ``failures`` with its ``"Type: message"``
    text and makes the report partial.  A ``tol`` that is not finite or is
    below 0 raises ``ValueError`` before any solve.
    """
    _check_tol(tol)
    if n < 1:
        raise ValueError(f"level n must be at least 1, got n={n}")
    if N_max < 2 * n:
        raise ValueError("N_max must be at least 2n")
    N_values = list(range(2 * n, N_max + 1))
    graphs = [make_lambda(d, N) for N in N_values]
    energy, errors = {}, {}     # N -> {r: E_r}, N -> {r: failure text}
    chain, t_values = [graphs[0]], [1.0]    # the stage graphs, diluted
    dilution_error = None
    # one pass per vertex count: its dilution step and its level table share
    # the lowering chain, which is dropped before the next count's is built
    for i, (N, g) in enumerate(zip(N_values, graphs)):
        lowering = _level_lowering(g)
        e_n = None
        if i > 0 and dilution_error is None:
            try:
                step = dilute_extend((chain[-1], energies[-1]), g, n,
                                     tol=max(tol, 1e-10), seed=seed, lowering=lowering)
            except (HeisError, ValueError) as exc:
                dilution_error = f"{type(exc).__name__}: {exc}"
            else:
                chain.append(step.graph)
                energies.append(step.energy)
                t_values.append(step.t_star)
                e_n = step.target_energy
        energy[N], errors[N] = _levels(g, n, seed, lowering, e_n=e_n)
        if i == 0:
            energies = [energy[N][n]]

    rows = []
    running = math.inf
    new_lows = []
    # the first row has no step; rows past a failed step have no t*.  A
    # failed level is NaN, which compares false: never a new low or a
    # violation, and min() keeps the running value
    for N, t_star in itertools.zip_longest(N_values, [None, *t_values[1:]]):
        e = energy[N][n]
        is_low = e <= running + tol
        running = min(running, e)
        if is_low:
            new_lows.append(N)
        rows.append(InductionRow(N=N, energy=e, is_new_low=is_low, t_star=t_star))

    e_min_up = {N: math.nan if errors[N] else min(E.values()) for N, E in energy.items()}
    grid_violations = [(N_star, k, r, e) for N_star in new_lows
                       for k in range(2 * n, N_star + 1)
                       for r, e in energy[k].items() if e < energy[N_star][n] - tol]
    failures = [{"N": N, "r": r, "error": text}
                for N, texts in errors.items() for r, text in texts.items()]

    diluted = None
    problems = []
    if dilution_error is None:
        diluted = DilutedSequence(graphs=chain, t_values=t_values, energies=energies,
                                  new_lows=list(new_lows))
        problems = diluted.check_invariants(tol=max(tol, 1e-8))
    else:
        failures.append({"stage": "dilution", "error": dilution_error})

    return InductionReport(
        d=d, n=n, rows=rows, e_min_up=e_min_up, new_lows=new_lows,
        grid_violations=grid_violations, diluted=diluted, dilution_problems=problems,
        failures=failures, partial=bool(failures),
    )
