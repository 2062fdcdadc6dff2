"""The benchmark's workloads: ``heis`` CLI jobs and the checks on their reports.

Every job is a ``heis`` command line.  The runner appends ``--seed <seed>``
and ``--out <file>`` to it, runs it through ``heis.cli.main`` and hands the
report to the job's check.  A check returns a list of problems; an empty list
means the output is correct.  The checks use closed forms and theorems where
they exist, and otherwise the stored values in ``references.json``.

This module imports nothing from ``heis``, so a broken package cannot break
the checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())

#: Absolute tolerance against stored reference values.
REF_TOL = 1e-8
#: Absolute tolerance against closed forms and exact identities.
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Callable                 # (results dict) -> list of problem strings
    infinite_ok: tuple = ()         # dotted result paths documented to be +inf


def _close(a, b, tol):
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def check_induct(res):
    ref = REFERENCES["induct"]
    problems = []
    if res.get("grid_violations"):
        problems.append(f"grid violations: {res['grid_violations']}")
    if res.get("dilution_problems"):
        problems.append(f"dilution problems: {res['dilution_problems']}")
    if res.get("partial"):
        problems.append("report is partial")
    rows = res.get("rows", [])
    if [r.get("N") for r in rows] != [r["N"] for r in ref["rows"]]:
        return problems + [f"rows cover N={[r.get('N') for r in rows]}"]
    for got, want in zip(rows, ref["rows"]):
        if not _close(got.get("E_n"), want["E_n"], REF_TOL):
            problems.append(f"N={want['N']}: E_n {got.get('E_n')} != {want['E_n']}")
        if got.get("is_new_low") != want["is_new_low"]:
            problems.append(f"N={want['N']}: is_new_low {got.get('is_new_low')}")
        if "t_star" in want and not _close(got.get("t_star"), want["t_star"], REF_TOL):
            problems.append(f"N={want['N']}: t_star {got.get('t_star')} != {want['t_star']}")
    return problems


def check_foel(res):
    """Strict ordering on an open chain (Nachtergaele-Spitzer-Starr) and the
    closed-form one-magnon level 1 - cos(pi/L)."""
    L = 16
    problems = []
    energies = {int(k): v for k, v in res.get("energies", {}).items()}
    if sorted(energies) != list(range(1, L // 2 + 1)):
        return [f"energies cover n={sorted(energies)}"]
    if not res.get("holds") or res.get("violations") or res.get("incomplete"):
        problems.append("verdict is not a complete strict FOEL")
    for n in range(1, L // 2):
        if not energies[n + 1] > energies[n] + EXACT_TOL:
            problems.append(f"E_{n + 1} = {energies[n + 1]} is not above E_{n} = {energies[n]}")
    if not _close(energies[1], 1.0 - math.cos(math.pi / L), EXACT_TOL):
        problems.append(f"E_1 = {energies[1]} != 1 - cos(pi/{L})")
    for n, want in REFERENCES["foel"]["energies"].items():
        if not _close(energies[int(n)], want, REF_TOL):
            problems.append(f"E_{n} = {energies[int(n)]} != {want}")
    return problems


def check_spectrum(res):
    """Multiplet counts C(V,k) - C(V,k-1), E_n as the lowest level labelled n,
    and the ring's one-magnon levels 1 - cos(2 pi k / V)."""
    V = 12
    problems = []
    if sorted(res, key=int) != [str(n) for n in range(V + 1)]:
        return [f"sectors {sorted(res)}"]
    for n in range(V + 1):
        sec = res[str(n)]
        levels = sec.get("levels", [])
        if sec.get("dimension") != math.comb(V, n):
            problems.append(f"sector {n}: dimension {sec.get('dimension')}")
        counts = {}
        for lev in levels:
            counts[lev["n_prime"]] = counts.get(lev["n_prime"], 0) + lev["multiplicity"]
        want = {k: math.comb(V, k) - math.comb(V, k - 1) if k else 1
                for k in range(min(n, V - n) + 1)}
        if counts != want:
            problems.append(f"sector {n}: label counts {counts} != {want}")
        if n <= V // 2:
            lowest = min((lev["energy"] for lev in levels if lev["n_prime"] == n),
                         default=math.nan)
            if not _close(sec.get("E_n"), lowest, EXACT_TOL):
                problems.append(f"sector {n}: E_n {sec.get('E_n')} != {lowest}")
        elif sec.get("E_n") != math.inf:
            problems.append(f"sector {n}: E_n {sec.get('E_n')} is not +inf")
    one = sorted(lev["energy"] for lev in res.get("1", {}).get("levels", [])
                 for _ in range(lev["multiplicity"]))
    exact = sorted(1.0 - math.cos(2.0 * math.pi * k / V) for k in range(V))
    if len(one) != V or any(abs(a - b) > EXACT_TOL for a, b in zip(one, exact)):
        problems.append(f"one-magnon levels {one}")
    return problems


def check_spinwave(key):
    """The stored residual and norm, and norm <= its large-volume limit.

    On V = L^d sites the cosine profiles are orthonormal, so the limit is the
    norm over all n-tuples; the trial state keeps only tuples of distinct
    sites, so its norm lies below.  At V = 64 with three modes it lies 9-12 %
    below, so "within 0.1 of the limit" does not hold for correct output.
    """
    ref = REFERENCES["spinwave"][key]

    def check(res):
        problems = []
        for field in ("residual", "norm_squared"):
            if not _close(res.get(field), ref[field], REF_TOL):
                problems.append(f"{field} {res.get(field)} != {ref[field]}")
        if not res.get("norm_squared", math.inf) <= res.get("norm_squared_limit") + EXACT_TOL:
            problems.append(f"norm_squared {res.get('norm_squared')} exceeds "
                            f"its limit {res.get('norm_squared_limit')}")
        return problems
    return check


def check_ineq(res):
    if res.get("violation_count") != 0 or res.get("violations"):
        return [f"{res.get('violation_count')} violations"]
    if res.get("cases") != 2000:
        return [f"{res.get('cases')} cases"]
    return []


WORKLOADS = {
    "induct": (
        Job(("induct", "--d", "2", "--n", "4", "--N-max", "14"), check_induct),
    ),
    "foel": (
        Job(("foel", "--graph", "path:L=16", "--n", "1", "--strict"), check_foel),
    ),
    "spectrum": (
        # E_n = +inf above V/2, where no state has spin deviate n
        Job(("spectrum", "--graph", "ring:L=12", "--all-sectors"), check_spectrum,
            infinite_ok=tuple(f"{n}.E_n" for n in range(7, 13))),
    ),
    "spinwave": (
        Job(("spinwave", "--d", "1", "--N", "64", "--modes", "1;2;3"),
            check_spinwave("d1_N64_1;2;3")),
        Job(("spinwave", "--d", "2", "--N", "64", "--modes", "1,0;0,1;1,1"),
            check_spinwave("d2_N64_1,0;0,1;1,1")),
        Job(("ineq", "--suite", "contraction", "--samples", "2000"), check_ineq),
    ),
}


def _nonfinite(value, path=""):
    if isinstance(value, float) and not math.isfinite(value):
        yield path, value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _nonfinite(v, f"{path}.{k}" if path else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nonfinite(v, f"{path}.{i}" if path else str(i))


def check_report(job, text):
    """Problems with one job's report text (empty list: correct).

    The CLI may write bare ``NaN`` or ``Infinity``; both parse here.  A
    non-finite number is a problem unless the job documents that field as
    +inf.
    """
    try:
        report = json.loads(text)
        results = report["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    problems = [f"non-finite {path} = {v}" for path, v in _nonfinite(results)
                if not (path in job.infinite_ok and v == math.inf)]
    try:
        problems += job.check(results)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
