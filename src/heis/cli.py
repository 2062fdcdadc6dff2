"""Command-line front end.

Subcommands: ``spectrum`` (spin-labeled sector spectra), ``foel`` (energy
level ordering verdicts), ``induct`` (growing-family induction runs),
``spinwave`` (trial-state diagnostics), ``ineq`` (inequality sweeps).

Reports are deterministic for a fixed config and seed: JSON is emitted with
sorted keys and no timestamps.  Exit codes: 0 all checks pass, 1 a checked
property is violated, 2 argument/parse errors, 3 solver failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ConvergenceError, HeisError, NumericalError, ParseError
from .graph import lambda_spec, load_graph, make_box, make_lambda, make_path, make_ring
from .eigen import labeled_spectra
from .foel import ENERGY_TOL, energy_level, foel_check, induction_run
from .spinwave import (
    _residual,
    bose_energy,
    gram_limit,
    occupation_from_modes,
    trial_state,
)
from .analysis import _deficit_rows, rho, rho_max, trace_check
from .sector import _dot

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3

#: Samples drawn and checked at once by the contraction sweep.
_SWEEP_BLOCK = 256

#: ``--figure-compat`` multiplies energies by this, the reference figures' scale.
FIGURE_SCALE = 2.0


def parse_graph_spec(spec):
    """Resolve a graph mini-language string to a Graph.

    Forms: ``box:d=<d>,L=<L>``, ``lambda:d=<d>,N=<N>``, ``ring:L=<L>``,
    ``path:L=<L>``, ``file:<path>``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return load_graph(rest)
    try:
        kv = dict(item.split("=") for item in rest.split(",") if item)
        args = {k: int(v) for k, v in kv.items()}
        if kind == "box":
            return make_box(args["d"], args["L"])
        if kind == "lambda":
            return make_lambda(args["d"], args["N"])
        if kind == "ring":
            return make_ring(args["L"])
        if kind == "path":
            return make_path(args["L"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad graph spec {spec!r}: {exc}")
    raise ParseError(f"unknown graph kind {kind!r}")


def parse_modes(text, d):
    """Modes like ``1;2`` (d=1) or ``1,0;0,1`` (d=2): ';' between modes."""
    modes = []
    for chunk in text.split(";"):
        comps = tuple(int(c) for c in chunk.split(","))
        if len(comps) != d:
            raise ParseError(f"mode {chunk!r} does not have {d} components")
        modes.append(comps)
    return tuple(modes)


def _meta(args, extra=None):
    meta = {
        "tool": "heis",
        "version": __version__,
        "command": args.command,
        # 'out' is a delivery option, not part of the computation config
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "out") and v is not None},
    }
    if extra:
        meta.update(extra)
    return meta


def _graph_info(g):
    return {"vertices": g.vertex_count, "edges": g.edge_count,
            **({"dim": g.dim} if g.dim is not None else {})}


def _nan_to_null(value):
    """``value`` with every NaN (a failed solve) replaced by ``None``."""
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_null(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def _emit(args, report, csv_rows=None, csv_header=None):
    if args.format == "json":
        # E_n = +inf above V/2 is still written as Infinity
        text = json.dumps(_nan_to_null(report), sort_keys=True, indent=2,
                          allow_nan=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows or [])
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise HeisError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_spectrum(args):
    g = parse_graph_spec(args.graph)
    scale = FIGURE_SCALE if args.figure_compat else 1.0
    sectors = range(g.vertex_count + 1) if args.all_sectors else [args.sector]
    rows, results = [], {}
    spectra = labeled_spectra(g, sectors)
    for n in sectors:
        entries = [
            {"energy": e.energy * scale, "n_prime": e.n_prime,
             "multiplicity": e.multiplicity}
            for e in spectra[n].entries
        ]
        results[str(n)] = {
            "dimension": math.comb(g.vertex_count, n),
            "levels": entries,
            "E_n": energy_level(g, n, seed=args.seed) * scale,
        }
        rows.extend((n, e["energy"], e["n_prime"], e["multiplicity"]) for e in entries)
    report = {"meta": _meta(args, {"figure_scale_applied": scale}),
              "graph": _graph_info(g), "results": results}
    _emit(args, report, rows, ("sector", "energy", "n_prime", "multiplicity"))
    return EXIT_OK


def cmd_foel(args):
    g = parse_graph_spec(args.graph)
    verdict = foel_check(g, args.n, strict=args.strict, tol=args.tol, seed=args.seed)
    result = {
        "n": verdict.n,
        "holds": verdict.holds,
        "strict": verdict.strict,
        "strict_mode_note": (
            "strict ordering for coupled systems is an extension flag, "
            "reported as such" if args.strict else None),
        "tolerance": verdict.tol,
        "violations": [{"n_prime": m, "energy": e} for m, e in verdict.violations],
        "energies": {str(k): v for k, v in sorted(verdict.energies.items())},
        "incomplete": verdict.incomplete,
        "failures": verdict.failures or None,
    }
    result = {k: v for k, v in result.items() if v is not None}
    report = {"meta": _meta(args), "graph": _graph_info(g), "results": result}
    rows = [(m, e) for m, e in sorted(verdict.energies.items())]
    _emit(args, report, rows, ("n_prime", "energy"))
    if verdict.incomplete:
        return EXIT_SOLVER
    return EXIT_OK if verdict.holds else EXIT_VIOLATION


def cmd_induct(args):
    rep = induction_run(args.d, args.n, args.N_max, tol=args.tol, seed=args.seed)
    result = {
        "family": "lambda", "d": rep.d, "n": rep.n,
        "rows": [{"N": r.N, "E_n": r.energy, "is_new_low": r.is_new_low,
                  **({"t_star": r.t_star} if r.t_star is not None else {})}
                 for r in rep.rows],
        "e_min_up": {str(k): v for k, v in sorted(rep.e_min_up.items())},
        "new_lows": rep.new_lows,
        # FOEL-n is concluded at every new low
        "verdicts": [{"N": N, "foel_level": rep.n, "holds": True} for N in rep.new_lows],
        "grid_violations": rep.grid_violations, "partial": rep.partial,
        "dilution_problems": rep.dilution_problems,
        **({"failures": rep.failures} if rep.failures else {}),
    }
    report = {"meta": _meta(args), "graph": {"family": "lambda", "d": args.d},
              "results": result}
    rows = [(r.N, r.energy, r.is_new_low, r.t_star) for r in rep.rows]
    _emit(args, report, rows, ("N", "E_n", "is_new_low", "t_star"))
    if rep.failures:
        return EXIT_SOLVER
    ok = not rep.grid_violations and not rep.dilution_problems
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_spinwave(args):
    modes = parse_modes(args.modes, args.d)
    spec = lambda_spec(args.d, args.N)
    state = trial_state(args.d, args.N, modes)
    psi = state.coefficients
    result = {
        "d": args.d, "N": args.N, "L": spec.L, "L_plus": spec.L_plus,
        "modes": [list(m) for m in modes],
        "residual": _residual(state),
        "norm_squared": _dot(psi, psi),         # as gram_matrix computes it
        "norm_squared_limit": float(gram_limit([modes])[0, 0]),
        "bose_energy": bose_energy(args.d, spec.L_plus, occupation_from_modes(modes)),
        "mode_energy": float(sum(c * c for k in modes for c in k)),
    }
    report = {"meta": _meta(args), "graph": {"family": "lambda", "d": args.d},
              "results": result}
    _emit(args, report, [(k, v) for k, v in sorted(result.items())],
          ("key", "value"))
    return EXIT_OK


def _sweep_trace(samples, seed):
    rng = np.random.default_rng(seed)
    violations = []
    sizes = (2, 4, 8, 16, 32)
    per = max(1, samples // len(sizes))
    for L in sizes:
        for _ in range(per):
            f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            r = trace_check(f)
            if not r.holds:
                violations.append({"L": L, "lhs": r.lhs, "rhs": r.rhs})
    return {"suite": "trace", "cases": per * len(sizes)}, violations


def _sweep_contraction(samples, seed):
    rng = np.random.default_rng(seed)
    violations = []
    cases = [(1, 2, 8), (2, 2, 9)]
    per = max(1, samples // len(cases))
    for (d, n, N) in cases:
        V = lambda_spec(d, N).L_plus ** d
        for start in range(0, per, _SWEEP_BLOCK):
            m = min(_SWEEP_BLOCK, per - start)
            cubes = rng.standard_normal((m,) + (V,) * n)
            cubes = cubes + np.swapaxes(cubes, 1, 2) if n == 2 else cubes
            _, deficit, bound, holds = _deficit_rows(d, N, n, cubes.reshape(m, -1))
            violations += [{"d": d, "n": n, "N": N, "deficit": float(deficit[i]),
                            "bound": float(bound[i])} for i in np.flatnonzero(~holds)]
    return {"suite": "contraction", "cases": per * len(cases)}, violations


def _sweep_rho():
    d, n, N = 2, 2, 12          # L+ = 4
    spec = lambda_spec(d, N)
    bound = rho_max(n, d)
    worst = 0
    violations = []
    pts = list(itertools.product(range(1, spec.L_plus + 1), repeat=d))
    for pair in itertools.product(pts, repeat=n):
        r = rho(d, N, n, pair)
        worst = max(worst, r)
        if r > bound:
            violations.append({"tuple": [list(p) for p in pair], "rho": r})
    return {"suite": "rho", "cases": len(pts) ** n, "max_rho": worst,
            "rho_max_bound": bound}, violations


def cmd_ineq(args):
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    if args.suite == "trace":
        summary, violations = _sweep_trace(args.samples, args.seed)
    elif args.suite == "contraction":
        summary, violations = _sweep_contraction(args.samples, args.seed)
    else:
        summary, violations = _sweep_rho()
    result = {**summary, "violations": violations,
              "violation_count": len(violations)}
    report = {"meta": _meta(args), "graph": None, "results": result}
    _emit(args, report, [(summary["suite"], len(violations))],
          ("suite", "violations"))
    return EXIT_OK if not violations else EXIT_VIOLATION


_OPTION_TABLE = """\
options per subcommand (all take --out, --format and --seed, but only foel,
induct, spectrum and ineq's trace and contraction suites draw from --seed):
  spectrum  --graph (--sector N | --all-sectors) [--figure-compat]
  foel      --graph --n [--strict] [--tol]
  induct    --d --n --N-max [--tol]
  spinwave  --d --N --modes
  ineq      --suite [--samples]   (rho is exhaustive and ignores --samples)"""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heis",
        description="Magnon-sector exact diagonalization and energy-level "
                    "ordering checks for the ferromagnetic Heisenberg model.",
        epilog=_OPTION_TABLE, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, func, tol=False):
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        # spinwave and ineq rho draw no seed; the benchmark runner appends --seed to every job
        p.add_argument("--seed", type=int, default=0)
        if tol:
            p.add_argument("--tol", type=float, default=ENERGY_TOL)

    p = sub.add_parser("spectrum", help="spin-labeled sector spectra")
    p.add_argument("--graph", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--sector", type=int)
    which.add_argument("--all-sectors", action="store_true")
    p.add_argument("--figure-compat", action="store_true",
                   help=f"multiply reported energies by {FIGURE_SCALE}")
    shared(p, cmd_spectrum)

    p = sub.add_parser("foel", help="energy-level ordering verdict")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    shared(p, cmd_foel, tol=True)

    p = sub.add_parser("induct", help="growing-family induction run")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N-max", dest="N_max", type=int, required=True)
    shared(p, cmd_induct, tol=True)

    p = sub.add_parser("spinwave", help="trial-state diagnostics")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--modes", required=True,
                   help="';'-separated modes, ','-separated components")
    shared(p, cmd_spinwave)

    p = sub.add_parser("ineq", help="inequality sweeps")
    p.add_argument("--suite", choices=("trace", "contraction", "rho"), required=True)
    p.add_argument("--samples", type=int, default=1000, help="ignored by --suite rho")
    shared(p, cmd_ineq)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, NumericalError) as exc:
        print(f"heis: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (HeisError, ValueError) as exc:
        print(f"heis: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
