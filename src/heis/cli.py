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
import sys

import numpy as np

from . import __version__
from .errors import ConvergenceError, HeisError, NumericalError, ParseError
from .graph import load_graph, make_box, make_lambda, make_path, make_ring
from .sector import hamiltonian_magnon
from .eigen import full_spectrum, label_spins
from .foel import energy_level, foel_check, induction_run
from .spinwave import (
    bose_energy,
    gram_limit,
    gram_matrix,
    occupation_from_modes,
    residual,
)
from .analysis import contraction_deficit, rho, rho_max, trace_check
from .graph import lambda_spec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3


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


def _emit(args, report, csv_rows=None, csv_header=None):
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows or [])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args):
    g = parse_graph_spec(args.graph)
    scale = args.figure_scale if args.figure_compat else 1.0
    sectors = (range(g.vertex_count + 1) if args.all_sectors else [args.sector])
    if not args.all_sectors and args.sector is None:
        raise ParseError("spectrum needs --sector or --all-sectors")
    rows = []
    results = {}
    for n in sectors:
        H = hamiltonian_magnon(g, n)
        eig = full_spectrum(H)
        labeled = label_spins(g, n, eig)
        entries = [
            {"energy": e.energy * scale, "n_prime": e.n_prime,
             "multiplicity": e.multiplicity}
            for e in labeled.entries
        ]
        results[str(n)] = {
            "dimension": H.dim,
            "levels": entries,
            "E_n": energy_level(g, n, method=args.method) * scale,
        }
        rows.extend((n, e["energy"], e["n_prime"], e["multiplicity"]) for e in entries)
    report = {"meta": _meta(args, {"figure_scale_applied": scale}),
              "graph": _graph_info(g), "results": results}
    _emit(args, report, rows, ("sector", "energy", "n_prime", "multiplicity"))
    return EXIT_OK


def cmd_foel(args):
    g = parse_graph_spec(args.graph)
    verdict = foel_check(g, args.n, strict=args.strict, tol=args.tol,
                         method=args.method)
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
    }
    result = {k: v for k, v in result.items() if v is not None}
    report = {"meta": _meta(args), "graph": _graph_info(g), "results": result}
    rows = [(m, e) for m, e in sorted(verdict.energies.items())]
    _emit(args, report, rows, ("n_prime", "energy"))
    if verdict.incomplete:
        return EXIT_SOLVER
    return EXIT_OK if verdict.holds else EXIT_VIOLATION


def cmd_induct(args):
    rep = induction_run(args.d, args.n, args.N_max, tol=args.tol,
                        method=args.method, seed=args.seed)
    report = {"meta": _meta(args), "graph": {"family": "lambda", "d": args.d},
              "results": rep.to_dict()}
    rows = [(r.N, r.energy, r.is_new_low, r.t_star) for r in rep.rows]
    _emit(args, report, rows, ("N", "E_n", "is_new_low", "t_star"))
    if rep.failures:
        return EXIT_SOLVER
    ok = not rep.grid_violations and not rep.dilution_problems
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_spinwave(args):
    modes = parse_modes(args.modes, args.d)
    spec = lambda_spec(args.d, args.N)
    res = residual(args.d, args.N, modes)
    gram = gram_matrix(args.d, args.N, [modes])
    nu = occupation_from_modes(modes)
    result = {
        "d": args.d, "N": args.N, "L": spec.L, "L_plus": spec.L_plus,
        "modes": [list(m) for m in modes],
        "residual": res,
        "norm_squared": float(gram[0, 0]),
        "norm_squared_limit": float(gram_limit([modes])[0, 0]),
        "bose_energy": bose_energy(args.d, spec.L_plus, nu),
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
    total = 0
    for (d, n, N) in cases:
        spec = lambda_spec(d, N)
        V = spec.L_plus ** d
        for _ in range(per):
            cube = rng.standard_normal((V,) * n)
            cube = cube + cube.T if n == 2 else cube
            r = contraction_deficit(d, N, n, cube.ravel())
            total += 1
            if not r.holds:
                violations.append({"d": d, "n": n, "N": N,
                                   "deficit": r.deficit, "bound": r.bound})
    return {"suite": "contraction", "cases": total}, violations


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
    if args.suite == "trace":
        summary, violations = _sweep_trace(args.samples, args.seed)
    elif args.suite == "contraction":
        summary, violations = _sweep_contraction(args.samples, args.seed)
    elif args.suite == "rho":
        summary, violations = _sweep_rho()
    else:
        raise ParseError(f"unknown suite {args.suite!r}")
    result = {**summary, "violations": violations,
              "violation_count": len(violations)}
    report = {"meta": _meta(args), "graph": None, "results": result}
    _emit(args, report, [(summary["suite"], len(violations))],
          ("suite", "violations"))
    return EXIT_OK if not violations else EXIT_VIOLATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heis",
        description="Magnon-sector exact diagonalization and energy-level "
                    "ordering checks for the ferromagnetic Heisenberg model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--method", choices=("auto", "dense", "krylov"),
                       default="auto")

    p = sub.add_parser("spectrum", help="spin-labeled sector spectra")
    p.add_argument("--graph", required=True)
    p.add_argument("--sector", type=int)
    p.add_argument("--all-sectors", action="store_true")
    p.add_argument("--figure-compat", action="store_true",
                   help="multiply reported energies by the figure scale")
    p.add_argument("--figure-scale", type=float, default=2.0)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("foel", help="energy-level ordering verdict")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    common(p)
    p.set_defaults(func=cmd_foel)

    p = sub.add_parser("induct", help="growing-family induction run")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N-max", dest="N_max", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_induct)

    p = sub.add_parser("spinwave", help="trial-state diagnostics")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--modes", required=True,
                   help="';'-separated modes, ','-separated components")
    common(p)
    p.set_defaults(func=cmd_spinwave)

    p = sub.add_parser("ineq", help="inequality sweeps")
    p.add_argument("--suite", choices=("trace", "contraction", "rho"),
                   required=True)
    p.add_argument("--samples", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_ineq)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"heis: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConvergenceError, NumericalError) as exc:
        print(f"heis: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except HeisError as exc:
        print(f"heis: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"heis: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
