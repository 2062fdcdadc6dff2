"""Spans and counters around the public functions of each ``heis`` module.

The tracer lives in the benchmark, not in ``heis``: ``install`` replaces each
named function with a timing wrapper in every loaded ``heis`` module that
holds it (``heis.energy_level``, ``heis.cli.energy_level`` and
``heis.foel.energy_level`` are one function under three names), and
``uninstall`` puts the originals back.  ``summary`` gives per-function calls,
total and self time, plus the counters below.

The wrappers keep one call stack, so the traced code must run its wrapped
calls on one thread: the benchmark pins ``HEIS_THREADS=1`` for traced passes.

Counters:

- ``sector.hamiltonian_magnon.dim_sum`` / ``.nnz_sum``: sector dimension and
  stored upper-triangle entries of every operator built;
- ``sector.lowering_matrix.repeat_ratio``: share of builds whose (V, n) was
  already built while this tracer was installed;
- ``foel.energy_level.dim_max``: the largest sector C(V, n) asked for;
- ``foel.dilute_extend.solves``: ``energy_level`` calls made inside
  ``dilute_extend``.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time

#: Module (under the package) -> public functions wrapped in it.
TRACED = {
    "cli": ("main",),
    "graph": ("make_lambda", "make_path", "make_ring"),
    "sector": ("hamiltonian_magnon", "lowering_matrix", "highest_weight_basis",
               "casimir_magnon"),
    "eigen": ("full_spectrum", "label_spins", "min_eig"),
    "foel": ("energy_level", "dilute_extend", "induction_run", "foel_check"),
    "spinwave": ("trial_state", "residual", "gram_matrix"),
    "analysis": ("contraction_deficit",),
}

COUNTERS = (
    "sector.hamiltonian_magnon.dim_sum",
    "sector.hamiltonian_magnon.nnz_sum",
    "sector.lowering_matrix.repeat_ratio",
    "foel.energy_level.dim_max",
    "foel.dilute_extend.solves",
)


def span_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _graph_and_n(fn, args, kwargs):
    """The first two bound arguments: (graph, n) for the sector functions."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    g, n = list(bound.arguments.values())[:2]
    return g.vertex_count, n


def _stored_entries(op):
    vals = getattr(op, "vals", None)
    if vals is not None:
        return len(vals)
    import scipy.sparse
    return scipy.sparse.triu(op).nnz


class Tracer:
    def __init__(self):
        self._stack = []            # [name, time in wrapped children]
        self._stats = {name: [0, 0.0, 0.0] for name in span_names()}
        self._rebound = []          # (module, attribute, original)
        self._lowering_seen = set()
        self._lowering_builds = 0
        self._lowering_repeats = 0
        self._dim_sum = 0
        self._nnz_sum = 0
        self._dim_max = 0
        self._solves = 0

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every named function; a name missing from the package raises."""
        originals = []
        for mod, fns in TRACED.items():
            home = importlib.import_module(f"heis.{mod}")
            for fn in fns:
                orig = getattr(home, fn, None)
                if not callable(orig):
                    raise LookupError(f"heis.{mod}.{fn} is not a function")
                originals.append((f"{mod}.{fn}", orig))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "heis" or name.startswith("heis.")]
        for name, orig in originals:
            wrapper = self._wrap(name, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, orig))
        return self

    def uninstall(self):
        for module, attr, orig in reversed(self._rebound):
            setattr(module, attr, orig)
        self._rebound.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self._stats[name]
        after = {
            "sector.hamiltonian_magnon": self._after_hamiltonian,
            "sector.lowering_matrix": self._after_lowering,
            "foel.energy_level": self._after_energy_level,
        }.get(name)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                after(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _after_hamiltonian(self, fn, args, kwargs, op):
        self._dim_sum += op.shape[0]
        self._nnz_sum += _stored_entries(op)

    def _after_lowering(self, fn, args, kwargs, op):
        key = _graph_and_n(fn, args, kwargs)
        self._lowering_builds += 1
        self._lowering_repeats += key in self._lowering_seen
        self._lowering_seen.add(key)

    def _after_energy_level(self, fn, args, kwargs, value):
        V, n = _graph_and_n(fn, args, kwargs)
        if 0 <= n <= V:
            self._dim_max = max(self._dim_max, math.comb(V, n))
        if any(frame[0] == "foel.dilute_extend" for frame in self._stack):
            self._solves += 1

    # -- results ------------------------------------------------------------

    def summary(self):
        """Flat {metric name: value}: .calls/.total_s/.self_s and the counters."""
        out = {}
        for name, (calls, total, self_time) in self._stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_time
        builds = self._lowering_builds
        out.update({
            "sector.hamiltonian_magnon.dim_sum": self._dim_sum,
            "sector.hamiltonian_magnon.nnz_sum": self._nnz_sum,
            "sector.lowering_matrix.repeat_ratio":
                self._lowering_repeats / builds if builds else 0.0,
            "foel.energy_level.dim_max": self._dim_max,
            "foel.dilute_extend.solves": self._solves,
        })
        return out
