"""Finite graphs with nonnegative couplings, and the lattice generators.

Vertices are opaque nonnegative integer ids.  For lattice graphs the ids are
the positions of the lattice points in lexicographic order and the points
themselves are kept alongside, so families of growing lattice graphs can be
matched point-by-point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import ParseError, SizeBudgetError

#: Hard cap on vertex counts accepted by the generators.
MAX_VERTICES = 1 << 20


@dataclass(frozen=True)
class Graph:
    """An undirected graph with a nonnegative coupling per edge.

    Attributes
    ----------
    vertices : tuple of int
        Sorted vertex ids.
    edges : tuple of (int, int)
        Sorted edge list; each edge is stored once as ``(u, v)`` with ``u < v``.
    couplings : tuple of float
        Coupling value per edge, aligned with ``edges``.  All values are >= 0.
    points : tuple of tuple of int, optional
        Lattice coordinates aligned with ``vertices`` (lattice graphs only).
        Not part of graph equality.
    dim : int, optional
        Lattice dimension when ``points`` is set.
    """

    vertices: tuple
    edges: tuple
    couplings: tuple
    points: tuple = field(default=None, compare=False)
    dim: int = field(default=None, compare=False)

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if any(v < 0 for v in self.vertices):
            raise ValueError("vertex ids must be nonnegative")
        if tuple(sorted(self.vertices)) != self.vertices:
            raise ValueError("vertices must be sorted")
        if len(self.couplings) != len(self.edges):
            raise ValueError("couplings must align with edges")
        seen = set()
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            seen.add((u, v))
        if not all(0 <= j < math.inf for j in self.couplings):
            raise ValueError("couplings must be finite and nonnegative")
        if self.points is not None and len(self.points) != len(self.vertices):
            raise ValueError("points must align with vertices")
        if self.points is not None and len(set(self.points)) != len(self.points):
            raise ValueError("duplicate lattice points")

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def edge_count(self):
        return len(self.edges)

    def index_of(self):
        """Dict from vertex id to its position in ``vertices``."""
        return {v: i for i, v in enumerate(self.vertices)}

    def vertex_keys(self):
        """Cross-graph identity of each vertex, aligned with ``vertices``:
        lattice graphs are matched by coordinates, other graphs by id."""
        return self.points if self.points is not None else self.vertices

    def edge_keys(self):
        """Coupling map keyed by frozensets of vertex keys."""
        key = dict(zip(self.vertices, self.vertex_keys()))
        return {frozenset((key[u], key[v])): j for (u, v), j in zip(self.edges, self.couplings)}

    def with_couplings(self, mapping):
        """Copy of the graph whose edge ``(u, v)`` has coupling
        ``mapping[(u, v)]``; ``mapping`` is keyed by the normalized edge
        tuples of ``edges`` and must hold every one of them."""
        return Graph(self.vertices, self.edges, tuple(float(mapping[e]) for e in self.edges),
                     self.points, self.dim)


@dataclass(frozen=True)
class LatticeBoxSpec:
    """Shape data for the N-vertex lattice graph of dimension d.

    ``L`` and ``L_plus`` are the floor and ceiling of ``N**(1/d)``; ``fill``
    holds the lexicographically smallest points of the shell
    ``B^d(L_plus) \\ B^d(L)`` needed to reach exactly ``N`` vertices.
    """

    d: int
    N: int
    L: int
    L_plus: int
    fill: tuple

    @property
    def points(self):
        """The N points of the lattice graph, the L-box and the fill, in
        lexicographic order."""
        box = itertools.product(range(1, self.L + 1), repeat=self.d)
        return tuple(sorted(itertools.chain(box, self.fill)))


def _integer_root(N, d):
    """Largest L with L**d <= N, using exact integer arithmetic."""
    L = max(1, int(round(N ** (1.0 / d))))
    while L ** d > N:
        L -= 1
    while (L + 1) ** d <= N:
        L += 1
    return L


def lambda_spec(d, N):
    """Compute the :class:`LatticeBoxSpec` for given dimension and size.

    Raises :class:`SizeBudgetError` when N exceeds ``MAX_VERTICES``, before
    any point is listed.
    """
    if d < 1 or N < 1:
        raise ValueError("d and N must be positive")
    if N > MAX_VERTICES:
        raise SizeBudgetError(f"lattice graph: {N} vertices exceed MAX_VERTICES {MAX_VERTICES}")
    L = _integer_root(N, d)
    L_plus = L if L ** d == N else L + 1
    # product lists the box in lexicographic order, so the fill is a prefix of the shell
    shell = (p for p in itertools.product(range(1, L_plus + 1), repeat=d) if max(p) > L)
    fill = tuple(itertools.islice(shell, N - L ** d))
    return LatticeBoxSpec(d=d, N=N, L=L, L_plus=L_plus, fill=fill)


def _lattice_graph(points, d):
    """Graph induced on ``points`` by nearest-neighbor adjacency in Z^d."""
    points = sorted(points)
    pos = {p: i for i, p in enumerate(points)}
    edges = []
    for p, i in pos.items():
        for j in range(d):
            q = p[:j] + (p[j] + 1,) + p[j + 1:]
            if q in pos:
                a, b = sorted((i, pos[q]))
                edges.append((a, b))
    edges.sort()
    return Graph(
        vertices=tuple(range(len(points))),
        edges=tuple(edges),
        couplings=(1.0,) * len(edges),
        points=tuple(points),
        dim=d,
    )


def make_box(d, L):
    """The d-dimensional box {1..L}^d with induced edges and unit couplings."""
    if d < 1 or L < 1:
        raise ValueError("d and L must be positive")
    if L ** d > MAX_VERTICES:
        raise SizeBudgetError(f"box {L}^{d}: {L ** d} vertices exceed MAX_VERTICES {MAX_VERTICES}")
    return _lattice_graph(itertools.product(range(1, L + 1), repeat=d), d)


def make_lambda(d, N):
    """The N-vertex growing-family lattice graph of dimension d.

    Equals ``make_box(d, L)`` when ``N == L**d``; otherwise the box plus the
    lexicographically smallest fill points of the next shell.  The vertex sets
    (as lattice points) are nested along ``N -> N+1``.
    """
    return _lattice_graph(lambda_spec(d, N).points, d)


def make_path(L):
    """Path graph on L vertices (alias for the 1-dimensional box)."""
    return make_box(1, L)


def make_ring(L):
    """Cycle graph on L vertices with unit couplings.  Requires L >= 3."""
    if L < 3:
        raise ValueError("ring needs L >= 3 (smaller rings duplicate edges)")
    if L > MAX_VERTICES:
        raise SizeBudgetError(f"ring: {L} vertices exceed MAX_VERTICES {MAX_VERTICES}")
    edges = sorted(tuple(sorted((i, (i + 1) % L))) for i in range(L))
    return Graph(
        vertices=tuple(range(L)),
        edges=tuple(edges),
        couplings=(1.0,) * L,
    )


def save_graph(g, path):
    """Write a graph in edge-list format.

    One line per edge, ``u v J``; isolated vertices are written as a bare id
    on a line of their own.  A ``#lattice d=<d>`` header records the lattice
    dimension when available (coordinates themselves are not persisted).
    """
    touched = {u for e in g.edges for u in e}
    lines = []
    if g.dim is not None:
        lines.append(f"#lattice d={g.dim}")
    for v in g.vertices:
        if v not in touched:
            lines.append(str(v))
    for (u, v), j in zip(g.edges, g.couplings):
        lines.append(f"{u} {v} {j!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path):
    """Read a graph from edge-list format.  See :func:`save_graph`.

    Raises :class:`ParseError` when the file cannot be read, and with the
    line number on malformed lines, self-loops, negative or non-finite
    couplings, or duplicate edges.
    """
    vertices = set()
    edges = []
    couplings = []
    seen = set()
    dim = None
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError(f"cannot read graph file {str(path)!r}: {exc.strerror or exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if raw.lstrip().startswith("#lattice"):
                try:
                    dim = int(raw.split("d=", 1)[1].split()[0])
                except (IndexError, ValueError):
                    raise ParseError("bad lattice header", lineno)
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) == 1:
                try:
                    vertices.add(int(parts[0]))
                except ValueError:
                    raise ParseError(f"bad vertex id {parts[0]!r}", lineno)
                continue
            if len(parts) not in (2, 3):
                raise ParseError(f"expected 'u v [J]', got {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
                j = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParseError(f"could not parse {line!r}", lineno)
            if u < 0 or v < 0:
                raise ParseError("vertex ids must be nonnegative", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if not math.isfinite(j):
                raise ParseError(f"coupling {j} is not finite", lineno)
            if j < 0:
                raise ParseError(f"negative coupling {j}", lineno)
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ParseError(f"duplicate edge {e}", lineno)
            seen.add(e)
            vertices.update(e)
            edges.append(e)
            couplings.append(j)
    order = sorted(range(len(edges)), key=lambda i: edges[i])
    return Graph(
        vertices=tuple(sorted(vertices)),
        edges=tuple(edges[i] for i in order),
        couplings=tuple(couplings[i] for i in order),
        dim=dim,
    )
