import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from heis.errors import ParseError
from heis.graph import (
    Graph,
    lambda_spec,
    load_graph,
    make_box,
    make_lambda,
    make_path,
    make_ring,
    save_graph,
)


def test_box_1d_is_path():
    g = make_box(1, 8)
    assert g.vertex_count == 8
    assert g.edge_count == 7
    assert g.edges == tuple((i, i + 1) for i in range(7))


def test_box_2d_grid_counts():
    g = make_box(2, 3)
    assert g.vertex_count == 9
    assert g.edge_count == 12  # 2*L*(L-1)
    assert all(j == 1.0 for j in g.couplings)


def test_box_degenerate():
    g = make_box(2, 1)
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_box_points_sorted_lexicographically():
    g = make_box(2, 2)
    assert g.points == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_lambda_perfect_power_equals_box():
    assert make_lambda(2, 4) == make_box(2, 2)
    assert make_lambda(3, 8) == make_box(3, 2)
    assert make_lambda(1, 5) == make_path(5)


def test_lambda_2_5_fill():
    g = make_lambda(2, 5)
    assert set(g.points) == {(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)}
    assert g.edge_count == 5


def test_lambda_spec_counts():
    spec = lambda_spec(2, 8)
    assert (spec.L, spec.L_plus) == (2, 3)
    assert len(spec.fill) == 4
    # exact integer roots are safe from float rounding
    assert lambda_spec(3, 64).L == 4
    assert lambda_spec(3, 63).L == 3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lambda_vertex_count_and_nesting(d):
    prev = None
    for N in range(1, 28):
        g = make_lambda(d, N)
        assert g.vertex_count == N
        if prev is not None:
            pp, gp = set(prev.points), set(g.points)
            assert pp < gp and len(gp - pp) == 1
            prev_edges = {frozenset((prev.points[u], prev.points[v]))
                          for u, v in prev.edges}
            edges = {frozenset((g.points[u], g.points[v])) for u, v in g.edges}
            assert prev_edges <= edges
        prev = g


def test_ring():
    g = make_ring(3)
    assert g.edge_count == 3
    g6 = make_ring(6)
    degree = {v: 0 for v in g6.vertices}
    for u, v in g6.edges:
        degree[u] += 1
        degree[v] += 1
    assert all(deg == 2 for deg in degree.values())
    with pytest.raises(ValueError):
        make_ring(2)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph((0, 1), ((0, 0),), (1.0,))
    with pytest.raises(ValueError):
        Graph((0, 1), ((0, 1), (0, 1)), (1.0, 1.0))
    with pytest.raises(ValueError):
        Graph((0, 1), ((0, 2),), (1.0,))
    with pytest.raises(ValueError):
        Graph((0, 1), ((0, 1),), (-0.5,))
    for j in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Graph((0, 1), ((0, 1),), (j,))


def test_duplicate_lattice_points_are_refused():
    # two vertices at one point share a key, so edge_keys() merges their
    # edges and the chain matching could pair this graph with a 4-vertex one
    with pytest.raises(ValueError, match="duplicate lattice points"):
        Graph((0, 1, 2), ((0, 1), (1, 2)), (1.0, 2.0), points=((1,), (1,), (2,)))
    with pytest.raises(ValueError, match="align"):
        Graph((0, 1, 2), ((0, 1), (1, 2)), (1.0, 2.0), points=((1,), (2,)))


def test_load_graph_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 2 1.0\n2 3 0.5\n")
    g = load_graph(p)
    assert g.vertices == (1, 2, 3)
    assert g.edge_count == 2
    assert dict(zip(g.edges, g.couplings))[(2, 3)] == 0.5


def test_load_graph_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 1 1.0\n")
    with pytest.raises(ParseError) as err:
        load_graph(p)
    assert err.value.line_number == 1
    p.write_text("1 2 1.0\n2 1 2.0\n")
    with pytest.raises(ParseError) as err:
        load_graph(p)
    assert err.value.line_number == 2
    p.write_text("1 2 -1.0\n")
    with pytest.raises(ParseError):
        load_graph(p)
    p.write_text("1 2 x\n")
    with pytest.raises(ParseError):
        load_graph(p)


@pytest.mark.parametrize("j", ["nan", "inf", "-inf"])
def test_load_graph_rejects_nonfinite_couplings(tmp_path, j):
    p = tmp_path / "g.txt"
    p.write_text(f"0 1 1.0\n1 2 {j}\n")
    with pytest.raises(ParseError, match="not finite") as err:
        load_graph(p)
    assert err.value.line_number == 2


def test_load_graph_unreadable_file(tmp_path):
    with pytest.raises(ParseError, match="missing.txt"):
        load_graph(tmp_path / "missing.txt")
    with pytest.raises(ParseError, match="cannot read"):
        load_graph(tmp_path)


def test_save_load_round_trip(tmp_path):
    for g in (make_box(1, 3), make_box(2, 2), make_ring(5), make_box(2, 1)):
        p = tmp_path / "rt.txt"
        save_graph(g, p)
        assert load_graph(p) == g


def test_save_load_preserves_couplings(tmp_path):
    g = make_path(4).with_couplings({(0, 1): 0.25, (1, 2): 0.0, (2, 3): 2.0})
    p = tmp_path / "w.txt"
    save_graph(g, p)
    assert load_graph(p) == g


def test_lattice_header_round_trip(tmp_path):
    p = tmp_path / "lat.txt"
    save_graph(make_box(2, 2), p)
    assert "#lattice d=2" in p.read_text()
    assert load_graph(p).dim == 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lambda_spec_points_are_the_graph_points(d):
    # the L-box plus the first N - L^d points of the next shell, sorted
    for N in range(1, 80):
        spec = lambda_spec(d, N)
        box = list(itertools.product(range(1, spec.L + 1), repeat=d))
        shell = sorted(set(itertools.product(range(1, spec.L + 2), repeat=d)) - set(box))
        assert spec.points == tuple(sorted(box + shell[:N - len(box)]))
        assert spec.points == make_lambda(d, N).points


@given(st.integers(1, 3), st.integers(1, 40))
def test_lambda_size_property(d, N):
    assert lambda_spec(d, N).L_plus - lambda_spec(d, N).L in (0, 1)
    assert make_lambda(d, N).vertex_count == N


def test_box_size_guard():
    from heis.errors import SizeBudgetError
    # the message names the vertex count and the cap
    for L, d in (((1 << 20) + 1, 1), (128, 3)):
        with pytest.raises(SizeBudgetError,
                           match=f" {L ** d} vertices exceed MAX_VERTICES {1 << 20}$"):
            make_box(d, L)


@pytest.mark.parametrize("build", [
    lambda: lambda_spec(2, 10 ** 12 + 1),
    lambda: make_lambda(2, (1 << 20) + 10),
    lambda: make_ring((1 << 20) + 1),
], ids=["lambda_spec", "make_lambda", "make_ring"])
def test_generators_refuse_before_listing_points(build):
    # make_box and make_path are covered by test_box_size_guard
    from heis.errors import SizeBudgetError
    start = time.perf_counter()
    with pytest.raises(SizeBudgetError, match=f" vertices exceed MAX_VERTICES {1 << 20}$"):
        build()
    assert time.perf_counter() - start < 0.1


def test_generators_deterministic():
    assert make_lambda(2, 7) == make_lambda(2, 7)
    assert make_box(3, 2).edges == make_box(3, 2).edges


def test_with_couplings_is_keyed_by_edges():
    g = make_box(1, 3).with_couplings({(0, 1): 0.5, (1, 2): 2})
    assert g.couplings == (0.5, 2.0) and g.points == make_box(1, 3).points
    with pytest.raises(KeyError):
        g.with_couplings(g.edge_keys())


def test_edge_keys_by_points():
    g = make_box(1, 3)
    keys = g.edge_keys()
    assert frozenset(((1,), (2,))) in keys
    assert keys[frozenset(((1,), (2,)))] == 1.0
