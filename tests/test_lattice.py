import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critlat.lattice import (
    CCW_SIDES,
    OUTER,
    LatticeGraph,
    UnionFind,
    boundary_arcs,
    boundary_cycle,
    build_box,
    build_rect,
    cluster_stats,
    custom_bc,
    dual_map,
    free_bc,
    induced_graph,
    medial_domain,
    oriented_segment,
    segment_faces,
    shared_corner,
    to_black,
    wired_bc,
)
from critlat.oracle import crossing_event, verify_duality
from reference import dobrushin_bc, half_diamond


# ---------------------------------------------------------------------------
# boxes, boundaries, clusters


def test_box_sizes():
    g = build_box(0, 2)
    assert g.n_vertices == 1 and g.n_edges == 0
    g = build_box(1, 2)
    assert g.n_vertices == 9 and g.n_edges == 12
    assert len(g.boundary()) == 8
    g = build_box(2, 2)
    assert g.n_vertices == 25 and g.n_edges == 40
    g = build_box(1, 3)
    assert g.n_vertices == 27 and g.n_edges == 54


def test_cluster_counts_lambda1():
    g = build_box(1, 2)
    closed = (0,) * g.n_edges
    k_free, labels = cluster_stats(g, closed, free_bc(g))
    assert k_free == 9
    assert len(set(labels)) == 9
    k_wired, _ = cluster_stats(g, closed, wired_bc(g))
    assert k_wired == 2


def test_cluster_labels_deterministic():
    g = build_box(1, 2)
    ones = (1,) * g.n_edges
    _, labels = cluster_stats(g, ones, free_bc(g))
    assert set(labels) == {0}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 12 - 1), st.data())
def test_cluster_count_monotone_in_bc(mask, data):
    # wiring more can only merge clusters: k_wired <= k_xi <= k_free,
    # and the gap is at most |boundary| - 1
    g = build_box(1, 2)
    bits = tuple((mask >> k) & 1 for k in range(g.n_edges))
    k_free, _ = cluster_stats(g, bits, free_bc(g))
    k_wired, _ = cluster_stats(g, bits, wired_bc(g))
    bd = list(g.boundary())
    cut = data.draw(st.integers(min_value=1, max_value=len(bd)))
    k_mid, _ = cluster_stats(g, bits, custom_bc(g, (bd[:cut],)))
    assert k_wired <= k_mid <= k_free
    assert k_free - k_wired <= len(bd) - 1


def test_bc_holds_wired_blocks_and_contracts_to_roots():
    g = build_box(1, 2)
    n, bd = g.n_vertices, g.boundary_indices
    assert free_bc(g).blocks == ()
    assert free_bc(g).roots(n) == list(range(n))
    assert wired_bc(g).blocks == (bd,)
    assert wired_bc(g).roots(n) == [bd[0] if v in bd else v for v in range(n)]
    # a one-vertex block wires nothing and is not stored
    bc = custom_bc(g, [[(1, 1)], [(1, 0), (-1, -1)]])
    i, j, k = g.index((-1, -1)), g.index((1, 0)), g.index((1, 1))
    assert bc.blocks == ((i, j),)
    assert bc.roots(n)[j] == i and bc.roots(n)[k] == k


def _missing_vertex_calls():
    from critlat import currents, oracle, sampler

    g = build_rect((0, 2), (0, 1))
    far = (9, 9)
    return {
        "custom_bc": lambda: custom_bc(g, [[(0, 0), far]]),
        "connectivity_event": lambda: oracle.connectivity_event(
            g, free_bc(g), (0, 0), far),
        "ising_moment": lambda: oracle.ising_moment(g, 0.3, [(0, 0), far]),
        "verify_es_coupling": lambda: oracle.verify_es_coupling(
            g, [0.5], [2], products=[[(0, 0), far]]),
        "parity_masks": lambda: currents.parity_masks(g, [(0, 0), far]),
        "simon_report": lambda: currents.simon_report(
            g, 0.3, (0, 0), far, [(1, 0), (1, 1)]),
        "connect_mc": lambda: sampler.connect_mc(
            g, 0.5, 2.0, free_bc(g), (0, 0), far, 10, 1),
    }


@pytest.mark.parametrize("entry", sorted(_missing_vertex_calls()))
def test_missing_vertex_refused_by_name(entry):
    with pytest.raises(ValueError, match=r"vertex \(9, 9\) is not in"):
        _missing_vertex_calls()[entry]()


def test_custom_bc_refuses_empty_block():
    g = build_box(1, 2)
    bd = list(g.boundary())
    for blocks in ([[]], [bd[:2], []]):
        with pytest.raises(ValueError, match="empty"):
            custom_bc(g, blocks)


def test_union_find_roots_are_minima():
    uf = UnionFind(6)
    uf.union(5, 3)
    uf.union(3, 4)
    assert uf.find(5) == 3 and uf.find(4) == 3
    uf.union(0, 5)
    assert uf.find(4) == 0
    assert len({uf.find(x) for x in range(6)}) == 3


def test_is_connected_small_graphs():
    assert LatticeGraph([], []).is_connected()
    assert LatticeGraph([(0, 0)], []).is_connected()
    two = LatticeGraph([(0, 0), (1, 0), (3, 0), (4, 0)],
                       [((0, 0), (1, 0)), ((3, 0), (4, 0))])
    assert not two.is_connected()
    isolated = LatticeGraph([(0, 0), (1, 0), (2, 0)], [((0, 0), (1, 0))])
    assert not isolated.is_connected()


def test_complement_connected_shapes():
    l_shape = induced_graph([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)], 2)
    u_shape = induced_graph([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2),
                             (2, 2)], 2)
    # the four corners of its bounding box meet only outside it
    plus = induced_graph([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)], 2)
    assert l_shape.complement_connected() and u_shape.complement_connected()
    assert plus.complement_connected()
    ring = induced_graph([(x, y) for x in range(3) for y in range(3)
                          if (x, y) != (1, 1)], 2)
    assert not ring.complement_connected()
    # the four lattice neighbours of the missing cell (1, 1) enclose it
    around = LatticeGraph([(1, 0), (0, 1), (2, 1), (1, 2)], [])
    assert not around.complement_connected()


def test_complement_connected_empty_graph():
    # Z^2 minus nothing is Z^2, which is connected
    assert LatticeGraph([], []).complement_connected()


def test_complement_connected_refuses_3d():
    with pytest.raises(ValueError, match="only implemented for d=2"):
        build_box(1, 3).complement_connected()


# ---------------------------------------------------------------------------
# planar duality


def test_dual_unit_square():
    g = build_rect((0, 1), (0, 1))
    assert g.n_edges == 4
    dual = dual_map(g)
    assert len(dual.edges) == 4
    # one bounded face plus the outer one
    assert len(dual.vertices) == 2


def test_dual_involution_and_euler_counts():
    g = build_box(2, 2)
    dual = dual_map(g)
    assert len(dual.edges) == g.n_edges
    # Euler: |V| - |E| + |F| = 2, the outer face included
    assert g.n_vertices - g.n_edges + len(dual.vertices) == 2


def test_dual_rejects_3d():
    g = build_box(1, 3)
    with pytest.raises(ValueError):
        dual_map(g)


def test_dual_map_counts_the_faces_of_every_component():
    # the outer walk of a second component is no bounded face: two unit
    # squares have two faces and two paths none, so duality holds on both
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    squares = induced_graph(square + [(x + 3, y) for x, y in square], 2)
    dual = dual_map(squares)
    assert dual.vertices == ((0, 0), (3, 0), OUTER)
    assert all(OUTER in e and (0, 0) in e for e in dual.edges[:4])
    assert all(OUTER in e and (3, 0) in e for e in dual.edges[4:])
    paths = induced_graph([(1, 0), (2, 0), (3, 0), (0, 2), (1, 2), (2, 2)], 2)
    dual = dual_map(paths)
    assert dual.vertices == (OUTER,)
    assert set(dual.edges) == {(OUTER, OUTER)}
    for g in (squares, paths):
        report = verify_duality(g, 0.4, 2.0)
        assert report["ok"]
        assert report["config_max_err"] <= 1e-14
        assert report["z_rel_err"] <= 1e-14
    # an isolated vertex adds a component and no face
    lone = induced_graph(square + [(5, 5)], 2)
    assert dual_map(lone).vertices == ((0, 0), OUTER)
    assert verify_duality(lone, 0.4, 2.0)["ok"]


# ---------------------------------------------------------------------------
# crossings and their duality


def dual_rect(n, graph):
    """The dual of R_n = [0,n] x [0,n-1] for vertical dual crossings: faces
    (i,j) with 0 <= i <= n-1, -1 <= j <= n-1; strips j = -1 and j = n-1 are
    the split outer face, whose vertices are all sources or targets of the
    vertical crossing, so they need no links of their own. Returns the dual
    graph and, per dual edge, the index of the primal edge it crosses."""
    verts = [(i, j) for i in range(n) for j in range(-1, n)]
    crossed = {}
    for i in range(n):
        for j in range(-1, n - 1):
            crossed[((i, j), (i, j + 1))] = graph.edge_index[
                ((i, j + 1), (i + 1, j + 1))]
    for i in range(n - 1):
        for j in range(n - 1):
            crossed[((i, j), (i + 1, j))] = graph.edge_index[
                ((i + 1, j), (i + 1, j + 1))]
    dg = LatticeGraph(verts, list(crossed))
    return dg, [crossed[e] for e in dg.edges]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crossing_duality_exhaustive(n):
    # a horizontal open crossing of [0,n] x [0,n-1] exists iff no vertical
    # dual-open crossing of the shifted rectangle does
    g = build_rect((0, n), (0, n - 1))
    dg, crossed = dual_rect(n, g)
    h = crossing_event(g, (0, 0, n, n - 1), "horizontal")
    v = crossing_event(dg, (0, -1, n - 1, n - 1), "vertical")
    # the dual mask of every primal mask: each dual edge is open iff the
    # primal edge it crosses is closed
    masks = np.arange(1 << g.n_edges, dtype=np.int64)
    dual = np.zeros_like(masks)
    for t, k in enumerate(crossed):
        dual |= ((~masks >> k) & 1) << t
    assert (h != v[dual]).all()


# ---------------------------------------------------------------------------
# Dobrushin domains: the diamond fixtures, traced by hand

# the 2x2 block [0,1] x [-1,0]; in the diagonal embedding its four vertices
# become the black diamond P1=(0,0), P2=(1,1), P3=(2,0), P4=(1,-1)
DIAMOND = build_rect((0, 1), (-1, 0))
P1, P2, P3, P4 = (0, 0), (1, 0), (1, -1), (0, -1)


def test_diamond_walk_is_ccw():
    walk = boundary_cycle(DIAMOND)
    verts = [DIAMOND.vertices[u] for u, _ in walk]
    i = verts.index(P1)
    assert verts[i:] + verts[:i] == [P1, P4, P3, P2]


def _status_points(dom, kind):
    """The medial vertices of dom whose status is kind."""
    return {z for z, (k, _) in dom.status.items() if k == kind}


def _unturned(dom):
    """dom.black is the primal's own diagonal embedding."""
    return all(dom.black[v] == to_black(v) for v in dom.primal.vertices)


def test_domain_fixture_one_arc_edge():
    # a = P1, b = P4: one free edge P1-P4, wired arc P4-P3-P2-P1
    dom = medial_domain(DIAMOND, P1, P4)
    assert _unturned(dom)
    assert [DIAMOND.edges[k] for k in dom.free_edges] == [(P4, P1)]
    assert dom.status[(1, 0)] == ("free", dom.free_edges[0])
    assert _status_points(dom, "primal") == {(2, 0), (2, 1), (1, 1)}
    assert _status_points(dom, "dual") == {(0, 0), (1, -1)}
    assert dom.abstar_whites == ((-1, 0), (0, -1), (1, -2))
    assert dom.e_a == ((0, 1), (0, 0))
    assert dom.e_b == ((1, -1), (2, -1))
    assert dom.v_count() == 1


def test_domain_fixture_two_arc_edges():
    # a = P1, b = P3: free edges P1-P4 and P4-P3, wired arc P3-P2-P1
    dom = medial_domain(DIAMOND, P1, P3)
    assert _unturned(dom)
    assert dom.e_b == ((3, 0), (3, 1))
    assert dom.e_a == ((0, 1), (0, 0))
    assert _status_points(dom, "primal") == {(1, 1), (2, 1)}
    assert _status_points(dom, "dual") == {(0, 0), (1, -1), (2, -1), (3, 0)}
    assert len(dom.abstar_whites) == 5
    assert dom.v_count() == 2


def test_domain_degenerate_marked_point():
    # a = b: no wired edges, the hugging arc wraps the boundary but leaves
    # the side of black(a) facing the two missing neighbours open, so the
    # marked edges are anti-parallel on the flanking sides
    square = build_rect((0, 1), (0, 1))
    dom = medial_domain(square, (0, 0), (0, 0))
    assert dom.ba_edges == ()
    assert len(dom.free_edges) == 4
    assert _unturned(dom)
    assert dom.e_b == ((0, 1), (0, 0))
    assert dom.e_a == ((1, 0), (1, 1))
    assert len(dom.abstar_whites) == 7
    assert len(_status_points(dom, "dual")) == 6
    assert _status_points(dom, "primal") == set()
    assert dom.v_count() == 4


def test_boundary_walk_with_leaves():
    # the half-diamond has degree-1 tips; the outer walk traverses their
    # edges twice, which the arc split must tolerate when a and b are
    # unambiguous
    g = half_diamond(3)
    ab_v, ba_v, ab_e, ba_e = boundary_arcs(g, (0, 0), (0, 0))
    assert ba_e == ()
    assert len(ab_e) == 16
    assert ab_v[0] == ab_v[-1] == (0, 0)
    assert ab_v.count((0, -2)) == 2  # leaf neighbour revisited

    dom = medial_domain(g, (0, 0), (0, 0))
    assert len(dom.free_edges) == 18
    assert dom.e_a == ((0, 1), (0, 0))
    assert dom.e_b == ((1, 0), (1, 1))
    assert dom.v_count() == 14


def test_domain_rejects_bad_input():
    with pytest.raises(ValueError):
        medial_domain(DIAMOND, (5, 5), P1)
    # a domain with a hole has a disconnected complement
    ring = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    edges = [(u, v) for u in ring for v in ring
             if u < v and abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1]
    with pytest.raises(ValueError):
        medial_domain(LatticeGraph(ring, edges), (0, 0), (2, 2))


def test_domain_refuses_status_collision():
    # the T-shape's (ab)* chain wraps the stem so that a forced dual vertex
    # lands on the medial vertex of a primal edge
    t_shape = induced_graph([(0, 0), (0, 1), (0, 2), (1, 1)], 2)
    with pytest.raises(ValueError, match="collide"):
        medial_domain(t_shape, (0, 0), (1, 1))


def test_domain_refuses_missing_induced_edge():
    # the 3x3 rect with the interior edge (1, 1)-(2, 1) removed
    rect = build_rect((0, 2), (0, 2))
    g = LatticeGraph(rect.vertices,
                     [e for e in rect.edges if e != ((1, 1), (2, 1))])
    assert g.n_edges == rect.n_edges - 1
    with pytest.raises(ValueError, match="induced edges"):
        medial_domain(g, (0, 0), (2, 2))


def test_domain_refuses_single_vertex():
    with pytest.raises(ValueError, match="needs an edge"):
        medial_domain(LatticeGraph([(0, 0)], []), (0, 0), (0, 0))


def test_domain_refuses_pinched_wired_arc():
    # (0, -1) has all four neighbours but meets the outer face through the
    # missing diagonal cell (-1, -2); the (ba) arc passes through it
    g = induced_graph([(-1, -1), (0, -2), (0, -1), (0, 0), (1, -2), (1, -1)],
                      2)
    assert (0, -1) not in g.boundary()
    with pytest.raises(ValueError, match=r"\(0, -1\)"):
        medial_domain(g, (-1, -1), (0, 0))


def test_slot_table_refuses_dangling_curve():
    # with e_b moved onto e_a, the curve dangles at the true exit edge
    dom = medial_domain(build_rect((0, 2), (0, 2)), (0, 0), (2, 2))
    dom.e_b = dom.e_a
    with pytest.raises(ValueError, match="dangles"):
        dom._slot_table()


def test_dobrushin_bc_wires_ba_arc():
    bc = dobrushin_bc(DIAMOND, P1, P4)
    sizes = sorted(len(b) for b in bc.blocks)
    assert sizes == [4]
    bc = dobrushin_bc(DIAMOND, P1, P3)
    assert sorted(len(b) for b in bc.blocks) == [3]


def test_boundary_arcs_refuse_ambiguous_split_points():
    # (0, 0) is interior to the box; the half-diamond's outer walk passes
    # (0, -2) twice, once on each side of its leaf
    with pytest.raises(ValueError, match="exactly once"):
        boundary_arcs(build_box(1), (0, 0), (1, 1))
    with pytest.raises(ValueError, match="exactly once"):
        dobrushin_bc(build_box(1), (-1, -1), (0, 0))
    with pytest.raises(ValueError, match="exactly once"):
        boundary_arcs(half_diamond(3), (0, 0), (0, -2))


def test_medial_helpers_refuse_non_adjacent_input():
    assert shared_corner((0, 0), (1, 1)) == (1, 1)
    for f, g in (((0, 0), (1, 0)), ((0, 0), (2, 2)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError, match="not diagonal neighbors"):
            shared_corner(f, g)
    assert segment_faces((0, 0), (0, 1)) == ((0, 0), (-1, 0))
    with pytest.raises(ValueError, match="not a unit medial segment"):
        segment_faces((0, 0), (1, 1))


def test_oriented_segment_runs_counterclockwise_around_its_black_face():
    # every unit segment of [-3, 3]^2, in both argument orders: the head
    # lies counterclockwise of the tail seen from the black face's centre
    box = range(-3, 4)
    for z in itertools.product(box, box):
        for w in ((z[0] + 1, z[1]), (z[0], z[1] + 1)):
            tail, head = oriented_segment(z, w)
            assert oriented_segment(w, z) == (tail, head)
            assert {tail, head} == {z, w}
            i, j = segment_faces(z, w)[0]
            t = complex(tail[0] - i - 0.5, tail[1] - j - 0.5)
            h = complex(head[0] - i - 0.5, head[1] - j - 0.5)
            assert (t.conjugate() * h).imag > 0


def test_segment_faces_refuses_non_unit_segments():
    # a vertical segment of length 3, a point and a horizontal of length 5
    for z, w in (((0, 0), (0, 3)), ((0, 0), (0, 0)), ((0, 0), (5, 0))):
        with pytest.raises(ValueError, match="not a unit medial segment"):
            segment_faces(z, w)


def test_boundary_arcs_refuse_a_non_vertex_by_name():
    g = build_rect((0, 1), (0, 1))
    with pytest.raises(ValueError, match="a must be a vertex, not 5"):
        boundary_arcs(g, 5, (1, 1))
    with pytest.raises(ValueError, match="b must be a vertex, not None"):
        boundary_arcs(g, (0, 0), None)
    with pytest.raises(ValueError, match="a must be a vertex, not 5"):
        medial_domain(g, 5, (1, 1))


def test_shared_corner_refuses_a_non_point_by_name():
    with pytest.raises(ValueError, match="f must be a vertex, not 5"):
        shared_corner(5, (1, 1))
    with pytest.raises(ValueError, match="g must be a vertex, not None"):
        shared_corner((0, 0), None)


def test_segment_faces_refuses_a_non_point_by_name():
    with pytest.raises(ValueError, match="z must be a vertex, not 5"):
        segment_faces(5, (1, 1))
    with pytest.raises(ValueError, match="w must be a vertex, not None"):
        segment_faces((0, 0), None)


def test_boundary_arcs_box():
    g = build_box(2, 2)
    ab_v, ba_v, ab_e, ba_e = boundary_arcs(g, (-2, -2), (2, 2))
    assert len(ab_e) + len(ba_e) == 16
    assert ab_v[0] == (-2, -2) and ab_v[-1] == (2, 2)
    assert ba_v[0] == (2, 2) and ba_v[-1] == (-2, -2)
    assert len(ab_e) == 8 and len(ba_e) == 8


@settings(max_examples=30, deadline=None)
@given(st.sets(st.tuples(*[st.integers(-2, 2)] * 3), max_size=25),
       st.sampled_from([2, 3]))
def test_induced_graph_joins_every_unit_pair(points, d):
    cells = {p[:d] for p in points}
    g = induced_graph(cells, d)
    pairs = sorted((u, v) for u in cells for v in cells
                   if u < v and sum(abs(a - b) for a, b in zip(u, v)) == 1)
    assert g.vertices == tuple(sorted(cells))
    assert g.edges == tuple(pairs) and g.ambient_dim == d


def test_build_rect_refuses_a_reversed_range():
    with pytest.raises(ValueError, match=r"range \(2, 0\) is reversed"):
        build_rect((2, 0), (0, 1))
    with pytest.raises(ValueError, match=r"range \(1, 0\) is reversed"):
        build_rect((0, 2), (1, 0))
    assert build_rect((0, 0), (0, 0)).n_vertices == 1


def test_induced_graph_refuses_vertices_of_another_dimension():
    with pytest.raises(ValueError, match=r"vertex \(0, 0\) has 2 coordinates, not d=3"):
        induced_graph([(0, 0), (1, 0)], 3)
    with pytest.raises(ValueError, match=r"d must be an integer, not 2\.0"):
        induced_graph([(0, 0), (1, 0)], 2.0)


def test_lattice_graph_refuses_vertices_of_mixed_dimension():
    with pytest.raises(ValueError,
                       match=r"vertex \(0, 0, 0\) has 3 coordinates, not d=2"):
        LatticeGraph([(0, 0), (0, 0, 0)], [])


def test_lattice_graph_refuses_a_non_integer_dimension():
    vs, es = [(0, 0), (1, 0)], [((0, 0), (1, 0))]
    with pytest.raises(ValueError,
                       match=r"ambient_dim must be an integer, not 2\.0"):
        LatticeGraph(vs, es, ambient_dim=2.0)
    assert type(LatticeGraph(vs, es, ambient_dim=np.int64(2)).ambient_dim) is int


def test_builders_refuse_non_integer_sizes():
    with pytest.raises(ValueError, match=r"n must be an integer, not 1\.5"):
        build_box(1.5)
    with pytest.raises(ValueError,
                       match=r"range bound must be an integer, not 1\.5"):
        build_rect((0, 1.5), (0, 1))
    with pytest.raises(ValueError, match=r"d must be an integer, not 2\.0"):
        build_box(1, 2.0)
    assert build_box(np.int64(1)).n_edges == 12


def test_build_box_refuses_bad_size_and_dimension():
    with pytest.raises(ValueError, match="n must be >= 0"):
        build_box(-1)
    for d in (1, 4):
        with pytest.raises(ValueError, match="d must be 2 or 3"):
            build_box(1, d)


def test_lattice_graph_refuses_bad_edges_and_orders_ends():
    with pytest.raises(ValueError, match="not a nearest-neighbor edge"):
        LatticeGraph([(0, 0), (1, 1)], [((0, 0), (1, 1))])
    with pytest.raises(ValueError, match="not a vertex"):
        LatticeGraph([(0, 0)], [((0, 0), (1, 0))])
    # an edge given larger end first is stored as (min, max), once
    for edges in ([((1, 0), (0, 0))], [((1, 0), (0, 0)), ((0, 0), (1, 0))]):
        g = LatticeGraph([(0, 0), (1, 0)], edges)
        assert g.edges == (((0, 0), (1, 0)),) and g.edge_ends == ((0, 1),)


def test_custom_bc_refuses_overlapping_blocks():
    g = build_box(1, 2)
    bd = list(g.boundary())
    with pytest.raises(ValueError, match="overlap"):
        custom_bc(g, [bd[:3], bd[2:5]])


TWO_EDGES = LatticeGraph([(0, 0), (1, 0), (5, 0), (6, 0)],
                         [((0, 0), (1, 0)), ((5, 0), (6, 0))])


def test_boundary_cycle_refuses_3d_and_disconnected_graphs():
    with pytest.raises(ValueError, match="only for d=2"):
        boundary_cycle(build_box(1, 3))
    with pytest.raises(ValueError, match="must be connected"):
        boundary_cycle(TWO_EDGES)


def test_face_walks_refuse_a_graph_without_edges():
    point = LatticeGraph([(0, 0)], [])
    for call in (boundary_cycle, dual_map):
        with pytest.raises(ValueError, match="no edges"):
            call(point)


def test_dual_map_refuses_non_square_face():
    # the ring around the missing cell (1, 1) bounds a face of eight edges
    ring = induced_graph([(x, y) for x in range(3) for y in range(3)
                          if (x, y) != (1, 1)], 2)
    with pytest.raises(ValueError, match="unit squares"):
        dual_map(ring)


def test_domain_refuses_3d_and_disconnected_primal():
    with pytest.raises(ValueError, match="two-dimensional"):
        medial_domain(build_box(1, 3), (-1, -1, -1), (1, 1, 1))
    with pytest.raises(ValueError, match="must be connected"):
        medial_domain(TWO_EDGES, (0, 0), (6, 0))


@st.composite
def polyominoes(draw):
    """Induced graphs on simply connected polyominoes of 2 to 14 cells,
    grown one frontier cell at a time from (0, 0)."""
    picks = draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=13))
    cells = {(0, 0)}
    for t in picks:
        frontier = sorted({(x + dx, y + dy) for x, y in cells
                           for dx, dy in CCW_SIDES} - cells)
        cells.add(frontier[t % len(frontier)])
    g = induced_graph(cells, 2)
    assume(g.complement_connected())
    return g


@settings(max_examples=40, deadline=None)
@given(polyominoes(), st.integers(0, 1 << 20), st.integers(0, 1 << 20))
def test_face_geometry_invariants_on_polyominoes(g, ia, ib):
    faces = g.n_edges - g.n_vertices + 1
    # the outer walk: a closed chain of graph edges, each step taken once,
    # ccw around every unit-square face and through every boundary vertex
    walk = boundary_cycle(g)
    assert set(tuple(sorted(step)) for step in walk) <= set(g.edge_ends)
    assert all(s[1] == t[0] for s, t in zip(walk, walk[1:] + walk[:1]))
    assert len(set(walk)) == len(walk)
    pts = [g.vertices[u] for u, _ in walk]
    area = sum(p[0] * q[1] - q[0] * p[1]
               for p, q in zip(pts, pts[1:] + pts[:1])) / 2
    assert area == faces
    assert set(g.boundary()) <= set(pts)
    # Euler's count of bounded faces, each closed by four dual edges
    dual = dual_map(g)
    bounded = [f for f in dual.vertices if f != OUTER]
    assert len(bounded) == faces
    ends = Counter(f for e in dual.edges for f in e)
    assert all(ends[f] == 4 for f in bounded)
    # the (ab)* chain, for marked points the outer walk passes once
    once = [v for v in g.boundary() if pts.count(v) == 1]
    try:
        dom = medial_domain(g, once[ia % len(once)], once[ib % len(once)])
    except ValueError as err:
        assert "inside the boundary" in str(err) or "collide" in str(err)
        return
    chain = dom.abstar_whites
    assert all(abs(v[0] - w[0]) == 1 == abs(v[1] - w[1])
               for v, w in zip(chain, chain[1:]))
    # a bounded face's white has the blacks of its four corners on its sides
    assert not any(all((w[0] + dx, w[1] + dy) in dom.blacks
                       for dx, dy in CCW_SIDES) for w in chain)
