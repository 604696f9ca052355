"""Exact-enumeration oracle checks: weights, conditionals, Edwards-Sokal,
duality, positive association and the pivotality sum."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlat.lattice import (
    LatticeGraph,
    build_box,
    UnionFind,
    build_rect,
    cluster_stats,
    custom_bc,
    dual_map,
    free_bc,
    induced_graph,
    wired_bc,
)
from critlat.oracle import (
    MAX_COUNT_EDGES,
    MAX_ENUM_EDGES,
    MAX_TABLE_BYTES,
    _class_counts,
    _class_hist,
    _class_sums,
    _color_table,
    _es_sides,
    _fkg_search,
    _frontier_counts,
    _label_table,
    _log_weights,
    _probabilities,
    _product_columns,
    _sampled_labels,
    _simplex_dots,
    _superset_transform,
    all_boundary_connection,
    all_even_overlap,
    all_pairs_connectivity,
    boundary_connection_event,
    cbc_scan,
    cluster_count_array,
    connectivity_event,
    crossing_event,
    cylinder_event,
    cylinder_probabilities,
    dual_cluster_count_array,
    es_beta_from_p,
    even_overlap_event,
    fkg_gap,
    fkg_scan,
    fkg_witness_q_below_one,
    increasing_events,
    ising_moment,
    log_partition_function,
    mon_scan,
    open_count_array,
    p_dual,
    p_self_dual,
    partition_function,
    potts_one_point_wired,
    potts_two_point,
    probability_array,
    rc_probability,
    scan_configs,
    set_partitions,
    spin_ensemble,
    thresholds,
    verify_duality,
    verify_es_coupling,
)
from critlat.loops import sigma_obs
from critlat.sampler import cftp_batch, chain_samples, es_forward
from critlat.sixvertex import TorusRc, c_from_q, oriented_sector_sums
from reference import (
    _refused_before_allocating,
    cbc_gaps,
    charged_peak,
    class_counts,
    dobrushin_bc,
    edge_conditional_gap,
    mon_gap,
    phi_sum,
)

SQUARE = build_rect((0, 1), (0, 1))
GRID23 = build_rect((0, 1), (0, 2))
BOX1 = build_box(1)
EDGE = LatticeGraph([(0, 0), (1, 0)], [((0, 0), (1, 0))])
RECT17 = build_rect((0, 3), (0, 2))


def test_q1_is_bernoulli_product():
    for bc in (free_bc(GRID23), wired_bc(GRID23)):
        z = partition_function(GRID23, 0.3, 1.0, bc)
        assert abs(z - 1.0) < 1e-12
        prob = probability_array(GRID23, 0.3, 1.0, bc)
        o = open_count_array(GRID23.n_edges)
        expected = 0.3 ** o * 0.7 ** (GRID23.n_edges - o)
        assert np.abs(prob - expected).max() < 1e-14


def test_cylinder_event_refuses_out_of_range_edges():
    g = build_rect((0, 2), (0, 1))
    assert g.n_edges == 7
    for bad in ([10], [99], [-1], [0, 7]):
        with pytest.raises(ValueError, match="not in range"):
            cylinder_event(g, bad)
    assert cylinder_event(g, [6]).sum() == 1 << 6


def test_single_edge_open_probability():
    p, q = 0.4, 3.0
    ev = cylinder_event(EDGE, [0])
    got = rc_probability(EDGE, p, q, free_bc(EDGE), ev)
    assert abs(got - p / (p + (1 - p) * q)) < 1e-14


def test_point_masses_at_p_0_and_1():
    prob0 = probability_array(SQUARE, 0.0, 2.0, free_bc(SQUARE))
    prob1 = probability_array(SQUARE, 1.0, 2.0, free_bc(SQUARE))
    assert prob0[0] == 1.0 and prob0[1:].sum() == 0.0
    assert prob1[-1] == 1.0 and prob1[:-1].sum() == 0.0


def test_distribution_normalizes():
    bc = dobrushin_bc(BOX1, (1, 1), (-1, -1))
    prob = probability_array(BOX1, 0.47, 2.3, bc)
    z = partition_function(BOX1, 0.47, 2.3, bc)
    assert z > 0
    assert abs(prob.sum() - 1.0) < 1e-12


def test_log_domain_matches_linear():
    bc = free_bc(BOX1)
    o = open_count_array(BOX1.n_edges)
    k = cluster_count_array(BOX1, bc)
    for p, q in ((0.2, 0.5), (0.5, 2.0), (0.8, 4.0)):
        w = p ** o * (1 - p) ** (BOX1.n_edges - o) * q ** k
        assert np.abs(probability_array(BOX1, p, q, bc)
                      - w / w.sum()).max() < 1e-12
        lz = log_partition_function(BOX1, p, q, bc)
        assert abs(math.log(w.sum()) - lz) < 1e-12


@pytest.mark.parametrize("q", [0.5, 2.5])
@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("bc", [free_bc(GRID23),
                                dobrushin_bc(GRID23, (0, 0), (1, 2))],
                         ids=["free", "dobrushin"])
def test_point_masses_every_entry_point(bc, p, q):
    n = GRID23.n_edges
    mask = 0 if p == 0.0 else (1 << n) - 1
    k, _ = cluster_stats(GRID23, [mask >> e & 1 for e in range(n)], bc)
    point = np.zeros(1 << n)
    point[mask] = 1.0
    assert np.array_equal(probability_array(GRID23, p, q, bc), point)
    z = partition_function(GRID23, p, q, bc)
    assert abs(z - q ** k) < 1e-12 * q ** k
    assert abs(log_partition_function(GRID23, p, q, bc)
               - k * math.log(q)) < 1e-12
    w = probability_array(GRID23, p, q, bc) * z
    assert np.count_nonzero(w) == 1
    assert abs(w[mask] - q ** k) < 1e-12 * q ** k


@pytest.mark.parametrize("n", [0, 1, 7, 13])
def test_open_count_array_is_popcount(n):
    got = open_count_array(n)
    assert got.dtype == np.int32
    assert np.array_equal(got, [bin(m).count("1") for m in range(1 << n)])


def test_enumeration_cap_refused():
    big = build_box(2)
    assert big.n_edges > MAX_ENUM_EDGES
    # Z is a frontier count, which the cap does not limit: 1 at q = 1
    assert abs(partition_function(big, 0.5, 1.0, free_bc(big)) - 1.0) < 1e-12
    # refused before its 2^40 masks are allocated
    with pytest.raises(ValueError, match="more than %d" % MAX_ENUM_EDGES):
        cylinder_event(big, [0])


def test_conditional_closed_form_all_bcs():
    bcs = [free_bc(SQUARE), wired_bc(SQUARE),
           dobrushin_bc(SQUARE, (0, 0), (1, 1))]
    for bc in bcs:
        for k in range(SQUARE.n_edges):
            assert edge_conditional_gap(SQUARE, 0.37, 2.5, bc, k) < 1e-12
    # spot values of the closed form itself, endpoints apart off the edge
    assert 1.0 - thresholds(0.37, 1.0)[1] == 0.37
    assert abs(1.0 - thresholds(0.5, 2.0)[1] - 1.0 / 3.0) < 1e-15


def test_edge_index_refused_before_use():
    bc = free_bc(SQUARE)
    for bad in (4, 99, -1):
        with pytest.raises(ValueError, match="not in range"):
            edge_conditional_gap(SQUARE, 0.5, 2.0, bc, bad)


def test_perturbed_threshold_fails_conditional_gap(monkeypatch):
    from critlat import oracle

    exact = oracle.thresholds
    for which in (0, 1):
        def bumped(p, q, which=which):
            thr = list(exact(p, q))
            thr[which] += 1e-6
            return tuple(thr)

        monkeypatch.setattr(oracle, "thresholds", bumped)
        gap = edge_conditional_gap(SQUARE, 0.37, 2.5, free_bc(SQUARE), 0)
        assert abs(gap - 1e-6) < 1e-12


def test_conditional_on_box():
    bc = wired_bc(BOX1)
    for k in (0, 5, 11):
        assert edge_conditional_gap(BOX1, 0.6, 1.7, bc, k) < 1e-12


def test_wiring_enters_conditional():
    # both endpoints on the boundary: wired bc connects them off the edge,
    # so the edge opens with probability p, not p / (p + q (1 - p))
    bc = wired_bc(EDGE)
    got = rc_probability(EDGE, 0.37, 3.0, bc, cylinder_event(EDGE, [0]))
    assert abs(got - 0.37) < 1e-15
    assert edge_conditional_gap(EDGE, 0.37, 3.0, bc, 0) < 1e-12


# ---------------------------------------------------------------------------
# Edwards-Sokal


def test_beta_p_conversions():
    for q in (2, 3, 4):
        for p in (0.2, 0.5, 0.8):
            beta = es_beta_from_p(p, q)
            # the edge weight of the FK expansion of exp(beta sigma . sigma)
            assert abs(1.0 - math.exp(-q * beta / (q - 1.0)) - p) < 1e-14
        # the self-dual point in the spin normalisation
        beta_c = (q - 1.0) / q * math.log(1.0 + math.sqrt(q))
        assert abs(es_beta_from_p(p_self_dual(q), q) - beta_c) < 1e-14


def test_single_edge_ising_tanh():
    for beta in (0.0, 0.3, 1.1):
        got = potts_two_point(EDGE, 2, beta, (0, 0), (1, 0))
        assert abs(got - math.tanh(beta)) < 1e-12


def test_two_point_vanishes_at_beta0():
    assert abs(potts_two_point(SQUARE, 3, 0.0, (0, 0), (1, 1))) < 1e-14


def test_es_coupling_square():
    products = [A for sz in (2, 3, 4)
                for A in __import__("itertools").combinations(SQUARE.vertices, sz)]
    report = verify_es_coupling(SQUARE, [0.2, 0.5, p_self_dual(2)], [2, 3],
                                products=products)
    assert report["ok"], report


def test_es_coupling_grid():
    report = verify_es_coupling(GRID23, [0.35, p_self_dual(3)], [2, 3],
                                products=[((0, 0), (1, 2)), ((0, 1), (1, 1))])
    assert report["ok"], report


def test_es_coupling_box_with_interior_vertex():
    # every vertex of SQUARE and GRID23 is a boundary vertex, where the wired
    # side is trivially 1; the centre of BOX1 is not
    report = verify_es_coupling(BOX1, [0.35, 0.6], [2, 3],
                                products=[((0, 0), (1, 1))])
    assert report["ok"], report


def _reference_color_table(graph, q, fixed=None):
    """Every coloring of the free vertices by base-q digits of its row
    index, the first free vertex fastest, and its simplex dot edge by edge."""
    n = graph.n_vertices
    fixed = fixed or {}
    free = [i for i in range(n) if i not in fixed]
    m = q ** len(free)
    colors = np.zeros((m, n), dtype=np.int8)
    for i, c in fixed.items():
        colors[:, i] = c
    base = np.arange(m, dtype=np.int64)
    for j, i in enumerate(free):
        colors[:, i] = (base // (q ** j)) % q
    dots = np.zeros(m)
    off = -1.0 / (q - 1.0)
    for iu, iv in graph.edge_ends:
        dots += np.where(colors[:, iu] == colors[:, iv], 1.0, off)
    return colors, dots


def _reference_es_sides(graph, p, q, products):
    """The expectations of _es_sides summed configuration by configuration:
    over all q^|V| colorings, and over the label-table event rows."""
    n = graph.n_vertices
    off = -1.0 / (q - 1.0)
    beta = es_beta_from_p(p, q)
    colors, dots = _reference_color_table(graph, q)
    w = np.exp(beta * dots)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    same = np.array([w[colors[:, i] == colors[:, j]].sum()
                     for i, j in pairs]) / w.sum()
    colors_b, dots_b = _reference_color_table(
        graph, q, dict.fromkeys(graph.boundary_indices, 0))
    wb = np.exp(beta * dots_b)
    aligned = np.array([wb[colors_b[:, i] == 0].sum()
                        for i in range(n)]) / wb.sum()
    prob0 = probability_array(graph, p, q, free_bc(graph))
    prob1 = probability_array(graph, p, q, wired_bc(graph))
    conn = all_pairs_connectivity(graph, free_bc(graph))[1]
    bconn = all_boundary_connection(graph, wired_bc(graph))
    spin = [off + (1.0 - off) * same, off + (1.0 - off) * aligned]
    cluster = [np.array([prob0[ev].sum() for ev in conn]),
               np.array([prob1[ev].sum() for ev in bconn])]
    if q == 2:
        # prod_A sigma_x = (-1)^(number of x in A with color 1)
        idx = [[graph.index(x) for x in A] for A in products]
        spin.append(np.array([w @ (1.0 - 2.0 * (colors[:, ids].sum(axis=1)
                                                & 1)) for ids in idx])
                    / w.sum())
        even = all_even_overlap(graph, free_bc(graph), products)
        cluster.append(np.array([prob0[ev].sum() for ev in even]))
    return spin, cluster


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("graph", [SQUARE, GRID23, BOX1],
                         ids=["square", "grid23", "box1"])
def test_es_sides_match_configuration_sums(graph, q):
    v = graph.vertices
    products = [v[:1], v[1:3], v[1:4], v[-4:], (v[0], v[-1])]
    idx = [[graph.index(x) for x in A] for A in products]
    ps = [0.2, p_self_dual(q), 0.8]
    sides = list(_es_sides(graph, ps, [q], idx))
    assert len(sides) == len(ps)
    for p, (spin, cluster) in zip(ps, sides):
        ref_spin, ref_cluster = _reference_es_sides(graph, p, q, products)
        assert len(spin) == len(cluster) == len(ref_spin) == 2 + (q == 2)
        for got, ref in zip(spin + cluster, ref_spin + ref_cluster):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("graph", [SQUARE, GRID23, BOX1],
                         ids=["square", "grid23", "box1"])
def test_color_table_matches_digit_columns(graph, q):
    for fixed in (None, {0: 0}, dict.fromkeys(graph.boundary_indices, 1)):
        colors, agree = _color_table(graph, q, fixed)
        ref_colors, ref_dots = _reference_color_table(graph, q, fixed)
        assert np.array_equal(colors, ref_colors)
        dots = _simplex_dots(agree, q, graph.n_edges)
        if q <= 3:
            assert np.array_equal(dots, ref_dots)
        else:
            assert np.abs(dots - ref_dots).max() \
                <= 1e-13 * np.abs(ref_dots).max()


@pytest.mark.parametrize("alphabets", [
    [], [[3, 1, 4]], [[0, 2], [5], [1, 3, 7], [2, 4]], [[1, 2], [], [3]], [[]],
    [[-1, 0, 1]] * 3,
])
def test_product_columns_match_itertools_product(alphabets):
    cols = list(_product_columns([np.array(a) for a in alphabets]))
    assert len(cols) == len(alphabets)
    assert all(c.dtype == np.int8 for c in cols)
    # no alphabets give no columns over the product's single empty row
    rows = list(zip(*(c.tolist() for c in cols))) if cols else [()]
    # the first column fastest: itertools.product with the order reversed
    assert rows == [r[::-1] for r in itertools.product(*alphabets[::-1])]


def test_es_free_spins_enumerated_up_to_color_permutation(monkeypatch):
    from critlat import oracle

    exact, rows = oracle._color_table, []

    def counted(graph, q, fixed=None):
        colors, agree = exact(graph, q, fixed)
        rows.append((q, len(fixed), len(colors)))
        return colors, agree

    monkeypatch.setattr(oracle, "_color_table", counted)
    assert verify_es_coupling(BOX1, [0.4], [2, 3])["ok"]
    # BOX1: 9 vertices, 8 of them on the boundary
    assert rows == [(2, 1, 2 ** 8), (2, 8, 2), (3, 1, 3 ** 8), (3, 8, 3)]


def test_es_coupling_17e_peak_memory():
    assert RECT17.n_edges == 17
    tracemalloc.start()
    try:
        report = verify_es_coupling(RECT17, [0.3, 0.6], [2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["ok"], report
    assert peak < 12 << 20


def test_es_coupling_refuses_p_outside_open_interval():
    for p in (0.0, 1.0, -0.2, 1.5):
        _refused_before_allocating(
            lambda: verify_es_coupling(RECT17, [0.3, p], [2]),
            match=r"p must be in \(0,1\), not %r" % p)


def test_es_coupling_refuses_empty_ps():
    _refused_before_allocating(lambda: verify_es_coupling(RECT17, [], [2]),
                               match=r"ps \[\]")


def test_es_coupling_refuses_empty_qs():
    _refused_before_allocating(lambda: verify_es_coupling(RECT17, [0.5], []),
                               match=r"qs \[\]")


def test_es_coupling_refuses_non_finite_q():
    for q in (float("nan"), math.inf):
        _refused_before_allocating(
            lambda: verify_es_coupling(RECT17, [0.4], [2, q]),
            match="spin side needs integer q >= 2, not %r" % q)


def test_es_coupling_charges_the_free_table_it_builds(monkeypatch):
    # _es_sides fixes vertex 0, so the free table holds 3^5 colourings of the
    # 6 vertices (3,402 bytes charged), not 3^6 (10,206 bytes)
    from critlat import oracle
    assert RECT7.n_vertices == 6 and RECT7.n_edges == 7
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 6000)
    assert verify_es_coupling(RECT7, [0.5], [3])["ok"]
    with pytest.raises(ValueError, match="729 colourings"):
        spin_ensemble(RECT7, 3, 0.4)


@pytest.mark.parametrize("q", [1, 2.5, 0])
def test_spin_side_refuses_non_integer_or_small_q(q):
    with pytest.raises(ValueError, match="integer q >= 2"):
        spin_ensemble(SQUARE, q, 0.3)
    with pytest.raises(ValueError, match="integer q >= 2"):
        potts_two_point(SQUARE, q, 0.3, (0, 0), (1, 1))
    with pytest.raises(ValueError, match="integer q >= 2"):
        potts_one_point_wired(BOX1, q, 0.3, (0, 0))
    with pytest.raises(ValueError, match="integer q >= 2"):
        verify_es_coupling(SQUARE, [0.5], [2, q])
    with pytest.raises(ValueError, match="integer q >= 2"):
        es_forward(SQUARE, (1, 0, 0, 0), q, 5)


def test_es_products_refused_without_q2():
    # products are compared at q = 2 only; the 4x4-vertex rect is refused
    # here before its gigabytes of q = 3 spin tables are sized
    for graph in (GRID23, build_rect((0, 3), (0, 3))):
        with pytest.raises(ValueError, match="q = 2"):
            verify_es_coupling(graph, [0.35], [3],
                               products=[((0, 0), (1, 2))])


def test_wired_one_point_matches_boundary_connection():
    p, q = 0.45, 2
    beta = es_beta_from_p(p, q)
    x = (0, 0)
    mu = potts_one_point_wired(BOX1, q, beta, x)
    ev = boundary_connection_event(BOX1, wired_bc(BOX1), x)
    phi = rc_probability(BOX1, p, q, wired_bc(BOX1), ev)
    assert abs(mu - phi) < 1e-10


def test_even_overlap_odd_set_impossible():
    ev = even_overlap_event(SQUARE, free_bc(SQUARE), [(0, 0), (0, 1), (1, 0)])
    assert not ev.any()


def test_griffiths_inequalities():
    rng = np.random.default_rng(7)
    verts = GRID23.vertices
    for _ in range(10):
        beta = float(rng.uniform(0.0, 1.2))
        a = rng.choice(len(verts), size=2, replace=False)
        b = rng.choice(len(verts), size=2, replace=False)
        A = [verts[i] for i in a]
        B = [verts[i] for i in b]
        m_a = ising_moment(GRID23, beta, A)
        m_b = ising_moment(GRID23, beta, B)
        m_ab = ising_moment(GRID23, beta, list(A) + list(B))
        assert m_a >= -1e-12
        assert m_ab - m_a * m_b >= -1e-12
        assert ising_moment(GRID23, beta, A, plus_boundary=True) >= -1e-12


# ---------------------------------------------------------------------------
# duality


def test_p_dual_closed_forms():
    assert abs(p_dual(0.5, 2.0) - 2.0 / 3.0) < 1e-15
    for q in (1.0, 2.0, 3.0, 4.0, 9.0):
        psd = p_self_dual(q)
        assert abs(p_dual(psd, q) - psd) < 1e-15
        p = 0.37
        ps = p_dual(p, q)
        assert abs(p * ps / ((1 - p) * (1 - ps)) - q) < 1e-12


def test_duality_square():
    report = verify_duality(SQUARE, 0.3, 2.0)
    assert report["ok"], report


def test_duality_box():
    for p, q in ((0.5, 2.0), (p_self_dual(3.0), 3.0), (0.7, 0.5)):
        report = verify_duality(BOX1, p, q)
        assert report["ok"], report


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.25, 6.0))
def test_duality_property(p, q):
    report = verify_duality(SQUARE, p, q)
    assert report["config_max_err"] <= 1e-10
    assert report["z_rel_err"] <= 1e-10


# ---------------------------------------------------------------------------
# positive association


def test_increasing_event_counts():
    # nonempty upward-closed families: Dedekind counts minus the empty event
    assert len(increasing_events(1)) == 2
    assert len(increasing_events(2)) == 5
    assert len(increasing_events(3)) == 19


def test_increasing_events_are_all_upsets():
    # against the definition: every nonempty family of masks that is closed
    # under opening one more edge, filtered from all 2^(2^n) families
    for n in range(5):
        size = 1 << n
        fams = ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1) == 1
        closed = fams.any(axis=1)
        for b in range(n):
            up = fams[:, np.arange(size) | (1 << b)]
            closed &= ~(fams & ~up).any(axis=1)
        got = [e.tobytes() for e in increasing_events(n)]
        assert len(got) == len(set(got))
        assert set(got) == {f.tobytes() for f in fams[closed]}


def test_cylinder_probabilities_transform():
    prob = probability_array(SQUARE, 0.4, 2.0, free_bc(SQUARE))
    cp = cylinder_probabilities(prob)
    assert abs(cp[0] - 1.0) < 1e-12
    for f in (1, 5, 15):
        ev = cylinder_event(SQUARE, [k for k in range(4) if f & (1 << k)])
        assert abs(cp[f] - prob[ev].sum()) < 1e-12


@pytest.mark.parametrize("g", [1.0, 0.37])
def test_superset_transform_matches_direct_sum(g):
    rng = np.random.default_rng(3)
    for m in range(7):
        v = rng.random(1 << m)
        want = [sum(g ** bin(s & ~x).count("1") * v[s]
                    for s in range(1 << m) if s & x == x)
                for x in range(1 << m)]
        np.testing.assert_allclose(_superset_transform(v, g), want,
                                   rtol=1e-13, atol=0)


@pytest.mark.parametrize("g", [1.0, 0.37])
def test_superset_transform_acts_on_the_last_axis(g):
    v = np.random.default_rng(4).random((3, 2, 1 << 6))
    got = _superset_transform(v, g)
    assert got.shape == v.shape
    for i, j in itertools.product(range(3), range(2)):
        assert np.array_equal(got[i, j], _superset_transform(v[i, j], g))


def test_fkg_verify_square_and_grid():
    for q in (1.0, 1.5, 2.0, 3.0):
        for p in (0.3, p_self_dual(q), 0.7):
            r = fkg_scan(SQUARE, p, q)
            assert r["ok"] and r["event_class"] == "increasing", r
    r = fkg_scan(GRID23, 0.5, 2.0)
    assert r["ok"] and r["event_class"] == "cylinder" and r["n_events"] == 127


def test_fkg_verify_other_bcs():
    for bc in (wired_bc(SQUARE), dobrushin_bc(SQUARE, (0, 0), (1, 1))):
        r = fkg_scan(SQUARE, 0.45, 2.0, bc=bc)
        assert r["ok"], r


def test_q1_disjoint_cylinders_uncorrelated():
    ev_a = cylinder_event(SQUARE, [0])
    ev_b = cylinder_event(SQUARE, [3])
    assert abs(fkg_gap(SQUARE, 0.42, 1.0, free_bc(SQUARE), ev_a, ev_b)) < 1e-14


def test_fkg_witness_below_q1():
    witness = fkg_witness_q_below_one()
    assert witness is not None
    assert witness["gap"] < -1e-12
    # re-derive the gap independently from the returned subgraph
    g = LatticeGraph({v for e in witness["edges"] for v in e},
                     witness["edges"])
    ks1 = [k for k in range(g.n_edges) if witness["f1"] & (1 << k)]
    ks2 = [k for k in range(g.n_edges) if witness["f2"] & (1 << k)]
    gap = fkg_gap(g, 0.5, 0.5, free_bc(g),
                  cylinder_event(g, ks1), cylinder_event(g, ks2))
    assert abs(gap - witness["gap"]) < 1e-14


def test_fkg_scan_search_mode():
    witness = _fkg_search(SQUARE, 0.5, 0.5)
    assert witness["gap"] < -1e-12
    assert _fkg_search(SQUARE, 0.5, 2.0) is None


def test_cbc_scan_builds_one_label_table_per_partition(monkeypatch):
    from critlat import oracle
    built, table = [], oracle._label_table
    monkeypatch.setattr(oracle, "_label_table",
                        lambda *args: built.append(args) or table(*args))
    report = cbc_scan(RECT7, 0.45, 2.5)
    assert report["ok"] and report["n_partitions"] == 203
    # one stacked pass, one root row per partition: the singleton and the
    # one-block partitions are the free and wired rows
    assert len(built) == 1 and len(built[0][2]) == 203


def test_mon_scan_builds_one_label_table_per_bc(monkeypatch):
    from critlat import oracle
    built, table = [], oracle._label_table
    monkeypatch.setattr(oracle, "_label_table",
                        lambda *args: built.append(args) or table(*args))
    assert mon_scan(RECT7, 2.0, [0.3, 0.5, 0.7])["ok"]
    # one stacked pass of the free and wired rows, not one per (bc, p)
    assert len(built) == 1 and len(built[0][2]) == 2


@pytest.mark.parametrize("merge_masks", [1 << 6, 1 << 8, 1 << 15])
def test_boundary_scans_match_one_table_per_bc(monkeypatch, merge_masks):
    # a lowered _MERGE_MASKS splits RECT7's 203 partitions over several
    # stacked passes (2 and 1 per pass at 2^8 and 2^6 masks) and its 128
    # masks over two bincounts; the gaps are those of one table per bc
    from critlat import oracle
    monkeypatch.setattr(oracle, "_MERGE_MASKS", merge_masks)
    for g in (PATH2, SQUARE, RECT7):
        for p, q in ((0.45, 2.0), (0.3, 1.0), (0.62, 3.7)):
            r = cbc_scan(g, p, q)
            lower, upper = cbc_gaps(g, p, q)
            assert abs(r["min_above_free"] - lower) <= 1e-15
            assert abs(r["min_below_wired"] - upper) <= 1e-15
            ps = [0.2, p, 0.8, 0.2]
            assert abs(mon_scan(g, q, ps)["min_gap"] - mon_gap(g, q, ps)) \
                <= 1e-15


def test_stacked_label_tables_charged_before_allocating(monkeypatch):
    # one table of RECT17 is 2^17 masks of 12 uint8 labels and an int32
    # class, 2 MiB: a budget of three tables builds three and refuses four
    from critlat import oracle
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 3 * (1 << 17) * 16)
    roots = [free_bc(RECT17).roots(12), wired_bc(RECT17).roots(12)] * 2
    labels, cls = _label_table(12, RECT17.edge_ends, roots[:3])
    assert labels.shape == (3, 1 << 17, 12) and cls.shape == (3, 1 << 17)
    _refused_before_allocating(
        lambda: _label_table(12, RECT17.edge_ends, roots),
        "4 label table")
    # cbc_scan stacks RECT7's 203 partitions, 128 masks of 6 uint8 labels,
    # an int32 class and a float64 probability and cylinder probability
    # each, into one pass charged as a whole
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 203 * 128 * 26 - 1)
    _refused_before_allocating(lambda: cbc_scan(RECT7, 0.45, 2.0),
                               "203 label table")
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 203 * 128 * 26)
    assert cbc_scan(RECT7, 0.45, 2.0)["ok"]


def _nan_in_cylinders(monkeypatch):
    """Put a NaN at cylinder 3 of one row of every cylinder_probabilities
    call: row 1 on each leading axis, so neither the first (wired) nor the
    last (free) partition of cbc_scan, and one p and bc of mon_scan."""
    from critlat import oracle
    cylinders = oracle.cylinder_probabilities

    def with_nan(prob):
        out = cylinders(prob)
        out[(1,) * (out.ndim - 1) + (3,)] = np.nan
        return out

    monkeypatch.setattr(oracle, "cylinder_probabilities", with_nan)


def test_mon_scan_fails_on_a_nan_gap(monkeypatch):
    # the builtin min(inf, nan) is inf, which passed as min_gap
    _nan_in_cylinders(monkeypatch)
    r = mon_scan(SQUARE, 2.0, [0.2, 0.5, 0.8])
    assert math.isnan(r["min_gap"]) and not r["ok"]


def test_cbc_scan_fails_on_a_nan_gap(monkeypatch):
    _nan_in_cylinders(monkeypatch)
    r = cbc_scan(SQUARE, 0.45, 2.0)
    assert math.isnan(r["min_above_free"]) and not r["ok"]
    assert r["n_partitions"] == 15


def test_es_coupling_fails_on_a_nan_residual(monkeypatch):
    # a NaN after the first case, which the builtin max dropped
    from critlat import oracle
    sides = oracle._es_sides

    def nan_in_second_case(*args):
        for i, (spin, cluster) in enumerate(sides(*args)):
            if i == 1:
                spin[0] = np.full_like(spin[0], np.nan)
            yield spin, cluster

    monkeypatch.setattr(oracle, "_es_sides", nan_in_second_case)
    report = verify_es_coupling(SQUARE, [0.3, 0.6], [2])
    assert report["cases"] == 2
    assert math.isnan(report["pair_max_err"]) and not report["ok"]


def test_mon_scan():
    for q in (1.0, 2.0, 3.5):
        r = mon_scan(SQUARE, q, [0.2, 0.5, 0.8])
        assert r["ok"], r
    r = mon_scan(GRID23, 2.0, [0.3, 0.6])
    assert r["ok"], r


def test_cbc_scan():
    r = cbc_scan(SQUARE, 0.45, 2.0)
    assert r["ok"] and r["n_partitions"] == 15, r
    r = cbc_scan(GRID23, 0.5, 1.5)
    assert r["ok"] and r["n_partitions"] == 203, r


def test_cbc_scan_roots_are_those_custom_bc_wires(monkeypatch):
    # cbc_scan partitions the boundary indices itself; each partition's
    # roots are those of custom_bc on the same blocks as vertices
    from critlat import oracle
    seen = []

    def stop(graph, roots, held=0):
        seen.append(roots)
        raise LookupError("roots recorded")

    monkeypatch.setattr(oracle, "_stacked_classes", stop)
    for g, n_partitions in ((RECT7, 203), (BOX1, 4140)):
        with pytest.raises(LookupError, match="roots recorded"):
            cbc_scan(g, 0.45, 2.0)
        roots = seen.pop()
        assert len(roots) == n_partitions
        assert roots.tolist() == [custom_bc(g, blocks).roots(g.n_vertices)
                                  for blocks in set_partitions(g.boundary())]


def test_cbc_scan_refused_before_allocating():
    # Bell(10) = 115,975 partitions of 2^17 masks on the 17-edge rect, and
    # Bell(12) = 4,213,597 of 2^22 on the 22-edge rect: refused by their
    # count, before a partition is built
    for g, n_partitions in ((RECT17, 115_975), (RECT22, 4_213_597)):
        _refused_before_allocating(lambda: cbc_scan(g, 0.45, 2.0),
                                   "refusing to scan %d boundary partitions"
                                   % n_partitions)


# ---------------------------------------------------------------------------
# crossings and the pivotality sum


def test_crossing_probability_exactly_half():
    # squares R_n = [0,n] x [0,n-1]: self-complementary under duality
    for n in (2, 3):
        g = build_rect((0, n), (0, n - 1))
        ev = crossing_event(g, (0, 0, n, n - 1), "horizontal")
        assert int(ev.sum()) * 2 == 1 << g.n_edges


def test_phi_sum_single_site():
    assert abs(phi_sum([(0, 0)], 0.3) - 4 * 0.3) < 1e-14
    assert abs(phi_sum([(0, 0, 0)], 0.25, d=3) - 6 * 0.25) < 1e-14
    assert phi_sum([(0, 0)], 0.0) == 0.0


def test_phi_sum_box():
    S = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    val = phi_sum(S, 0.3)
    # 12 outward edges; each in-S connection prob is at least the direct
    # shortest open path (p for the side midpoints, p^2 for the corners)
    assert 0.3 * (4 * 0.3 + 8 * 0.09) < val < 0.3 * 12
    assert phi_sum(S, 0.5) > val


def test_connectivity_event_reflexive():
    ev = connectivity_event(SQUARE, free_bc(SQUARE), (0, 0), (0, 0))
    assert ev.all()


def test_all_pairs_matches_single():
    pairs, events = all_pairs_connectivity(SQUARE, free_bc(SQUARE))
    for (i, j), row in zip(pairs, events):
        single = connectivity_event(SQUARE, free_bc(SQUARE),
                                    SQUARE.vertices[i], SQUARE.vertices[j])
        assert (row == single).all()


# ---------------------------------------------------------------------------
# the label-table engine against per-configuration cluster_stats

SINGLE = LatticeGraph([(0, 0)], [])
RECT7 = build_rect((0, 2), (0, 1))
PATH2 = build_rect((0, 2), (0, 0))


def _bits(mask, n_edges):
    return tuple((mask >> k) & 1 for k in range(n_edges))


def _engine_cases():
    yield SINGLE, free_bc(SINGLE)
    for g in (EDGE, PATH2, SQUARE, GRID23, RECT7):
        yield g, free_bc(g)
        yield g, wired_bc(g)
    bd = list(RECT7.boundary())
    yield RECT7, custom_bc(RECT7, [bd[:2], bd[3:5]])
    yield SQUARE, dobrushin_bc(SQUARE, (0, 0), (1, 1))
    yield RECT7, dobrushin_bc(RECT7, (0, 0), (2, 1))


@pytest.mark.parametrize("g,bc", list(_engine_cases()))
def test_label_table_matches_cluster_stats(g, bc):
    seen = []
    labels, counts = scan_configs(g, bc, lambda mask, row: seen.append(mask))
    assert seen == list(range(1 << g.n_edges))
    assert labels.shape == (1 << g.n_edges, g.n_vertices)
    assert counts.dtype == np.int32
    assert np.array_equal(cluster_count_array(g, bc),
                          counts // (g.n_edges + 1))
    for mask in range(1 << g.n_edges):
        k, lab = cluster_stats(g, _bits(mask, g.n_edges), bc)
        assert tuple(int(x) for x in labels[mask]) == lab
        # the weight class k (|E| + 1) + o
        assert counts[mask] == k * (g.n_edges + 1) + bin(mask).count("1")


@pytest.mark.parametrize("g", list({id(g): g for g, _ in _engine_cases()}
                                   .values()), ids=lambda g: str(g.n_edges))
def test_stacked_label_table_equals_one_table_per_bc(g):
    bd = list(g.boundary())
    bcs = [free_bc(g), wired_bc(g), custom_bc(g, [bd[::2]])]
    labels, cls = _label_table(g.n_vertices, g.edge_ends,
                               [bc.roots(g.n_vertices) for bc in bcs])
    assert labels.shape == (3, 1 << g.n_edges, g.n_vertices)
    for r, bc in enumerate(bcs):
        want_labels, want_cls = scan_configs(g, bc)
        assert labels[r].dtype == want_labels.dtype
        assert np.array_equal(labels[r], want_labels)
        assert cls.dtype == want_cls.dtype and np.array_equal(cls[r], want_cls)


@pytest.mark.parametrize("n_rows", [0, 1, 7, 8, 9, 17])
def test_class_counts_match_one_bincount_per_row(n_rows):
    n = RECT17.n_vertices
    labels, cls = scan_configs(RECT17, free_bc(RECT17))
    colors, agree = _color_table(RECT7, 3, {0: 0})
    pairs = list(itertools.combinations(range(n), 2))[:n_rows]
    cases = [(cls, (RECT17.n_edges + 1) * (n + 1),
              [labels[:, i] == labels[:, j] for i, j in pairs]),
             (agree, RECT7.n_edges + 1,
              [colors[:, i % 6] == colors[:, j % 6] for i, j in pairs])]
    for keys, n_classes, events in cases:
        if n_rows > 1:
            events[0] = np.zeros(len(keys), dtype=bool)
            events[-1] = np.ones(len(keys), dtype=bool)
        alive = []

        def lazily():
            # fresh rows, so that only _class_counts keeps them alive
            for ev in events:
                row = ev.copy()
                alive.append(weakref.ref(row))
                assert sum(r() is not None for r in alive) <= 8
                yield row

        got = _class_counts(keys, n_classes, lazily())
        want = class_counts(keys, n_classes, events)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def test_class_hist_counts_past_two_merge_chunks():
    from critlat import oracle
    free = scan_configs(RECT17, free_bc(RECT17))[1]
    wired = scan_configs(RECT17, wired_bc(RECT17))[1]
    assert len(free) > 2 * oracle._MERGE_MASKS
    want = np.bincount(free)
    assert np.array_equal(_class_hist(free), [want])
    stack = np.stack([free, wired, free])
    got = _class_hist(stack)
    assert got.shape == (3, len(want))
    assert np.array_equal(got[1], np.bincount(wired, minlength=len(want)))
    assert np.array_equal(got[0], want) and np.array_equal(got[2], want)
    # the small rows of a boundary scan, many to one bincount
    small = scan_configs(RECT7, free_bc(RECT7))[1]
    got = _class_hist(np.stack([small] * 300))
    assert np.array_equal(got, [np.bincount(small)] * 300)


@pytest.mark.parametrize("g", [SQUARE, RECT7, RECT17],
                         ids=["square", "rect7", "rect17"])
def test_stacked_probabilities_match_probability_array(g):
    bd = list(g.boundary())
    bcs = [free_bc(g), wired_bc(g), custom_bc(g, [bd[:2], bd[3:5]])]
    cls = np.stack([scan_configs(g, bc)[1] for bc in bcs])
    for p, q in ((0.37, 2.0), (0.0, 1.5), (1.0, 3.0), (0.6, 0.5)):
        prob, log_z = _probabilities(p, q, cls, g.n_edges)
        assert prob.shape == cls.shape and log_z.shape == (3,)
        for r, bc in enumerate(bcs):
            want = probability_array(g, p, q, bc)
            np.testing.assert_allclose(prob[r], want, rtol=1e-14, atol=0)
            assert log_z[r] == log_partition_function(g, p, q, bc)
            assert _class_sums(p, q, cls[r], g.n_edges)[1] == log_z[r]



@pytest.mark.parametrize("g", [RECT7, BOX1, RECT17],
                         ids=["rect7", "box1", "rect17"])
def test_log_z_matches_an_fsum_log_sum_exp(g):
    # log Z sums each row's terms in one np.add.reduceat; the log-sum-exp
    # here sums the same class terms exactly rounded, by math.fsum
    n = g.n_edges
    for bc in (free_bc(g), wired_bc(g)):
        counts = np.bincount(scan_configs(g, bc)[1])
        for p, q in ((0.37, 2.0), (0.6, 0.5), (0.71, 4.5)):
            terms = [o * math.log(p) + (n - o) * math.log(1.0 - p)
                     + k * math.log(q) + math.log(c)
                     for (k, o), c in ((divmod(cl, n + 1), c)
                                       for cl, c in enumerate(counts)) if c]
            top = max(terms)
            want = top + math.log(math.fsum(math.exp(t - top) for t in terms))
            assert log_partition_function(g, p, q, bc) == pytest.approx(
                want, rel=1e-15, abs=0)

def _all_mask_bits(n_edges):
    return (np.arange(1 << n_edges)[:, None] >> np.arange(n_edges)) & 1


@pytest.mark.parametrize("g,bc", list(_engine_cases()) + [
    (RECT17, free_bc(RECT17)), (RECT17, wired_bc(RECT17)),
    (RECT17, dobrushin_bc(RECT17, (0, 0), (3, 2)))])
def test_sampled_labels_equal_the_label_table(g, bc):
    got = _sampled_labels(g, bc, _all_mask_bits(g.n_edges))
    want = scan_configs(g, bc)[0]
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_sampled_labels_widen_past_255_vertices():
    # free rows at density 0.6 join labels more than 255 apart, which a
    # merge buffer narrower than the uint16 labels would wrap
    g = build_rect((0, 16), (0, 15))
    assert g.n_vertices == 272
    bits = (np.random.default_rng(5).random((24, g.n_edges)) < 0.6)
    for bc in (free_bc(g), wired_bc(g)):
        labels = _sampled_labels(g, bc, bits)
        assert labels.dtype == np.uint16
        for row, lab in zip(bits, labels):
            assert tuple(int(x) for x in lab) == cluster_stats(g, row, bc)[1]


def test_scan_configs_widen_past_255_vertices():
    # 12 path edges 23 vertex indices apart among 300 vertices: uint16
    # labels, and the open path joins labels 276 apart
    verts = [(x, y) for x in range(13) for y in range(23)] + [(13, 0)]
    g = LatticeGraph(verts, [((x, 0), (x + 1, 0)) for x in range(12)])
    assert (g.n_vertices, g.n_edges) == (300, 12)
    for bc in (free_bc(g), wired_bc(g)):
        labels, cls = scan_configs(g, bc)
        assert labels.dtype == np.uint16
        masks = range(1 << g.n_edges)
        ks, labs = zip(*(cluster_stats(g, _bits(m, g.n_edges), bc)
                         for m in masks))
        assert np.array_equal(labels, labs)
        assert np.array_equal(cls, [k * (g.n_edges + 1) + m.bit_count()
                                    for k, m in zip(ks, masks)])


def test_sampled_labels_refused_before_allocating(monkeypatch):
    # per row, the uint8 labels of RECT17's 12 vertices, their merge buffer
    # and a bool per edge: 100,000 rows fill the lowered budget exactly,
    # one more row is refused
    from critlat import oracle
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", (2 * 12 + 17) * 100_000)
    bc = free_bc(RECT17)
    bits = np.ones((100_001, RECT17.n_edges), dtype=np.uint8)
    assert _sampled_labels(RECT17, bc, bits[1:]).shape == (100_000, 12)
    _refused_before_allocating(lambda: _sampled_labels(RECT17, bc, bits),
                               "100001 sampled configurations")


RECT272 = build_rect((0, 16), (0, 15))


@pytest.mark.parametrize("entry,make_args", [
    (_sampled_labels, lambda: (RECT272, free_bc(RECT272), (np.random.default_rng(
        5).random((20_000, RECT272.n_edges)) < 0.6).astype(np.uint8))),
    (all_pairs_connectivity, lambda: (RECT17, free_bc(RECT17))),
    (all_boundary_connection, lambda: (BOX1, wired_bc(BOX1))),
    (all_boundary_connection, lambda: (RECT17, free_bc(RECT17))),
    (cbc_scan, lambda: (BOX1, 0.5, 2.0)),
    (mon_scan, lambda: (RECT17, 2.0, (0.2, 0.4, 0.6, 0.8)))],
    ids=["sampled_labels_272v", "all_pairs_17e", "all_boundary_12e",
         "all_boundary_17e", "cbc_scan_12e", "mon_scan_17e"])
def test_event_arrays_peak_within_their_charge(entry, make_args):
    # each event array is charged with its table, before either is built;
    # the sampled labels with their merge buffer and the bool copy of bits,
    # each stack of cbc_scan and mon_scan with its probabilities and
    # cylinder arrays
    args = make_args()
    _, peak, charge = charged_peak(lambda: entry(*args))
    assert peak <= 1.1 * charge + (1 << 20)


def test_all_pairs_refused_before_allocating():
    # the 4x4-vertex box: its 2^24-mask label table (335 MB) fits the
    # budget, its 120 pair events (2.0 GB) do not
    g = build_rect((0, 3), (0, 3))
    assert (g.n_edges, g.n_vertices) == (24, 16)
    _refused_before_allocating(lambda: all_pairs_connectivity(g, free_bc(g)),
                               "120 pair events")


def _per_mask_probabilities(g, bc, p, q):
    """(probabilities, log Z) from _log_weights evaluated at every mask and
    normalised by its sum, the reference of the class-grid sums."""
    n = g.n_edges
    lw = _log_weights(p, q, open_count_array(n), cluster_count_array(g, bc), n)
    top = lw.max()
    w = np.exp(lw - top)
    total = w.sum()
    return w / total, top + math.log(total)


@pytest.mark.parametrize("g,bc", list(_engine_cases()))
def test_class_sums_match_per_mask_formula(g, bc):
    for p, q in itertools.product((0.0, 0.37, 1.0), (0.5, 1.0, 2.0, 6.0)):
        prob_ref, log_z_ref = _per_mask_probabilities(g, bc, p, q)
        prob = probability_array(g, p, q, bc)
        # the point masses at p = 0 and p = 1 keep their exact zeros
        assert np.array_equal(prob == 0.0, prob_ref == 0.0)
        assert np.all(np.abs(prob - prob_ref) <= 1e-13 * prob_ref)
        # log Z to 1e-13 absolute is Z to 1e-13 relative
        log_z = log_partition_function(g, p, q, bc)
        assert abs(log_z - log_z_ref) <= 1e-13 * max(1.0, abs(log_z_ref))


def test_class_sums_keep_identity_residuals_at_rounding():
    graphs = {id(g): g for g, _ in _engine_cases()}.values()
    for g in graphs:
        report = verify_es_coupling(g, [0.37], [2, 6])
        assert report["pair_max_err"] <= 1e-15, report
        assert report["wired_max_err"] <= 1e-15, report
        if g.n_edges == 0:
            continue  # no planar dual
        for p, q in itertools.product((0.37, 1.0), (0.5, 1.0, 2.0, 6.0)):
            report = verify_duality(g, p, q)
            assert report["config_max_err"] <= 1e-15, report
            # the relative gap of two log partition functions of size up
            # to 10, a few of whose ulps (1.8e-15 each) it may carry
            assert report["z_rel_err"] <= 1e-14, report


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partition_function_keeps_no_per_mask_weights():
    # 2^22 masks, whose label table would be 76 MiB; the frontier count of
    # its at most 15 states peaks at about 52 KB
    g = build_rect((0, 4), (0, 2))
    assert g.n_edges == 22
    _, peak = _traced_peak(
        lambda: partition_function(g, 0.45, 2.0, free_bc(g)))
    assert peak < 1 << 20


RECT22 = build_rect((0, 4), (0, 2))


@pytest.mark.parametrize("call,per_mask", [
    (lambda: cylinder_event(RECT22, [0, 7, 7, 19]), 1),
    (lambda: open_count_array(RECT22.n_edges), 4)],
    ids=["cylinder_event", "open_count_array"])
def test_mask_arrays_peak_at_their_output(call, per_mask):
    # filled by half blocks of the output itself, with no integer array
    # over the 2^22 masks
    _, peak = _traced_peak(call)
    assert peak <= 1.1 * per_mask * (1 << RECT22.n_edges) + (1 << 20)


def _frontier_cases():
    """(graph, bcs) for every graph of at most 26 edges these tests build,
    2-d and 3-d, under free, wired, custom and, on rects, Dobrushin bc."""
    rects = {"square": SQUARE, "grid23": GRID23, "box1": BOX1,
             "rect7": RECT7, "rect17": RECT17, "rect22": RECT22}
    others = {"cube%d" % h: induced_graph(
        itertools.product(range(2), range(2), range(h)), 3) for h in (2, 3)}
    others.update(single=SINGLE, edge=EDGE, path2=PATH2, isolated=LatticeGraph(
        RECT7.vertices + ((0, 5), (4, 4)), RECT7.edges))
    for name, g in {**rects, **others}.items():
        bd = list(g.boundary())
        bcs = [free_bc(g), wired_bc(g)]
        if len(bd) >= 5:
            bcs.append(custom_bc(g, [bd[:2], bd[3:5]]))
        if name in rects:
            bcs.append(dobrushin_bc(g, g.vertices[0], g.vertices[-1]))
        yield pytest.param(g, bcs, id=name)


@pytest.mark.parametrize("g,bcs", list(_frontier_cases()))
def test_frontier_counts_equal_the_label_table_histogram(g, bcs):
    for bc in bcs:
        got = _frontier_counts(g, bc)
        assert got.dtype == np.int64
        assert np.array_equal(got, _class_hist(scan_configs(g, bc)[1])[0])


def test_partition_function_builds_no_label_table(monkeypatch):
    from critlat import oracle
    bc = wired_bc(RECT17)
    want = _class_sums(0.4, 2.0, scan_configs(RECT17, bc)[1],
                       RECT17.n_edges)[1]

    def refuse(*args):
        raise AssertionError("label table built")

    monkeypatch.setattr(oracle, "scan_configs", refuse)
    monkeypatch.setattr(oracle, "_label_table", refuse)
    assert log_partition_function(RECT17, 0.4, 2.0, bc) == want


def test_partition_function_past_the_enumeration_cap():
    # the 5x4-vertex rect: e^{-beta |E|} times the q = 2 Potts sum over its
    # 2^20 spins at the Edwards-Sokal beta
    g = build_rect((0, 4), (0, 3))
    assert g.n_edges == 31 > MAX_ENUM_EDGES
    p = 0.45
    beta = es_beta_from_p(p, 2)
    _, w = spin_ensemble(g, 2, beta)
    want = float(w.sum()) * math.exp(-beta * g.n_edges)
    assert abs(partition_function(g, p, 2.0, free_bc(g)) - want) \
        <= 1e-12 * want


def test_frontier_count_refused_before_allocating(monkeypatch):
    from critlat import oracle
    # int64 counts hold the 2^62 configurations of a 62-edge path, whose
    # Z is q^|V| (1 - p + p/q)^|E|, but not 2^63
    n = MAX_COUNT_EDGES
    path = build_rect((0, n), (0, 0))
    want = (n + 1) * math.log(2.0) + n * math.log(0.75)
    got = log_partition_function(path, 0.5, 2.0, free_bc(path))
    assert abs(got - want) <= 1e-13 * want
    path = build_rect((0, n + 1), (0, 0))
    _refused_before_allocating(
        lambda: log_partition_function(path, 0.5, 2.0, free_bc(path)),
        "more than 62 edges")
    # each step of a frontier is charged before it is built: the largest
    # charge of the 22-edge rect fits a budget of its size, not one less
    charged = {}
    bc = free_bc(RECT22)
    charged_peak(lambda: log_partition_function(RECT22, 0.5, 2.0, bc),
                 charged)
    largest = max(charged.values())
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", largest)
    assert math.isfinite(log_partition_function(RECT22, 0.5, 2.0, bc))
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", largest - 1)
    _refused_before_allocating(
        lambda: log_partition_function(RECT22, 0.5, 2.0, bc), "a frontier")


def test_weights_build_no_open_count_array(monkeypatch):
    # the weight classes come out of the table builds, so no entry point
    # takes a popcount over all masks
    from critlat import oracle

    def refuse(n_edges):
        raise AssertionError("open_count_array called")

    monkeypatch.setattr(oracle, "open_count_array", refuse)
    bc = free_bc(RECT7)
    assert abs(probability_array(RECT7, 0.4, 2.0, bc).sum() - 1.0) < 1e-12
    assert math.isfinite(log_partition_function(RECT7, 0.4, 2.0, bc))
    assert verify_duality(RECT7, 0.4, 2.0)["ok"]


def test_duality_peak_within_its_charge():
    # per-mask arrays live beside and after the two label tables, so the
    # duality check charges its own peak, not a table at a time
    g = build_rect((0, 6), (0, 1))
    assert g.n_edges == 19
    charged = {}
    report, peak, largest = charged_peak(lambda: verify_duality(g, 0.4, 2.0),
                                         charged)
    charge = charged["the duality check over 19 edges"]
    assert report["ok"] and charge == largest
    assert peak <= 1.1 * charge + (1 << 20)
    # and no gross over-charge
    assert charge <= 1.1 * peak


def test_label_table_doubles_without_a_temporary():
    # a 2-D copy of the lower half of the table would allocate the upper
    # half once more
    g = build_rect((0, 6), (0, 1))
    assert g.n_edges >= 18
    (labels, counts), peak = _traced_peak(lambda: scan_configs(g, free_bc(g)))
    assert peak < 1.1 * (labels.nbytes + counts.nbytes)


@pytest.mark.parametrize("g,bc", list(_engine_cases()))
def test_event_arrays_match_cluster_stats(g, bc):
    n = g.n_vertices
    bd = [g.vertex_index[v] for v in g.boundary()]
    subsets = [g.vertices[:2], g.vertices[:3], g.vertices[::2], ()]
    pairs, conn = all_pairs_connectivity(g, bc)
    bconn = all_boundary_connection(g, bc)
    even = all_even_overlap(g, bc, subsets)
    for mask in range(1 << g.n_edges):
        _, lab = cluster_stats(g, _bits(mask, g.n_edges), bc)
        assert [conn[r, mask] for r in range(len(pairs))] == \
            [lab[i] == lab[j] for i, j in pairs]
        touching = {lab[b] for b in bd}
        assert list(bconn[:, mask]) == [lab[i] in touching for i in range(n)]
        for r, A in enumerate(subsets):
            meets = [lab[g.vertex_index[x]] for x in A]
            assert even[r, mask] == all(meets.count(c) % 2 == 0
                                        for c in meets)
    x, y = g.vertices[0], g.vertices[-1]
    same = conn[pairs.index((0, n - 1))] if n > 1 else True
    assert (connectivity_event(g, bc, x, y) == same).all()
    assert (boundary_connection_event(g, bc, x) == bconn[0]).all()
    assert (even_overlap_event(g, bc, subsets[0]) == even[0]).all()


@pytest.mark.parametrize("g", [PATH2, SQUARE, GRID23, RECT7, BOX1],
                         ids=["path2", "square", "grid23", "rect7", "box1"])
def test_dual_counts_match_union_find(g):
    dual = dual_map(g)
    index = {v: i for i, v in enumerate(dual.vertices)}
    kstar = dual_cluster_count_array(g)
    for mask in range(1 << g.n_edges):
        uf = UnionFind(len(dual.vertices))
        for k, (f, h) in enumerate(dual.edges):
            if not mask & (1 << k):
                uf.union(index[f], index[h])
        assert kstar[mask] == len({uf.find(i) for i in index.values()})


def test_crossing_event_matches_cluster_stats():
    g = RECT7
    ev = crossing_event(g, (0, 0, 2, 1), "horizontal")
    left = [i for i, v in enumerate(g.vertices) if v[0] == 0]
    right = [i for i, v in enumerate(g.vertices) if v[0] == 2]
    for mask in range(1 << g.n_edges):
        _, lab = cluster_stats(g, _bits(mask, g.n_edges), free_bc(g))
        assert ev[mask] == bool({lab[i] for i in left}
                                & {lab[j] for j in right})


def test_crossing_event_refuses_unknown_direction():
    with pytest.raises(ValueError, match="horizontal or vertical"):
        crossing_event(RECT7, (0, 0, 2, 1), "horizontl")


def test_over_budget_tables_refused_before_allocating():
    # 3^16 colourings of the 4x4-vertex rect, and 4^15 with vertex 0 fixed
    # as verify_es_coupling builds them: gigabytes of spin tables
    box = build_rect((0, 3), (0, 3))
    _refused_before_allocating(lambda: verify_es_coupling(box, [0.5], [4]))
    _refused_before_allocating(lambda: spin_ensemble(box, 3, 0.4))
    # 26 edges of a 27-vertex path: a 1.8 GB label table, under the edge cap
    path = build_rect((0, 26), (0, 0))
    assert path.n_edges <= MAX_ENUM_EDGES
    _refused_before_allocating(lambda: cluster_count_array(path,
                                                           free_bc(path)))


def test_count_column_is_charged_to_the_budget():
    # a 24-edge path plus 4 isolated vertices: the uint8 labels alone fit
    # the budget, the labels and the int32 counts do not
    path = build_rect((0, 24), (0, 0))
    g = LatticeGraph(path.vertices + tuple((x, 2) for x in range(4)),
                     path.edges)
    assert g.n_edges == 24 and g.n_vertices == 29
    assert (1 << 24) * 29 <= MAX_TABLE_BYTES < (1 << 24) * (29 + 4)
    bc = free_bc(g)
    _refused_before_allocating(lambda: cluster_count_array(g, bc))
    # Z needs no label table: a forest's is q^|V| (1 - p + p/q)^|E|
    want = 2.0 ** 29 * 0.75 ** 24
    assert abs(partition_function(g, 0.5, 2.0, bc) - want) <= 1e-12 * want


@pytest.mark.parametrize("p,q,match", [(1.5, 2.0, r"p must be in \[0, 1\]"),
                                       (0.5, 0.0, "q must be > 0")])
def test_bad_p_or_q_refused_before_the_label_table(p, q, match):
    # 2^22 masks: the 15-column uint8 labels and the int32 counts are 76 MiB
    g = build_rect((0, 4), (0, 2))
    bc = free_bc(g)
    calls = [
        lambda: partition_function(g, p, q, bc),
        lambda: log_partition_function(g, p, q, bc),
        lambda: probability_array(g, p, q, bc),
        lambda: edge_conditional_gap(g, p, q, bc, 0),
    ]
    for call in calls:
        _refused_before_allocating(call, match)


@pytest.mark.parametrize("call", [
    lambda q: thresholds(0.5, q),
    lambda q: partition_function(SQUARE, 0.5, q, free_bc(SQUARE)),
    lambda q: probability_array(SQUARE, 0.5, q, wired_bc(SQUARE)),
    lambda q: p_dual(0.5, q),
    lambda q: p_self_dual(q),
    lambda q: cftp_batch(SQUARE, 0.5, q, free_bc(SQUARE), 1, 4),
    lambda q: chain_samples(SQUARE, 0.5, q, free_bc(SQUARE), 1, 4, 2, 1),
    lambda q: c_from_q(q),
    lambda q: sigma_obs(q),
    lambda q: oriented_sector_sums(TorusRc(1, 2), q),
], ids=["thresholds", "partition_function", "probability_array", "p_dual",
        "p_self_dual", "cftp_batch", "chain_samples",
        "c_from_q", "sigma_obs", "oriented_sector_sums"])
def test_infinite_q_refused_by_name(call):
    # q = inf passed the q > 0 checks, and the samplers drew all-closed
    # rows from its NaN threshold without an error
    with pytest.raises(ValueError, match="q must be finite, not inf$"):
        call(math.inf)


def test_scans_refuse_q_below_one_and_large_graphs():
    with pytest.raises(ValueError, match="FKG scan requires q >= 1"):
        fkg_scan(SQUARE, 0.5, 0.5)
    with pytest.raises(ValueError, match="limited to 8 edges"):
        fkg_scan(RECT17, 0.5, 2.0)
    with pytest.raises(ValueError, match="needs q >= 1"):
        mon_scan(SQUARE, 0.5, [0.2, 0.5])
    with pytest.raises(ValueError, match="needs q >= 1"):
        cbc_scan(SQUARE, 0.5, 0.5)
    with pytest.raises(ValueError, match="limited to 4 edges"):
        increasing_events(5)


@pytest.mark.parametrize("call,match", [
    (lambda: cbc_scan(RECT7, 1.5, 2.0), r"p must be in \[0, 1\], not 1.5$"),
    (lambda: cbc_scan(RECT7, 0.45, math.inf), "q must be finite, not inf$"),
    (lambda: cbc_scan(RECT7, 0.45, math.nan), "needs q >= 1"),
    (lambda: mon_scan(RECT7, math.nan, [0.2, 0.5]), "needs q >= 1"),
    (lambda: fkg_scan(RECT7, 0.45, math.nan), "requires q >= 1")],
    ids=["cbc_p", "cbc_inf_q", "cbc_nan_q", "mon_nan_q", "fkg_nan_q"])
def test_scans_refuse_p_and_q_before_building_tables(monkeypatch, call, match):
    # cbc_scan built its 203 label tables on the 7-edge rect before a bad p
    # or an infinite q was refused
    from critlat import oracle

    def no_tables(*args, **kwargs):
        raise AssertionError("label table built before the refusal")

    monkeypatch.setattr(oracle, "_label_table", no_tables)
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("ps", [[0.5], [], [0.4, 0.4]])
def test_mon_scan_refuses_fewer_than_two_distinct_ps(ps):
    # no pair p < p' to compare, so no verdict
    with pytest.raises(ValueError, match=r"two distinct p values, not ps"):
        mon_scan(SQUARE, 2.0, ps)


def test_mon_scan_scans_a_repeated_p_once():
    once = mon_scan(RECT7, 2.0, [0.3, 0.4])
    assert once["min_gap"] > 0.0
    for ps in ([0.3, 0.4, 0.4], [0.4, 0.3, 0.3, 0.4]):
        assert mon_scan(RECT7, 2.0, ps) == once


@pytest.mark.parametrize("p,q,bad", [
    (0.0, 2.0, "p"), (-0.1, 2.0, "p"), (1.5, 2.0, "p"),
    (float("nan"), 2.0, "p"), (0.5, 0.0, "q"), (0.5, -1.0, "q"),
    (0.5, float("nan"), "q")])
def test_verify_duality_refuses_bad_parameters(p, q, bad):
    value = p if bad == "p" else q
    with pytest.raises(ValueError, match=r"%s .*, not %r$" % (bad, value)):
        verify_duality(SQUARE, p, q)


def test_verify_duality_refuses_a_graph_without_edges():
    with pytest.raises(ValueError, match="no edges"):
        verify_duality(LatticeGraph([(0, 0)], []), 0.5, 2.0)


def test_verify_duality_at_p_one_is_a_point_mass():
    # the all-open configuration, whose dual is all closed
    report = verify_duality(SQUARE, 1.0, 2.0)
    assert report["p_star"] == 0.0 and report["ok"], report


def test_phi_sum_refuses_a_set_without_the_origin():
    with pytest.raises(ValueError, match="contain the origin"):
        phi_sum([(1, 0), (2, 0)], 0.3)


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_phi_sum_refuses_bad_p_before_the_label_table(p):
    # the 15 vertices of the 5x3 rect: 22 edges, 2^22 masks of labels
    S = [(x, y) for x in range(5) for y in range(3)]
    _refused_before_allocating(lambda: phi_sum(S, p),
                               r"p must be in \[0, 1\], not %r" % p)


def test_crossing_event_refuses_graph_outside_rect():
    with pytest.raises(ValueError, match="graph inside rect"):
        crossing_event(RECT7, (0, 0, 1, 1), "horizontal")
