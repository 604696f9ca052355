import cmath
import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlat.lattice import (
    CCW_SIDES,
    build_rect,
    free_bc,
    LatticeGraph,
    medial_domain,
    oriented_segment,
    segment_faces,
)
from critlat.loops import (
    _cauchy_riemann_residual,
    _lockstep_field,
    _worst,
    contour_check,
    contour_residuals,
    edge_direction,
    edge_observable,
    medial_edges,
    project_line,
    sholo_report,
    sigma_obs,
    vertex_observable,
)
from critlat.oracle import (
    connectivity_event,
    p_self_dual,
    rc_probability,
)
from critlat import oracle
from critlat.lattice import cluster_stats
from reference import (
    _refused_before_allocating,
    build_H,
    charged_peak,
    dobrushin_bc,
    half_diamond,
    laplacian_signs,
    loop_encode,
    turned,
    winding_profile,
)

DIAMOND = build_rect((0, 1), (-1, 0))
P1, P2, P3, P4 = (0, 0), (1, 0), (1, -1), (0, -1)


def dom_diamond_14():
    return medial_domain(DIAMOND, P1, P4)


def dom_diamond_13():
    return medial_domain(DIAMOND, P1, P3)


def dom_rect21():
    return medial_domain(build_rect((0, 2), (0, 1)), (0, 0), (2, 1))


def dom_rect22():
    return medial_domain(build_rect((0, 2), (0, 2)), (0, 0), (2, 2))


def all_bits(m):
    for bits in range(2 ** m):
        yield [(bits >> t) & 1 for t in range(m)]


# ---------------------------------------------------------------------------
# spin of the observable


def test_sigma_solves_weight_equation():
    for q in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0):
        s = sigma_obs(q)
        assert abs(s.imag) == 0
        assert abs(math.sin(s.real * math.pi / 2) - math.sqrt(q) / 2) < 1e-12
    assert abs(sigma_obs(1.0) - 1.0 / 3.0) < 1e-12
    assert abs(sigma_obs(2.0) - 0.5) < 1e-12
    assert abs(sigma_obs(4.0) - 1.0) < 1e-12
    for q in (4.5, 9.0, 25.0):
        s = sigma_obs(q)
        assert abs(s.real - 1.0) < 1e-12 and s.imag != 0
        assert abs(cmath.sin(s * math.pi / 2) - math.sqrt(q) / 2) < 1e-12


# ---------------------------------------------------------------------------
# loop decomposition


def test_loop_count_identity_exhaustive():
    # loop_encode asserts l = 2k + o - v internally; recompute k here once
    # so the test does not lean on the module's own bookkeeping
    dom = dom_rect21()
    bc = dobrushin_bc(dom.primal, dom.a, dom.b)
    for cfg in all_bits(len(dom.free_edges)):
        full = [0] * dom.primal.n_edges
        for t, k in enumerate(dom.free_edges):
            full[k] = cfg[t]
        k_clusters, _ = cluster_stats(dom.primal, tuple(full), bc)
        lc = loop_encode(dom, cfg)
        assert len(lc.loops) + 1 == 2 * k_clusters + sum(cfg) - dom.v_count()


def test_loop_count_identity_all_fixtures():
    for dom in (dom_diamond_14(), dom_diamond_13(), dom_rect22(),
                medial_domain(build_rect((0, 3), (0, 1)), (0, 0), (2, 1))):
        for cfg in all_bits(len(dom.free_edges)):
            loop_encode(dom, cfg)


def test_loop_extremes():
    dom = dom_diamond_14()
    assert len(loop_encode(dom, [0]).loops) + 1 == dom.v_count() == 1
    assert len(loop_encode(dom, [1]).loops) + 1 == 2 + 1 - dom.v_count() == 2
    dom = dom_rect22()
    m = len(dom.free_edges)
    assert len(loop_encode(dom, [0] * m).loops) + 1 == dom.v_count() == 5
    assert len(loop_encode(dom, [1] * m).loops) + 1 == 2 + m - dom.v_count()


def test_golden_trace_single_edge_domain():
    dom = dom_diamond_14()
    lc = loop_encode(dom, (0,))
    assert lc.loops == ()
    assert lc.exploration == (
        ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 1)),
        ((1, 1), (2, 1)), ((2, 1), (2, 0)), ((2, 0), (1, 0)),
        ((1, 0), (1, -1)), ((1, -1), (2, -1)))
    lc = loop_encode(dom, (1,))
    assert lc.loops == (((2, 0), (2, 1), (1, 1), (1, 0)),)
    assert lc.exploration == (
        ((0, 1), (0, 0)), ((0, 0), (1, 0)),
        ((1, 0), (1, -1)), ((1, -1), (2, -1)))


def test_loops_cover_curve_edges_disjointly():
    dom = dom_rect22()
    want = set(medial_edges(dom))
    for cfg in ([0] * 8, [1] * 8, [1, 0, 1, 0, 1, 0, 1, 0]):
        lc = loop_encode(dom, cfg)
        got = []
        for t in range(len(lc.exploration)):
            got.append(oriented_segment(*lc.exploration[t]))
        for loop in lc.loops:
            for t in range(len(loop)):
                got.append(oriented_segment(loop[t], loop[(t + 1) % len(loop)]))
        assert len(got) == len(set(got))
        assert set(got) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_loop_identity_random_configs(cfg):
    loop_encode(dom_rect22(), cfg)


# ---------------------------------------------------------------------------
# winding


def turn_sum(cycle):
    total = 0.0
    n = len(cycle)
    for t in range(n):
        a, b, c = cycle[t], cycle[(t + 1) % n], cycle[(t + 2) % n]
        d1 = (b[0] - a[0], b[1] - a[1])
        d2 = (c[0] - b[0], c[1] - b[1])
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        total += math.pi / 2 if cross > 0 else -math.pi / 2
    return total


def test_loop_winds_one_full_turn():
    dom = dom_diamond_14()
    (loop,) = loop_encode(dom, (1,)).loops
    assert abs(abs(turn_sum(loop)) - 2 * math.pi) < 1e-12


def test_marked_edge_windings():
    # W(e_b) = 0 always; W(e_a) depends only on the domain shape
    for dom, wa in ((dom_diamond_14(), math.pi / 2),
                    (dom_diamond_13(), math.pi),
                    (dom_rect21(), math.pi)):
        for cfg in all_bits(len(dom.free_edges)):
            prof = winding_profile(loop_encode(dom, cfg).exploration)
            assert prof[dom.e_b] == 0.0
            assert abs(prof[dom.e_a] - wa) < 1e-12


def test_degenerate_marked_windings():
    # a = b with two missing orthogonal neighbours: the marked edges are
    # anti-parallel and the path winds by pi between them; with a single
    # missing neighbour the slit sits in a corner and the winding is 3pi/2
    cases = [
        (build_rect((0, 1), (0, 1)), (0, 0), math.pi),
        (build_rect((0, 2), (0, 1)), (2, 1), math.pi),
        (half_diamond(3), (0, 0), math.pi),
        (build_rect((0, 2), (0, 1)), (1, 0), 1.5 * math.pi),
    ]
    rng = np.random.default_rng(7)
    for g, a, wa in cases:
        dom = medial_domain(g, a, a)
        m = len(dom.free_edges)
        pool = (all_bits(m) if m <= 8 else
                (list(x) for x in rng.integers(0, 2, size=(200, m))))
        for cfg in pool:
            prof = winding_profile(loop_encode(dom, cfg).exploration)
            assert prof[dom.e_b] == 0.0
            assert abs(prof[dom.e_a] - wa) < 1e-12


def wrap_flank_edges(dom, graph):
    """Boundary medial edges between a live medial vertex and a forced-dual
    one, keyed by the primal vertex whose face they border."""
    from_black = {dom.black[v]: v for v in graph.vertices}
    wrap = set(dom.abstar_whites)
    out, seen = {}, set()
    for z, (kz, _) in dom.status.items():
        for d in CCW_SIDES:
            w = (z[0] + d[0], z[1] + d[1])
            if w not in dom.status or not dom.curve_segment(z, w):
                continue
            bf, wf = segment_faces(z, w)
            if wf not in wrap:
                continue
            kw = dom.status[w][0]
            if "dual" not in (kz, kw) or kz == kw:
                continue
            e = oriented_segment(z, w)
            if e not in seen:
                seen.add(e)
                out.setdefault(from_black[bf], []).append(e)
    return out


def test_degenerate_boundary_winding_values():
    # on the half-diamond with the marked point at the origin, every
    # boundary medial edge has a configuration-independent winding, and the
    # edges bordering the vertices of the top row take values in
    # {-pi, 0, pi, 2pi}: {pi, 2pi} left of the marked point, {0, -pi} right
    g = half_diamond(3)
    dom = medial_domain(g, (0, 0), (0, 0))
    flanks = wrap_flank_edges(dom, g)
    rng = np.random.default_rng(3)
    m = len(dom.free_edges)
    per_edge = {}
    for cfg in rng.integers(0, 2, size=(400, m)):
        prof = winding_profile(loop_encode(dom, list(cfg)).exploration)
        for e, w in prof.items():
            per_edge.setdefault(e, set()).add(w)
    for edges in flanks.values():
        for e in edges:
            assert len(per_edge[e]) == 1
    left = {w for e in flanks[(-1, 1)] for w in per_edge[e]}
    right = {w for e in flanks[(1, -1)] for w in per_edge[e]}
    assert left == {math.pi, 2 * math.pi}
    assert right == {0.0, -math.pi}
    marked = {next(iter(per_edge[dom.e_a])), next(iter(per_edge[dom.e_b]))}
    assert marked == {math.pi, 0.0}
    assert left | right == {-math.pi, 0.0, math.pi, 2 * math.pi}


# ---------------------------------------------------------------------------
# the observable on degenerate domains


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_degenerate_observable_factorizes(q):
    # F(e) = exp(i sigma W(e)) * P[a <-> x] on boundary edges, and the two
    # marked edges sum to 1 + exp(i pi sigma)
    p = p_self_dual(q)
    sigma = sigma_obs(q)
    for g, a in ((build_rect((0, 1), (0, 1)), (0, 0)),
                 (build_rect((0, 2), (0, 1)), (2, 1))):
        dom = medial_domain(g, a, a)
        field = edge_observable(dom, p, q)
        per_edge = {}
        for cfg in all_bits(len(dom.free_edges)):
            prof = winding_profile(loop_encode(dom, cfg).exploration)
            for e, w in prof.items():
                per_edge.setdefault(e, set()).add(w)
        bc = free_bc(g)
        for x, edges in wrap_flank_edges(dom, g).items():
            phi = rc_probability(g, p, q, bc,
                                 connectivity_event(g, bc, a, x))
            for e in edges:
                (wind,) = per_edge[e]
                rhs = cmath.exp(1j * sigma * wind) * phi
                assert abs(field.edge_values[e] - rhs) < 1e-12
        packet = field.edge_values[dom.e_a] + field.edge_values[dom.e_b]
        assert abs(packet - (1 + cmath.exp(1j * math.pi * sigma))) < 1e-12


def test_observable_exit_edge_is_one():
    for q in (1.0, 2.0, 3.0, 9.0):
        field = edge_observable(dom_rect21(), p_self_dual(q), q)
        assert abs(field.edge_values[dom_rect21().e_b] - 1.0) < 1e-12


def test_loop_measure_matches_cluster_weights():
    # p^o (1-p)^(m-o) q^k against x^o sqrt(q)^l: the ratio is constant in
    # the configuration, so the loop representation carries the same measure
    for q, p in ((3.0, p_self_dual(3.0)), (2.5, 0.4)):
        dom = dom_diamond_13()
        bc = dobrushin_bc(dom.primal, dom.a, dom.b)
        x = p / (math.sqrt(q) * (1.0 - p))
        ratios = set()
        for cfg in all_bits(len(dom.free_edges)):
            full = [0] * dom.primal.n_edges
            for t, k in enumerate(dom.free_edges):
                full[k] = cfg[t]
            k_clusters, _ = cluster_stats(dom.primal, tuple(full), bc)
            o = sum(cfg)
            w_fk = p ** o * (1 - p) ** (len(cfg) - o) * q ** k_clusters
            l_count = len(loop_encode(dom, cfg).loops) + 1
            ratios.add(round(w_fk / (x ** o * math.sqrt(q) ** l_count), 12))
        assert len(ratios) == 1


@pytest.mark.parametrize("p,q", [(0.35, 0.5), (0.6, 3.0)])
def test_edge_observable_matches_per_config_reference(p, q):
    # F(e) summed configuration by configuration with cluster_stats weights
    dom = dom_rect22()
    bc = dobrushin_bc(dom.primal, dom.a, dom.b)
    sigma = sigma_obs(q)
    total, z = {}, 0.0
    for cfg in all_bits(len(dom.free_edges)):
        full = [0] * dom.primal.n_edges
        for t, k in enumerate(dom.free_edges):
            full[k] = cfg[t]
        k_clusters, _ = cluster_stats(dom.primal, tuple(full), bc)
        o = sum(cfg)
        w = p ** o * (1 - p) ** (len(cfg) - o) * q ** k_clusters
        z += w
        steps = loop_encode(dom, cfg).exploration
        for e, wind in winding_profile(steps).items():
            total[e] = total.get(e, 0.0) + w * cmath.exp(1j * sigma * wind)
    field = edge_observable(dom, p, q)
    assert set(total) <= set(field.edge_values)
    for e, val in field.edge_values.items():
        assert abs(val - total.get(e, 0.0) / z) < 1e-12


# ---------------------------------------------------------------------------
# contour relation


def fixture_domains():
    return [dom_diamond_14(), dom_diamond_13(), dom_rect21(), dom_rect22()]


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, 4.0, 9.0])
def test_contour_vanishes_at_self_dual(q):
    for dom in fixture_domains():
        rep = contour_check(dom, q)
        assert rep["ok"] and rep["max_residual"] <= 1e-10


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_contour_detects_off_critical(q):
    rep = contour_check(dom_rect22(), q, p=p_self_dual(q) + 0.1)
    assert rep["max_residual"] > 1e-4


def test_contour_composite_telescope():
    # summing the signed vertex relation over every interior vertex is the
    # discrete integral around the composite enclosing contour
    dom = dom_rect22()
    for q in (1.0, 3.0):
        field = edge_observable(dom, p_self_dual(q), q)
        total = 0.0 + 0.0j
        count = 0
        for v in dom.status:
            nbrs = [(v[0] + d[0], v[1] + d[1]) for d in CCW_SIDES]
            if not all(w in dom.status and dom.curve_segment(v, w)
                       for w in nbrs):
                continue
            e1, e2, e3, e4 = (field.edge_values[oriented_segment(v, w)]
                              for w in nbrs)
            total += e1 - e3 + 1j * e2 - 1j * e4
            count += 1
        assert count > 0
        assert abs(total) <= 1e-9


# ---------------------------------------------------------------------------
# q = 2 s-holomorphic structure


def test_projection_is_idempotent_and_on_line():
    rng = np.random.default_rng(0)
    edges = [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((3, 2), (2, 2)),
             ((5, 5), (5, 4))]
    for _ in range(50):
        x = complex(*rng.normal(size=2))
        for e in edges:
            for e_b in edges:
                p1 = project_line(e, x, e_b)
                assert abs(project_line(e, p1, e_b) - p1) < 1e-12
                ratio = p1 * p1 * edge_direction(e, e_b)
                assert abs(ratio.imag) < 1e-12 and ratio.real > -1e-12


@pytest.mark.parametrize("graph,a,b", [
    (build_rect((0, 3), (0, 2)), (0, 0), (3, 2)), (DIAMOND, P1, P3)],
    ids=["rect32", "diamond_13"])
def test_observable_does_not_depend_on_how_the_domain_is_turned(graph, a, b):
    # e_b points each of the four ways; F on corresponding medial edges
    # agrees, and every q = 2 identity and contour relation holds
    base = {q: edge_observable(medial_domain(graph, a, b), p_self_dual(q),
                               q).edge_values for q in (2.0, 3.0)}
    heads = set()
    for k in range(4):
        g, (ak, bk), turn = turned(graph, (a, b), k)
        dom = medial_domain(g, ak, bk)
        heads.add(edge_direction(dom.e_b, ((0, 0), (1, 0))))
        rep = sholo_report(dom)
        assert rep["ok"], rep
        assert contour_check(dom, 3.0)["ok"]
        fields = {2.0: rep["field"].edge_values,
                  3.0: edge_observable(dom, p_self_dual(3.0), 3.0).edge_values}
        for q, field in fields.items():
            assert len(field) == len(base[q])
            for (t, h), val in base[q].items():
                assert abs(field[turn(t), turn(h)] - val) <= 1e-13
    assert heads == {1, 1j, -1, -1j}


def test_sholo_suite_on_fixtures():
    doms = fixture_domains() + [
        medial_domain(build_rect((0, 3), (0, 2)), (0, 0), (3, 2))]
    for dom in doms:
        rep = sholo_report(dom)
        assert rep["line_membership"] <= 1e-10
        assert rep["square_split"] <= 1e-10
        assert rep["boundary_tangent"] <= 1e-10
        assert rep["cauchy_riemann"] <= 1e-9
        assert rep["exit_projection"] <= 1e-10
        assert rep["ok"]


def test_vertex_observable_rejects_other_q():
    field = edge_observable(dom_diamond_14(), p_self_dual(3.0), 3.0)
    with pytest.raises(ValueError):
        vertex_observable(field)


def test_H_field_fixtures():
    for dom in fixture_domains():
        rep = sholo_report(dom)
        hrep = build_H(rep["field"])
        assert hrep["path_residual"] <= 1e-10
        assert hrep["boundary_residual"] <= 1e-10
        assert hrep["image_residual"] <= 1e-10
        assert hrep["ok"]
        assert abs(hrep["H"][dom.black[dom.b]] - 1.0) <= 1e-12


def test_H_laplacian_signs():
    # the 3x2 rectangle is the smallest fixture with interior faces of both
    # colours; subharmonicity on duals, superharmonicity mirrored on primals
    dom = medial_domain(build_rect((0, 3), (0, 2)), (0, 0), (3, 2))
    rep = sholo_report(dom)
    hrep = build_H(rep["field"])
    min_primal, max_dual = laplacian_signs(rep["field"], hrep["H"])
    assert min_primal >= -1e-10
    assert max_dual <= 1e-10
    assert min_primal > 1e-3 and max_dual < -1e-3  # strictly off zero here


def test_worst_residual_propagates_nan():
    nan = float("nan")
    assert _worst([]) == 0.0
    assert _worst([1e-3, 2e-3]) == 2e-3
    for order in ([0.0, nan, 1.0], [1.0, nan], [nan, 1.0]):
        assert math.isnan(_worst(order))


def test_q2_verdicts_fail_on_a_nan_residual():
    # max(worst, nan) keeps worst, so a NaN field would pass as exact
    nan = complex("nan")
    dom = medial_domain(build_rect((0, 3), (0, 2)), (0, 0), (3, 2))
    field = sholo_report(dom)["field"]
    field.vertex_values = dict.fromkeys(field.vertex_values, nan)
    assert math.isnan(_cauchy_riemann_residual(dom, field.vertex_values))
    hrep = build_H(field)
    assert math.isnan(hrep["image_residual"]) and not hrep["ok"]
    bad = edge_observable(dom, p_self_dual(2.0), 2.0)
    bad.edge_values = dict.fromkeys(bad.edge_values, nan)
    with pytest.raises(AssertionError, match="s-holomorphicity violated: nan"):
        vertex_observable(bad)


def test_contour_residual_field_keys():
    field = edge_observable(dom_rect22(), p_self_dual(2.0), 2.0)
    res = contour_residuals(field)
    assert res and all(v in dom_rect22().status for v in res)


# ---------------------------------------------------------------------------
# the lockstep walk against the per-configuration trace


REFERENCE_DOMAINS = {
    "diamond_14": dom_diamond_14,
    "diamond_13": dom_diamond_13,
    "rect21": dom_rect21,
    "rect22": dom_rect22,
    "rect32": lambda: medial_domain(build_rect((0, 3), (0, 2)), (0, 0), (3, 2)),
    "slit_11": lambda: medial_domain(build_rect((0, 1), (0, 1)), (0, 0), (0, 0)),
    "slit_21": lambda: medial_domain(build_rect((0, 2), (0, 1)), (2, 1), (2, 1)),
    "corner_21": lambda: medial_domain(build_rect((0, 2), (0, 1)), (1, 0),
                                       (1, 0)),
}


@functools.lru_cache(maxsize=None)
def per_config_trace(name):
    """(domain, rows): one (o, k, exploration length, winding profile) row
    per free-edge configuration, traced by loop_encode."""
    dom = REFERENCE_DOMAINS[name]()
    bc = dobrushin_bc(dom.primal, dom.a, dom.b)
    rows = []
    for cfg in all_bits(len(dom.free_edges)):
        full = [0] * dom.primal.n_edges
        for t, k in enumerate(dom.free_edges):
            full[k] = cfg[t]
        k_clusters, _ = cluster_stats(dom.primal, tuple(full), bc)
        steps = loop_encode(dom, cfg).exploration
        rows.append((sum(cfg), k_clusters, len(steps),
                     winding_profile(steps)))
    return dom, rows


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
@pytest.mark.parametrize("q", [0.5, 2.0, 9.0])
def test_lockstep_observable_matches_trace(name, q):
    # every fixture, the 12-free-edge rect and the degenerate a = b domains
    dom, rows = per_config_trace(name)
    p = p_self_dual(q)
    sigma = sigma_obs(q)
    m = len(dom.free_edges)
    w = np.array([p ** o * (1 - p) ** (m - o) * q ** k
                  for o, k, _, _ in rows])
    w /= w.sum()
    total = {}
    for wt, (_, _, _, prof) in zip(w, rows):
        for e, wind in prof.items():
            total[e] = total.get(e, 0.0) + wt * cmath.exp(1j * sigma * wind)
    field = edge_observable(dom, p, q)
    assert set(field.edge_values) == set(medial_edges(dom))
    assert set(total) <= set(field.edge_values)
    for e, val in field.edge_values.items():
        assert abs(val - total.get(e, 0.0)) < 1e-12
    assert field.counters == {
        "configs": 2 ** m,
        "walk_steps": sum(n - 1 for _, _, n, _ in rows),
        "longest_exploration": max(n for _, _, n, _ in rows)}
    assert set(field.timings) == {"probabilities_s", "walk_s"}


@pytest.mark.parametrize("q", [0.5, 2.0, 9.0])
def test_lockstep_walk_half_diamond(q):
    # 2^18 configurations are too many to trace one by one: the walk runs
    # on a sample of masks with arbitrary weights against the trace of the
    # same masks, and the whole observable satisfies the degenerate
    # marked-edge identities F(e_b) = 1, F(e_a) = exp(i pi sigma)
    dom = medial_domain(half_diamond(3), (0, 0), (0, 0))
    m = len(dom.free_edges)
    sigma = sigma_obs(q)
    rng = np.random.default_rng(11)
    masks = rng.integers(0, 2 ** m, size=300)
    weights = rng.random(300)
    want = {}
    for mask, wt in zip(masks, weights):
        cfg = [(int(mask) >> t) & 1 for t in range(m)]
        prof = winding_profile(loop_encode(dom, cfg).exploration)
        for e, wind in prof.items():
            want[e] = want.get(e, 0.0) + wt * cmath.exp(1j * sigma * wind)
    table = dom.slots
    got, _, _ = _lockstep_field(table, masks.astype(np.int64), weights, sigma)
    for e, val in zip(table.edges, got):
        assert abs(val - want.get(e, 0.0)) < 1e-12
    field = edge_observable(dom, p_self_dual(q), q)
    assert abs(field.edge_values[dom.e_b] - 1.0) < 1e-12
    assert abs(field.edge_values[dom.e_a] - cmath.exp(1j * math.pi * sigma)) \
        < 1e-12


def test_observable_over_budget_refused_before_allocating(monkeypatch):
    # 26 free edges: probability_array charges the 2^26-row label table of
    # 20 uint8 labels and an int32 class, and refuses it
    dom = medial_domain(build_rect((0, 4), (0, 3)), (4, 1), (0, 0))
    assert len(dom.free_edges) == 26
    _refused_before_allocating(lambda: edge_observable(dom, 0.5, 2.0),
                               "needs 1610612736 bytes")
    # 24 free edges: a budget one byte short of the 2^24 x 24-byte table
    dom = medial_domain(build_rect((0, 4), (0, 3)), (0, 0), (4, 3))
    assert len(dom.free_edges) == 24
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", (1 << 24) * 24 - 1)
    _refused_before_allocating(lambda: edge_observable(dom, 0.5, 2.0),
                               "needs %d bytes" % ((1 << 24) * 24))


@pytest.mark.parametrize("n_free,b", [(12, (3, 2)), (16, (4, 2)),
                                      (18, (3, 3))])
def test_observable_peak_within_its_charge(n_free, b):
    # the label table is charged inside probability_array, and the walk
    # charges the probabilities and one chunk after the table is freed
    dom = medial_domain(build_rect((0, b[0]), (0, b[1])), (0, 0), b)
    assert len(dom.free_edges) == n_free
    field, peak, charge = charged_peak(
        lambda: edge_observable(dom, 0.5, 2.0))
    assert field.counters["configs"] == 1 << n_free
    assert peak <= 1.1 * charge + (1 << 20)


@pytest.mark.parametrize("q", [2.0, 9.0])
def test_contour_relation_18_free_edges(q):
    dom = medial_domain(build_rect((0, 3), (0, 3)), (0, 0), (3, 3))
    assert len(dom.free_edges) == 18
    t0 = time.perf_counter()
    rep = contour_check(dom, q)
    assert time.perf_counter() - t0 < 5.0
    assert rep["ok"] and rep["max_residual"] <= 1e-10
    assert rep["counters"]["configs"] == 2 ** 18
    assert rep["timings"]["walk_s"] > 0


def test_sholo_report_16_free_edges():
    dom = medial_domain(build_rect((0, 4), (0, 2)), (0, 0), (4, 2))
    assert len(dom.free_edges) == 16
    rep = sholo_report(dom)
    assert rep["ok"]
    assert rep["counters"]["configs"] == 2 ** 16
    assert set(rep["timings"]) == {"probabilities_s", "walk_s"}


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_domain_owns_its_dobrushin_wiring(name):
    dom = REFERENCE_DOMAINS[name]()
    assert dom.bc == dobrushin_bc(dom.primal, dom.a, dom.b)


@pytest.mark.parametrize("q", [0.5, 2.0, 9.0])
def test_single_edge_degenerate_domain(q):
    # one edge with a = b: both marked edges lie on black(a), and which
    # one the arcs at the free vertex reach depends on the edge state
    dom = medial_domain(build_rect((0, 1), (0, 0)), (0, 0), (0, 0))
    p, sigma = p_self_dual(q), sigma_obs(q)
    bc = dobrushin_bc(dom.primal, dom.a, dom.b)
    total, z = {}, 0.0
    for cfg in all_bits(len(dom.free_edges)):
        k_clusters, _ = cluster_stats(dom.primal, tuple(cfg), bc)
        w = p ** sum(cfg) * (1 - p) ** (1 - sum(cfg)) * q ** k_clusters
        z += w
        prof = winding_profile(loop_encode(dom, cfg).exploration)
        for e, wind in prof.items():
            total[e] = total.get(e, 0.0) + w * cmath.exp(1j * sigma * wind)
    field = edge_observable(dom, p, q)
    assert set(total) <= set(field.edge_values)
    for e, val in field.edge_values.items():
        assert abs(val - total.get(e, 0.0) / z) < 1e-12
    assert abs(field.edge_values[dom.e_b] - 1.0) < 1e-12


def test_cauchy_riemann_on_faces_of_curve_edges():
    # the 3x3 box minus (2, 2): the white face of the missing corner cell
    # has corners carrying f but sides that carry no curve
    cells = [(x, y) for x in range(3) for y in range(3) if (x, y) != (2, 2)]
    g = LatticeGraph(cells, [(u, v) for u in cells for v in cells if u < v
                             and abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1])
    rep = sholo_report(medial_domain(g, (2, 1), (0, 1)))
    assert rep["cauchy_riemann"] <= 1e-12
    assert rep["ok"]


def test_sholo_report_on_c_shape():
    # the square split reads only vertices whose four sides carry curve to
    # status vertices; a status-only test reaches a side with no medial edge
    cells = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)]
    g = LatticeGraph(cells, [(u, v) for u in cells for v in cells if u < v
                             and abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1])
    rep = sholo_report(medial_domain(g, (1, 0), (1, 2)))
    assert rep["square_split"] <= 1e-10
    assert rep["line_membership"] <= 1e-10
    # H's image check skips v, one of whose two blacks is the missing cell
    hrep = build_H(rep["field"])
    assert hrep["ok"], hrep


def test_sholo_report_on_corner_slit():
    # e_a and e_b share the outer endpoint (2, 1) across the slit, which
    # carries no f, so the Cauchy-Riemann sum skips the faces it corners
    rep = sholo_report(REFERENCE_DOMAINS["corner_21"]())
    assert rep["ok"] and rep["cauchy_riemann"] <= 1e-9, rep
    assert build_H(rep["field"])["ok"]


def test_loop_entry_points_refuse_bad_input():
    for q in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="q must be positive, not %r$"
                           % (q,)):
            sigma_obs(q)
    dom = dom_diamond_14()
    # NaN q makes p_self_dual NaN as well; the refusal names q, not p
    with pytest.raises(ValueError, match="q must be positive, not nan$"):
        contour_check(dom, float("nan"))
    for bits in ([], [0] * (len(dom.free_edges) + 1)):
        with pytest.raises(ValueError, match="one bit per free edge"):
            loop_encode(dom, bits)
    # edge_observable leaves vertex_values empty until vertex_observable
    field = edge_observable(dom, p_self_dual(2.0), 2.0)
    with pytest.raises(ValueError, match="vertex observable required"):
        build_H(field)
