"""Sampler checks: heat-bath conditionals, exactness of the coupling from
the past against the enumeration oracle, Edwards-Sokal transfer, and the
Monte Carlo estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlat import sampler
from critlat.lattice import (
    LatticeGraph,
    UnionFind,
    build_box,
    build_rect,
    cluster_stats,
    custom_bc,
    free_bc,
    wired_bc,
)
from critlat.oracle import (
    _sampled_labels,
    connectivity_event,
    crossing_event,
    cylinder_event,
    probability_array,
    rc_probability,
)
from critlat.sampler import (
    TABLE_MAX_EDGES,
    _clusters,
    _cut_side,
    _links,
    _sweep,
    bits_to_masks,
    cftp_batch,
    chain_samples,
    chi_square_gof,
    conn_off_tables,
    connect_mc,
    crossing_mc,
    es_forward,
    es_reverse,
    mc_estimate,
    sweep_uniforms,
    thresholds,
)
from critlat.sixvertex import TorusRc, brute_force_census, rc6v_verify
from reference import (
    dobrushin_bc,
    es_forward_colors,
    es_reverse_bits,
    heatbath_step,
)

SQUARE = build_rect((0, 1), (0, 1))
PATH2 = LatticeGraph([(0, 0), (1, 0), (2, 0)],
                     [((0, 0), (1, 0)), ((1, 0), (2, 0))])
CYCLE4 = SQUARE  # the unit square is the 4-cycle
EDGE = LatticeGraph([(0, 0), (1, 0)], [((0, 0), (1, 0))])


def test_thresholds():
    thr_c, thr_d = thresholds(0.4, 2.0)
    assert abs(thr_c - 0.6) < 1e-15
    assert abs(thr_d - (1.0 - 0.4 / (0.4 + 2.0 * 0.6))) < 1e-15
    # q = 1: both thresholds collapse, the update ignores the rest
    thr_c, thr_d = thresholds(0.4, 1.0)
    assert abs(thr_c - thr_d) < 1e-15


def test_heatbath_step_rule():
    p, q = 0.5, 2.0
    bc = free_bc(SQUARE)
    # edge 0 with the other three edges open: endpoints connected off e
    bits = (0, 1, 1, 1)
    assert heatbath_step(SQUARE, bits, 0, 0.51, p, q, bc)[0] == 1
    assert heatbath_step(SQUARE, bits, 0, 0.49, p, q, bc)[0] == 0
    # all closed: disconnected threshold 1 - p/(p+q(1-p)) = 2/3
    bits = (0, 0, 0, 0)
    assert heatbath_step(SQUARE, bits, 0, 0.67, p, q, bc)[0] == 1
    assert heatbath_step(SQUARE, bits, 0, 0.65, p, q, bc)[0] == 0


def test_heatbath_wiring_counts_as_connection():
    # both endpoints of the edge lie on the wired boundary
    bits = (0,)
    got = heatbath_step(EDGE, bits, 0, 0.61, 0.4, 3.0, wired_bc(EDGE))
    assert got[0] == 1  # threshold 1-p = 0.6, not the disconnected one


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 3),
       st.floats(0.0, 0.999), st.floats(0.05, 0.95), st.floats(1.0, 4.0))
def test_heatbath_preserves_order(lo_mask, hi_mask, k, u, p, q):
    lo_mask &= hi_mask  # force lo <= hi coordinatewise
    lo = tuple((lo_mask >> b) & 1 for b in range(4))
    hi = tuple((hi_mask >> b) & 1 for b in range(4))
    bc = free_bc(SQUARE)
    new_lo = heatbath_step(SQUARE, lo, k, u, p, q, bc)
    new_hi = heatbath_step(SQUARE, hi, k, u, p, q, bc)
    assert all(a <= b for a, b in zip(new_lo, new_hi))


def test_sweep_uniforms_replay():
    a = sweep_uniforms(9, -3, 5, 4)
    b = sweep_uniforms(9, -3, 5, 4)
    assert (a == b).all()
    c = sweep_uniforms(9, -4, 5, 4)
    assert (a != c).any()


def _fresh_philox_block(seed, epoch, n_rows, n_edges):
    mask = (1 << 64) - 1
    key = np.array([seed & mask, epoch & mask], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random((n_rows, n_edges))


def test_sweep_uniforms_equal_fresh_philox_blocks():
    # odd block sizes leave part of a Philox output buffer unread, so a
    # re-keyed generator that kept its buffer or counter would drift
    calls = [(1, 0, 1, 3), (2 ** 63 + 5, 7, 2, 5), (1, 1, 3, 1), (-3, 2, 1, 7),
             (2 ** 64 - 1, 2 ** 64 - 1, 4, 4), (1, 0, 1, 3), (5, 1 << 70, 1, 1)]
    calls += [(seed, epoch, 2, 3) for epoch in range(4) for seed in (0, 2 ** 63 + 5)]
    for args in calls:
        assert np.array_equal(sweep_uniforms(*args), _fresh_philox_block(*args))


def test_sweep_uniforms_per_thread_generators():
    import threading

    got = {}

    def worker(name, seed):
        got[name] = [sweep_uniforms(seed, t, 2, 3) for t in range(200)]

    threads = [threading.Thread(target=worker, args=(k, k + 11)) for k in range(3)]
    for t in threads:
        t.start()
    main = [sweep_uniforms(7, t, 2, 3) for t in range(200)]
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    for k in range(3):
        for t, block in enumerate(got[k]):
            assert np.array_equal(block, _fresh_philox_block(k + 11, t, 2, 3))
    for t, block in enumerate(main):
        assert np.array_equal(block, _fresh_philox_block(7, t, 2, 3))


# ---------------------------------------------------------------------------
# CFTP exactness


GOF_N = 20000


@pytest.mark.parametrize("graph", [PATH2, SQUARE])
@pytest.mark.parametrize("q", [1.0, 2.0, 2.5])
def test_cftp_matches_oracle(graph, q):
    p = 0.45
    bc = free_bc(graph)
    batch = cftp_batch(graph, p, q, bc, 101, GOF_N)
    _, pval, _ = chi_square_gof(bits_to_masks(batch),
                                probability_array(graph, p, q, bc))
    assert pval > 1e-3, pval


def test_cftp_wired_and_dobrushin():
    for bc in (wired_bc(SQUARE), dobrushin_bc(SQUARE, (0, 0), (1, 1))):
        batch = cftp_batch(SQUARE, 0.55, 1.8, bc, 7, GOF_N)
        _, pval, _ = chi_square_gof(bits_to_masks(batch),
                                    probability_array(SQUARE, 0.55, 1.8, bc))
        assert pval > 1e-3, pval


def test_cftp_single_edge_third():
    batch = cftp_batch(EDGE, 0.5, 2.0, free_bc(EDGE), 13, GOF_N)
    mean = batch.mean()
    se = math.sqrt((1 / 3) * (2 / 3) / GOF_N)
    assert abs(mean - 1 / 3) < 4 * se


def test_gof_rejects_wrong_law():
    # q = 2 samples against the q = 1 product law must fail decisively
    batch = cftp_batch(SQUARE, 0.5, 2.0, free_bc(SQUARE), 29, GOF_N)
    _, pval, _ = chi_square_gof(bits_to_masks(batch),
                                probability_array(SQUARE, 0.5, 1.0,
                                                  free_bc(SQUARE)))
    assert pval < 1e-3


def test_cftp_deterministic():
    a = cftp_batch(SQUARE, 0.5, 2.0, free_bc(SQUARE), 42, 64)
    b = cftp_batch(SQUARE, 0.5, 2.0, free_bc(SQUARE), 42, 64)
    assert (a == b).all()
    assert (cftp_batch(SQUARE, 0.5, 2.0, free_bc(SQUARE), 42, 1)[0]
            == a[0]).all()


def test_cftp_paths_agree():
    bc = dobrushin_bc(SQUARE, (0, 0), (1, 1))
    a = cftp_batch(SQUARE, 0.6, 1.5, bc, 17, 128, use_tables=True)
    b = cftp_batch(SQUARE, 0.6, 1.5, bc, 17, 128, use_tables=False)
    assert (a == b).all()


def test_cftp_monotone_in_p():
    lo = cftp_batch(SQUARE, 0.35, 2.0, free_bc(SQUARE), 3, 300)
    hi = cftp_batch(SQUARE, 0.65, 2.0, free_bc(SQUARE), 3, 300)
    assert (lo <= hi).all()


def test_cftp_rejects_q_below_one():
    with pytest.raises(ValueError, match="needs q >= 1, not 0.5"):
        cftp_batch(SQUARE, 0.5, 0.5, free_bc(SQUARE), 1, 10)
    with pytest.raises(ValueError, match=r"inside \(0, 1\), not 1.0"):
        cftp_batch(SQUARE, 1.0, 2.0, free_bc(SQUARE), 1, 10)


def test_cftp_horizon_failure_is_loud(monkeypatch):
    monkeypatch.setattr(sampler, "CFTP_MAX_SWEEPS", 0)
    with pytest.raises(RuntimeError):
        cftp_batch(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, 10)


# ---------------------------------------------------------------------------
# plain chains


def test_chain_matches_oracle_q_below_one():
    # q < 1 has no monotone coupling; the burn-in chain is the sampler
    p, q = 0.5, 0.5
    bc = free_bc(SQUARE)
    batch = chain_samples(SQUARE, p, q, bc, 5, GOF_N, burn_in=300, thin=7)
    _, pval, _ = chi_square_gof(bits_to_masks(batch),
                                probability_array(SQUARE, p, q, bc))
    assert pval > 1e-3, pval


# ---------------------------------------------------------------------------
# Edwards-Sokal transfer


def test_es_forward_all_open_is_constant():
    colors = es_forward(SQUARE, (1, 1, 1, 1), 3, 5)
    assert len(set(colors.tolist())) == 1


def test_es_forward_boundary_color():
    colors = es_forward(SQUARE, (1, 0, 0, 0), 3, 5,
                        bc=wired_bc(SQUARE), boundary_color=0)
    assert (colors == 0).all()  # every vertex of the square is boundary


def test_es_forward_refuses_boundary_color_outside_q():
    for bad in (-1, 3, 7):
        with pytest.raises(ValueError, match="boundary_color"):
            es_forward(SQUARE, (1, 0, 0, 0), 3, 5, boundary_color=bad)
    colors = es_forward(SQUARE, (1, 0, 0, 0), 3, 5, boundary_color=2)
    assert (colors == 2).all()


def test_es_maps_refuse_wrong_lengths_and_p():
    g = build_rect((0, 2), (0, 1))  # 6 vertices, 7 edges
    for n in (3, 10):
        with pytest.raises(ValueError, match="bits has %d entries for 7 edges"
                           % n):
            es_forward(g, [1] * n, 2, 1)
    for n in (5, 7):
        with pytest.raises(ValueError,
                           match="colors has %d entries for 6 vertices" % n):
            es_reverse(g, [0] * n, 0.5, 1)
    for p in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\], not %r"
                           % p):
            es_reverse(g, [0] * 6, p, 1)
    assert es_reverse(g, [0] * 6, 1.0, 1).tolist() == [1] * 7


def test_es_reverse_respects_spins():
    colors = np.array([0, 1, 1, 0], dtype=np.int8)
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = es_reverse(SQUARE, colors, 0.9, rng)
        for k, (a, b) in enumerate(SQUARE.edges):
            ia, ib = SQUARE.vertex_index[a], SQUARE.vertex_index[b]
            if colors[ia] != colors[ib]:
                assert bits[k] == 0


def test_es_round_trip_stationary():
    # w ~ phi^0 -> spins -> w' must again follow phi^0 (coupling marginals)
    p, q = 0.5, 2
    bc = free_bc(SQUARE)
    probs = probability_array(SQUARE, p, q, bc)
    rng = np.random.default_rng(31)
    masks = rng.choice(len(probs), size=GOF_N, p=probs)
    out = np.zeros(GOF_N, dtype=np.int64)
    for i, mask in enumerate(masks):
        bits = [(int(mask) >> k) & 1 for k in range(SQUARE.n_edges)]
        colors = es_forward(SQUARE, bits, q, rng)
        new_bits = es_reverse(SQUARE, colors, p, rng)
        out[i] = int(bits_to_masks(new_bits[None, :])[0])
    _, pval, _ = chi_square_gof(out, probs)
    assert pval > 1e-3, pval


@pytest.mark.parametrize("g", [SQUARE, build_rect((0, 2), (0, 1)),
                               build_box(1)], ids=["square", "rect7", "box1"])
def test_es_maps_match_the_per_cluster_reference(g):
    # seeded Swendsen-Wang chains: both maps draw the variates of the
    # per-cluster and per-edge references, in the same order
    for bc in (free_bc(g), wired_bc(g)):
        for q, color in ((2, None), (3, 1), (4, None), (4, 3)):
            rng, ref = np.random.default_rng(7), np.random.default_rng(7)
            bits = np.ones(g.n_edges, dtype=np.uint8)
            for _ in range(30):
                colors = es_forward(g, bits, q, rng, bc, color)
                expected = es_forward_colors(g, bits, q, ref, bc, color)
                assert colors.dtype == expected.dtype == np.int8
                assert np.array_equal(colors, expected)
                bits = es_reverse(g, colors, 0.55, rng)
                expected = es_reverse_bits(g, colors, 0.55, ref)
                assert bits.dtype == expected.dtype == np.uint8
                assert np.array_equal(bits, expected)
            # int seeds and bits as a list
            assert np.array_equal(
                es_forward(g, bits.tolist(), q, 11, bc, color),
                es_forward_colors(g, bits, q, 11, bc, color))
            assert np.array_equal(es_reverse(g, colors, 0.4, 11),
                                  es_reverse_bits(g, colors, 0.4, 11))


# ---------------------------------------------------------------------------
# estimators


def test_mc_estimate_constant():
    est = mc_estimate(SQUARE, 0.5, 2.0, free_bc(SQUARE), lambda b: 1.0,
                      200, 9)
    assert est.mean == 1.0 and est.std_error == 0.0


def test_mc_estimate_edge_probability():
    p, q = 0.5, 2.0
    bc = free_bc(SQUARE)
    exact = rc_probability(SQUARE, p, q, bc, cylinder_event(SQUARE, [0]))
    est = mc_estimate(SQUARE, p, q, bc, lambda b: float(b[0]), GOF_N, 23)
    assert abs(est.mean - exact) < 4 * est.std_error + 1e-9


def test_connect_mc_vs_oracle():
    p, q = 0.5, 2.0
    bc = free_bc(SQUARE)
    exact = rc_probability(SQUARE, p, q, bc,
                           connectivity_event(SQUARE, bc, (0, 0), (1, 1)))
    est = connect_mc(SQUARE, p, q, bc, (0, 0), (1, 1), GOF_N, 19)
    assert abs(est.mean - exact) < 4 * est.std_error + 1e-9


def test_unknown_method_refused():
    bc = free_bc(SQUARE)
    with pytest.raises(ValueError, match="method"):
        connect_mc(SQUARE, 0.5, 2.0, bc, (0, 0), (1, 1), 10, 1,
                   method="chian")
    with pytest.raises(ValueError, match="method"):
        mc_estimate(SQUARE, 0.5, 2.0, bc, lambda b: b[0], 10, 1,
                    method="chian")


def test_unknown_boundary_kind_refused():
    with pytest.raises(ValueError, match="bc_kind"):
        crossing_mc(2, 1, 0.5, 1.0, "wierd", 10, 1)


def test_crossing_mc_bernoulli_half():
    est = crossing_mc(3, 2, 0.5, 1.0, "free", 50000, 2)
    assert est.method == "direct"
    assert abs(est.mean - 0.5) < 4 * est.std_error


def test_crossing_mc_chain_small_box_vs_oracle():
    # 3x2 box is enumerable, so the chain estimator can be checked exactly
    g = build_rect((0, 2), (0, 1))
    exact = rc_probability(g, 0.6, 2.0, free_bc(g),
                           crossing_event(g, (0, 0, 2, 1), "horizontal"))
    est = crossing_mc(2, 1, 0.6, 2.0, "free", 4000, 21,
                      burn_in=300, thin=11)
    assert abs(est.mean - exact) < 4 * est.std_error + 1e-9


def test_boundary_connection_decays_with_size():
    # deep subcritical: phi^1[0 <-> boundary] decreasing over growing boxes
    p, q = 0.3, 2.0
    vals = []
    for n in (1, 2, 3):
        g = build_box(n)
        bc = wired_bc(g)
        bd = {g.vertex_index[v] for v in g.boundary()}

        def hit(bits, g=g, bd=bd, bc=bc):
            _, labels = cluster_stats(g, tuple(int(x) for x in bits), bc)
            root0 = labels[g.vertex_index[(0, 0)]]
            return float(any(labels[i] == root0 for i in bd))

        est = mc_estimate(g, p, q, bc, hit, 2500, 37, method="chain",
                          burn_in=400, thin=4)
        vals.append(est.mean)
    assert vals[0] > vals[1] > vals[2]


def test_conn_off_tables_match_bruteforce():
    bc = dobrushin_bc(SQUARE, (0, 0), (1, 1))
    tables = conn_off_tables(SQUARE, bc)
    ends = [(SQUARE.vertex_index[u], SQUARE.vertex_index[v])
            for u, v in SQUARE.edges]
    for mask in range(16):
        for k in range(4):
            uf = UnionFind(SQUARE.n_vertices)
            for block in bc.blocks:
                for i in block[1:]:
                    uf.union(block[0], i)
            for j in range(4):
                if j != k and mask & (1 << j):
                    uf.union(*ends[j])
            expect = uf.find(ends[k][0]) == uf.find(ends[k][1])
            assert tables[k][mask] == expect


# ---------------------------------------------------------------------------
# the single-edge conditional and the batch connectivity against union-find


def _uf_conn_off(graph, bc, bits, k):
    """Reference conditional: rebuild a union-find over every open edge."""
    uf = UnionFind(graph.n_vertices)
    for block in bc.blocks:
        for i in block[1:]:
            uf.union(block[0], i)
    for j, (a, b) in enumerate(graph.edges):
        if j != k and bits[j]:
            uf.union(graph.vertex_index[a], graph.vertex_index[b])
    x, y = graph.edges[k]
    return uf.find(graph.vertex_index[x]) == uf.find(graph.vertex_index[y])


def _conditional_cases():
    box1 = build_box(1)
    two_blocks = custom_bc(box1, [[(-1, -1), (-1, 0), (-1, 1)],
                                  [(1, -1), (1, 0)]])
    return [(SQUARE, free_bc(SQUARE)), (box1, wired_bc(box1)),
            (SQUARE, dobrushin_bc(SQUARE, (0, 0), (1, 1))),
            (box1, dobrushin_bc(box1, (-1, -1), (1, 1))), (box1, two_blocks)]


@pytest.mark.parametrize("graph,bc", _conditional_cases())
def test_joined_off_matches_tables(graph, bc):
    m = graph.n_edges
    tables = conn_off_tables(graph, bc)
    links, ends = _links(graph, bc)
    for mask in range(1 << m):
        state = [(mask >> j) & 1 for j in range(m)]
        for k, (x, y) in enumerate(ends):
            assert (_cut_side(links, state, x, y, k) is None) \
                == tables[k][mask]


@pytest.mark.parametrize("n", [2, 3])
def test_chain_matches_union_find_sweeps(n):
    # 100 sweeps from the open state, thin 1: row t is the state after
    # sweep t + 1 of the old union-find rule on the same variates
    g = build_box(n)
    bc = wired_bc(g)
    p, q, seed = 0.57, 2.0, 123
    got = chain_samples(g, p, q, bc, seed, 100, burn_in=0, thin=1)
    thr_c, thr_d = thresholds(p, q)
    bits = [1] * g.n_edges
    for t in range(100):
        u = sweep_uniforms(seed, t, 1, g.n_edges)[0]
        for k in range(g.n_edges):
            conn = _uf_conn_off(g, bc, bits, k)
            bits[k] = 1 if u[k] >= (thr_c if conn else thr_d) else 0
        assert got[t].tolist() == bits, t


def test_cftp_non_table_draws_each_sweep_once(monkeypatch):
    import critlat.sampler as sampler

    epochs = []

    def counted(seed, epoch, n_rows, n_edges):
        epochs.append(epoch)
        return sweep_uniforms(seed, epoch, n_rows, n_edges)

    monkeypatch.setattr(sampler, "sweep_uniforms", counted)
    bc = free_bc(SQUARE)
    got = cftp_batch(SQUARE, 0.5, 2.0, bc, 5, 40, use_tables=False)
    expect, horizon = [], 1
    while len(expect) < len(epochs):
        expect += list(range(-horizon, 0))
        horizon *= 2
    assert epochs == expect  # one block per (horizon, t), none per row
    monkeypatch.undo()
    assert (got == cftp_batch(SQUARE, 0.5, 2.0, bc, 5, 40,
                              use_tables=True)).all()


@pytest.mark.parametrize("bc_kind", ["free", "wired", "dobrushin"])
def test_sampled_labels_match_cluster_stats(bc_kind):
    g = build_rect((0, 3), (0, 2))
    bc = {"free": free_bc(g), "wired": wired_bc(g),
          "dobrushin": dobrushin_bc(g, (0, 0), (3, 2))}[bc_kind]
    bits = (sweep_uniforms(3, 0, 300, g.n_edges) < 0.45).astype(np.uint8)
    labels = _sampled_labels(g, bc, bits)
    assert labels.shape == (300, g.n_vertices)
    for row, lab in zip(bits, labels):
        _, expect = cluster_stats(g, tuple(row), bc)
        assert tuple(int(x) for x in lab) == expect


def test_cftp_table_path_builds_no_links(monkeypatch):
    def refuse(graph, bc):
        raise AssertionError("_links read")

    monkeypatch.setattr(sampler, "_links", refuse)
    bc = free_bc(SQUARE)
    cftp_batch(SQUARE, 0.5, 2.0, bc, 1, 5, use_tables=True)
    with pytest.raises(AssertionError, match="_links read"):
        cftp_batch(SQUARE, 0.5, 2.0, bc, 1, 5, use_tables=False)


def test_bits_to_masks_refuses_past_63_columns():
    # column 65 would wrap to 1 << 1 in int64, and to 0 in the matrix product
    batch = np.zeros((2, 70), dtype=np.uint8)
    batch[:, 65] = 1
    with pytest.raises(ValueError, match="70 columns"):
        bits_to_masks(batch)
    edge63 = np.zeros((1, 63), dtype=np.uint8)
    edge63[0, 62] = 1
    assert bits_to_masks(edge63).tolist() == [1 << 62]


@pytest.mark.parametrize("n", [0, -3])
def test_chain_samples_refuses_no_draws(n):
    with pytest.raises(ValueError, match="n_samples must be >= 1, not %d" % n):
        chain_samples(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, n, 10, 2)


def test_chain_samples_refuses_negative_burn_in():
    with pytest.raises(ValueError, match="burn_in must be >= 0, not -5"):
        chain_samples(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, 4, -5, 2)


def test_chain_samples_refuses_zero_thinning():
    with pytest.raises(ValueError, match="thin must be >= 1, not 0"):
        chain_samples(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, 4, 10, 0)


def test_cftp_batch_refuses_no_draws():
    with pytest.raises(ValueError, match="n_samples must be >= 1, not 0"):
        cftp_batch(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, 0)


@pytest.mark.parametrize("method", ["cftp", "chain"])
def test_estimators_refuse_no_draws(method):
    bc = free_bc(SQUARE)
    with pytest.raises(ValueError, match="n_samples must be >= 1, not 0"):
        connect_mc(SQUARE, 0.5, 2.0, bc, (0, 0), (1, 1), 0, 3, method=method)
    with pytest.raises(ValueError, match="n_samples must be >= 1, not 0"):
        mc_estimate(SQUARE, 0.5, 2.0, bc, lambda b: 1.0, 0, 3, method=method)


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_crossing_mc_refuses_bad_sizes(q):
    with pytest.raises(ValueError, match="n_samples must be >= 1, not 0"):
        crossing_mc(2, 1, 0.5, q, "free", 0, 3)
    if q != 1.0:
        with pytest.raises(ValueError, match="thin must be >= 1, not 0"):
            crossing_mc(2, 1, 0.5, q, "free", 5, 3, thin=0)
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            crossing_mc(2, 1, 0.5, q, "free", 5, 3, burn_in=-1)


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("nx", [0, -1])
def test_crossing_mc_refuses_a_rectangle_without_width(nx, q):
    # at nx = 0 the left and right columns coincide, so every draw crosses
    with pytest.raises(ValueError, match="nx >= 1, not %d" % nx):
        crossing_mc(nx, 2, 0.5, q, "free", 100, 1)


@pytest.mark.parametrize("call,name,value", [
    (lambda: TorusRc(2.0, 2), "N", 2.0),
    (lambda: TorusRc(2, 2.0), "M", 2.0),
    (lambda: brute_force_census(1, 2.0, 1.5), "M", 2.0),
    (lambda: rc6v_verify(2, 4.0, 6.25), "M", 4.0),
    (lambda: cftp_batch(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, 2.5),
     "n_samples", 2.5),
    (lambda: chain_samples(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, 2.5, 2, 1),
     "n_samples", 2.5),
    (lambda: chain_samples(SQUARE, 0.5, 2.0, free_bc(SQUARE), 1, 2, 1.5, 1),
     "burn_in", 1.5),
    (lambda: mc_estimate(SQUARE, 0.5, 2.0, free_bc(SQUARE), lambda b: 1.0,
                         2.5, 1), "n_samples", 2.5),
    (lambda: crossing_mc(2, 1, 0.5, 2.0, "free", 2.5, 1), "n_samples", 2.5),
    (lambda: crossing_mc(2, 1, 0.5, 1.0, "free", 2.5, 1), "n_samples", 2.5),
], ids=["torus_N", "torus_M", "brute_force_census", "rc6v_verify",
        "cftp_batch", "chain_samples", "chain_burn_in", "mc_estimate",
        "crossing_mc_chain", "crossing_mc_direct"])
def test_sizes_refuse_non_integers_by_name(call, name, value):
    # each raised a bare TypeError from range or numpy before
    with pytest.raises(ValueError,
                       match="%s must be an integer, not %r$" % (name, value)):
        call()


def test_mc_estimate_chain_refuses_bad_schedule():
    bc = free_bc(SQUARE)
    for kw, match in (({"thin": 0}, "thin"), ({"burn_in": -5}, "burn_in")):
        with pytest.raises(ValueError, match=match):
            mc_estimate(SQUARE, 0.5, 2.0, bc, lambda b: 1.0, 4, 3,
                        method="chain", **kw)


@pytest.mark.parametrize("p,q,match", [
    (1.5, 2.0, r"p must be in \[0, 1\], not 1.5"),
    (-0.1, 0.5, r"p must be in \[0, 1\], not -0.1"),
    (0.5, -1.0, r"q must be > 0, not -1.0"),
    (0.5, 0.0, r"q must be > 0, not 0.0"),
    (0.5, float("nan"), r"q must be > 0, not nan")])
def test_chain_paths_refuse_p_and_q_out_of_range(p, q, match):
    g = build_rect((0, 2), (0, 1))
    bc = free_bc(g)
    calls = [lambda: chain_samples(g, p, q, bc, 1, 3, 2, 1),
             lambda: connect_mc(g, p, q, bc, (0, 0), (2, 1), 10, 1,
                                method="chain"),
             lambda: mc_estimate(g, p, q, bc, lambda b: 1.0, 10, 1,
                                 method="chain"),
             lambda: crossing_mc(2, 1, p, q, "free", 10, 1)]
    if q == 2.0:  # p alone is wrong: the direct q = 1 path refuses it too
        calls.append(lambda: crossing_mc(2, 1, p, 1.0, "free", 10, 1))
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


# ---------------------------------------------------------------------------
# the mask-encoded chain, the kept labels and the draws of each path


def _uf_chain(graph, bc, p, q, seed, n_samples, burn_in, thin):
    """Reference chain: the union-find conditional on every update."""
    thr_c, thr_d = thresholds(p, q)
    m = graph.n_edges
    bits, rows = [1] * m, []
    for t in range(burn_in + n_samples * thin):
        u = sweep_uniforms(seed, t, 1, m)[0]
        for k in range(m):
            conn = _uf_conn_off(graph, bc, bits, k)
            bits[k] = 1 if u[k] >= (thr_c if conn else thr_d) else 0
        if t >= burn_in and (t - burn_in + 1) % thin == 0:
            rows.append(list(bits))
    return rows


@pytest.mark.parametrize("q", [2.0, 0.5])
@pytest.mark.parametrize("graph,bc", _conditional_cases())
def test_table_chain_matches_union_find(graph, bc, q):
    assert graph.n_edges <= TABLE_MAX_EDGES  # the mask-encoded path
    got = chain_samples(graph, 0.55, q, bc, 31, 12, burn_in=7, thin=3)
    assert got.tolist() == _uf_chain(graph, bc, 0.55, q, 31, 12, 7, 3)


def _label_cases():
    cases = []
    for n in (2, 3):
        g = build_box(n)
        two_blocks = custom_bc(g, [[(-n, j) for j in range(-n, n + 1)],
                                   [(n, -n), (n, 0)]])
        cases += [(g, wired_bc(g)), (g, dobrushin_bc(g, (-n, -n), (n, n))),
                  (g, two_blocks)]
    return cases


@pytest.mark.parametrize("q", [2.0, 0.5])
@pytest.mark.parametrize("graph,bc", _label_cases())
def test_kept_labels_match_cluster_stats(graph, bc, q):
    # after every sweep: the state is the union-find chain's, and the kept
    # labels (one shared set per cluster) give cluster_stats' partition
    n, m = graph.n_vertices, graph.n_edges
    links, ends = _links(graph, bc)
    root = bc.roots(n)
    thr_c, thr_d = thresholds(0.5, q)
    bits = [1] * m
    lab = _clusters(ends, bits, n)
    expect = _uf_chain(graph, bc, 0.5, q, 17, 25, 0, 1)
    for t in range(25):
        _sweep(links, ends, bits, lab, sweep_uniforms(17, t, 1, m)[0].tolist(),
               thr_c, thr_d)
        assert bits == expect[t], t
        first = {}  # label -> its smallest vertex, cluster_stats' labels
        got = tuple(first.setdefault(id(lab[r]), v)
                    for v, r in enumerate(root))
        assert got == cluster_stats(graph, bits, bc)[1], t
        assert all(lab[w] is lab[v] for v in range(n) for w in lab[v]), t


@pytest.mark.parametrize("graph,bc", _conditional_cases())
def test_cftp_paths_agree_on_every_boundary(graph, bc):
    a = cftp_batch(graph, 0.55, 2.0, bc, 23, 64, use_tables=True)
    b = cftp_batch(graph, 0.55, 2.0, bc, 23, 64, use_tables=False)
    assert (a == b).all()


@pytest.mark.parametrize("graph", [SQUARE, build_box(2)])
def test_chain_draws_each_sweep_once(monkeypatch, graph):
    import critlat.sampler as sampler

    calls = []

    def counted(seed, epoch, n_rows, n_edges):
        calls.append((epoch, n_rows, n_edges))
        return sweep_uniforms(seed, epoch, n_rows, n_edges)

    monkeypatch.setattr(sampler, "sweep_uniforms", counted)
    chain_samples(graph, 0.5, 2.0, free_bc(graph), 5, 4, burn_in=3, thin=2)
    assert calls == [(t, 1, graph.n_edges) for t in range(3 + 4 * 2)]


def test_conn_off_tables_refuse_past_the_table_cap():
    g = build_rect((0, 2), (0, 2))
    assert g.n_edges == TABLE_MAX_EDGES
    assert conn_off_tables(g, free_bc(g)).shape == (12, 1 << 12)
    big = build_rect((0, 3), (0, 2))
    with pytest.raises(ValueError, match="limited to 12 edges"):
        conn_off_tables(big, free_bc(big))


def test_chi_square_gof_pools_the_tail_into_the_last_cell():
    # expected counts 1, 2.4, 4 pool into one cell and 4.1, 4.2 into a
    # second; the 4.3 left over joins the second
    expected = np.array([1.0, 4.0, 4.1, 4.2, 4.3, 2.4])
    masks = np.repeat(np.arange(6), [2, 3, 5, 4, 4, 2])
    stat, pval, dof = chi_square_gof(masks, expected / 20.0)
    want = (7 - 7.4) ** 2 / 7.4 + (13 - 12.6) ** 2 / 12.6
    assert dof == 1 and stat == pytest.approx(want, rel=1e-12)
    assert 0.0 < pval < 1.0


def test_chi_square_gof_refuses_masks_off_the_support():
    # 6 of the 8 draws are a mask that two exact probabilities cannot hold
    with pytest.raises(ValueError, match=r"mask 5 not in range\(2\)"):
        chi_square_gof(np.array([0, 1, 5, 5, 5, 5, 5, 5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"mask -1 not in range\(2\)"):
        chi_square_gof(np.array([0, 1, -1]), np.array([0.5, 0.5]))


def test_chi_square_gof_with_one_cell_has_no_test():
    # 3 draws expect fewer than 5 in total: one pooled cell, no dof
    assert chi_square_gof(np.array([0, 1, 1]), [0.5, 0.5]) == (0.0, 1.0, 0)
    assert chi_square_gof(np.arange(6), [1 / 6] * 6) == (0.0, 1.0, 0)
