"""Current sums checked against brute force, spins, and each other."""

import inspect
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlat import currents, oracle
from critlat.currents import (
    connected_trace,
    double_current_event,
    double_current_sum,
    even_overlap_trace,
    parity_masks,
    simon_report,
    switching_tail_bound,
    truncated_ineq_checks,
    u4_value,
    verify_switching,
)
from critlat.lattice import LatticeGraph, build_box, build_rect
from critlat.oracle import ising_moment, potts_two_point
from reference import (
    _refused_before_allocating,
    current_weight,
    single_current_sum,
    squared_correlation_gap,
)

SQUARE = build_rect((0, 1), (0, 1))
GRID23 = build_rect((0, 1), (0, 2))
PATH2 = LatticeGraph([(0, 0), (1, 0), (2, 0)],
                     [((0, 0), (1, 0)), ((1, 0), (2, 0))])
CUBE_VERTICES = list(itertools.product((0, 1), repeat=3))
CUBE = LatticeGraph(CUBE_VERTICES,
                    [(u, v) for u in CUBE_VERTICES for v in CUBE_VERTICES
                     if u < v and sum(abs(a - b) for a, b in zip(u, v)) == 1])


def test_even_subgraphs_of_cycle():
    # cycle space of the 4-cycle has dimension 1
    assert sorted(parity_masks(SQUARE, ())) == [0, 0b1111]
    # sourceless subgraphs of a tree: only the empty one
    assert list(parity_masks(PATH2, ())) == [0]


def test_parity_masks_adjacent_pair():
    # two arcs join adjacent corners of the cycle
    arcs = parity_masks(SQUARE, [(0, 0), (1, 0)])
    assert len(arcs) == 2
    for mask in arcs:
        deg = [0] * SQUARE.n_vertices
        for k, (u, v) in enumerate(SQUARE.edges):
            if mask >> k & 1:
                deg[SQUARE.vertex_index[u]] += 1
                deg[SQUARE.vertex_index[v]] += 1
    odd = [i for i, d in enumerate(deg) if d % 2]
    assert odd == sorted(SQUARE.vertex_index[x] for x in [(0, 0), (1, 0)])


# the 7-edge rect after 70 isolated vertices: every edge touches a vertex
# whose index is past 63
RECT7_ISOLATED = LatticeGraph(
    [(-1 - i, 0) for i in range(70)] + list(build_rect((0, 2), (0, 1)).vertices),
    build_rect((0, 2), (0, 1)).edges)


@pytest.mark.parametrize("graph", [PATH2, SQUARE, GRID23, CUBE, RECT7_ISOLATED],
                         ids=["path2", "cycle4", "grid23", "cube",
                              "rect7_isolated"])
def test_parity_masks_match_degree_parity(graph):
    touched = sorted({graph.vertices[i] for e in graph.edge_ends for i in e})
    x, y, z = touched[0], touched[-1], touched[1]
    source_sets = [(), (x, y), (x, y, z)]
    isolated = [v for v in graph.vertices if v not in touched]
    if isolated:
        source_sets.append((x, isolated[-1]))
    for sources in source_sets:
        want = sorted(graph.vertex_index[v] for v in sources)
        ref = []
        for mask in range(1 << graph.n_edges):
            deg = [0] * graph.n_vertices
            for k, (u, v) in enumerate(graph.edge_ends):
                if mask >> k & 1:
                    deg[u] ^= 1
                    deg[v] ^= 1
            if [i for i, d in enumerate(deg) if d] == want:
                ref.append(mask)
        assert parity_masks(graph, sources) == ref
    if isolated:
        assert parity_masks(graph, (x, isolated[-1])) == []
        assert graph.vertex_index[x] > 63


def test_exact_currents_on_22_edges():
    g = build_rect((0, 4), (0, 2))
    assert g.n_edges == 22
    assert squared_correlation_gap(g, (0, 0), (4, 2), 0.4) <= 1e-13
    rep = verify_switching(g, [(0, 0), (1, 0)], [(0, 0), (4, 2)], 0.4)
    assert rep["gap"] <= 1e-13 * rep["lhs"] and rep["tail_bound"] == 0.0
    # the 2^22 int64 parity words take 32 MiB
    tracemalloc.start()
    try:
        parity_masks(g, [(0, 0), (4, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_odd_sources_infeasible():
    assert parity_masks(SQUARE, [(0, 0)]) == []
    assert single_current_sum(SQUARE, [(0, 0)], 0.7) == 0.0


def test_current_weight():
    assert current_weight([2, 0, 1], 0.5) == pytest.approx(0.5 ** 3 / 2.0)
    assert current_weight([0, 0], 1.3) == 1.0


@pytest.mark.parametrize("beta", [0.25, 0.6, 1.1])
def test_hte_matches_spin_oracle(beta):
    for A in ([(0, 0), (1, 2)], [(0, 1), (1, 1)],
              [(0, 0), (1, 0), (0, 2), (1, 2)]):
        hte = (single_current_sum(GRID23, A, beta)
               / single_current_sum(GRID23, (), beta))
        assert abs(hte - ising_moment(GRID23, beta, A)) < 1e-10
        assert hte >= 0.0  # first Griffiths inequality


def test_consistency_triangle():
    # spin moment, tanh-weight ratio and current ratio; the tanh-weight
    # ratio is one of single sums, so the current ratio is read off the
    # double sums Z_xy Z_0 / Z_0 Z_0
    beta, x, y = 0.6, (0, 0), (1, 2)
    spin = potts_two_point(GRID23, 2, beta, x, y)
    hte = (single_current_sum(GRID23, [x, y], beta)
           / single_current_sum(GRID23, (), beta))
    ratio = (double_current_sum(GRID23, [x, y], (), beta)
             / double_current_sum(GRID23, (), (), beta))
    assert abs(spin - hte) < 1e-10
    assert abs(ratio - hte) < 1e-12


def brute_single_sum(graph, A, beta, n_max):
    want = sorted(graph.vertex_index[tuple(x)] for x in A)
    total = 0.0
    for values in itertools.product(range(n_max + 1),
                                    repeat=graph.n_edges):
        deg = [0] * graph.n_vertices
        for k, (u, v) in enumerate(graph.edges):
            deg[graph.vertex_index[u]] += values[k]
            deg[graph.vertex_index[v]] += values[k]
        if [i for i, d in enumerate(deg) if d % 2] == want:
            total += current_weight(values, beta)
    return total


def test_single_current_sum_brute_force():
    # the brute-force caps leave out under 2e-15 of each sum
    for A in ((), [(0, 0), (2, 0)], [(0, 0), (1, 0)]):
        got = single_current_sum(PATH2, A, 0.7)
        assert got == pytest.approx(brute_single_sum(PATH2, A, 0.7, 20),
                                    rel=1e-12)
    got = single_current_sum(SQUARE, [(0, 0), (0, 1)], 0.9)
    assert got == pytest.approx(brute_single_sum(SQUARE, [(0, 0), (0, 1)],
                                                 0.9, 16), rel=1e-12)


@pytest.mark.parametrize("A,B", [((), ()),
                                 ([(0, 0), (1, 0)], [(0, 0), (0, 1)]),
                                 ([(0, 0), (1, 0)], ())])
def test_double_current_sum_brute_force(A, B):
    # the left side of the multigraph enumeration, which
    # test_switching_sides_brute_force checks against brute force; at
    # n_max = 24 its switching_tail_bound is 2e-17 here
    rng = np.random.default_rng(5)
    for trace in (rng.random(1 << SQUARE.n_edges), None):
        got = double_current_sum(SQUARE, A, B, 0.8, trace=trace)
        want = verify_switching(SQUARE, A, B, 0.8, n_max=24, trace=trace)
        assert got == pytest.approx(want["lhs"], rel=1e-12)


def brute_switch_sides(graph, A, B, beta, n_max, trace):
    """Pairs capped by the sum n1 + n2 <= n_max per edge."""
    wa = sorted(graph.vertex_index[tuple(x)] for x in A)
    wb = sorted(graph.vertex_index[tuple(x)] for x in B)
    wx = sorted(graph.vertex_index[tuple(x)]
                for x in set(map(tuple, A)) ^ set(map(tuple, B)))
    ends = [(graph.vertex_index[u], graph.vertex_index[v])
            for u, v in graph.edges]
    fb = even_overlap_trace(graph, B)

    def sources(values):
        deg = [0] * graph.n_vertices
        for k, (a, b) in enumerate(ends):
            deg[a] += values[k]
            deg[b] += values[k]
        return [i for i, d in enumerate(deg) if d % 2]

    space = list(itertools.product(range(n_max + 1), repeat=graph.n_edges))
    lhs = rhs = 0.0
    for v1 in space:
        for v2 in space:
            s = [a + b for a, b in zip(v1, v2)]
            if max(s) > n_max:
                continue
            supp = sum(1 << k for k, t in enumerate(s) if t > 0)
            w = (current_weight(v1, beta) * current_weight(v2, beta)
                 * (1.0 if trace is None else trace[supp]))
            s1 = sources(v1)
            if s1 == wa and sources(v2) == wb:
                lhs += w
            if s1 == wx and sources(v2) == [] and fb[supp]:
                rhs += w
    return lhs, rhs


def test_switching_sides_brute_force():
    rng = np.random.default_rng(11)
    trace = rng.random(1 << SQUARE.n_edges)
    A, B = [(0, 0), (1, 0)], [(0, 0), (1, 1)]
    for tr in (None, trace):
        rep = verify_switching(SQUARE, A, B, 0.8, n_max=3, trace=tr)
        lhs, rhs = brute_switch_sides(SQUARE, A, B, 0.8, 3, tr)
        assert rep["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert rep["rhs"] == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("graph", [SQUARE, GRID23], ids=["cycle4", "grid23"])
@pytest.mark.parametrize("beta", [0.3, 0.6])
def test_switching_identity(graph, beta):
    verts = graph.vertices
    A = [verts[0], verts[1]]
    B = [verts[0], verts[-1]]
    rep = verify_switching(graph, A, B, beta)
    assert rep["ok"]
    assert rep["gap"] <= 1e-8
    assert rep["gap"] <= 1e-13 * max(1.0, rep["lhs"])


def test_switching_with_trace_functional():
    trace = connected_trace(SQUARE, (0, 0), (1, 1))
    rep = verify_switching(SQUARE, [(0, 0), (1, 0)], [(0, 0), (1, 0)],
                           0.6, trace=trace)
    assert rep["ok"] and rep["gap"] <= 1e-8


def _odd_vertices(graph, values):
    deg = [0] * graph.n_vertices
    for t, (a, b) in zip(values, graph.edge_ends):
        deg[a] += t
        deg[b] += t
    return tuple(i for i, d in enumerate(deg) if d % 2)


@pytest.mark.parametrize("graph", [PATH2, SQUARE, GRID23],
                         ids=["path2", "cycle4", "grid23"])
def test_multigraphs_built_of_the_right_parity_only(graph):
    # the generate-and-filter reference: every multigraph with entries
    # <= n_max, kept when its odd vertices are the source set
    v = graph.vertices
    sources = [(), [v[0], v[1]], [v[1], v[-1]], [v[0], v[-1]], v[:4], [v[0]]]
    for n_max in range(4):
        by_odd = {}
        for s in itertools.product(range(n_max + 1), repeat=graph.n_edges):
            by_odd.setdefault(_odd_vertices(graph, s), set()).add(s)
        for S in sources:
            want = by_odd.get(tuple(sorted(graph.index(x) for x in S)), set())
            words, blocks = currents._parity_blocks(graph, n_max, S)
            assert len(words) == len(blocks)
            assert all(len(b) == graph.n_edges for b in blocks)
            rows = [r for b in blocks
                    for r in itertools.product(*(a.tolist() for a in b))]
            assert len(rows) == len(want) and set(rows) == want


def test_capped_switching_on_odd_sources_and_zero_cap():
    trace = np.random.default_rng(8).random(1 << SQUARE.n_edges)
    v = SQUARE.vertices
    cases = [([v[0]], (), 2), ([v[0], v[1]], [v[2]], 2),
             ([v[0], v[1]], [v[0], v[3]], 0), ((), (), 0),
             ([v[0], v[1]], [v[0], v[1]], 0), ([v[0]], [v[1], v[2]], 0)]
    for A, B, n_max in cases:
        for tr in (None, trace):
            rep = verify_switching(SQUARE, A, B, 0.8, n_max=n_max, trace=tr)
            lhs, rhs = brute_switch_sides(SQUARE, A, B, 0.8, n_max, tr)
            assert (rep["lhs"], rep["rhs"]) == (lhs, rhs)
            assert rep["ok"] == (lhs == rhs)
            if (len(A) + len(B)) % 2:
                assert rep["lhs"] == rep["rhs"] == 0.0 and rep["ok"]


def test_switching_gap_stays_at_roundoff():
    # the capped multigraph family is closed under source swapping, so
    # the gap never grows with the cap
    for n in (2, 4, 6, 8):
        rep = verify_switching(SQUARE, [(0, 0), (1, 0)], [(0, 1), (1, 1)],
                               0.9, n_max=n)
        assert rep["gap"] <= 1e-12
        assert rep["gap"] <= rep["tail_bound"]


@pytest.mark.parametrize("beta", [0.3, 0.9])
def test_exact_switching_sides_match_deep_multigraphs(beta):
    # at n_max = 24 the discarded multigraph mass is below 1e-18 here
    rng = np.random.default_rng(3)
    traces = (None, rng.random(1 << SQUARE.n_edges),
              connected_trace(SQUARE, (0, 0), (1, 1)))
    for A, B in (([(0, 0), (1, 0)], [(0, 0), (1, 1)]),
                 ([(0, 1), (1, 0)], [(0, 1), (1, 0)])):
        for trace in traces:
            exact = verify_switching(SQUARE, A, B, beta, trace=trace)
            deep = verify_switching(SQUARE, A, B, beta, n_max=24, trace=trace)
            assert exact["n_max"] is None and exact["tail_bound"] == 0.0
            for side in ("lhs", "rhs"):
                assert exact[side] == pytest.approx(deep[side], rel=1e-12)


@pytest.mark.parametrize("graph", [SQUARE, GRID23, CUBE],
                         ids=["cycle4", "grid23", "cube"])
def test_exact_identities_at_roundoff(graph):
    v = graph.vertices
    for beta in (0.1, 0.4, 1.0):
        for trace in (None, connected_trace(graph, v[1], v[-1])):
            rep = verify_switching(graph, [v[0], v[1]], [v[0], v[-1]], beta,
                                   trace=trace)
            assert rep["ok"] and rep["tail_bound"] == 0.0
            assert rep["gap"] <= 1e-13 * max(1.0, rep["lhs"])
        assert squared_correlation_gap(graph, v[0], v[-1], beta) <= 1e-13
        assert double_current_event(graph, (), beta) == 1.0


# outputs of the earlier implementation, pinned so that the exact sums stay
# where they were: single sums for () and (x, y), double sums for
# ((x, v1), (x, y)) and for ((v1, y), ()) with F = 1[x <-> y], and the
# probabilities of x <-> y under sources () and (x, v1)
PREVIOUS_SUMS = {
    "cycle4": (SQUARE, 0.9, (5.328194770765662, 4.328194770765661,
                             19.785753068221073, 19.785753068221076,
                             0.6598624391266021, 0.812319173186625)),
    "grid23": (GRID23, 0.6, (3.9165430831847985, 1.675916598357044,
                             4.30815070224979, 4.3081507022497885,
                             0.18310448745547453, 0.3746318255898514)),
    "cube": (CUBE, 0.4, (2.9996141679352513, 1.0130005483546123,
                         1.5518895276107, 1.5518895276107014,
                         0.11404823497607698, 0.258536113726256)),
    "rect22": (build_rect((0, 4), (0, 2)), 0.4, (
        6.763434826229656, 0.36295666114525865, 1.0828553471582565,
        1.0828553471582574, 0.0028798835258719373, 0.008421964286046302)),
}


@pytest.mark.parametrize("name", list(PREVIOUS_SUMS))
def test_exact_sums_match_previous_values(name):
    graph, beta, want = PREVIOUS_SUMS[name]
    v = graph.vertices
    x, y = v[0], v[-1]
    conn = connected_trace(graph, x, y)
    got = (single_current_sum(graph, (), beta),
           single_current_sum(graph, [x, y], beta),
           double_current_sum(graph, [x, v[1]], [x, y], beta),
           double_current_sum(graph, [v[1], y], (), beta, trace=conn),
           double_current_event(graph, (), beta, trace=conn),
           double_current_event(graph, [x, v[1]], beta, trace=conn))
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-14, abs=0.0)


def test_only_the_switching_reference_takes_n_max():
    takes = {name for name, f in inspect.getmembers(currents, inspect.isfunction)
             if f.__module__ == currents.__name__ and not name.startswith("_")
             and "n_max" in inspect.signature(f).parameters}
    assert takes == {"verify_switching", "switching_tail_bound"}


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.05, 0.9),
       ia=st.integers(1, 3), ib=st.integers(1, 3))
def test_switching_gap_below_tail(beta, ia, ib):
    A = [SQUARE.vertices[0], SQUARE.vertices[ia]]
    B = [SQUARE.vertices[0], SQUARE.vertices[ib]]
    rep = verify_switching(SQUARE, A, B, beta)
    assert rep["gap"] <= max(rep["tail_bound"], 1e-12)


def test_tail_bounds_decrease():
    tails = [switching_tail_bound(SQUARE, 0.6, n) for n in (2, 4, 8, 12, 16)]
    assert tails == sorted(tails, reverse=True)
    assert tails[-1] < 1e-8


def test_multigraph_cap_refused():
    with pytest.raises(ValueError, match="refusing"):
        verify_switching(build_box(2), [(0, 0), (1, 0)],
                         [(0, 0), (0, 1)], 0.5)
    # 58,627,872 multigraphs in 16 parity blocks on the 12 edges of box(1)
    # at n_max = 6, past MULTIGRAPH_CAP; counted, not built
    g = build_box(1)
    _refused_before_allocating(
        lambda: verify_switching(g, [(0, 0), (1, 0)], [(0, 0), (0, 1)], 0.5,
                                 n_max=6), "refusing to enumerate 58627872")


def test_squared_correlation_is_sourceless_connection():
    for graph, x, y in ((SQUARE, (0, 0), (1, 1)),
                        (GRID23, (0, 0), (1, 2))):
        assert squared_correlation_gap(graph, x, y, 0.5) <= 1e-10


def test_double_current_event_bounds():
    trace = even_overlap_trace(SQUARE, [(0, 0), (1, 1)])
    prob = double_current_event(SQUARE, [(0, 0), (1, 1)], 0.6, trace=trace)
    assert 0.0 <= prob <= 1.0
    assert double_current_event(SQUARE, (), 0.6) == 1.0


def test_double_current_event_refuses_infeasible_sources():
    # odd source sets, and a source on a vertex that no edge touches
    trace = connected_trace(SQUARE, (0, 0), (1, 1))
    for graph, B in ((SQUARE, [(0, 0)]), (SQUARE, [(0, 0), (1, 0), (1, 1)]),
                     (RECT7_ISOLATED, [(0, 0), (-70, 0)])):
        for tr in (None, trace if graph is SQUARE else None):
            with pytest.raises(ValueError, match=re.escape(repr(B))):
                double_current_event(graph, B, 0.6, trace=tr)


def test_event_and_gap_enumerate_each_source_set_once(monkeypatch):
    calls = []
    real = currents.parity_masks

    def counted(graph, sources):
        calls.append(list(sources))
        return real(graph, sources)

    monkeypatch.setattr(currents, "parity_masks", counted)
    x, y = (0, 0), (1, 2)
    squared_correlation_gap(GRID23, x, y, 0.6)
    assert calls == [[]]
    calls.clear()
    double_current_event(GRID23, [x, y], 0.6, connected_trace(GRID23, x, y))
    assert calls == [[x, y], []]


def test_u4_nonpositive():
    quad = [(0, 0), (1, 0), (0, 2), (1, 1)]
    for beta in (0.2, 0.6, 1.3):
        assert u4_value(GRID23, beta, quad) <= 1e-12


def test_simon_inequality_and_witness():
    grid = build_rect((0, 2), (0, 1))
    rep = simon_report(grid, 0.5, (0, 0), (2, 1), [(1, 0), (1, 1)])
    assert rep["ok"] and rep["slack"] >= -1e-12
    with pytest.raises(ValueError, match="open path"):
        simon_report(grid, 0.5, (0, 0), (2, 1), [(1, 0)])


def test_simon_names_the_joining_cluster():
    # (5, 0) is a component of its own, so it is not in the witness
    grid = build_rect((0, 2), (0, 1))
    g = LatticeGraph(grid.vertices + ((5, 0),), grid.edges)
    with pytest.raises(ValueError, match="open path") as info:
        simon_report(g, 0.5, (0, 0), (2, 1), [(1, 0)])
    assert "[(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]" in str(info.value)


def test_simon_equality_on_tree():
    # correlations factorize through the middle vertex of a path
    rep = simon_report(PATH2, 0.8, (0, 0), (2, 0), [(1, 0)])
    assert abs(rep["lhs"] - rep["rhs"]) < 1e-12
    assert abs(rep["lhs"] - math.tanh(0.8) ** 2) < 1e-12


def test_truncated_ineq_checks():
    rep = truncated_ineq_checks(GRID23, 0.6,
                                [(0, 0), (1, 0), (0, 2), (1, 1)],
                                ((0, 0), (1, 2), [(0, 1), (1, 1)]))
    assert rep["ok"] and rep["u4_ok"] and rep["simon"]["ok"]


def test_parity_masks_refused_before_allocating(monkeypatch):
    # 31 edges: 2^31 masks at 17 bytes of parity words each, about 36 GB
    big = build_rect((0, 4), (0, 3))
    assert big.n_edges == 31
    _refused_before_allocating(lambda: single_current_sum(big, [(0, 0), (4, 3)], 0.3),
                               "edges")
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 1 << 10)
    _refused_before_allocating(lambda: parity_masks(GRID23, ()), "bytes")


def test_exact_currents_refused_before_allocating():
    big = build_rect((0, 4), (0, 3))
    assert big.n_edges == 31
    ends = [(0, 0), (4, 3)]
    _refused_before_allocating(lambda: verify_switching(big, ends, ends, 0.3),
                               "edges")
    _refused_before_allocating(lambda: double_current_sum(big, ends, (), 0.3),
                               "edges")


def test_n_max_past_int8_refused_before_allocating():
    # n_max = 127 is the largest cap; past 170 the factorials overflow a
    # float
    edge = build_rect((0, 1), (0, 0))
    ends = [(0, 0), (1, 0)]
    rep = verify_switching(edge, ends, ends, 0.3, n_max=127)
    assert rep["ok"]
    assert abs(rep["lhs"] - rep["rhs"]) <= 1e-12 * rep["rhs"]
    calls = [
        lambda n: verify_switching(edge, ends, ends, 0.3, n_max=n),
        lambda n: switching_tail_bound(edge, 0.3, n),
    ]
    for call in calls:
        _refused_before_allocating(lambda: call(128), r"\[0, 127\]")
        for n_max in (171, -1):
            with pytest.raises(ValueError, match=r"\[0, 127\]"):
                call(n_max)


@pytest.mark.parametrize("n_max", [2.5, 2.0, "3"])
def test_n_max_refuses_non_integers_by_name(n_max):
    # 2.5 passed the range check and failed in math.factorial
    edge = build_rect((0, 1), (0, 0))
    ends = [(0, 0), (1, 0)]
    for call in (lambda: verify_switching(edge, ends, ends, 0.3, n_max=n_max),
                 lambda: switching_tail_bound(edge, 0.3, n_max)):
        with pytest.raises(ValueError,
                           match="n_max must be an integer, not %r$" % (n_max,)):
            call()


def test_multigraphs_refused_past_byte_budget(monkeypatch):
    # 26,532 multigraphs pass MULTIGRAPH_CAP, but the largest of their four
    # blocks, 9,216 at 80 bytes each, does not fit a 64 KiB budget
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 64 << 10)
    g = build_rect((0, 2), (0, 1))
    assert g.n_edges == 7
    _refused_before_allocating(
        lambda: verify_switching(g, [(0, 0), (2, 1)], [(0, 0), (1, 0)], 0.4,
                                 n_max=6), "bytes")


def test_repeated_sources_and_separator_endpoints_refused():
    with pytest.raises(ValueError, match="distinct vertices"):
        parity_masks(SQUARE, [(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="outside the separating set"):
        simon_report(GRID23, 0.5, (0, 0), (1, 2), [(0, 0), (1, 1)])


_BETA_CALLS = {
    "single_current_sum": lambda b: single_current_sum(SQUARE, [], b),
    "double_current_sum": lambda b: double_current_sum(SQUARE, [], [], b),
    "double_current_event": lambda b: double_current_event(SQUARE, [], b),
    "switching_tail_bound": lambda b: switching_tail_bound(SQUARE, b, 3),
    "verify_switching": lambda b: verify_switching(SQUARE, [], [], b),
    "squared_correlation_gap": lambda b: squared_correlation_gap(
        SQUARE, (0, 0), (1, 1), b),
    "ising_moment": lambda b: ising_moment(SQUARE, b, [(0, 0)]),
    "p_dual": lambda p: oracle.p_dual(p, 2.0),
}


@pytest.mark.parametrize("name", sorted(_BETA_CALLS))
def test_non_finite_beta_and_p_refused_before_any_table(monkeypatch, name):
    def no_table(n_bytes, what):
        raise AssertionError("charged %s before the refusal" % what)

    for module in (oracle, currents):
        monkeypatch.setattr(module, "_check_budget", no_table)
    arg = "p" if name == "p_dual" else "beta"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^%s must be .*, not %r$"
                           % (arg, bad)):
            _BETA_CALLS[name](bad)
