"""Hexagonal-lattice self-avoiding walks: strip identity, observable, counts."""

import cmath
import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlat import oracle, saw
from critlat.saw import (
    A_MID,
    DIRS,
    SAW_COUNT_CAP,
    SIGMA,
    X_C,
    HexDomain,
    _midedge_sums,
    dir_indices,
    identity_check,
    observable,
    saw_counts,
    strip_domain,
    strip_quantities,
    vertex_relation,
)
from reference import to_complex, turn_sign

COS38 = math.cos(3 * math.pi / 8)
COS14 = math.cos(math.pi / 4)

# exact honeycomb walk counts; the walk sequence is classical
C_KNOWN = [1, 3, 6, 12, 24, 48, 90, 174, 336, 648, 1218, 2328, 4416]
B_KNOWN = [1, 1, 2, 2, 6, 6, 18, 18, 54, 54, 170, 170, 542]

# c_n for n = 0..18 (OEIS A001668)
A001668 = [1, 3, 6, 12, 24, 48, 90, 174, 336, 648, 1218, 2328, 4416, 8388,
           15780, 29892, 56268, 106200, 199350]


def test_strip_domain_smallest():
    d = strip_domain(1, 0)
    assert d.vertices == frozenset({(2, 0), (4, 2), (4, -2)})
    assert d.alpha == frozenset({A_MID})
    assert d.beta == frozenset({(6, 2), (6, -2)})
    assert d.eps_top == frozenset({(3, 3)})
    assert d.eps_bot == frozenset({(3, -3)})
    assert d.interior == frozenset({(3, 1), (3, -1)})


def test_strip_domain_degenerate_width():
    # no vertices at all; the empty walk ends on the coincident east line
    d = strip_domain(0, 3)
    assert d.vertices == frozenset()
    assert d.mid_edges() == {A_MID}
    assert d.beta == frozenset({A_MID})


def test_strip_domain_refuses_a_non_integer_width():
    with pytest.raises(ValueError, match=r"T must be an integer, not 2\.5"):
        strip_domain(2.5, 1)


def test_strip_domain_refuses_a_non_integer_height():
    with pytest.raises(ValueError, match=r"L must be an integer, not 1\.5"):
        strip_domain(2, 1.5)


def test_strip_domain_rejects_negative():
    with pytest.raises(ValueError):
        strip_domain(-1, 0)
    with pytest.raises(ValueError):
        strip_domain(2, -2)


@pytest.mark.parametrize("T,L", [(1, 0), (1, 2), (2, 0), (2, 2), (3, 1)])
def test_midedge_classes_partition_and_face_the_right_way(T, L):
    d = strip_domain(T, L)
    groups = [d.interior, d.alpha, d.beta, d.eps_top, d.eps_bot]
    assert sum(len(g) for g in groups) == len(d.mid_edges())
    assert A_MID in d.alpha
    for (mx, my) in d.alpha:
        assert mx == 0 and (mx + 2, my) in d.vertices
    for (mx, my) in d.beta:
        assert mx == 6 * T and (mx - 2, my) in d.vertices
    for (mx, my) in d.eps_top:
        # north-west stick-outs only: inside endpoint sits south-east
        assert (mx + 1, my - 1) in d.vertices
        assert (mx - 1, my + 1) not in d.vertices
    for (mx, my) in d.eps_bot:
        assert (mx + 1, my + 1) in d.vertices
        assert (mx - 1, my - 1) not in d.vertices
    for (mx, my) in d.interior:
        if mx % 2 == 0:
            pairs = [[(mx + 2, my), (mx - 2, my)]]
        else:
            pairs = [[(mx + 1, my + 1), (mx - 1, my - 1)],
                     [(mx + 1, my - 1), (mx - 1, my + 1)]]
        assert any(all(v in d.vertices for v in p) for p in pairs)


def test_vertices_carry_three_midedges():
    d = strip_domain(2, 1)
    mids = d.mid_edges()
    for (vx, vy) in d.vertices:
        for k in dir_indices(vx):
            dx, dy = DIRS[k]
            assert (vx + dx // 2, vy + dy // 2) in mids


def test_observable_golden_smallest_strip():
    # S(1, 0) has eight mid-edges and every walk is one of five; all values
    # are products of x_c powers and sixth-root phases
    f = observable(strip_domain(1, 0))
    x = X_C
    expect = {
        (0, 0): 1.0 + 0.0j,
        (3, 1): x * cmath.exp(-1j * 5 * math.pi / 24),
        (3, -1): x * cmath.exp(1j * 5 * math.pi / 24),
        (6, 2): x * x + 0j,
        (6, -2): x * x + 0j,
        (3, 3): x * x * cmath.exp(-1j * 5 * math.pi / 12),
        (3, -3): x * x * cmath.exp(1j * 5 * math.pi / 12),
    }
    assert set(f) == set(expect)
    for m, val in expect.items():
        assert abs(f[m] - val) < 1e-15


def test_observable_mirror_symmetry():
    f = observable(strip_domain(2, 2))
    for (mx, my), val in f.items():
        assert abs(f[(mx, -my)] - val.conjugate()) < 1e-13


def test_boundary_windings_are_deterministic():
    # every walk reaches alpha with winding +-pi, beta with 0 and the two
    # cuts with +-2pi/3, so F there is a positive multiple of one phase
    d = strip_domain(3, 2)
    f = observable(d)
    sig = SIGMA
    for m in d.alpha:
        if m == A_MID:
            continue
        w = math.pi if m[1] > 0 else -math.pi
        z = f[m] * cmath.exp(1j * sig * w)
        assert abs(z.imag) < 1e-13 and z.real > 0
    for m in d.beta:
        assert abs(f[m].imag) < 1e-13 and f[m].real > 0
    for m in d.eps_top | d.eps_bot:
        w = 2 * math.pi / 3 if m[1] > 0 else -2 * math.pi / 3
        z = f[m] * cmath.exp(1j * sig * w)
        assert abs(z.imag) < 1e-13 and z.real > 0


def test_no_walk_returns_to_a():
    # the start half-edge is traversed by every walk, so F(a) is exactly the
    # empty-walk contribution even at x = 1
    f = observable(strip_domain(2, 1), x=1.0, sigma=0.0)
    assert f[A_MID] == 1.0 + 0.0j


def test_strip_quantities_closed_forms():
    # S(1,0) and S(1,1) enumerate by hand for every x
    for x in (0.3, X_C, 0.8):
        q = strip_quantities(1, 0, x)
        assert abs(q.A) < 1e-15
        assert abs(q.B - 2 * x ** 2) < 1e-14
        assert abs(q.E - 2 * x ** 2) < 1e-14
        assert q.max_length == 2
        q = strip_quantities(1, 1, x)
        assert abs(q.A - 2 * x ** 3) < 1e-14
        assert abs(q.B - (2 * x ** 2 + 2 * x ** 4)) < 1e-14
        assert abs(q.E - 2 * x ** 4) < 1e-14
        assert q.max_length == 4


def test_strip_quantities_zero_weight():
    q = strip_quantities(2, 1, 0.0)
    assert q.A == q.B == q.E == 0.0


def test_strip_quantities_monotone_in_height():
    for x in (0.3, X_C):
        prev_a, prev_b = -1.0, -1.0
        for L in range(4):
            q = strip_quantities(2, L, x)
            assert q.A >= prev_a and q.B >= prev_b
            prev_a, prev_b = q.A, q.B


@given(st.integers(1, 2), st.integers(0, 2),
       st.floats(0.05, 0.9), st.floats(0.05, 0.9))
@settings(max_examples=25, deadline=None)
def test_strip_quantities_monotone_in_x(T, L, x1, x2):
    lo, hi = sorted((x1, x2))
    qlo = strip_quantities(T, L, lo)
    qhi = strip_quantities(T, L, hi)
    assert qlo.A <= qhi.A + 1e-12
    assert qlo.B <= qhi.B + 1e-12
    assert qlo.E <= qhi.E + 1e-12


@pytest.mark.parametrize("T", range(4))
@pytest.mark.parametrize("L", range(4))
def test_identity_at_critical_weight(T, L):
    assert identity_check(T, L) < 1e-12


def test_identity_larger_strips():
    assert identity_check(4, 0) < 1e-12
    assert identity_check(4, 1) < 1e-12
    # 63 vertices and the outside id fill exactly one uint64 word
    assert len(strip_domain(3, 4).vertices) + 1 == 64
    assert identity_check(3, 4) < 1e-12


def test_identity_detects_off_critical_weight():
    assert identity_check(2, 2, X_C * 1.001) > 1e-4
    assert identity_check(2, 2, 0.3) > 1e-2


def test_vertex_relation_at_critical_point():
    for T, L in [(1, 0), (1, 1), (2, 2), (3, 1)]:
        assert vertex_relation(strip_domain(T, L)) < 1e-12


def test_vertex_relation_needs_the_right_spin():
    assert vertex_relation(strip_domain(2, 2), sigma=0.5) > 1e-3


def test_vertex_relation_needs_the_right_weight():
    assert vertex_relation(strip_domain(2, 2), x=1.01 * X_C) > 1e-4


def test_vertex_relation_refuses_non_finite_weights():
    d = strip_domain(2, 1)
    for bad in (float("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite, not %r" % bad):
            vertex_relation(d, bad)
        with pytest.raises(ValueError, match="sigma must be finite, not %r"
                           % bad):
            vertex_relation(d, sigma=bad)


def test_vertex_relation_fails_on_a_nan_residual(monkeypatch):
    # max(worst, nan) keeps worst, so a NaN observable would pass as exact
    d = strip_domain(2, 1)
    fv = dict.fromkeys(observable(d), complex("nan"))
    monkeypatch.setattr(saw, "observable", lambda *args: fv)
    assert math.isnan(vertex_relation(d))


def test_walk_counts_exact():
    c, b = saw_counts(12)
    assert c == C_KNOWN
    assert b == B_KNOWN
    assert c[1] == 3 and c[2] == 6


def test_walk_counts_cap():
    with pytest.raises(ValueError):
        saw_counts(25)
    with pytest.raises(ValueError):
        saw_counts(-1)


def test_walk_counts_refuse_a_non_integer_length():
    with pytest.raises(ValueError,
                       match=r"n_max must be an integer, not 3\.5"):
        saw_counts(3.5)


def _naive_counts(n_max):
    """All 3^n neighbour sequences, filtered on repeated vertices."""
    start = (-2, 0)
    c = [1] + [0] * n_max
    b = [1] + [0] * n_max
    paths = [[start]]
    for n in range(1, n_max + 1):
        nxt = []
        for p in paths:
            vx, vy = p[-1]
            for k in dir_indices(vx):
                dx, dy = DIRS[k]
                nxt.append(p + [(vx + dx, vy + dy)])
        paths = nxt
        for p in paths:
            if len(set(p)) != len(p):
                continue
            c[n] += 1
            xs = [v[0] for v in p[1:]]
            if min(xs) > start[0] and p[-1][0] == max(xs):
                b[n] += 1
        paths = [p for p in paths if len(set(p)) == len(p)]
    return c, b


def test_walk_counts_match_naive_enumeration():
    c, b = saw_counts(7)
    nc, nb = _naive_counts(7)
    assert c == nc
    assert b == nb


def test_walk_counts_submultiplicative():
    c, _ = saw_counts(12)
    for n in range(13):
        for m in range(13 - n):
            assert c[n + m] <= c[n] * c[m]


def test_bridge_counts_bracket_and_concatenate():
    c, b = saw_counts(12)
    assert all(bn <= cn for bn, cn in zip(b, c))
    for n in range(13):
        for m in range(13 - n):
            assert b[n + m] >= b[n] * b[m]
    for n in range(1, 13):
        assert b[n] ** (1.0 / n) <= 1.0 / X_C + 1e-12
    roots = [c[n] ** (1.0 / n) for n in range(1, 13)]
    assert all(r2 <= r1 for r1, r2 in zip(roots, roots[1:]))
    assert roots[-1] > 1.0 / X_C


def test_turns_close_a_hexagon():
    # six left turns wind by 2pi, six right turns by -2pi
    assert sum(turn_sign(k % 6, (k + 1) % 6) for k in range(6)) == 6
    assert sum(turn_sign(k % 6, (k - 1) % 6) for k in range(6)) == -6
    with pytest.raises(ValueError):
        turn_sign(0, 3)
    with pytest.raises(ValueError):
        turn_sign(2, 0)


def test_to_complex_embedding():
    assert to_complex((4, 0)) == 1.0 + 0.0j
    z = to_complex((2, 2))
    assert abs(z - cmath.exp(1j * math.pi / 3)) < 1e-15
    # a mid-edge is the average of its endpoints
    assert abs(to_complex((3, 1)) - (to_complex((2, 0)) + to_complex((4, 2))) / 2) < 1e-15


def test_domain_is_frozen():
    d = strip_domain(1, 0)
    assert isinstance(d, HexDomain)
    with pytest.raises(AttributeError):
        d.T = 5


def _full_midedge_sums(domain, x, sigma):
    """Every walk from a, both halves, on coordinate tuples and sets."""
    sums = dict.fromkeys(domain.mid_edges(), 0.0j)
    sums[A_MID] = sums.get(A_MID, 0.0j) + 1.0
    start = (2, 0)
    if start not in domain.vertices:
        return sums, 0
    xpow = [x ** n for n in range(len(domain.vertices) + 1)]
    coef = -1j * sigma * math.pi / 3.0
    visited = {start}
    best = [1]

    def go(v, k_in, w, n):
        vx, vy = v
        for k in dir_indices(vx):
            if k == (k_in + 3) % 6:
                continue
            wn = w + turn_sign(k_in, k)
            dx, dy = DIRS[k]
            sums[(vx + dx // 2, vy + dy // 2)] += cmath.exp(coef * wn) * xpow[n]
            u = (vx + dx, vy + dy)
            if u in domain.vertices and u not in visited:
                best[0] = max(best[0], n + 1)
                visited.add(u)
                go(u, k, wn, n + 1)
                visited.discard(u)

    go(start, 0, 0, 1)
    return sums, best[0]


def _full_counts(n_max):
    """Walks and bridges from (-2, 0) in all six directions of the start."""
    c = [1] + [0] * n_max
    b = [1] + [0] * n_max
    x0 = -2
    visited = {(x0, 0)}

    def go(v, n, lo, hi):
        if n == n_max:
            return
        for k in dir_indices(v[0]):
            dx, dy = DIRS[k]
            u = (v[0] + dx, v[1] + dy)
            if u in visited:
                continue
            c[n + 1] += 1
            lo_u, hi_u = min(lo, u[0]), max(hi, u[0])
            if lo_u > x0 and u[0] == hi_u:
                b[n + 1] += 1
            visited.add(u)
            go(u, n + 1, lo_u, hi_u)
            visited.discard(u)

    go((x0, 0), 0, math.inf, -math.inf)
    return c, b


@pytest.mark.parametrize("T,L", [(1, 0), (1, 1), (2, 2), (3, 1), (2, 6), (0, 2)])
@pytest.mark.parametrize("x,sigma", [(X_C, 0.0), (X_C, SIGMA), (0.7, 0.3)])
def test_midedge_sums_match_full_enumeration(T, L, x, sigma):
    # the half walk plus its conjugated mirror must equal both halves walked
    d = strip_domain(T, L)
    got, got_longest = _midedge_sums(d, x, sigma)
    ref, ref_longest = _full_midedge_sums(d, x, sigma)
    assert set(got) == set(ref)
    assert got_longest == ref_longest
    for m, val in ref.items():
        assert abs(got[m] - val) <= 1e-13


def test_walk_counts_match_full_enumeration():
    for n_max in range(15):
        assert saw_counts(n_max) == _full_counts(n_max)


def test_walk_counts_match_oeis():
    assert saw_counts(18)[0] == A001668


def test_midedge_sums_refuse_asymmetric_domain():
    d = strip_domain(2, 1)
    lopsided = HexDomain(T=d.T, L=d.L, vertices=d.vertices - {(4, 2)},
                         interior=d.interior, alpha=d.alpha, beta=d.beta,
                         eps_top=d.eps_top, eps_bot=d.eps_bot)
    with pytest.raises(ValueError):
        _midedge_sums(lopsided, X_C, SIGMA)


def test_walks_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        identity_check(2, 2)
        observable(strip_domain(2, 1))
        saw_counts(8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_identity_on_wider_strips():
    assert identity_check(4, 2) < 1e-12
    assert identity_check(5, 1) < 1e-12


@pytest.mark.parametrize("x,sigma", [(X_C, 0.0), (X_C, SIGMA), (0.7, 0.3)])
def test_midedge_sums_on_two_word_bitsets(x, sigma):
    # 72 vertices and the outside id need a second uint64 word per walk
    d = strip_domain(2, 8)
    assert 64 < len(d.vertices) + 1 <= 128
    got, got_longest = _midedge_sums(d, x, sigma)
    ref, ref_longest = _full_midedge_sums(d, x, sigma)
    assert set(got) == set(ref)
    assert got_longest == ref_longest
    for m, val in ref.items():
        assert abs(got[m] - val) <= 1e-13


def _refused_peak(call):
    """Traced peak bytes of a call that the byte budget must refuse."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the budget"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [lambda: saw_counts(20),
                                  lambda: identity_check(3, 3)],
                         ids=["saw_counts", "identity_check"])
def test_frontier_refused_before_allocating(monkeypatch, call):
    # at a budget of one byte the first level is refused, so that peak is
    # the tables built before any walk; a frontier charged after it was
    # built would add a level over the budget on top of them
    budget = 1 << 19
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 1)
    tables = _refused_peak(call)
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", budget)
    assert _refused_peak(call) <= tables + 1.1 * budget


def test_walk_counts_at_the_cap_fit_the_budget():
    c, _ = saw_counts(SAW_COUNT_CAP)
    # A001668 continued past n = 18
    assert c[:19] == A001668
    assert c[19:] == [375504, 704304, 1323996, 2479692, 4654464, 8710212]
