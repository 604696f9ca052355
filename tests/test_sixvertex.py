import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlat import oracle, sixvertex
from critlat.oracle import p_self_dual
from critlat.sixvertex import (
    MAX_TRANSFER_N,
    TorusRc,
    TransferMatrix,
    _block_rows,
    asymptotic_rate,
    block_states,
    brute_force_census,
    c_from_q,
    closed_form_rate,
    oriented_sector_sums,
    rate_report,
    rc6v_verify,
    shift_orbits,
    transfer_block,
)
from reference import (
    _refused_before_allocating,
    clusters,
    dual_bonds,
    dual_clusters,
    loop_census,
)

# frozen outputs of brute_force_census (independent of the transfer matrix)
BF_22_C2 = {"Z": 1344.0, "configs": 114,
            "sectors": {0: 4.0, 1: 208.0, 2: 920.0, 3: 208.0, 4: 4.0}}
BF_33_C25 = {"Z": 18611928.625976562, "configs": 8324,
             "sectors": {0: 8.0, 1: 36376.125, 2: 3043648.7475585938,
                         3: 12451862.880859375, 4: 3043648.7475585938,
                         5: 36376.125, 6: 8.0}}

# closed_form_rate goldens, cross-checked against the eta-product form
RATE_GOLD = {
    4.5: 5.238958791398769e-06,
    5.0: 0.0002814638976547858,
    9.0: 0.04745442495315724,
    16.0: 0.1888241951572768,
    25.0: 0.3437934278566771,
}


def test_c_from_q():
    assert c_from_q(4.0) == pytest.approx(2.0)
    assert c_from_q(1.0) == pytest.approx(math.sqrt(3.0))
    assert c_from_q(6.25) == pytest.approx(math.sqrt(4.5))
    with pytest.raises(ValueError):
        c_from_q(0.0)


def test_block_states_partition():
    for n in (2, 4, 6):
        all_states = sorted(s for m in range(n + 1) for s in block_states(n, m))
        assert all_states == list(range(1 << n))


def test_shift_orbits_partition_the_block():
    # every state is a rotation of its orbit's representative, which is the
    # orbit's smallest word; the periods sum to the block size, and over all
    # momenta kappa the sectors (kappa n_r = 0 mod 2N) keep each orbit n_r
    # times
    for N in range(1, 8):
        L = 2 * N
        for m in range(L + 1):
            s = np.array(block_states(L, m))
            reps, orbit, shift, period = shift_orbits(L, m)
            rep = s[reps][orbit]
            rot = ((rep << shift) | (rep >> (L - shift))) & ((1 << L) - 1)
            assert (rot == s).all()
            assert all(s[orbit == r].min() == s[i] for r, i in enumerate(reps))
            assert period.sum() == math.comb(L, m) == len(s)
            kept = sum(np.sum(kappa * period % L == 0) for kappa in range(L))
            assert kept == math.comb(L, m)


@pytest.mark.parametrize("c", [1.7, 2.0, c_from_q(100.0)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_eigs_match_dense(N, c):
    # the momentum-resolved spectra against one dense eigvalsh per block
    V = TransferMatrix(N, c)
    for e, block in zip(V.eigs, V.blocks):
        want = np.linalg.eigvalsh(block)
        assert len(e) == len(want)
        assert np.max(np.abs(e - want)) <= 1e-12 * want[-1]


def test_transfer_block_hand_values_N1():
    c = 2.5
    assert transfer_block(1, c, 0).tolist() == [[2.0]]
    assert transfer_block(1, c, 2).tolist() == [[2.0]]
    mid = transfer_block(1, c, 1)
    assert mid.tolist() == [[2.0, c ** 2], [c ** 2, 2.0]]


@pytest.mark.parametrize("c", [1.7, 2.0, c_from_q(100.0)])
def test_representative_rows_equal_the_dense_rows(c):
    # eigs builds only the rows at the shift-orbit representatives, by the
    # same flip rule as the dense block
    for N in range(1, 7):
        for m in range(2 * N + 1):
            reps = shift_orbits(2 * N, m)[0]
            rows = _block_rows(N, c, m, reps)
            want = transfer_block(N, c, m)[reps]
            assert rows.dtype == want.dtype
            assert np.array_equal(rows, want)


def test_spectra_build_no_dense_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense transfer block was built")

    monkeypatch.setattr(sixvertex, "transfer_block", refuse)
    c = c_from_q(25.0)
    for N in range(1, 7):
        V = TransferMatrix(N, c)
        assert len(V.eigs) == 2 * N + 1
        assert V.gap_rate() >= 0.0
        assert V.spectral_rate(16) > 0.0
        assert V.trace_power(4) > 0.0
    assert len(rate_report(25.0, Ns=(2, 3, 4, 5, 6))["per_N"]) == 5
    assert rc6v_verify(2, 2, 25.0)["oriented_sector_gap"] <= 1e-8
    # the dense blocks are built through transfer_block, on first read
    with pytest.raises(AssertionError, match="dense transfer block"):
        TransferMatrix(2, c).blocks


def _charges(monkeypatch):
    """Record every byte charge sixvertex makes, then apply it."""
    charged = []

    def check(n_bytes, what):
        charged.append(n_bytes)
        oracle._check_budget(n_bytes, what)

    monkeypatch.setattr(sixvertex, "_check_budget", check)
    return charged


@pytest.mark.parametrize("read", ["eigs", "blocks"])
def test_transfer_matrix_peak_within_its_charge(monkeypatch, read):
    charged = _charges(monkeypatch)
    V = TransferMatrix(6, c_from_q(25.0))
    tracemalloc.start()
    try:
        getattr(V, read)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * max(charged) + (1 << 20)
    # and no gross over-charge
    assert max(charged) <= 1.1 * peak


class _Passed(Exception):
    """Raised by a budget check that has let its charge through."""


def test_transfer_matrix_charges_accept_the_largest_N(monkeypatch):
    charged = _charges(monkeypatch)
    V = TransferMatrix(MAX_TRANSFER_N, c_from_q(25.0))
    V.eigs
    assert max(charged) <= oracle.MAX_TABLE_BYTES

    # the dense blocks (about 310 MiB) are charged but not built here
    def check_then_stop(n_bytes, what):
        oracle._check_budget(n_bytes, what)
        raise _Passed

    monkeypatch.setattr(sixvertex, "_check_budget", check_then_stop)
    with pytest.raises(_Passed):
        V.blocks


@pytest.mark.parametrize("read", ["eigs", "blocks"])
def test_transfer_matrix_refused_past_byte_budget(monkeypatch, read):
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 256 << 10)
    V = TransferMatrix(6, 2.0)
    _refused_before_allocating(lambda: getattr(V, read), "bytes")


@pytest.mark.parametrize("call,match", [
    (lambda V: V.sector_trace(math.nan, 1), "torus length M .* not nan"),
    (lambda V: V.sector_trace(-1, 1), "torus length M .* not -1"),
    (lambda V: V.sector_trace(0, 1), "torus length M .* not 0"),
    (lambda V: V.trace_power(2.5), "torus length M .* not 2.5"),
    (lambda V: V.trace_power(0), "torus length M .* not 0"),
    (lambda V: V.trace_power(-1), "torus length M .* not -1"),
    (lambda V: V.sector_trace(2, -1), r"popcount m .* 0\.\.4, not -1"),
    (lambda V: V.sector_trace(2, 5), r"popcount m .* 0\.\.4, not 5"),
    (lambda V: V.sector_trace(2, 1.0), r"popcount m .* 0\.\.4, not 1\.0"),
], ids=["M_nan", "M_negative", "M_zero", "power_non_integer", "power_zero",
        "power_negative", "m_negative", "m_past_2N", "m_float"])
def test_sector_traces_refuse_bad_length_or_popcount(call, match):
    with pytest.raises(ValueError, match=match):
        call(TransferMatrix(2, 2.0))


def test_transfer_matrix_symmetric_nonnegative():
    V = TransferMatrix(3, 1.9)
    for b in V.blocks:
        assert np.all(b >= 0.0)
        assert np.allclose(b, b.T)


def test_apply_matches_full():
    # vec @ V block by block: V conserves popcount, so the product restricted
    # to each popcount block is that block's dense product
    rng = np.random.default_rng(7)
    for N in (1, 2, 3, 4):
        V = TransferMatrix(N, 2.3)
        v = rng.standard_normal(1 << (2 * N))
        want = np.zeros_like(v)
        for m, block in enumerate(V.blocks):
            idx = np.array(block_states(2 * N, m), dtype=np.intp)
            want[idx] = v[idx] @ block
        scale = max(np.max(np.abs(b)) for b in V.blocks)
        assert np.max(np.abs(V.apply(v) - want)) < 1e-12 * scale


@pytest.mark.parametrize("N,M", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
@pytest.mark.parametrize("c", [1.7, 2.0, 2.5])
def test_trace_matches_brute_force(N, M, c):
    cen = brute_force_census(N, M, c)
    V = TransferMatrix(N, c)
    assert V.trace_power(M) == pytest.approx(cen["Z"], rel=1e-12)
    for m in range(2 * N + 1):
        assert V.sector_trace(M, m) == pytest.approx(
            cen["sectors"].get(m, 0.0), rel=1e-12, abs=1e-12)


def test_brute_force_degenerate_rings():
    # M = 1 wraps the horizontal edges onto themselves; N = 1 is a 2-row ring
    for (N, M) in [(1, 1), (2, 1), (1, 3)]:
        c = 1.7
        cen = brute_force_census(N, M, c)
        assert TransferMatrix(N, c).trace_power(M) == pytest.approx(
            cen["Z"], rel=1e-12)


def test_frozen_census_values():
    cen = brute_force_census(2, 2, 2.0)
    assert cen["configs"] == BF_22_C2["configs"]
    assert cen["Z"] == pytest.approx(BF_22_C2["Z"], rel=1e-13)
    for m, v in BF_22_C2["sectors"].items():
        assert cen["sectors"][m] == pytest.approx(v, rel=1e-13)
    cen = brute_force_census(3, 3, 2.5)
    assert cen["configs"] == BF_33_C25["configs"]
    assert cen["Z"] == pytest.approx(BF_33_C25["Z"], rel=1e-12)
    for m, v in BF_33_C25["sectors"].items():
        assert cen["sectors"][m] == pytest.approx(v, rel=1e-12)
    assert brute_force_census(2, 2, 2.0)["Z"] == pytest.approx(1344.0)


def test_census_refuses_past_mask_width():
    # 80 medial edges do not fit one uint64 arrow mask
    _refused_before_allocating(lambda: brute_force_census(4, 5, 2.0), "64")


def test_census_refuses_an_empty_torus_and_nonpositive_c():
    # the transfer matrix refuses the same input
    for N, M in ((0, 2), (1, 0), (-1, 2)):
        _refused_before_allocating(lambda: brute_force_census(N, M, 2.0),
                                   r"N >= 1 and M >= 1, not \(%d, %d\)" % (N, M))
    for c in (0.0, -1.0):
        _refused_before_allocating(lambda: brute_force_census(1, 2, c),
                                   "c-weight must be positive, not %r" % c)


def test_census_refuses_past_byte_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 64 << 10)
    _refused_before_allocating(lambda: brute_force_census(3, 3, 2.0), "bytes")


def test_sector_traces_symmetry_and_bound():
    # arrow reversal maps popcount m to 2N - m, so the N-1 and N+1 sector
    # traces agree; the restricted trace is dominated by the full one
    for (N, M, c) in [(2, 3, 2.1), (3, 2, 2.6), (3, 5, 3.0)]:
        V = TransferMatrix(N, c)
        Z, Zt = V.trace_power(M), V.sector_trace(M, N - 1)
        assert Zt == pytest.approx(V.sector_trace(M, N + 1), rel=1e-12)
        assert 0.0 < Zt < Z
        assert Z == pytest.approx(V.trace_power(M), rel=1e-14)


def test_central_sector_dominates_for_large_c():
    # for c > 2 the popcount-N block carries the top eigenvalue
    for N in range(1, 7):
        V = TransferMatrix(N, 2.4)
        top = [e[-1] for e in V.eigs]
        assert max(range(2 * N + 1), key=lambda m: top[m]) == N


def test_spectral_rate_positive_and_nonincreasing_in_M():
    c = c_from_q(9.0)
    for N in (2, 3):
        V = TransferMatrix(N, c)
        rates = [V.spectral_rate(M) for M in (2, 4, 8, 16, 32, 64)]
        assert all(r > 0 for r in rates)
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        # and it converges to the eigenvalue gap of the two blocks
        assert rates[-1] == pytest.approx(V.gap_rate(), abs=1e-6)


def test_spectral_rate_large_M_no_overflow():
    r = TransferMatrix(3, c_from_q(16.0)).spectral_rate(5000)
    assert 0.0 < r < 2.0


@pytest.mark.parametrize("q", [6.25, 100.0])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_spectral_rate_matches_high_precision(N, q):
    # -(1/M) log(sum_{N-1} lambda^M / sum lambda^M) at 50 digits over the
    # same block spectra
    V = TransferMatrix(N, c_from_q(q))
    with mpmath.workdps(50):
        eigs = [[mpmath.mpf(float(x)) for x in e] for e in V.eigs]
        for M in (1, 2, 3, 64, 5000):
            zt = mpmath.fsum(x ** M for x in eigs[N - 1])
            z = mpmath.fsum(x ** M for e in eigs for x in e)
            want = float(-mpmath.log(zt / z) / M)
            assert V.spectral_rate(M) == pytest.approx(want, rel=1e-12)


def test_gap_rate_decreases_with_N_towards_closed_form():
    for q in (5.0, 9.0):
        c = c_from_q(q)
        closed = closed_form_rate(q)
        gaps = [TransferMatrix(N, c).gap_rate() for N in range(2, 7)]
        # finite-N gaps approach the closed form from above, monotonically
        # on this range; only that monotone trend is asserted
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(g > closed for g in gaps)


def test_closed_form_rate_goldens():
    for q, r in RATE_GOLD.items():
        assert closed_form_rate(q) == pytest.approx(r, rel=1e-12)


def test_closed_form_rate_positive_increasing_rejects_low_q():
    vals = [closed_form_rate(q) for q in (4.2, 4.5, 5.0, 7.0, 12.0, 30.0)]
    assert all(v > 0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for bad in (4.0, 3.0, 1.0):
        with pytest.raises(ValueError):
            closed_form_rate(bad)
        with pytest.raises(ValueError):
            asymptotic_rate(bad)


def test_closed_form_rate_eta_product_form():
    # independent evaluation: modular transform turns the series into
    # 4(-2 log P(v) + 3 log P(v^2) - log P(v^4)), P(x) = prod(1 - x^n),
    # v = exp(-pi^2/(2 lambda)); agreement pins both code paths
    for q in (4.1, 4.5, 6.25, 9.0, 25.0):
        with mpmath.workdps(60):
            lam = mpmath.acosh(mpmath.sqrt(q) / 2)
            v = mpmath.exp(-mpmath.pi ** 2 / (2 * lam))
            def logP(x):
                tot = mpmath.mpf(0)
                n = 1
                while True:
                    term = mpmath.log(1 - x ** n)
                    tot += term
                    if abs(term) < mpmath.mpf(10) ** -55:
                        return tot
                    n += 1
            eta = float(4 * (-2 * logP(v) + 3 * logP(v ** 2) - logP(v ** 4)))
        assert closed_form_rate(q) == pytest.approx(eta, rel=1e-13)


def test_rate_asymptote_ratios():
    # deviation from 8 exp(-pi^2/sqrt(q-4)) follows exp(-pi^2 lambda/12)
    for q, cap in [(4.5, 0.25), (4.1, 0.13), (4.01, 0.05)]:
        ratio = closed_form_rate(q) / asymptotic_rate(q)
        lam = math.acosh(math.sqrt(q) / 2.0)
        assert abs(1.0 - ratio) <= cap
        assert ratio == pytest.approx(math.exp(-math.pi ** 2 * lam / 12.0),
                                      rel=2e-2)


def test_lengths_are_refused_by_name():
    q = 6.25
    with pytest.raises(ValueError, match=r"at least one N, not Ns \[\]"):
        rate_report(q, Ns=[])
    for M in (0, -3, 2.5, float("nan")):
        with pytest.raises(ValueError, match="torus length M must be an "
                           "integer >= 1, not %r" % (M,)):
            rate_report(q, Ns=(2,), M=M)
        with pytest.raises(ValueError, match="torus length M"):
            TransferMatrix(2, c_from_q(q)).spectral_rate(M)
    for N in (2.5, 0, 8, float("nan")):
        with pytest.raises(ValueError, match="integer N with 1 <= N <= 7, "
                           "not %r" % (N,)):
            TransferMatrix(N, 2.0)
    with pytest.raises(ValueError, match="not 2.5"):
        rate_report(q, Ns=(2, 2.5))


def test_rate_report_structure():
    rep = rate_report(6.25, Ns=(2, 3), M=64)
    assert rep["closed_form"] == pytest.approx(closed_form_rate(6.25))
    assert [r["N"] for r in rep["per_N"]] == [2, 3]
    assert rep["per_N"][0]["gap_rate"] > rep["per_N"][1]["gap_rate"]


# ---------------------------------------------------------------------------
# random-cluster torus


def test_torus_structure_counts():
    rc = TorusRc(2, 2)
    assert rc.n_edges == 8
    assert rc.n_sites == 4
    assert len(dual_bonds(rc)[0]) == 4
    rc = TorusRc(3, 4)
    assert rc.n_edges == 24
    assert rc.n_sites == 12
    with pytest.raises(ValueError):
        TorusRc(2, 3)
    with pytest.raises(ValueError):
        TorusRc(0, 2)


def test_empty_and_full_masks():
    rc = TorusRc(2, 2)
    full = (1 << rc.n_edges) - 1
    cen = clusters(rc, 0)
    assert cen.count == rc.n_sites and cen.n_nonretractible == 0
    cen = clusters(rc, full)
    assert cen.count == 1 and cen.n_nonretractible == 1
    # the saturated cluster winds both ways
    assert cen.subgroups[0] == ((1, 0), (0, 1))
    # complementary statements on the dual side
    assert dual_clusters(rc, full).n_nonretractible == 0
    assert dual_clusters(rc, 0).n_nonretractible > 0


def test_every_config_has_a_winding_side():
    rc = TorusRc(2, 2)
    for mask in range(1 << rc.n_edges):
        prim = clusters(rc, mask).n_nonretractible
        dual = dual_clusters(rc, mask).n_nonretractible
        assert prim + dual >= 1


def test_two_plus_two_winding_pairs():
    # two doubly-bonded site pairs, each wrapped in the u direction: two
    # primal and two dual clusters all of class (1, 0); the motif behind
    # the restricted-sector leakage
    rc = TorusRc(2, 2)
    e = {(i, j): i * rc.P + j for i in range(rc.M) for j in range(rc.P)}
    mask = (1 << e[(0, 0)]) | (1 << e[(1, 0)]) | (1 << e[(0, 2)]) | (1 << e[(1, 2)])
    prim = clusters(rc, mask)
    dual = dual_clusters(rc, mask)
    assert prim.n_nonretractible == 2 and prim.n_winding_ne == 2
    assert dual.n_nonretractible == 2 and dual.n_winding_ne == 2
    census = loop_census(rc, mask)
    assert len(census) == 4
    assert sorted((a, b) for _, _, a, b in census) == [(1, 0)] * 4
    assert all(cut == 1 for _, cut, _, _ in census)


def test_diagonal_cycle_winds_two_one():
    # a single 4-cycle through every primal site has class (2, 1); it sits
    # in the one-winding-pair event yet no orientation of its two interface
    # loops can shift the cut count by -2
    rc = TorusRc(2, 2)
    e = {(i, j): i * rc.P + j for i in range(rc.M) for j in range(rc.P)}
    mask = (1 << e[(0, 0)]) | (1 << e[(1, 1)]) | (1 << e[(0, 2)]) | (1 << e[(1, 3)])
    prim = clusters(rc, mask)
    assert prim.count == 1
    assert prim.subgroups == (((2, 1),),)
    assert prim.n_winding_ne == 1
    assert dual_clusters(rc, mask).n_winding_ne == 1
    alphas = [a for _, _, a, b in loop_census(rc, mask) if a or b]
    assert sorted(abs(a) for a in alphas) == [2, 2]


def test_loop_census_partitions_medial_edges():
    rc = TorusRc(2, 2)
    rng = np.random.default_rng(3)
    for mask in rng.integers(0, 1 << rc.n_edges, size=40):
        census = loop_census(rc, int(mask))
        assert sum(l for l, _, _, _ in census) == 2 * rc.M * rc.P
        for _, cut, alpha, _ in census:
            assert cut >= abs(alpha)
            assert (cut - alpha) % 2 == 0


def test_loop_counts_on_extreme_masks():
    rc = TorusRc(2, 4)
    # one loop around each primal site, then around each dual site
    for mask, n_loops in ((0, rc.n_sites),
                          ((1 << rc.n_edges) - 1, len(dual_bonds(rc)[0]))):
        census = loop_census(rc, mask)
        assert len(census) == n_loops
        assert not any(a or b for _, _, a, b in census)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 8) - 1))
def test_homology_independent_of_traversal_order(mask):
    rc = TorusRc(2, 2)
    a = clusters(rc, mask)
    b = clusters(rc, mask, reverse=True)
    assert a.count == b.count
    assert sorted(a.subgroups) == sorted(b.subgroups)
    assert (dual_clusters(rc, mask).count
            == dual_clusters(rc, mask, reverse=True).count)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 8) - 1))
def test_winding_obstruction(mask):
    # a primal and a dual cluster cannot wind in homologically crossing
    # classes; north-east winding on both sides forces parallel classes
    rc = TorusRc(2, 2)
    prim = clusters(rc, mask)
    dual = dual_clusters(rc, mask)
    for hp in prim.subgroups:
        for hd in dual.subgroups:
            for a, b in hp:
                for c, d in hd:
                    assert a * d - b * c == 0


def test_loop_weight_constant_and_closed_form():
    # rc6v_verify reports max and max/min - 1 of sqrt(q)^{l+2s} / w_RC at p_c
    for q in (5.0, 6.25):
        rep = rc6v_verify(2, 2, q)
        assert rep["loop_constant_spread"] < 1e-12
        p, M, N = rep["p"], rep["M"], rep["N"]
        pred = (1 - p) ** (-2 * M * N) * q ** (-M * N / 2)
        assert rep["loop_constant"] == pytest.approx(pred, rel=1e-10)


@pytest.mark.parametrize("q", [2.0, 5.0, 6.25])
def test_oriented_sector_sums_match_transfer(q):
    # holds for any q > 0 by analytic continuation of the loop weights
    rc = TorusRc(2, 2)
    sums = oriented_sector_sums(rc, q)
    V = TransferMatrix(2, c_from_q(q))
    for m in range(5):
        assert sums.get(m, 0.0) == pytest.approx(
            V.sector_trace(2, m), rel=1e-11, abs=1e-11)
    assert sum(sums.values()) == pytest.approx(V.trace_power(2), rel=1e-12)


def test_rc6v_verify_smallest_torus():
    rep = rc6v_verify(2, 2, 6.25)
    # bookkeeping identities hold to machine precision
    assert rep["loop_constant_spread"] < 1e-12
    assert rep["partition_identity_gap"] < 1e-12
    assert rep["oriented_sector_gap"] < 1e-12
    assert rep["Zt6V"] == pytest.approx(rep["Zt6V_plus"], rel=1e-12)
    # the stated cluster identity fails at finite size: the restricted
    # sector is also fed by configurations with two winding pairs (leak of
    # exactly 2 configs x 4 orientations here), and the identity holds only
    # as an upper bound on phi[A]
    assert rep["phi_A"] < rep["rhs"]
    assert rep["rel_gap"] > 0.3
    assert not rep["identity_pass"]
    assert rep["zt_leak"] == pytest.approx(8.0, abs=1e-9)
    assert rep["zt_from_A"] < rep["Zt6V"]
    # the (4/q)^{k_nc} q^{-s} reweighting misses the rank-2 cluster configs
    assert rep["knc_partition_gap"] > 1e-3


def test_rc6v_verify_sector_gap_keeps_a_nan(monkeypatch):
    # a NaN past the first sector, which the builtin max dropped
    sectors = sixvertex._oriented_sectors

    def nan_sector(N, table, q, rows=slice(None)):
        out = sectors(N, table, q, rows)
        out[2] = math.nan
        return out

    monkeypatch.setattr(sixvertex, "_oriented_sectors", nan_sector)
    assert math.isnan(rc6v_verify(2, 2, 6.25)["oriented_sector_gap"])


def test_rc6v_verify_integer_q():
    # an integer q once failed at q ** -s on an integer array
    rep, want = rc6v_verify(2, 2, 25), rc6v_verify(2, 2, 25.0)
    assert rep.keys() == want.keys()
    for key, value in want.items():
        assert rep[key] == value, key


def test_rc6v_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        rc6v_verify(2, 3, 5.0)
    with pytest.raises(ValueError):
        rc6v_verify(3, 2, 5.0)
    with pytest.raises(ValueError):
        rc6v_verify(2, 2, 4.0)
    with pytest.raises(ValueError):
        rc6v_verify(4, 4, 5.0)  # 32 edges is past the enumeration cap


def test_transfer_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        TransferMatrix(0, 2.0)
    with pytest.raises(ValueError):
        TransferMatrix(8, 2.0)
    with pytest.raises(ValueError):
        TransferMatrix(2, -1.0)
    with pytest.raises(ValueError):
        TransferMatrix(2, 2.0).apply(np.ones(7))
    assert TransferMatrix(2, 2.0).N == 2


# ---------------------------------------------------------------------------
# one lifted table over all bond masks vs the per-configuration walkers


def _walker_census(rc, mask):
    """The nine census counts of one mask from the per-configuration DFS
    and loop walk, in census_table's order."""
    prim = clusters(rc, mask)
    dual = dual_clusters(rc, mask)
    loops = loop_census(rc, mask)
    alphas = {abs(a) for _, _, a, b in loops if a or b}
    assert len(alphas) <= 1
    return (prim.count, prim.n_nonretractible, prim.n_winding_ne,
            dual.count, dual.n_nonretractible, dual.n_winding_ne,
            len(loops), sum(1 for _, _, a, b in loops if a or b),
            alphas.pop() if alphas else 0)


_CENSUS_KEYS = ("clusters", "nonretractible", "winding_ne", "dual_clusters",
                "dual_nonretractible", "dual_winding_ne", "loops",
                "loops_nonretractible", "alpha")


def _assert_census_matches(rc, masks):
    """Compare the census with the walkers on masks; returns the winding
    ranks of the primal clusters seen (0: none winds, 2: a net)."""
    table = rc.census_table()
    for key in _CENSUS_KEYS:
        assert table[key].shape == (1 << rc.n_edges,)
        assert table[key].dtype == np.int64
    ranks = set()
    for mask in masks:
        got = tuple(int(table[key][mask]) for key in _CENSUS_KEYS)
        want = _walker_census(rc, mask)
        assert got == want, mask
        ranks.add(0 if not want[1] else 2 if not want[4] else 1)
    return ranks


@pytest.mark.parametrize("N,M", [(1, 2), (2, 2), (3, 2), (1, 4)])
def test_census_table_matches_walkers_on_every_mask(N, M):
    rc = TorusRc(N, M)
    _assert_census_matches(rc, range(1 << rc.n_edges))


def _mask_sample(rc):
    full = (1 << rc.n_edges) - 1
    rng = np.random.default_rng(20170703)
    return [0, full] + rng.integers(0, full + 1, size=4096).tolist()


@pytest.mark.parametrize("N,M", [(2, 4), (4, 2), (1, 8)])
def test_census_table_matches_walkers_on_sample(N, M):
    # 16 bonds each; the sample holds masks of all three winding ranks
    rc = TorusRc(N, M)
    assert _assert_census_matches(rc, _mask_sample(rc)) == {0, 1, 2}


@pytest.mark.parametrize("N,M", [(2, 2), (2, 4)])
def test_census_classes_are_the_weight_classes(N, M):
    rc = TorusRc(N, M)
    table = rc.census_table()
    popcount = [bin(m).count("1") for m in range(1 << rc.n_edges)]
    assert np.array_equal(table["classes"],
                          table["clusters"] * (rc.n_edges + 1) + popcount)


def test_rc6v_verify_builds_no_open_count_array(monkeypatch):
    # the open counts and the weights read the census's weight classes
    def refuse(n_edges):
        raise AssertionError("open_count_array called")

    monkeypatch.setattr(oracle, "open_count_array", refuse)
    report = rc6v_verify(2, 2, 7.5)
    assert report["oriented_sector_gap"] <= 1e-8
    assert report["partition_identity_gap"] <= 1e-8


def test_census_table_builds_one_lifted_table(monkeypatch):
    built = []
    lift = sixvertex._lifted_table

    def counted(*args):
        built.append(args)
        return lift(*args)

    monkeypatch.setattr(sixvertex, "_lifted_table", counted)
    rc = TorusRc(2, 2)
    rc.census_table()
    assert len(built) == 1 and built[0][1] is rc.edges


@pytest.mark.parametrize("N,M", [(2, 4), (1, 8)])
def test_census_peak_within_its_charge(monkeypatch, N, M):
    charged = _charges(monkeypatch)
    rc = TorusRc(N, M)
    tracemalloc.start()
    try:
        rc.census_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1
    assert peak <= 1.1 * charged[0] + (1 << 20)
    # and no gross over-charge
    assert charged[0] <= 1.1 * peak


def test_census_charge_accepts_every_torus_up_to_20_bonds(monkeypatch):
    def check_then_stop(n_bytes, what):
        oracle._check_budget(n_bytes, what)
        raise _Passed

    monkeypatch.setattr(sixvertex, "_check_budget", check_then_stop)
    sizes = set()
    for N in range(1, 14):
        for M in range(2, 14, 2):
            rc = TorusRc(N, M)
            if rc.n_edges > oracle.MAX_ENUM_EDGES:
                continue
            sizes.add(rc.n_edges)
            # the census is charged and stopped before it is built
            with pytest.raises(_Passed if rc.n_edges <= 20 else ValueError):
                rc.census_table()
    assert sizes == {4, 8, 12, 16, 20, 24}


def _reference_shifts(alphas):
    # counts of the total signed cut shift over the 2^len orientations
    shifts = {0: 1}
    for a in alphas:
        nxt = {}
        for d, n in shifts.items():
            for dd in (d + a, d - a):
                nxt[dd] = nxt.get(dd, 0) + n
        shifts = nxt
    return shifts


def _reference_rc6v(N, M, q):
    """rc6v_verify computed one mask at a time from the walkers."""
    rc = TorusRc(N, M)
    p = p_self_dual(q)
    sq = math.sqrt(q)
    E = rc.n_edges
    Ztot = wA = e_knc = e_knc_s = e_loops = zt_from_A = 0.0
    vals = []
    sectors = {}
    for mask in range(1 << E):
        prim = clusters(rc, mask)
        dual = dual_clusters(rc, mask)
        o = bin(mask).count("1")
        w = p ** o * (1 - p) ** (E - o) * q ** prim.count
        census = loop_census(rc, mask)
        l = len(census)
        alphas = [a for _, _, a, b in census if a or b]
        l0 = len(alphas)
        s = int(dual.n_nonretractible == 0)
        vals.append(sq ** (l + 2 * s) / w)
        Ztot += w
        e_knc += w * (4.0 / q) ** prim.n_nonretractible
        e_knc_s += w * (4.0 / q) ** prim.n_nonretractible * q ** (-s)
        e_loops += w * (2.0 / sq) ** l0 * q ** (-s)
        base = sq ** (l - l0)
        shifts = _reference_shifts(alphas)
        for d, n in shifts.items():
            sectors[N + d // 2] = sectors.get(N + d // 2, 0.0) + n * base
        if prim.n_winding_ne == 1 and dual.n_winding_ne == 1:
            wA += w
            zt_from_A += shifts.get(-2, 0) * base
    c = c_from_q(q)
    V = TransferMatrix(N, c)
    Z6 = V.trace_power(M)
    Zt = V.sector_trace(M, N - 1)
    c0 = max(vals)
    rhs = q * (Zt / Z6) * (e_knc / Ztot)
    return {
        "N": N, "M": M, "q": q, "p": p, "c": c, "Z6V": Z6, "Zt6V": Zt,
        "Zt6V_plus": V.sector_trace(M, N + 1),
        "loop_constant": c0,
        "loop_constant_spread": max(vals) / min(vals) - 1.0,
        "partition_identity_gap": abs(c0 * e_loops / Z6 - 1.0),
        "knc_partition_gap": abs(c0 * e_knc_s / Z6 - 1.0),
        "oriented_sector_gap": max(
            abs(sectors.get(m, 0.0) - V.sector_trace(M, m)) / V.sector_trace(M, m)
            for m in range(2 * N + 1)),
        "phi_A": wA / Ztot,
        "expect_4q_knc": e_knc / Ztot,
        "rhs": rhs,
        "rel_gap": abs(wA / Ztot - rhs) / abs(rhs),
        "zt_from_A": zt_from_A,
        "zt_leak": Zt - zt_from_A,
        "A_slice_gap": abs(q * zt_from_A / (c0 * wA) - 1.0),
    }


_GAP_KEYS = ("loop_constant_spread", "partition_identity_gap",
             "knc_partition_gap", "oriented_sector_gap", "rel_gap", "zt_leak",
             "A_slice_gap")


@pytest.mark.parametrize("q", [5.3, 6.25, 8.7])
def test_rc6v_verify_matches_per_mask_reference(q):
    rep = rc6v_verify(2, 2, q)
    ref = _reference_rc6v(2, 2, q)
    assert set(rep) == set(ref) | {"identity_pass", "tol"}
    for key, want in ref.items():
        if key in _GAP_KEYS:
            assert rep[key] == pytest.approx(want, rel=0, abs=1e-12), key
        else:
            assert rep[key] == pytest.approx(want, rel=1e-12, abs=0), key
    assert rep["identity_pass"] == (ref["rel_gap"] <= rep["tol"])


def test_rate_report_rows_equal_gap_and_spectral_rate():
    q, M = 7.3, 64
    c = c_from_q(q)
    rep = rate_report(q, Ns=(2, 3, 4), M=M)
    for row in rep["per_N"]:
        V = TransferMatrix(row["N"], c)
        assert row["gap_rate"] == V.gap_rate()
        assert row["spectral_rate_M"] == V.spectral_rate(M)
        assert row["abs_error"] == abs(row["gap_rate"] - rep["closed_form"])


def test_over_budget_torus_table_refused_before_allocating():
    # 24 bonds: the census of the 12-site lifted table would take 1.4 GB
    _refused_before_allocating(lambda: rc6v_verify(2, 6, 6.25))


@pytest.mark.parametrize("call,match", [
    (lambda q: c_from_q(q), r"q must be positive, not"),
    (lambda q: asymptotic_rate(q), r"q > 4 only, not"),
    (lambda q: closed_form_rate(q), r"q > 4 only, not"),
    (lambda q: rate_report(q), r"q > 4 only, not"),
    (lambda q: oriented_sector_sums(TorusRc(1, 2), q), r"q must be positive, not"),
    (lambda q: rc6v_verify(2, 2, q), r"q > 4, not"),
    (lambda c: TransferMatrix(2, c), r"c-weight must be positive, not"),
    (lambda c: brute_force_census(1, 2, c), r"c-weight must be positive, not"),
], ids=["c_from_q", "asymptotic_rate", "closed_form_rate", "rate_report",
        "oriented_sector_sums", "rc6v_verify", "transfer_matrix",
        "brute_force_census"])
def test_six_vertex_entry_points_refuse_nan(call, match):
    # each guard is written so that NaN fails it, naming the value; an
    # infinite q or c is refused by name too (it gave a nan gap rate, a nan
    # Z, an infinite closed-form rate and an asymptotic rate of 8)
    with pytest.raises(ValueError, match=match + " nan"):
        call(float("nan"))
    with pytest.raises(ValueError, match="must be finite, not inf$"):
        call(math.inf)


def test_oriented_sector_sums_refuse_nonpositive_q():
    rc = TorusRc(1, 2)
    for q in (0.0, -1.0):
        with pytest.raises(ValueError, match="q must be positive, not %r" % q):
            oriented_sector_sums(rc, q)
