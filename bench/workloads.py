"""The four benchmark workloads: parameters, set-up and checks.

Each workload is a fixed list of paper-level checks at fixed sizes. The seed
picks the model parameters (p, q, beta inside the ranges written below) and
the sampler seeds; the sizes never change, so the enumeration work does not
depend on the seed. Every check carries a verdict against an independent
route and a perturbation that its verdict must reject (used by the
self-tests).

Parameter ranges are kept narrow on purpose: the work of a coupling from the
past, and the density of open edges a sweep walks over, depend on p and q,
and a wide range would show up as run-to-run spread of wall_s.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import mpmath
import numpy as np

# multiple of the reported standard error a Monte Carlo estimate may sit
# from its exact value
SE_MULTIPLE = 6.0
# floor for the chi-square p-value of exact CFTP draws against the oracle
CHI2_P_FLOOR = 1e-6
# hexagonal-lattice self-avoiding walk counts c_n, n = 0..18 (OEIS A001668)
A001668 = (1, 3, 6, 12, 24, 48, 90, 174, 336, 648, 1218, 2328, 4416, 8388,
           15780, 29892, 56268, 106200, 199350)


@dataclass(frozen=True)
class Check:
    """One paper-level check.

    run() computes the result; verdict(result) returns (ok, detail);
    perturb(result) returns a deliberately wrong result the verdict must
    reject.
    """

    name: str
    run: Callable[[], Any]
    verdict: Callable[[Any], tuple]
    perturb: Callable[[Any], Any]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    params: Callable[[random.Random], dict]
    setup: Callable[[dict, dict], dict]
    checks: Callable[[dict, dict, dict], list]


# ---------------------------------------------------------------------------
# verdict helpers


def _within(values, limits):
    """All named residuals at or below their limits."""
    bad = {k: values[k] for k, lim in limits.items() if not values[k] <= lim}
    return not bad, "residuals %s" % ({k: values[k] for k in limits}
                                      if not bad else "over limit: %s" % bad)


def _report(keys, tol=None, extra=None):
    """Verdict on a module report: its own ok, and every residual key at or
    below the tolerance the module used (recomputed, not trusted)."""
    def verdict(rep):
        limit = rep["tol"] if tol is None else tol
        limits = {k: limit for k in keys}
        limits.update(extra or {})
        ok, detail = _within(rep, limits)
        return ok and bool(rep.get("ok", True)), detail
    return verdict


def _bump(key, value):
    def perturb(rep):
        out = dict(rep)
        out[key] = value
        return out
    return perturb


def _rel_close(a, b, tol):
    err = abs(a - b) / max(abs(b), 1e-300)
    return err <= tol, "relative difference %.3e (limit %.0e)" % (err, tol)


def _estimate_close(est, exact):
    """Estimate within SE_MULTIPLE reported standard errors of exact."""
    dev = abs(est.mean - exact)
    ok = est.std_error > 0 and dev <= SE_MULTIPLE * est.std_error
    return ok, "estimate %.5f, exact %.5f, %.1f standard errors" % (
        est.mean, exact, dev / est.std_error if est.std_error else math.inf)


def _shift_estimate(est, delta):
    return type(est)(est.mean + delta, est.std_error, est.n_samples,
                     est.seed, est.method)


def _density_bounds(batch, p, q):
    """Mean open-edge density of independent draws inside the exact interval.

    Every edge marginal of a random-cluster measure mixes the two single-edge
    conditionals, so it lies in [p/(p + q(1-p)), p] for q >= 1.
    """
    per_sample = batch.mean(axis=1)
    mean = float(per_sample.mean())
    se = float(per_sample.std(ddof=1) / math.sqrt(len(per_sample)))
    lo, hi = p / (p + q * (1.0 - p)), p
    ok = lo - SE_MULTIPLE * se <= mean <= hi + SE_MULTIPLE * se
    return ok, "density %.4f in [%.4f, %.4f] +- %.1f x %.4f" % (
        mean, lo, hi, SE_MULTIPLE, se)


# ---------------------------------------------------------------------------
# rc_exact: large exact enumerations


def _rc_exact_params(rng):
    return {"es_ps": [rng.uniform(0.25, 0.35), rng.uniform(0.55, 0.65)],
            "dual_p": rng.uniform(0.35, 0.45), "dual_q": rng.uniform(1.5, 3.0),
            "z_p": rng.uniform(0.4, 0.6),
            "scan_p": rng.uniform(0.4, 0.6), "scan_q": rng.uniform(1.5, 3.0),
            "mon_ps": sorted(rng.uniform(0.3, 0.7) for _ in range(3)),
            "witness_p": rng.uniform(0.4, 0.6),
            "witness_q": rng.uniform(0.3, 0.7),
            "beta": rng.uniform(0.3, 0.5)}


def _rc_exact_setup(m, prm):
    L = m["lattice"]
    return {"g17": L.build_rect((0, 3), (0, 2)),
            "g22": L.build_rect((0, 4), (0, 2)),
            "g7": L.build_rect((0, 2), (0, 1))}


def _rc_exact_checks(m, prm, obj):
    L, O, C = m["lattice"], m["oracle"], m["currents"]
    g17, g22, g7 = obj["g17"], obj["g22"], obj["g7"]

    def partition():
        # the q = 2 Potts sum over 2^15 spins is e^{beta |E|} Z_RC at the
        # Edwards-Sokal beta
        p = prm["z_p"]
        z = O.partition_function(g22, p, 2.0, L.free_bc(g22))
        beta = O.es_beta_from_p(p, 2)
        _, w = O.spin_ensemble(g22, 2, beta)
        return z, float(w.sum()) * math.exp(-beta * g22.n_edges)

    def witness():
        p, q = prm["witness_p"], prm["witness_q"]
        w = O.fkg_witness_q_below_one(p, q)
        if w is None:
            return None, None
        g = L.LatticeGraph({v for e in w["edges"] for v in e}, w["edges"])
        masks = np.arange(1 << g.n_edges)
        gap = O.fkg_gap(g, p, q, L.free_bc(g), (masks & w["f1"]) == w["f1"],
                        (masks & w["f2"]) == w["f2"])
        return w, gap

    def witness_verdict(res):
        w, gap = res
        if w is None:
            return False, "no FKG violation found for q < 1"
        ok = w["gap"] < -1e-12 and abs(w["gap"] - gap) <= 1e-12
        return ok, "witness gap %.3e, recomputed %.3e" % (w["gap"], gap)

    def switching_verdict(rep):
        gap = abs(rep["lhs"] - rep["rhs"])
        scale = max(1.0, abs(rep["lhs"]), abs(rep["rhs"]))
        return gap <= 1e-12 * scale and rep["ok"], "gap %.3e" % gap

    def truncated_verdict(rep):
        s = rep["simon"]
        ok = rep["u4"] <= 1e-12 and s["lhs"] <= s["rhs"] + 1e-12
        return ok and rep["ok"], "u4 %.3e, simon slack %.3e" % (
            rep["u4"], s["rhs"] - s["lhs"])

    sources = ([(0, 0), (2, 1)], [(0, 0), (1, 0)])
    quad = [(0, 0), (1, 0), (1, 1), (2, 1)]
    simon = ((0, 0), (2, 0), [(1, 0), (1, 1)])
    return [
        Check("es_coupling_17e",
              lambda: O.verify_es_coupling(g17, prm["es_ps"], [2, 3]),
              _report(("pair_max_err", "wired_max_err", "product_max_err")),
              _bump("pair_max_err", 1e-6)),
        Check("duality_17e",
              lambda: O.verify_duality(g17, prm["dual_p"], prm["dual_q"]),
              _report(("config_max_err", "z_rel_err")),
              _bump("z_rel_err", 1e-6)),
        Check("partition_22e_vs_spins", partition,
              lambda r: _rel_close(r[0], r[1], 1e-10),
              lambda r: (r[0] * (1 + 1e-8), r[1])),
        Check("cbc_7e",
              lambda: O.cbc_scan(g7, prm["scan_p"], prm["scan_q"]),
              lambda r: (r["ok"] and r["n_partitions"] == 203
                         and min(r["min_above_free"], r["min_below_wired"])
                         >= -r["tol"],
                         "worst gaps %.3e / %.3e over %d partitions" % (
                             r["min_above_free"], r["min_below_wired"],
                             r["n_partitions"])),
              _bump("min_below_wired", -1e-6)),
        Check("fkg_7e",
              lambda: O.fkg_scan(g7, prm["scan_p"], prm["scan_q"]),
              lambda r: (r["ok"] and r["min_gap"] >= -r["tol"],
                         "min gap %.3e" % r["min_gap"]),
              _bump("min_gap", -1e-6)),
        Check("mon_7e",
              lambda: O.mon_scan(g7, prm["scan_q"], prm["mon_ps"]),
              lambda r: (r["ok"] and r["min_gap"] >= -r["tol"],
                         "min gap %.3e" % r["min_gap"]),
              _bump("min_gap", -1e-6)),
        Check("fkg_witness_q_below_one", witness, witness_verdict,
              lambda r: (r[0], r[1] + 1e-3)),
        Check("switching_7e",
              lambda: C.verify_switching(g7, *sources, prm["beta"], n_max=6),
              switching_verdict,
              lambda r: _bump("rhs", r["rhs"] * (1 + 1e-9))(r)),
        Check("truncated_ineq_7e",
              lambda: C.truncated_ineq_checks(g7, prm["beta"], quad, simon),
              truncated_verdict, _bump("u4", 1e-6)),
    ]


# ---------------------------------------------------------------------------
# rc_mc: the sampler against small exact references


def _rc_mc_params(rng):
    def seeds():
        return rng.randrange(1 << 31)

    return {"chain_p": rng.uniform(0.55, 0.60), "chain_q": rng.uniform(1.8, 2.2),
            "chain_seed": seeds(),
            "cftp1_p": rng.uniform(0.45, 0.55), "cftp1_q": rng.uniform(1.5, 2.5),
            "cftp1_seed": seeds(),
            "cftp2_p": rng.uniform(0.64, 0.66), "cftp2_q": rng.uniform(1.9, 2.1),
            "cftp2_seed": seeds(),
            "conn_p": rng.uniform(0.45, 0.55), "conn_q": rng.uniform(1.5, 2.5),
            "conn_seed": seeds(), "cross_seed": seeds(),
            "es_p": rng.uniform(0.5, 0.6), "es_q": rng.choice((2, 3)),
            "es_seed": seeds()}


def _rc_mc_setup(m, prm):
    L = m["lattice"]
    return {"box3": L.build_box(3), "box1": L.build_box(1),
            "box2": L.build_box(2), "g7": L.build_rect((0, 2), (0, 1))}


def _rc_mc_checks(m, prm, obj):
    L, O, S = m["lattice"], m["oracle"], m["sampler"]
    box3, box1, box2, g7 = obj["box3"], obj["box1"], obj["box2"], obj["g7"]
    free7 = L.free_bc(g7)
    x, y = (0, 0), (2, 1)

    def chi2():
        p, q = prm["cftp1_p"], prm["cftp1_q"]
        bc = L.free_bc(box1)
        batch = S.cftp_batch(box1, p, q, bc, prm["cftp1_seed"], 2000)
        return S.bits_to_masks(batch), O.probability_array(box1, p, q, bc)

    def chi2_verdict(res):
        _, pval, dof = S.chi_square_gof(*res)
        return dof > 0 and pval >= CHI2_P_FLOOR, \
            "p-value %.3g (floor %.0e), %d dof" % (pval, CHI2_P_FLOOR, dof)

    def paths():
        args = (box1, prm["cftp1_p"], prm["cftp1_q"], L.free_bc(box1),
                prm["cftp1_seed"], 32)
        return (S.cftp_batch(*args, use_tables=True),
                S.cftp_batch(*args, use_tables=False))

    def flip_first(res):
        b = res[1].copy()
        b[0, 0] ^= 1
        return res[0], b

    def connect(method):
        p, q = prm["conn_p"], prm["conn_q"]
        n = 4000 if method == "cftp" else 2000
        est = S.connect_mc(g7, p, q, free7, x, y, n, prm["conn_seed"],
                           method=method)
        exact = O.rc_probability(g7, p, q, free7,
                                 O.connectivity_event(g7, free7, x, y))
        return est, exact

    def swendsen_wang():
        # alternate the two Edwards-Sokal maps; every open edge must join
        # equal spins, and the mean open-edge count must match the oracle
        p, q = prm["es_p"], prm["es_q"]
        rng = np.random.default_rng(prm["es_seed"])
        bits = np.ones(g7.n_edges, dtype=np.uint8)
        ends = [(g7.vertex_index[a], g7.vertex_index[b]) for a, b in g7.edges]
        opened, bad = [], 0
        for t in range(1550):
            colors = S.es_forward(g7, bits, q, rng)
            bad += sum(1 for k, (a, b) in enumerate(ends)
                       if bits[k] and colors[a] != colors[b])
            bits = S.es_reverse(g7, colors, p, rng)
            bad += sum(1 for k, (a, b) in enumerate(ends)
                       if bits[k] and colors[a] != colors[b])
            if t >= 50:
                opened.append(int(bits.sum()))
        exact = O.rc_expectation(g7, p, q, free7,
                                 O.open_count_array(g7.n_edges))
        return np.array(opened, dtype=float), bad, exact

    def sw_verdict(res):
        opened, bad, exact = res
        means = opened.reshape(20, -1).mean(axis=1)  # batch means
        se = float(means.std(ddof=1) / math.sqrt(len(means)))
        dev = abs(float(opened.mean()) - exact)
        return bad == 0 and dev <= SE_MULTIPLE * se, \
            "%d spin-bond mismatches; mean %.4f, exact %.4f, %.1f SE" % (
                bad, opened.mean(), exact, dev / se)

    return [
        Check("chain_box3_wired",
              lambda: S.chain_samples(box3, prm["chain_p"], prm["chain_q"],
                                      L.wired_bc(box3), prm["chain_seed"],
                                      40, 100, 5),
              lambda b: _density_bounds(b, prm["chain_p"], prm["chain_q"]),
              lambda b: np.ones_like(b)),
        Check("cftp_box1_chi2", chi2, chi2_verdict,
              lambda r: (r[0] | 1, r[1])),
        Check("cftp_box1_paths_agree", paths,
              lambda r: (bool((r[0] == r[1]).all()),
                         "%d differing bits" % int((r[0] != r[1]).sum())),
              flip_first),
        Check("cftp_box2_wired",
              lambda: S.cftp_batch(box2, prm["cftp2_p"], prm["cftp2_q"],
                                   L.wired_bc(box2), prm["cftp2_seed"], 200),
              lambda b: _density_bounds(b, prm["cftp2_p"], prm["cftp2_q"]),
              lambda b: np.zeros_like(b)),
        Check("connect_cftp_7e", lambda: connect("cftp"),
              lambda r: _estimate_close(*r),
              lambda r: (_shift_estimate(r[0], 0.1), r[1])),
        Check("connect_chain_7e", lambda: connect("chain"),
              lambda r: _estimate_close(*r),
              lambda r: (_shift_estimate(r[0], 0.1), r[1])),
        Check("crossing_q1_half",
              lambda: (S.crossing_mc(4, 3, 0.5, 1.0, "free", 20000,
                                     prm["cross_seed"]), 0.5),
              lambda r: _estimate_close(*r),
              lambda r: (_shift_estimate(r[0], 0.05), r[1])),
        Check("es_swendsen_wang_7e", swendsen_wang, sw_verdict,
              lambda r: (r[0] + 1.0, r[1], r[2])),
    ]


# ---------------------------------------------------------------------------
# torus: six-vertex spectra and the torus census


def _torus_params(rng):
    return {"rate_q": rng.uniform(6.0, 9.0), "census_q": rng.uniform(5.0, 9.0),
            "rc_q": rng.uniform(5.0, 9.0), "vec_seed": rng.randrange(1 << 31)}


def _torus_setup(m, prm):
    return {"rc22": m["sixvertex"].TorusRc(2, 2)}


def _series_rate(q):
    """lambda + 2 sum_k (-1)^k tanh(k lambda)/k summed as written, by
    mpmath's alternating-series acceleration (independent of the rewritten
    series closed_form_rate uses)."""
    with mpmath.workdps(40):
        lam = mpmath.acosh(mpmath.sqrt(q) / 2)
        tail = mpmath.nsum(lambda k: (-1) ** k * mpmath.tanh(k * lam) / k,
                           [1, mpmath.inf])
        return float(lam + 2 * tail)


def _torus_checks(m, prm, obj):
    X = m["sixvertex"]

    def transfer6():
        # the matrix-free local vertex rule against the dense popcount
        # blocks, and each block spectrum against its Frobenius norm
        V = X.TransferMatrix(6, X.c_from_q(prm["rate_q"]))
        eig_err = max(abs(float(np.sum(e ** 2)) / float(np.sum(b ** 2)) - 1.0)
                      for e, b in zip(V.eigs, V.blocks))
        vec = np.random.default_rng(prm["vec_seed"]).random(1 << 12)
        want = np.zeros_like(vec)
        for k, block in enumerate(V.blocks):
            idx = np.array(X.block_states(12, k), dtype=np.intp)
            want[idx] = vec[idx] @ block
        return V.apply(vec), want, eig_err

    def transfer6_verdict(res):
        got, want, eig_err = res
        err = float(np.abs(got - want).max() / np.abs(want).max())
        return err <= 1e-12 and eig_err <= 1e-10, \
            "apply vs blocks %.3e, spectra vs norms %.3e" % (err, eig_err)

    def rate():
        q = prm["rate_q"]
        return X.rate_report(q, Ns=(2, 3, 4, 5, 6)), _series_rate(q)

    def rate_verdict(res):
        # for even M, -(1/M) log(Zt/Z) lies within N log(4)/M of the
        # dominant-eigenvalue gap, since every block has at most 4^N states
        rep, series = res
        ok, detail = _rel_close(rep["closed_form"], series, 1e-9)
        M = 256
        worst = max(abs(r["spectral_rate_M"] - r["gap_rate"])
                    - r["N"] * math.log(4) / M for r in rep["per_N"])
        return ok and worst <= 0 and all(r["gap_rate"] > 0
                                         for r in rep["per_N"]), \
            "closed form vs series: %s; worst gap slack %.3e" % (detail, worst)

    def census():
        c = X.c_from_q(prm["census_q"])
        cen = X.brute_force_census(3, 3, c)
        return cen, X.TransferMatrix(3, c).trace_power(3)

    def census_verdict(res):
        cen, trace = res
        ok, detail = _rel_close(cen["Z"], trace, 1e-10)
        return ok and cen["configs"] > 0 and \
            _rel_close(sum(cen["sectors"].values()), cen["Z"], 1e-12)[0], detail

    rc_keys = ("loop_constant_spread", "oriented_sector_gap",
               "partition_identity_gap")

    def sectors():
        q = prm["rc_q"]
        V = X.TransferMatrix(2, X.c_from_q(q))
        got = X.oriented_sector_sums(obj["rc22"], q)
        return [(got.get(k, 0.0), V.sector_trace(2, k)) for k in range(5)]

    def sectors_verdict(pairs):
        worst = max(abs(a - b) / b for a, b in pairs)
        return worst <= 1e-10, "worst relative sector gap %.3e" % worst

    return [
        Check("transfer_matrix_6", transfer6, transfer6_verdict,
              lambda r: (r[0] + 1e-6 * np.abs(r[1]).max(), r[1], r[2])),
        Check("rate_report_2to6", rate, rate_verdict,
              lambda r: (_bump("closed_form", r[0]["closed_form"]
                               * (1 + 1e-6))(r[0]), r[1])),
        Check("census_3x3_vs_trace", census, census_verdict,
              lambda r: (_bump("Z", r[0]["Z"] * (1 + 1e-8))(r[0]), r[1])),
        Check("rc6v_2x4", lambda: X.rc6v_verify(2, 4, prm["rc_q"]),
              _report(rc_keys), _bump("partition_identity_gap", 1e-6)),
        Check("rc6v_2x2", lambda: X.rc6v_verify(2, 2, prm["rc_q"]),
              _report(rc_keys), _bump("loop_constant_spread", 1e-6)),
        Check("oriented_sectors_2x2", sectors, sectors_verdict,
              lambda r: [(a * (1 + 1e-8), b) for a, b in r]),
    ]


# ---------------------------------------------------------------------------
# planar: loops and self-avoiding walks


def _planar_params(rng):
    return {"contour_qs": (rng.uniform(1.2, 1.8), rng.uniform(2.5, 3.5))}


def _planar_setup(m, prm):
    L, W = m["lattice"], m["saw"]
    g = L.build_rect((0, 3), (0, 2))
    return {"domain": L.medial_domain(g, (0, 0), (3, 2)),
            "strip": W.strip_domain(3, 2)}


def _planar_checks(m, prm, obj):
    P, W = m["loops"], m["saw"]
    dom = obj["domain"]

    def sholo():
        rep = P.sholo_report(dom)
        rep.pop("field")
        return rep

    def small(limit):
        return lambda r: (r <= limit, "residual %.3e (limit %.0e)" % (r, limit))

    def counts_verdict(res):
        c, b = res
        return list(c) == list(A001668) and b[0] == 1, \
            "walk counts %s" % ("match A001668" if list(c) == list(A001668)
                                else "differ from A001668")

    def bump_count(res):
        c = list(res[0])
        c[10] += 1
        return c, res[1]

    checks = [
        Check("sholo_12e", sholo,
              _report(("line_membership", "square_split", "boundary_tangent",
                       "exit_projection"), 1e-10, {"cauchy_riemann": 1e-9}),
              _bump("square_split", 1e-6)),
    ]
    for q in prm["contour_qs"]:
        checks.append(Check(
            "contour_12e_q%.2f" % q, lambda q=q: P.contour_check(dom, q),
            _report(("max_residual",), 1e-10), _bump("max_residual", 1e-6)))
    checks += [
        Check("strip_identity_T3L3", lambda: W.identity_check(3, 3),
              small(1e-12), lambda r: r + 1e-6),
        Check("strip_identity_T2L6", lambda: W.identity_check(2, 6),
              small(1e-12), lambda r: r + 1e-6),
        Check("vertex_relation_T3L2", lambda: W.vertex_relation(obj["strip"]),
              small(1e-12), lambda r: r + 1e-6),
        Check("saw_counts_18", lambda: W.saw_counts(18), counts_verdict,
              bump_count),
    ]
    return checks


WORKLOADS = {w.name: w for w in (
    Workload("rc_exact", _rc_exact_params, _rc_exact_setup, _rc_exact_checks),
    Workload("rc_mc", _rc_mc_params, _rc_mc_setup, _rc_mc_checks),
    Workload("torus", _torus_params, _torus_setup, _torus_checks),
    Workload("planar", _planar_params, _planar_setup, _planar_checks),
)}


def run_check(check):
    """(ok, detail, result); a check that raises fails with its message."""
    try:
        result = check.run()
    except Exception as exc:  # a raising check is a failed verdict
        return False, "raised %s: %s" % (type(exc).__name__, exc), None
    try:
        ok, detail = check.verdict(result)
    except Exception as exc:
        return False, "verdict raised %s: %s" % (type(exc).__name__, exc), \
            result
    return bool(ok), detail, result
