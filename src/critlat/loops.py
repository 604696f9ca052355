"""Loop representation and parafermionic observables on Dobrushin domains.

A configuration on the free edges of a Dobrushin domain decomposes the
medial lattice into closed loops plus one exploration path gamma from e_a
to e_b: at each medial vertex the two quarter-turn arcs avoid the open
diagonal (open primal edge or dual complement, wired arc forced open,
dual arc forced closed). The loop count obeys l = 2k + o - v exactly,
with k the cluster count under Dobrushin wiring, o the number of open
free edges and v the marked vertex count of the domain.

The observable F(e) = E[exp(i sigma W(e, e_b)) 1(e in gamma)] is computed by
exact enumeration, with winding summed over the +-pi/2 turns strictly after
e up to arrival at e_b (left turn = +pi/2) and spin sigma solving sin(sigma
pi/2) = sqrt(q)/2 (real for q <= 4, 1 + i R for q > 4). The probabilities of
the 2^n free-edge configurations are the oracle.probability_array of the
primal restricted to its free edges, under the Dobrushin wiring. The
explorations of all configurations then run in lockstep over the domain's
slot table: a slot is a medial vertex z with the side the path enters by,
and for each state of the primal edge at z the table holds the next slot,
the turn (+-1) and the canonical medial edge left along. The medial edge set
and the q = 2 readers also come from the table. Each step reads one bit of
every mask and sums the probabilities into a histogram over (medial edge,
turns since e_a). The total turning from e_a to e_b is the same for every
configuration (asserted), so W = total - turns so far, and F is the
histogram contracted with exp(i sigma pi/2 W). The tests check the
lockstep walk against a trace of one configuration at a time from the arc
pairing alone, without the table (tests/reference.py), which also asserts
l = 2k + o - v. Medial edges carry the canonical orientation counterclockwise
around their black face; the q = 2 projections and line membership are
stated through that orientation, squared to stay branch-free. As F winds
up to e_b only, the q = 2 readers take every direction relative to e_b:
the domain's own frame is never turned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .lattice import (
    _EXIT,
    CCW_SIDES,
    DobrushinDomain,
    LatticeGraph,
    oriented_segment,
)
from .oracle import _check_budget, _check_q, p_self_dual, probability_array

SQRT2 = math.sqrt(2.0)


def _worst(residuals):
    """The largest of residuals, 0.0 for none, and NaN if any is NaN: the
    builtin max keeps a NaN only in first place, so a NaN residual would
    pass a tolerance check."""
    return float(np.max(np.fromiter(residuals, float), initial=0.0))


def sigma_obs(q):
    """The observable spin: sin(sigma pi/2) = sqrt(q)/2.

    Real in [0, 1] for q <= 4; on the branch 1 + iR for q > 4.
    """
    _check_q(q)
    s = math.sqrt(q) / 2.0
    if q <= 4.0:
        return 2.0 / math.pi * math.asin(s)
    return complex(1.0, 2.0 / math.pi * math.acosh(s))


def medial_edges(domain):
    """Canonically oriented curve-carrying medial edges (incl. e_a, e_b)."""
    table = domain.slots
    return {table.edges[e] for e in table.side if e >= 0}


def edge_direction(edge, e_b):
    """head - tail of edge = (tail, head) relative to e_b, as a complex
    number: a unit for a canonically oriented medial edge. It is the edge's
    direction times the conjugate of e_b's, a quarter-turn unit, so the
    product is exact."""
    (tx, ty), (hx, hy) = edge
    (bx, by), (cx, cy) = e_b
    return complex(hx - tx, hy - ty) * complex(cx - bx, by - cy)


# configurations walked at a time, and about the bytes each holds in the
# walk's index and temporary arrays. The walk charges what edge_observable
# holds itself: the probabilities and one chunk of these; probability_array
# charges the label table, which it frees before it returns
_WALK_CHUNK = 1 << 15
_WALK_BYTES = 96


def _lockstep_field(table, masks, prob, sigma):
    """Sum prob * exp(i sigma W(e, e_b)) over the explorations of masks.

    All explorations advance one slot per step, and each step sums the
    probabilities into hist[e, t]: leaving along edge e, t - n_slots turns
    after e_a. The total turning is the same for every exploration
    (asserted), so in offset units W = total - t. Returns (F over
    table.edges, slot moves, segments of the longest exploration with e_a
    and e_b).
    """
    n_slots = len(table.bit)
    width = 2 * n_slots + 1
    n_bins = len(table.edges) * width
    succ, turn, eid = (a.ravel() for a in (table.succ, table.turn, table.eid))
    hist = np.zeros(n_bins)
    hist[table.entry * width + n_slots] = prob.sum()
    slot = np.full(len(masks), table.start, dtype=np.int64)
    turned = np.full(len(masks), n_slots, dtype=np.int64)
    total, moves = None, 0
    for length in range(2, n_slots + 2):
        at = 2 * slot + ((masks >> table.bit[slot]) & 1)
        turned += turn[at]
        hist += np.bincount(eid[at] * width + turned, weights=prob,
                            minlength=n_bins)
        slot = succ[at]
        moves += len(at)
        done = slot < 0
        if not done.any():
            continue
        if np.any(slot[done] != _EXIT):
            raise AssertionError("exploration left the curve off e_b")
        ends = turned[done]
        if total is None:
            total = int(ends[0])
        if ends.min() != total or ends.max() != total:
            raise AssertionError("total turning depends on the configuration")
        keep = ~done
        masks, slot, turned, prob = (a[keep] for a in (masks, slot, turned, prob))
        if not len(masks):
            break
    else:
        raise AssertionError("exploration longer than %d slots" % n_slots)
    phase = np.exp(1j * sigma * (math.pi / 2.0) * (total - np.arange(width)))
    return hist.reshape(-1, width) @ phase, moves, length


@dataclass
class ObservableField:
    """F per medial edge, f per medial vertex (q=2 only), the spin, and
    the work counters and phase timings of the enumeration."""

    edge_values: dict
    vertex_values: dict
    sigma: complex
    domain: DobrushinDomain
    p: float
    q: float
    counters: dict
    timings: dict


def edge_observable(domain, p, q):
    """F(e) = E[exp(i sigma W(e, e_b)) 1(e in gamma)] by enumeration."""
    sigma = sigma_obs(q)
    t0 = time.perf_counter()
    # the Dobrushin measure of every free-edge mask, bit t the state of free
    # edge t: the primal restricted to its free edges keeps its vertex
    # indices, so domain.bc wires the same block
    primal = domain.primal
    free = LatticeGraph(primal.vertices,
                        [primal.edges[k] for k in domain.free_edges])
    prob = probability_array(free, p, q, domain.bc)
    _check_budget(prob.nbytes + min(len(prob), _WALK_CHUNK) * _WALK_BYTES,
                  "the walk over %d free edges" % free.n_edges)
    t1 = time.perf_counter()
    table = domain.slots
    F = np.zeros(len(table.edges), dtype=complex)
    moves = longest = 0
    for lo in range(0, len(prob), _WALK_CHUNK):
        hi = min(lo + _WALK_CHUNK, len(prob))
        part, n_moves, n_longest = _lockstep_field(
            table, np.arange(lo, hi, dtype=np.int64), prob[lo:hi], sigma)
        F += part
        moves += n_moves
        longest = max(longest, n_longest)
    t2 = time.perf_counter()
    counters = {"configs": len(prob), "walk_steps": moves,
                "longest_exploration": longest}
    timings = {"probabilities_s": t1 - t0, "walk_s": t2 - t1}
    return ObservableField(dict(zip(table.edges, F.tolist())), {}, sigma,
                           domain, p, q, counters, timings)


def contour_residuals(field):
    """|F(e1) - F(e3) + i F(e2) - i F(e4)| at interior medial vertices.

    e1..e4 are the four incident edges in counterclockwise compass order
    (east, north, west, south). The relation is invariant under rotating
    the labels; the sign of i is pinned by requiring the residual to vanish
    at the self-dual point, which it does to machine precision for all
    q > 0 tested.
    """
    res = {}
    for v, edges in _interior_vertices(field.domain).items():
        e1, e2, e3, e4 = (field.edge_values[e] for e in edges)
        res[v] = abs(e1 - e3 + 1j * e2 - 1j * e4)
    return res


def contour_check(domain, q, p=None):
    """Max vertex residual of the contour relation; p defaults to p_c."""
    p_used = p_self_dual(q) if p is None else p
    field = edge_observable(domain, p_used, q)
    res = contour_residuals(field)
    worst = _worst(res.values())
    return {"p": p_used, "q": q, "max_residual": worst,
            "n_vertices": len(res), "ok": bool(worst <= 1e-10),
            "counters": field.counters, "timings": field.timings}


# ---------------------------------------------------------------------------
# q = 2: s-holomorphicity, vertex observable, and the H field


def project_line(edge, x, e_b):
    """P_e[x] = (x + conj(e) conj(x)) / 2, the projection on sqrt(conj e)R,
    with e the direction of edge relative to e_b."""
    e = edge_direction(edge, e_b)
    return 0.5 * (x + e.conjugate() * complex(x).conjugate())


def _incident_edges(domain):
    """Curve-carrying medial edges at every status vertex, in CCW_SIDES
    order, marked half-edges included."""
    table = domain.slots
    return {z: [table.edges[e] for e in row if e >= 0]
            for z, row in zip(domain.status, table.side.reshape(-1, 4))}


def _interior_vertices(domain):
    """Status vertices whose four sides all carry curve to status vertices,
    each with its four medial edges in CCW_SIDES order: the vertices of the
    contour relation and of the square split."""
    status = domain.status
    return {z: inc for z, inc in _incident_edges(domain).items()
            if len(inc) == 4 and all((z[0] + dx, z[1] + dy) in status
                                     for dx, dy in CCW_SIDES)}


def vertex_observable(field):
    """f(v) from the incident F values, with the boundary weight 2/(2+s2).

    Asserts s-holomorphicity: P_e[f(u)] = P_e[f(v)] = F(e) across every
    medial edge, within 1e-10. Only q = 2 admits the construction.
    """
    if abs(field.q - 2.0) > 1e-12:
        raise ValueError("vertex observable requires q = 2")
    domain = field.domain
    f = {}
    for z, inc in _incident_edges(domain).items():
        s = sum(field.edge_values[e] for e in inc)
        f[z] = 0.5 * s if len(inc) == 4 else 2.0 / (2.0 + SQRT2) * s
    worst = _worst(abs(project_line(e, f[z], domain.e_b)
                       - field.edge_values[e])
                   for e in medial_edges(domain) for z in e if z in f)
    if not worst <= 1e-10:
        raise AssertionError("s-holomorphicity violated: %.3e" % worst)
    field.vertex_values = f
    return field


def sholo_report(domain):
    """All q = 2 edge/vertex identities and their worst residuals at p_c."""
    q = 2.0
    p_used = p_self_dual(q)
    field = vertex_observable(edge_observable(domain, p_used, q))
    fv = field.vertex_values
    line = []
    for e, val in field.edge_values.items():
        # F in sqrt(conj e) R  <=>  F^2 / conj(e) = F^2 e lands in [0, inf)
        ratio = val * val * edge_direction(e, domain.e_b)
        line += [abs(ratio.imag), -ratio.real]
    line = _worst(line)
    square = []
    for v, edges in _interior_vertices(domain).items():
        e1, e2, e3, e4 = (field.edge_values[e] for e in edges)
        fval = abs(fv[v]) ** 2
        square += [abs(abs(e1) ** 2 + abs(e3) ** 2 - fval),
                   abs(abs(e2) ** 2 + abs(e4) ** 2 - fval)]
    square = _worst(square)
    # nu_v = e + e', the two incident directions summed; the canonical
    # orientations already run along the boundary from a to b, so no sign
    # fixups are needed
    tangent = []
    incident = _incident_edges(domain)
    for v, fval in fv.items():
        inc = incident[v]
        if len(inc) != 2:
            continue
        nu = sum(edge_direction(e, domain.e_b) for e in inc)
        znu = nu * fval * fval
        tangent += [abs(znu.imag), -znu.real]
    tangent = _worst(tangent)
    cr = _cauchy_riemann_residual(domain, fv)
    exit_proj = abs(project_line(domain.e_b, fv[domain.e_b[0]], domain.e_b)
                    - 1.0)
    return {"p": p_used, "field": field, "line_membership": line,
            "square_split": square, "boundary_tangent": tangent,
            "cauchy_riemann": cr, "exit_projection": exit_proj,
            "ok": bool(_worst((line, square, tangent, exit_proj)) <= 1e-10
                       and cr <= 1e-9),
            "counters": field.counters, "timings": field.timings}


def _cauchy_riemann_residual(domain, fv):
    """Worst discrete contour integral of f around a single lattice face.

    Faces of the medial graph are the primal/dual faces; f being
    s-holomorphic makes the sum of f(corner) * (next - corner) vanish
    around each face whose four sides are curve-carrying medial edges and
    whose four corners carry f (a slit's outer endpoint carries none).
    """
    edges = medial_edges(domain)
    residuals = []
    for face in list(domain.blacks) + list(domain.whites):
        x, y = face
        corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
        if not all(c in fv and oriented_segment(c, corners[(t + 1) % 4])
                   in edges for t, c in enumerate(corners)):
            continue
        acc = 0.0 + 0.0j
        for t in range(4):
            z, w = corners[t], corners[(t + 1) % 4]
            acc += fv[z] * (complex(*w) - complex(*z))
        residuals.append(abs(acc))
    return _worst(residuals)

