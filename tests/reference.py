"""Independent per-configuration references, test-only verifiers and shared
test tooling.

The package computes its finite-volume statements for all configurations at
once: the lockstep walk over a Dobrushin domain's slot table, the lifted
label table of TorusRc.census_table and the mask and label sweeps of the
sampler. The functions here follow the same definitions one configuration
at a time, by the plainest walk, and are the second path the tests compare
the package against. The verifiers here check identities that no report of
the package reads: the single-edge conditional against the weights, the
squared two-point function against the sourceless double current, the
pivotality sum phi_p(S), and the face function H of the q = 2 observable
with the signs of its Laplacians. Nothing under src/ imports them.
"""
from __future__ import annotations

import itertools
import math
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from critlat import oracle
from critlat.currents import (
    connected_trace,
    double_current_event,
    parity_masks,
)
from critlat.lattice import (
    CCW_SIDES,
    DobrushinDomain,
    boundary_arcs,
    cluster_stats,
    custom_bc,
    free_bc,
    induced_graph,
    oriented_segment,
    segment_faces,
    wired_bc,
)
from critlat.loops import _worst, edge_direction, medial_edges
from critlat.oracle import (
    _check_beta,
    _check_edges,
    _check_pq,
    _class_sums,
    _joined_off_rows,
    _probabilities,
    cylinder_probabilities,
    ising_moment,
    probability_array,
    scan_configs,
    set_partitions,
    thresholds,
)
from critlat.sampler import _cut_side, _links


def _refused_before_allocating(call, match="bytes"):
    """call raises a ValueError matching match with under 1 MiB traced."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def charged_peak(call, charged=None):
    """(result, tracemalloc peak, largest charge) of call(), with every
    _check_budget charge recorded, through each critlat module that binds
    the name, and still checked; charged, if given, maps each charge's
    description to its bytes."""
    charged = {} if charged is None else charged
    check = oracle._check_budget

    def record(n_bytes, what):
        charged[what] = max(n_bytes, charged.get(what, 0))
        check(n_bytes, what)

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("critlat") and \
                    getattr(module, "_check_budget", None) is check:
                mp.setattr(module, "_check_budget", record)
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return result, peak, max(charged.values(), default=0)


def half_diamond(n):
    """The lower half, x + y <= 0, of the l1 ball of radius n: a domain
    with degree-1 tips on its outer walk."""
    return induced_graph([(x, y) for x in range(-n, n + 1)
                          for y in range(-n, n + 1)
                          if abs(x) + abs(y) <= n and x + y <= 0], 2)


def turned(graph, points, k):
    """graph and its marked points turned by k quarter turns about the
    origin, (x, y) -> (-y, x), with the map the turn induces on medial
    vertices: black(x, y) = (x - y, x + y) turns to (-(x + y), x - y), a
    quarter turn of the faces about (1/2, 1/2), which sends the corner
    (x, y) to (1 - y, x)."""
    def turn(p, shift):
        x, y = p
        for _ in range(k % 4):
            x, y = shift - y, x
        return (x, y)

    return (induced_graph([turn(v, 0) for v in graph.vertices], 2),
            [turn(p, 0) for p in points], lambda z: turn(z, 1))


# ---------------------------------------------------------------------------
# one heat-bath update and the Edwards-Sokal maps (sampler)


def heatbath_step(graph, bits, edge_k, u, p, q, bc):
    """One heat-bath update of edge_k driven by the uniform u.

    Returns the new bits tuple; the edge is opened iff u >= P[w_e=0|rest].
    """
    _check_edges(graph, [edge_k])
    links, ends = _links(graph, bc)
    x, y = ends[edge_k]
    conn = _cut_side(links, bits, x, y, edge_k) is None
    thr_c, thr_d = thresholds(p, q)
    out = list(bits)
    out[edge_k] = 1 if u >= (thr_c if conn else thr_d) else 0
    return tuple(out)


def es_forward_colors(graph, bits, q, rng, bc=None, boundary_color=None):
    """sampler.es_forward one cluster at a time: a colour per cluster root
    in increasing order, then boundary_color on every cluster that meets
    the boundary."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    bc = free_bc(graph) if bc is None else bc
    _, labels = cluster_stats(graph, tuple(int(b) for b in bits), bc)
    roots = sorted(set(labels))
    color_of = {r: int(c) for r, c in
                zip(roots, rng.integers(0, q, size=len(roots)))}
    if boundary_color is not None:
        for i in graph.boundary_indices:
            color_of[labels[i]] = boundary_color
    return np.array([color_of[labels[i]] for i in range(graph.n_vertices)],
                    dtype=np.int8)


def es_reverse_bits(graph, colors, p, rng):
    """sampler.es_reverse one edge at a time: edge k opens iff its
    endpoints agree and its uniform is below p."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    u = rng.random(graph.n_edges)
    bits = np.zeros(graph.n_edges, dtype=np.uint8)
    for k, (a, b) in enumerate(graph.edge_ends):
        bits[k] = 1 if (colors[a] == colors[b] and u[k] < p) else 0
    return bits


# ---------------------------------------------------------------------------
# the single-edge conditional, the pivotality sum and a Dobrushin wiring
# (oracle, lattice)


def edge_conditional_gap(graph, p, q, bc, edge_k):
    """Worst deviation of thresholds(p, q) from P[w_e = 0 | rest] computed
    from the weights, over all 2^(|E|-1) rest configurations. The thresholds
    are read off the oracle module at call time, so a patched formula is
    the one checked."""
    _check_pq(p, q)
    _check_edges(graph, [edge_k])
    n = graph.n_edges
    labels, cls = scan_configs(graph, bc)
    lw = _class_sums(p, q, cls, n)[0]
    bit = 1 << edge_k
    masks = np.arange(1 << n, dtype=np.int64)
    rest = masks[(masks & bit) == 0]
    joined = _joined_off_rows(labels, graph.edge_ends, edge_k, rest)
    expected = np.where(joined, *oracle.thresholds(p, q))
    # w(rest) / (w(rest) + w(rest + e)) from the log weight ratio
    closed = 1.0 / (1.0 + np.exp(lw[cls[rest | bit]] - lw[cls[rest]]))
    return float(np.abs(closed - expected).max())


def phi_sum(S, p, d=2):
    """phi_p(S) = p sum_{x in S, y ~ x, y not in S} P_p[0 <-> x inside S],
    S a set of d-dimensional integer points containing the origin; the
    connection probabilities use only edges with both endpoints in S."""
    _check_pq(p)
    g = induced_graph(S, d)
    origin = (0,) * d
    if origin not in g.vertex_index:
        raise ValueError("S must contain the origin")
    # P[0 <-> x in S] for all x, from one label table
    labels, cls = scan_configs(g, free_bc(g))
    prob, _ = _probabilities(p, 1.0, cls, g.n_edges)
    root = labels[:, g.index(origin)]
    # x has 2d - deg(x) lattice neighbours outside S
    total = sum((2 * d - len(nbrs)) * float(prob[labels[:, i] == root].sum())
                for i, nbrs in enumerate(g.adjacency) if len(nbrs) < 2 * d)
    return p * total


def dobrushin_bc(graph, a, b):
    """Wire the counterclockwise boundary arc from b to a; the rest is free."""
    return custom_bc(graph, (boundary_arcs(graph, a, b)[1],))


# ---------------------------------------------------------------------------
# class counts and boundary scans, one row or one boundary condition at a
# time (oracle)


def class_counts(cls, n_classes, events):
    """Counts by class with one bincount per row: row 0 counts every entry
    of cls, row r + 1 the entries where the bool row events[r] holds."""
    return np.array([np.bincount(cls, minlength=n_classes)]
                    + [np.bincount(cls[ev], minlength=n_classes)
                       for ev in events])


def _cylinders(graph, p, q, bc):
    """phi[all edges of f open] for the nonempty edge masks f, from one
    probability_array of graph under bc."""
    return cylinder_probabilities(probability_array(graph, p, q, bc))[1:]


def cbc_gaps(graph, p, q):
    """(min phi^xi[A] - phi^0[A], min phi^1[A] - phi^xi[A]) over every
    boundary partition xi and cylinder event A, one table per partition."""
    cp0 = _cylinders(graph, p, q, free_bc(graph))
    cp1 = _cylinders(graph, p, q, wired_bc(graph))
    gaps = []
    for blocks in set_partitions(graph.boundary()):
        cpx = _cylinders(graph, p, q, custom_bc(graph, blocks))
        gaps.append(((cpx - cp0).min(), (cp1 - cpx).min()))
    return tuple(float(g) for g in np.min(gaps, axis=0))


def mon_gap(graph, q, ps):
    """min phi_{p'}[A] - phi_p[A] over p < p' from ps, the free and the
    wired condition and every cylinder event A, one table per (bc, p)."""
    gaps = []
    for bc in (free_bc(graph), wired_bc(graph)):
        cps = [_cylinders(graph, p, q, bc) for p in sorted(set(ps))]
        gaps += [(hi - lo).min()
                 for lo, hi in itertools.combinations(cps, 2)]
    return float(np.min(gaps))


# ---------------------------------------------------------------------------
# one current weight, the single current sum, the squared correlation
# (currents) and hexagonal turns (saw)


def current_weight(values, beta):
    """w_beta(n) = prod_e beta^{n_e} / n_e!."""
    return math.prod(beta ** v / math.factorial(v) for v in values)


def single_current_sum(graph, A, beta):
    """sum over d(n) = A of w_beta(n) = cosh^|E| sum_{d eta = A} tanh^|eta|."""
    _check_beta(beta)
    ones = np.bitwise_count(np.array(parity_masks(graph, A), dtype=np.int64))
    return math.cosh(beta) ** graph.n_edges * float(np.sum(math.tanh(beta) ** ones))


def squared_correlation_gap(graph, x, y, beta):
    """|mu^f[sigma_x sigma_y]^2 - P^0[x <-> y in the trace]|."""
    _check_beta(beta)
    prob = double_current_event(graph, (), beta, connected_trace(graph, x, y))
    mu = ising_moment(graph, beta, [x, y])
    return abs(mu * mu - prob)


def turn_sign(k_in, k_out):
    """+1 for a left turn, -1 for a right turn; reversals are not turns."""
    d = (k_out - k_in) % 6
    if d == 1:
        return 1
    if d == 5:
        return -1
    raise ValueError("not an admissible turn")


def to_complex(p):
    """Embed a quarter-unit integer pair in the plane."""
    return complex(p[0] / 4.0, p[1] * math.sqrt(3.0) / 4.0)


# ---------------------------------------------------------------------------
# the loop decomposition of one Dobrushin configuration (loops)


@dataclass(frozen=True)
class LoopConfig:
    """Loops plus the exploration path of one configuration."""

    loops: tuple        # each loop a tuple of medial vertices in cycle order
    exploration: tuple  # directed medial segments from e_a to e_b inclusive

    @property
    def ell(self):
        # the exploration path counts as one loop
        return len(self.loops) + 1


def _pairings(domain, bits):
    """Arc pairing (side -> side) at every status vertex for this config."""
    pair = {}
    for z, (kind, k) in domain.status.items():
        if kind == "free":
            open_primal = bool(bits[domain.free_pos[k]])
        else:
            open_primal = kind == "primal"
        pair[z] = {d: e for arc in DobrushinDomain.arcs_at(z, open_primal)
                   for d, e in (arc, arc[::-1])}
    return pair


def _explore(domain, pair):
    """Directed segments of gamma from e_a to e_b plus the used sides."""
    status = domain.status
    z = domain.e_a[1]
    tail = domain.e_a[0]
    d_in = (tail[0] - z[0], tail[1] - z[1])
    steps = [domain.e_a]
    used = set()
    while True:
        d_out = pair[z][d_in]
        used.add((z, d_in))
        used.add((z, d_out))
        nxt = (z[0] + d_out[0], z[1] + d_out[1])
        steps.append((z, nxt))
        if nxt not in status:
            if (z, nxt) != domain.e_b:
                raise AssertionError("exploration exited off e_b at %s" % (z,))
            return tuple(steps), used
        d_in = (-d_out[0], -d_out[1])
        z = nxt


def loop_encode(domain, bits):
    """Trace the loop decomposition; l = 2k + o - v asserted exactly."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != len(domain.free_edges):
        raise ValueError("expected one bit per free edge")
    pair = _pairings(domain, bits)
    steps, used = _explore(domain, pair)
    status = domain.status
    loops = []
    for z in status:
        for d in CCW_SIDES:
            if (z, d) in used:
                continue
            if not domain.curve_segment(z, (z[0] + d[0], z[1] + d[1])):
                # dead slots: exterior corners, the outside of the wired
                # arc, wrap-to-exterior contacts
                continue
            cycle = []
            cz, cd = z, d
            while (cz, cd) not in used:
                used.add((cz, cd))
                nxt = (cz[0] + cd[0], cz[1] + cd[1])
                used.add((nxt, (-cd[0], -cd[1])))
                cycle.append(nxt)
                cz = nxt
                cd = pair[cz][(-cd[0], -cd[1])]
            loops.append(tuple(cycle))
    config = LoopConfig(tuple(loops), steps)

    full = [0] * domain.primal.n_edges
    for t, k in enumerate(domain.free_edges):
        full[k] = bits[t]
    k_clusters, _ = cluster_stats(domain.primal, tuple(full), domain.bc)
    expect = 2 * k_clusters + sum(bits) - domain.v_count()
    if config.ell != expect:
        raise AssertionError("loop count %d != 2k + o - v = %d"
                             % (config.ell, expect))
    return config


def winding_profile(steps):
    """Winding to e_b for every edge on gamma, keyed by canonical edge.

    The turn directly after each traversed segment through arrival at e_b
    is counted, +pi/2 per left turn; the final segment e_b winds 0.
    """
    dirs = [complex(h[0] - t[0], h[1] - t[1]) for t, h in steps]
    wind = {}
    acc = 0.0
    for i in range(len(steps) - 1, -1, -1):
        if i < len(steps) - 1:
            cross = (dirs[i].real * dirs[i + 1].imag
                     - dirs[i].imag * dirs[i + 1].real)
            acc += math.pi / 2.0 if cross > 0 else -math.pi / 2.0
        t, h = steps[i]
        wind[oriented_segment(t, h)] = acc
    return wind


# ---------------------------------------------------------------------------
# the face function H of the q = 2 observable (loops)


def build_H(field):
    """Integrate |F|^2 into the face function H.

    H(black) - H(white) = |F(e)|^2 across every medial edge; anchored at
    H = 1 on the black face of b. Asserts path independence, the boundary
    values (1 on the wired-arc blacks, 0 on the dual-arc whites) and the
    increment rule through f(v)^2 at interior vertices, all within 1e-10.
    """
    domain = field.domain
    if not field.vertex_values:
        raise ValueError("vertex observable required; run sholo first")
    relations = []
    for e in medial_edges(domain):
        black, white = segment_faces(*e)
        relations.append((black, white, abs(field.edge_values[e]) ** 2))

    anchor = domain.black[domain.b]
    H = {anchor: 1.0}
    queue = [anchor]
    adj = {}
    for black, white, inc in relations:
        adj.setdefault(black, []).append((white, -inc))
        adj.setdefault(white, []).append((black, inc))
    while queue:
        face = queue.pop()
        for other, delta in adj.get(face, ()):
            if other not in H:
                H[other] = H[face] + delta
                queue.append(other)
    worst_path = _worst(abs(H[black] - H[white] - inc)
                        for black, white, inc in relations)
    if not worst_path <= 1e-10:
        raise AssertionError("H is path dependent: %.3e" % worst_path)

    wired = {domain.black[v] for v in domain.ba_vertices}
    bvals = [abs(H[b] - 1.0) for b in wired]
    bvals += [abs(H[w]) for w in domain.abstar_whites]
    worst_boundary = _worst(bvals)

    image = []
    for v, fval in field.vertex_values.items():
        nbrs = [(v[0] + d[0], v[1] + d[1]) for d in CCW_SIDES]
        if not all(w in domain.status for w in nbrs):
            continue
        black, white = segment_faces(*oriented_segment(v, nbrs[0]))
        other = (2 * v[0] - 1 - black[0], 2 * v[1] - 1 - black[1])
        if not {black, other} <= domain.blacks:
            continue  # a cell beside v is not in the domain
        dz = edge_direction((other, black), domain.e_b)
        lhs = H[black] - H[other]
        rhs = 0.5 * (fval * fval * dz).imag
        image.append(abs(lhs - rhs))
    worst_image = _worst(image)

    return {"H": H, "path_residual": worst_path,
            "boundary_residual": worst_boundary,
            "image_residual": worst_image,
            "ok": bool(_worst((worst_path, worst_boundary,
                              worst_image)) <= 1e-10)}


def laplacian_signs(field, H):
    """(min primal Laplacian, max dual Laplacian) over interior faces.

    Interior primal faces are vertices of the domain with all four lattice
    neighbors present; interior dual faces are whites flanked on all four
    diagonal sides by whites of the domain.
    """
    domain = field.domain
    vset = set(domain.primal.vertices)
    min_primal = math.inf
    for x in domain.primal.vertices:
        nbrs = [(x[0] + d[0], x[1] + d[1]) for d in CCW_SIDES]
        if not all(w in vset for w in nbrs):
            continue
        hx = H[domain.black[x]]
        lap = sum(H[domain.black[w]] - hx for w in nbrs)
        min_primal = min(min_primal, lap)
    max_dual = -math.inf
    whites = domain.whites
    for y in whites:
        nbrs = [(y[0] + dx, y[1] + dy)
                for dx, dy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        if not all(w in whites for w in nbrs):
            continue
        hy = H[y]
        lap = sum(H[w] - hy for w in nbrs)
        max_dual = max(max_dual, lap)
    return min_primal, max_dual


# ---------------------------------------------------------------------------
# homology and interface loops of one torus configuration (sixvertex)


def _winding_subgroup(gens):
    """Hermite form of the subgroup of Z^2 spanned by the winding classes.

    Canonical: ((a, b), (0, d)) with a > 0, d > 0, 0 <= b < d, degenerate
    rows dropped, so any two generator lists of the same subgroup agree.
    """
    rows = [g for g in gens if g != (0, 0)]
    if not rows:
        return ()
    lead = None
    tail = 0
    for a, b in rows:
        if lead is None:
            lead = (a, b)
        else:
            a1, b1 = lead
            while a:
                (a1, b1), (a, b) = (a, b), (a1 - (a1 // a) * a, b1 - (a1 // a) * b)
            lead = (a1, b1)
            tail = math.gcd(tail, b)
    a, b = lead
    if a == 0:
        tail = math.gcd(tail, b)
        return ((0, tail),) if tail else ()
    if a < 0:
        a, b = -a, -b
    if tail:
        b %= tail
        return ((a, b), (0, tail))
    return ((a, b),)


@dataclass(frozen=True)
class ClusterCensus:
    count: int            # all clusters, isolated sites included
    subgroups: tuple      # canonical winding subgroup per cluster

    @property
    def n_nonretractible(self):
        return sum(1 for h in self.subgroups if h)

    @property
    def n_winding_ne(self):
        # winds around the torus with a nonzero u-component
        return sum(1 for h in self.subgroups if any(r[0] for r in h))


# loop pairing at a medial vertex, keyed (slope is +1, primal edge open);
# slots 0=E 1=N 2=W 3=S
_PAIRS = {
    (True, True): {2: 1, 1: 2, 3: 0, 0: 3},
    (True, False): {2: 3, 3: 2, 1: 0, 0: 1},
    (False, True): {1: 0, 0: 1, 3: 2, 2: 3},
    (False, False): {2: 1, 1: 2, 3: 0, 0: 3},
}
_STEP = ((1, 0), (0, 1), (-1, 0), (0, -1))  # E N W S
# the side a medial step enters by, per side it leaves by (E N W S)
_OPPOSITE = (2, 3, 0, 1)


def _census(rc, edges, n_sites, mask, reverse=False):
    adj = [[] for _ in range(n_sites)]
    for k, (a, b, du, dv) in enumerate(edges):
        if mask >> k & 1:
            adj[a].append((b, du, dv))
            adj[b].append((a, -du, -dv))
    if reverse:
        adj = [list(reversed(x)) for x in adj]
    roots = range(n_sites - 1, -1, -1) if reverse else range(n_sites)
    lift = [None] * n_sites
    subs = []
    for root in roots:
        if lift[root] is not None:
            continue
        lift[root] = (0, 0)
        stack = [root]
        gens = []
        while stack:
            x = stack.pop()
            lx, ly = lift[x]
            for y, du, dv in adj[x]:
                pos = (lx + du, ly + dv)
                if lift[y] is None:
                    lift[y] = pos
                    stack.append(y)
                else:
                    gu, gv = pos[0] - lift[y][0], pos[1] - lift[y][1]
                    if gu or gv:
                        # a cycle closed; its displacement is a full
                        # period multiple by construction
                        assert gu % rc.M == 0 and gv % rc.P == 0
                        gens.append((gu // rc.M, gv // rc.P))
        subs.append(_winding_subgroup(gens))
    return ClusterCensus(len(subs), tuple(subs))


def clusters(rc, mask, reverse=False):
    """Primal cluster census of the open bonds in mask."""
    return _census(rc, rc.edges, rc.n_sites, mask, reverse)


def dual_bonds(rc):
    """(dual_sites, dual_edges) of the torus: the sites of odd u + v parity,
    and per primal bond k the dual bond crossing it, (a, b, du, dv) as in
    rc.edges.  The package builds no dual side; these are the walker's own."""
    M, P = rc.M, rc.P
    sites = [(i, j) for i in range(M) for j in range(P) if (i + j) % 2]
    sid = {s: k for k, s in enumerate(sites)}
    edges = []
    for i in range(M):
        for j in range(P):
            if (i + j) % 2 == 0:
                a, b, du = ((i + 1) % M, j), (i, (j + 1) % P), -1
            else:
                a, b, du = (i, j), ((i + 1) % M, (j + 1) % P), 1
            edges.append((sid[a], sid[b], du, 1))
    return sites, edges


def dual_clusters(rc, mask, reverse=False):
    """Dual cluster census; dual bond k is open iff primal bond k is closed."""
    sites, edges = dual_bonds(rc)
    dual_mask = ~mask & ((1 << rc.n_edges) - 1)
    return _census(rc, edges, len(sites), dual_mask, reverse)


def loop_census(rc, mask):
    """Interface loops on the medial torus.

    Returns a list of (n_medial_edges, cut_visits, alpha, beta) with
    (alpha, beta) the winding class and cut_visits the number of
    horizontal medial edges the loop uses across the cut u = 0; the
    signed crossing count always equals alpha.
    """
    M, P = rc.M, rc.P
    seen = set()
    out = []
    for i0 in range(M):
        for j0 in range(P):
            for s0 in (0, 1):
                if ((i0, j0), s0) in seen:
                    continue
                v, slot = (i0, j0), s0
                du = dv = 0
                length = 0
                cut = 0
                signed = 0
                while True:
                    seen.add((v, slot))
                    dx, dy = _STEP[slot]
                    if slot == 0 and v[0] == M - 1:
                        cut += 1
                        signed += 1
                    if slot == 2 and v[0] == 0:
                        cut += 1
                        signed -= 1
                    du += dx
                    dv += dy
                    length += 1
                    v = ((v[0] + dx) % M, (v[1] + dy) % P)
                    enter = _OPPOSITE[slot]
                    seen.add((v, enter))
                    k = v[0] * P + v[1]
                    pairs = _PAIRS[((v[0] + v[1]) % 2 == 0, bool(mask >> k & 1))]
                    slot = pairs[enter]
                    if v == (i0, j0) and slot == s0:
                        break
                assert du % M == 0 and dv % P == 0
                alpha, beta = du // M, dv // P
                assert signed == alpha
                out.append((length, cut, alpha, beta))
    # every medial edge lies on exactly one loop
    assert sum(l for l, _, _, _ in out) == 2 * M * P
    return out
