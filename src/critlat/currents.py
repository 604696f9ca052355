"""High-temperature expansion and the random-current representation.

Currents assign a nonnegative integer to every edge with weight
w_beta(n) = prod_e beta^{n_e}/n_e!. Only the source set (odd-incidence
vertices) and the trace (edges with n_e > 0) enter the identities, so every
current sum is exact over per-edge parity classes, whose even and odd
entry sums are cosh beta and sinh beta. Trace functionals are arrays
indexed by support mask, summed over supersets by a weighted zeta transform.

Parity masks are read off one int64 word per edge mask, a bit for each
vertex some edge touches (at most 52): the words of the 2^k masks over
edges < k are copied to the next 2^k, XOR the endpoint bits of edge k. The
byte budget counts 17 bytes per mask: the word, its comparison with the
source word and the int64 index of a hit.

Only the switching check keeps a capped ensemble, as its independent
reference: verify_switching(n_max=) sums the multigraphs s = n1 + n2 with
entries <= n_max and source set A xor B, in one block per parity word of
A xor B (odd entries on its edges, even on the others). Over a block,
beta^|s|, the support mask of s and the splits of s between the source
sets are outer products of per-edge vectors over the edges' alphabets.
That family is closed under source swapping; only this path reads
multiplicities.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lattice import _integer, cluster_stats, free_bc
from .oracle import (
    _check_beta,
    _check_budget,
    _check_enum_edges,
    _superset_transform,
    connectivity_event,
    even_overlap_event,
    ising_moment,
)

# largest entry cap, below the 171! that overflows a float; both functions
# taking n_max refuse a larger one before allocating
N_MAX_LIMIT = 127


def _check_n_max(n_max):
    """Refuse an n_max that is not an integer in [0, N_MAX_LIMIT], naming
    it."""
    if not 0 <= _integer(n_max, "n_max") <= N_MAX_LIMIT:
        raise ValueError("n_max %d is outside [0, %d]" % (n_max, N_MAX_LIMIT))


def parity_masks(graph, sources):
    """All edge subsets whose odd-degree vertex set equals sources."""
    idx = [graph.index(x) for x in sources]
    if len(set(idx)) != len(idx):
        raise ValueError("sources must be distinct vertices")
    m = graph.n_edges
    _check_enum_edges(m)
    _check_budget((1 << m) * 17, "the parity words of %d edges" % m)
    bit = {}
    for u, v in graph.edge_ends:
        bit.setdefault(u, 1 << len(bit))
        bit.setdefault(v, 1 << len(bit))
    if not set(idx) <= bit.keys():
        return []
    par = np.zeros(1 << m, dtype=np.int64)
    for k, (u, v) in enumerate(graph.edge_ends):
        np.bitwise_xor(par[:1 << k], bit[u] ^ bit[v], out=par[1 << k:2 << k])
    return np.flatnonzero(par == sum(bit[i] for i in idx)).tolist()


def _parity_pairs(graph, A, B):
    """(m1 | m2, |m1 & m2|, |m1 ^ m2|) over all parity mask pairs of A, B;
    a source set given twice is enumerated once."""
    ma = np.array(parity_masks(graph, A), dtype=np.int64)
    mb = (ma if set(map(tuple, A)) == set(map(tuple, B))
          else np.array(parity_masks(graph, B), dtype=np.int64))
    # per pair: the int64 forced mask, its temporaries and the float64 factors
    _check_budget(len(ma) * len(mb) * 48, "%d x %d parity mask pairs"
                  % (len(ma), len(mb)))
    both = np.bitwise_count(ma[:, None] & mb[None, :])
    one = np.bitwise_count(ma[:, None] ^ mb[None, :])
    return ma[:, None] | mb[None, :], both, one


def _pair_sum(graph, pairs, beta, trace):
    """double_current_sum over the mask pairs of _parity_pairs."""
    forced, both, one = pairs
    c0, c1 = math.cosh(beta), math.sinh(beta)
    if trace is None:
        rest = (c0 * c0) ** (graph.n_edges - both - one)
    else:
        rest = _superset_transform(trace, c0 * c0 - 1.0)[forced]
    return float(np.sum((c1 * c1) ** both * (c1 * c0) ** one * rest))


def double_current_sum(graph, A, B, beta, trace=None):
    """sum over d(n1)=A, d(n2)=B of w(n1)w(n2)F(trace).

    trace is an array over support masks of n1+n2 (None for F = 1). The
    parities are carried by a pair of subgraphs (m1, m2), all pairs at once:
    edges in both carry sinh^2, edges in one sinh cosh, and every extra
    supported edge has both entries even, not both zero.
    """
    _check_beta(beta)
    return _pair_sum(graph, _parity_pairs(graph, A, B), beta, trace)


def connected_trace(graph, x, y):
    """Trace functional: x and y joined by supported edges."""
    return connectivity_event(graph, free_bc(graph), x, y).astype(float)


def even_overlap_trace(graph, B):
    """Trace functional F_B: every supported cluster meets B evenly."""
    return even_overlap_event(graph, free_bc(graph), B).astype(float)


MULTIGRAPH_CAP = 8_000_000


def _split_tables(n_max):
    """T[par, t] = sum over a <= t, a = par mod 2, of 1/(a! (t-a)!)."""
    table = np.zeros((2, n_max + 1))
    for t in range(n_max + 1):
        for a in range(t + 1):
            table[a & 1, t] += 1.0 / (math.factorial(a)
                                      * math.factorial(t - a))
    return table


def _parity_blocks(graph, n_max, sources):
    """(words, blocks): the parity words of sources and, per word, the
    per-edge alphabets of the multigraphs with entries <= n_max that are odd
    exactly on its edges; each multigraph of source set sources is in the
    product of one block."""
    m = graph.n_edges
    count = (n_max + 1) ** m
    if count > MULTIGRAPH_CAP:
        raise ValueError("refusing to enumerate %d multigraphs" % count)
    # the full product is still charged 24 + |E| bytes per multigraph, so
    # every (graph, n_max) refused when all of it was built stays refused
    _check_budget(count * (24 + m), "%d multigraphs over %d edges" % (count, m))
    words = parity_masks(graph, sources)
    alphabets = (np.arange(0, n_max + 1, 2), np.arange(1, n_max + 1, 2))
    blocks = [[alphabets[(w >> e) & 1] for e in range(m)] for w in words]
    # per multigraph of the largest block, at most ten float64 or int64
    # arrays while verify_switching expands and sums it
    size = max((math.prod(map(len, b)) for b in blocks), default=0)
    _check_budget(size * 80, "a block of %d multigraphs" % size)
    return words, blocks


def _expand(ufunc, vectors):
    """Entry s of the flattened outer product under ufunc (np.add or
    np.multiply) combines vectors[e][s_e] over the edges e of a block."""
    return np.ravel(functools.reduce(ufunc.outer, vectors, ufunc.identity))


def switching_tail_bound(graph, beta, n_max):
    """Mass discarded by capping n1 + n2 at n_max per edge.

    Per edge the pair weights sum to (2 beta)^s / s! over the total s, so
    the cut tail is at most beta^{n_max+1}/(n_max+1)! times a graph factor.
    Uncapped sums lose nothing.
    """
    _check_beta(beta)
    if n_max is None:
        return 0.0
    _check_n_max(n_max)
    m = graph.n_edges
    factor = m * 2.0 ** (n_max + 1) * math.exp(2.0 * beta * m)
    return beta ** (n_max + 1) / math.factorial(n_max + 1) * factor


def verify_switching(graph, A, B, beta, n_max=None, trace=None):
    """Both sides of the source-swapping identity.

    LHS: sum over d(n1)=A, d(n2)=B of w(n1)w(n2) F(n1+n2).
    RHS: the same with sources A xor B and none, times 1[trace in F_B].
    F is the sure event or an array over support masks (trace=). By default
    each side is one exact double_current_sum. Given n_max, both sides
    instead enumerate the multigraphs s = n1 + n2 with entries <= n_max and
    d(s) = A xor B, the only ones either side counts, with split weights per
    source set: the gap compares two independent parity enumerations.
    """
    tail = switching_tail_bound(graph, beta, n_max)
    a_xor_b = sorted(set(map(tuple, A)) ^ set(map(tuple, B)))
    fb = even_overlap_trace(graph, B)
    if n_max is None:
        f = fb if trace is None else np.asarray(trace, float) * fb
        lhs = double_current_sum(graph, A, B, beta, trace=trace)
        rhs = double_current_sum(graph, a_xor_b, (), beta, trace=f)
    else:
        words, blocks = _parity_blocks(graph, n_max, a_xor_b)
        masks_a = parity_masks(graph, A)
        table = _split_tables(n_max)
        lhs = rhs = 0.0
        for block in blocks:
            smask = _expand(np.add, [(a > 0) << e for e, a in enumerate(block)])
            w = beta ** _expand(np.add, block)
            # split weights: over the parity words pi of n1, d(n1) = A or
            # A xor B, the sum of the products of T[bit e of pi, s_e];
            # T[1, 0] = 0 confines both currents to the support
            w_ab, w_xor = (sum(_expand(np.multiply, [table[(pi >> e) & 1][a]
                                                     for e, a in enumerate(block)])
                               for pi in pis) for pis in (masks_a, words))
            f = 1.0 if trace is None else np.asarray(trace, float)[smask]
            lhs += float(np.sum(w * w_ab * f))
            rhs += float(np.sum(w * w_xor * f * fb[smask]))
    gap = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "gap": gap, "tail_bound": tail,
            "n_max": n_max, "ok": bool(gap <= 1e-12 * scale)}


def double_current_event(graph, B, beta, trace=None):
    """P^B[event on the trace] for the two-current measure d(n1)=B, d(n2)=0.

    trace None means the sure event. Refuses a B that no current carries.
    """
    _check_beta(beta)
    pairs = _parity_pairs(graph, B, ())
    den = _pair_sum(graph, pairs, beta, None)
    if den == 0.0:
        raise ValueError("no current of positive weight has source set %r" % (B,))
    return 1.0 if trace is None else _pair_sum(graph, pairs, beta, trace) / den


# ---------------------------------------------------------------------------
# correlation inequalities via the spin oracle


def u4_value(graph, beta, xs):
    """Lebowitz's fourth Ursell combination, nonpositive for the Ising model.

    U4 = E[s1 s2 s3 s4] - E[s1 s2]E[s3 s4] - E[s1 s3]E[s2 s4]
         - E[s1 s4]E[s2 s3].
    """
    x1, x2, x3, x4 = [tuple(x) for x in xs]
    m = ising_moment
    return (m(graph, beta, [x1, x2, x3, x4])
            - m(graph, beta, [x1, x2]) * m(graph, beta, [x3, x4])
            - m(graph, beta, [x1, x3]) * m(graph, beta, [x2, x4])
            - m(graph, beta, [x1, x4]) * m(graph, beta, [x2, x3]))


def simon_report(graph, beta, x, z, S):
    """Simon's inequality across a separating set S.

    mu[sigma_x sigma_z] <= sum_{y in S} mu[sigma_x sigma_y]
    mu[sigma_y sigma_z]; S must disconnect x from z in the graph: with every
    edge touching S closed, x and z must lie in different clusters.
    """
    blocked = {graph.index(v) for v in S}
    ix, iz = graph.index(x), graph.index(z)
    if ix in blocked or iz in blocked:
        raise ValueError("endpoints must lie outside the separating set")
    bits = [u not in blocked and v not in blocked for u, v in graph.edge_ends]
    _, labels = cluster_stats(graph, bits, free_bc(graph))
    if labels[ix] == labels[iz]:
        cluster = [v for v, lab in zip(graph.vertices, labels)
                   if lab == labels[ix]]
        raise ValueError("S does not separate: open path inside the cluster %r"
                         % (cluster,))
    lhs = ising_moment(graph, beta, [x, z])
    rhs = sum(ising_moment(graph, beta, [x, y])
              * ising_moment(graph, beta, [y, z]) for y in S)
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
            "ok": bool(lhs <= rhs + 1e-12)}


def truncated_ineq_checks(graph, beta, quad, simon_args):
    """Combined U4 and Simon report (simon_args = (x, z, S))."""
    x, z, S = simon_args
    simon = simon_report(graph, beta, x, z, S)
    u4 = u4_value(graph, beta, quad)
    return {"u4": u4, "u4_ok": bool(u4 <= 1e-12), "simon": simon,
            "ok": bool(u4 <= 1e-12 and simon["ok"])}
