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
reference: verify_switching(n_max=) enumerates the multigraphs n1 + n2 with
entries <= n_max and source set A xor B, per parity word of A xor B the
product of odd entries on its edges and even entries on the others, and
splits each between the two source sets. That family is closed under
source swapping; only this path reads multiplicities.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .lattice import cluster_stats, free_bc
from .oracle import (
    _check_budget,
    _check_enum_edges,
    _product_columns,
    _superset_transform,
    connectivity_event,
    even_overlap_event,
    ising_moment,
)

# largest entry cap, as multigraph entries are int8; both functions taking
# n_max refuse a larger one before allocating
N_MAX_LIMIT = 127


def _check_n_max(n_max):
    if not 0 <= n_max <= N_MAX_LIMIT:
        raise ValueError("n_max %d is outside [0, %d], the limit of the int8 "
                         "multigraph entries" % (n_max, N_MAX_LIMIT))


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


def single_current_sum(graph, A, beta):
    """sum over d(n) = A of w_beta(n) = cosh^|E| sum_{d eta = A} tanh^|eta|."""
    ones = np.bitwise_count(np.array(parity_masks(graph, A), dtype=np.int64))
    return math.cosh(beta) ** graph.n_edges * float(np.sum(math.tanh(beta) ** ones))


def hte_correlation(graph, beta, A):
    """tanh-weight ratio sum_{d eta = A} / sum_{d eta = empty} = E[sigma_A].

    Odd |A| gives 0 with a warning: the sum is empty by parity.
    """
    if len(A) % 2 == 1:
        warnings.warn("odd source sets have no even-subgraph expansion")
        return 0.0
    return single_current_sum(graph, A, beta) / single_current_sum(graph, (), beta)


def current_weight(values, beta):
    """w_beta(n) = prod_e beta^{n_e} / n_e!."""
    return math.prod(beta ** v / math.factorial(v) for v in values)


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


def _multigraph_values(graph, n_max, sources):
    """(|E|, count) int8 values of the multigraphs with entries <= n_max and
    source set sources, built per parity word of sources."""
    m = graph.n_edges
    count = (n_max + 1) ** m
    if count > MULTIGRAPH_CAP:
        raise ValueError("refusing to enumerate %d multigraphs" % count)
    # the full product is still charged 24 + |E| bytes per multigraph, so
    # every (graph, n_max) refused when all of it was built stays refused
    _check_budget(count * (24 + m), "%d multigraphs over %d edges" % (count, m))
    alphabets = (np.arange(0, n_max + 1, 2), np.arange(1, n_max + 1, 2))
    blocks = [[alphabets[(w >> e) & 1] for e in range(m)]
              for w in parity_masks(graph, sources)]
    sizes = [math.prod(map(len, b)) for b in blocks]
    # per kept multigraph: the |E| int8 values, then in verify_switching the
    # int64 support mask and at most eight float64 arrays
    _check_budget(sum(sizes) * (m + 72), "%d multigraphs of the right parity"
                  " over %d edges" % (sum(sizes), m))
    vals = np.empty((m, sum(sizes)), dtype=np.int8)
    cuts = np.cumsum(sizes, dtype=np.int64)[:-1]
    for block, part in zip(blocks, np.split(vals, cuts, axis=1)):
        for row, col in zip(part, _product_columns(block)):
            row[:] = col
    return vals


def _split_weights(graph, sources, vals, table):
    """sum over n1 <= s with d(n1) = sources of prod_e 1/(n1_e!(s_e-n1_e)!).

    The complementary current s - n1 inherits its source set from parity,
    and T[1, 0] = 0 confines both currents to the support automatically.
    """
    total = np.zeros(vals.shape[1])
    for pi in parity_masks(graph, sources):
        term = np.ones(vals.shape[1])
        for e in range(graph.n_edges):
            term *= table[(pi >> e) & 1][vals[e]]
        total += term
    return total


def switching_tail_bound(graph, beta, n_max):
    """Mass discarded by capping n1 + n2 at n_max per edge.

    Per edge the pair weights sum to (2 beta)^s / s! over the total s, so
    the cut tail is at most beta^{n_max+1}/(n_max+1)! times a graph factor.
    Uncapped sums lose nothing.
    """
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
        vals = _multigraph_values(graph, n_max, a_xor_b)
        smask = np.zeros(vals.shape[1], dtype=np.int64)
        for e, v in enumerate(vals):
            smask |= (v > 0).astype(np.int64) << e
        w = beta ** vals.sum(axis=0, dtype=float)

        table = _split_tables(n_max)
        w_ab = _split_weights(graph, A, vals, table)
        w_xor = _split_weights(graph, a_xor_b, vals, table)
        f = 1.0 if trace is None else np.asarray(trace, float)[smask]
        lhs = float(np.sum(w * w_ab * f))
        rhs = float(np.sum(w * w_xor * f * fb[smask]))
    gap = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "gap": gap, "tail_bound": tail,
            "n_max": n_max, "ok": bool(gap <= 1e-12 * scale)}


def double_current_event(graph, B, beta, trace=None):
    """P^B[event on the trace] for the two-current measure d(n1)=B, d(n2)=0.

    trace None means the sure event. Refuses a B that no current carries.
    """
    pairs = _parity_pairs(graph, B, ())
    den = _pair_sum(graph, pairs, beta, None)
    if den == 0.0:
        raise ValueError("no current of positive weight has source set %r" % (B,))
    return 1.0 if trace is None else _pair_sum(graph, pairs, beta, trace) / den


def squared_correlation_gap(graph, x, y, beta):
    """|mu^f[sigma_x sigma_y]^2 - P^0[x <-> y in the trace]|."""
    prob = double_current_event(graph, (), beta, connected_trace(graph, x, y))
    mu = ising_moment(graph, beta, [x, y])
    return abs(mu * mu - prob)


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
