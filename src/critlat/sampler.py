"""Monte Carlo engine: heat-bath dynamics, monotone coupling from the past,
Edwards-Sokal transfer and estimators.

Randomness contract: the uniform used for edge k in sweep t of a batch row i
is random((n_rows, n_edges))[i, k] drawn from a Philox generator keyed by
(seed, t). The stream is counter based, so rerunning a coupling from an
earlier time replays the identical variates at overlapping times, which is
what coupling-from-the-past requires. Sweeps update edges in index order.
A plain chain starts all open and reads the block of epoch t at sweep t, so
the seed fixes its whole trajectory.

The single-edge conditional is oracle.thresholds: P[w_e = 0 | rest] when the
endpoints of e are connected off e (boundary wiring included) and when they
are not. An edge is opened iff its uniform is >= the value that applies. For
q >= 1 the disconnected threshold dominates the connected one, so two chains
driven by the same variates preserve the partial order, and both thresholds
decrease in p, which gives the shared-variate monotonicity in p.

Whether the endpoints of e are connected off e is asked on the contracted
graph: every edge end is replaced by the smallest vertex of its wired block
(bc.roots), so a state holds the edge bits only and wiring counts as
connection. Graphs with at most TABLE_MAX_EDGES edges keep each state as an
integer mask and read the answer from precomputed tables
(`conn_off_tables`), in chains and in coupling from the past. Larger graphs
keep a state list with cluster labels (`_clusters`). A closed edge reads the
answer from the labels. An open edge asks only when its uniform lies below
the larger threshold, so that it may close, and then searches (`_cut_side`:
breadth-first from both endpoints, stopping as soon as the two sides meet
or one runs out). Opening an edge between two clusters relabels the
smaller; closing a bridge gives the side the search exhausted a label of
its own. Every route gives the boolean a union-find over all open edges
gives, so the variates consumed, the trajectories and the coupling
argument above do not depend on which one answers. In coupling from the
past, a row whose two chains have met sweeps once: equal states driven by
the same variates stay equal. The estimators label their draws with
oracle._sampled_labels and reduce them as the exact event arrays do.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .lattice import _integer, build_rect, cluster_stats, free_bc, wired_bc
from .oracle import (
    _check_pq,
    _check_spin_q,
    _crossing_sides,
    _joined,
    _pair_events,
    _sampled_labels,
    scan_configs,
    thresholds,
)


# doubling horizons 1, 2, 4, ... are capped here; reaching the cap is an
# explicit sampling failure, never a silent truncation
CFTP_MAX_SWEEPS = 1 << 22

# largest edge count for the precomputed connectivity-off-e tables, read by
# the mask-encoded chains and coupling from the past
TABLE_MAX_EDGES = 12

# burn-in and thinning, in sweeps, of the chains of connect_mc
CHAIN_BURN_IN = 500
CHAIN_THIN = 5

_MASK64 = (1 << 64) - 1

# one Philox generator per thread, re-keyed by sweep_uniforms
_THREAD = threading.local()


def _check_draws(n_samples, burn_in=0, thin=1):
    """Refuse a non-integer n_samples, burn_in or thin, n_samples < 1,
    burn_in < 0 or thin < 1, naming the value."""
    for name, value, least in (("n_samples", n_samples, 1),
                               ("burn_in", burn_in, 0), ("thin", thin, 1)):
        if _integer(value, name) < least:
            raise ValueError("%s must be >= %d, not %r" % (name, least, value))


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int
    method: str


def sweep_uniforms(seed, epoch, n_rows, n_edges):
    """The (n_rows, n_edges) uniform block of sweep `epoch`.

    Each thread keeps one Philox generator and one state dict, and re-keys
    the generator here: counter, buffer and key are reset to those of a
    fresh Philox(key=(seed, epoch)), whose constructor would also draw OS
    entropy that the key then discards. The setter copies the values.
    """
    rekey = getattr(_THREAD, "rekey", None)
    if rekey is None:
        gen = np.random.Generator(np.random.Philox(0))
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0] * 4, "key": [0, 0]},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                 "uinteger": 0}
        rekey = _THREAD.rekey = gen, state, state["state"]["key"]
    gen, state, key = rekey
    key[0] = seed & _MASK64
    key[1] = epoch & _MASK64
    gen.bit_generator.state = state
    return gen.random((n_rows, n_edges))


def _links(graph, bc):
    """(links, ends) for the single-edge conditional, once per (graph, bc).

    ends[k] is the pair of block roots (bc.roots) of the endpoints of edge
    k, and links[v] lists (w, k) for every edge k joining roots v and w.
    """
    root = bc.roots(graph.n_vertices)
    ends = [(root[u], root[v]) for u, v in graph.edge_ends]
    links = [[] for _ in range(graph.n_vertices)]
    for k, (a, b) in enumerate(ends):
        links[a].append((b, k))
        links[b].append((a, k))
    return links, ends


def _cut_side(links, state, x, y, k):
    """None when x and y are joined by links open in state, edge k
    excluded; otherwise the set of vertices joined to one of them off k.

    Bidirectional breadth-first search with early exit: each step takes the
    next vertex from the side with fewer vertices queued, and the search
    stops as soon as the two sides meet (None) or one runs out (its set).
    """
    if x == y:
        return None
    near, far = {x}, {y}
    queue, other = [x], [y]
    head = other_head = 0
    while head < len(queue) and other_head < len(other):
        if len(queue) - head > len(other) - other_head:
            near, far, queue, other = far, near, other, queue
            head, other_head = other_head, head
        v = queue[head]
        head += 1
        for w, j in links[v]:
            if j != k and state[j] and w not in near:
                if w in far:
                    return None
                near.add(w)
                queue.append(w)
    return near if head == len(queue) else far


def _clusters(ends, state, n_vertices):
    """Kept cluster labels of a state list: lab[v] is the set of vertices
    joined to v by open links, one set object per cluster."""
    lab = [{v} for v in range(n_vertices)]
    for k, (x, y) in enumerate(ends):
        if state[k]:
            _merge(lab, x, y)
    return lab


def _copy_clusters(lab):
    """A copy of kept cluster labels (_clusters): one new set per cluster,
    which every vertex in it points to."""
    out = [None] * len(lab)
    for v, c in enumerate(lab):
        if out[v] is None:
            c = set(c)
            for w in c:
                out[w] = c
    return out


def _merge(lab, x, y):
    """Join the clusters of x and y in lab, relabelling the smaller one."""
    big, small = lab[x], lab[y]
    if big is not small:
        if len(big) < len(small):
            big, small = small, big
        big |= small
        for v in small:
            lab[v] = big


def _sweep(links, ends, state, lab, u, thr_c, thr_d):
    """One in-place heat-bath sweep of a state list and its labels
    (_clusters), edges in index order.

    A closed edge reads whether its ends are joined off it from the labels.
    An open edge asks only when u is below the larger threshold, so that it
    may close, and then searches (_cut_side); when it closes as a bridge,
    the side the search exhausted becomes a cluster of its own.
    """
    opens = max(thr_c, thr_d)  # u >= opens opens e whatever the answer
    for k, (x, y) in enumerate(ends):
        if not state[k]:
            joined = lab[x] is lab[y]
            if u[k] >= (thr_c if joined else thr_d):
                state[k] = 1
                if not joined:
                    _merge(lab, x, y)
        elif u[k] < opens:
            side = _cut_side(links, state, x, y, k)
            if side is None:
                state[k] = 1 if u[k] >= thr_c else 0
            elif u[k] < thr_d:
                state[k] = 0
                lab[x] -= side
                for v in side:
                    lab[v] = side


# ---------------------------------------------------------------------------
# connectivity-off-e tables for the mask-encoded small-graph samplers


def conn_off_tables(graph, bc):
    """tables[k][mask] = endpoints of edge k connected in mask minus k.

    Indexed by the full edge mask (bit k is ignored); read from one label
    table per (graph, bc) and reused across sweeps and batches.
    """
    m = graph.n_edges
    if m > TABLE_MAX_EDGES:
        raise ValueError("connectivity tables limited to %d edges"
                         % TABLE_MAX_EDGES)
    labels = scan_configs(graph, bc)[0]
    tables = np.empty((m, 1 << m), dtype=bool)
    for k, (u, v) in enumerate(graph.edge_ends):
        half = tables[k].reshape(-1, 2, 1 << k)  # [:, 0] has bit k clear
        a, b = (labels[:, w].reshape(half.shape)[:, 0] for w in (u, v))
        np.equal(a, b, out=half[:, 0])
        half[:, 1] = half[:, 0]
    return tables


def _batch_sweep_masks(masks, u, thr):
    """One in-place heat-bath sweep of a batch of mask-encoded states;
    thr[k][mask] is the threshold that applies to edge k in mask."""
    for k in range(len(thr)):
        bit = 1 << k
        opened = u[:, k] >= thr[k][masks]
        masks[:] = np.where(opened, masks | bit, masks & ~bit)


def _sweep_mask(mask, u, thr):
    """One heat-bath sweep of one mask-encoded state, thr as a list of
    lists; returns the new mask."""
    bit = 1
    for x, row in zip(u, thr):
        mask = mask | bit if x >= row[mask] else mask & ~bit
        bit <<= 1
    return mask


def _mask_bits(masks, m):
    """(n, m) uint8 bit rows of integer masks (bit k = edge k)."""
    return ((np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(m))
            & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# coupling from the past


def cftp_batch(graph, p, q, bc, seed, n_samples, use_tables=None):
    """n_samples exact draws from phi^xi_{G,p,q} as a (n_samples, m) array.

    Runs the all-open and all-closed chains with shared variates from
    doubling horizons until they coalesce at time 0; the partial order
    between the chains is asserted after every sweep. Requires q >= 1.
    Both code paths (vectorized table lookups for small graphs, per-row
    sweeps otherwise) draw one variate block per sweep, read the same rows
    of it and produce identical output; use_tables overrides the automatic
    choice.
    """
    if not q >= 1.0:
        raise ValueError("coupling from the past needs q >= 1, not %r" % (q,))
    if not 0.0 < p < 1.0:
        raise ValueError("p must be inside (0, 1), not %r" % (p,))
    _check_draws(n_samples)
    m = graph.n_edges
    thr_c, thr_d = thresholds(p, q)
    full = (1 << m) - 1
    if use_tables is None:
        use_tables = m <= TABLE_MAX_EDGES
    if use_tables:
        thr = np.where(conn_off_tables(graph, bc), thr_c, thr_d)
    else:
        thr, (links, ends) = None, _links(graph, bc)
        # the all-open labels, which each row copies
        n = graph.n_vertices
        open_lab = _clusters(ends, [1] * m, n)
    result = np.zeros((n_samples, m), dtype=np.uint8)
    active = np.arange(n_samples)
    horizon = 1
    while active.size:
        if horizon > CFTP_MAX_SWEEPS:
            raise RuntimeError(
                "CFTP did not coalesce within %d sweeps" % CFTP_MAX_SWEEPS)
        if thr is not None:
            top = np.full(active.size, full, dtype=np.int64)
            bot = np.zeros(active.size, dtype=np.int64)
        else:
            # (state, labels) per row; a coalesced row's bottom is its top
            top = [([1] * m, _copy_clusters(open_lab)) for _ in active]
            bot = [([0] * m, [{v} for v in range(n)]) for _ in active]
        for t in range(-horizon, 0):
            u = sweep_uniforms(seed, t, n_samples, m)[active]
            if thr is not None:
                _batch_sweep_masks(top, u, thr)
                _batch_sweep_masks(bot, u, thr)
                ordered = not (bot & ~top).any()
            else:
                for i, row in enumerate(u.tolist()):
                    _sweep(links, ends, *top[i], row, thr_c, thr_d)
                    if bot[i] is not top[i]:
                        _sweep(links, ends, *bot[i], row, thr_c, thr_d)
                        if bot[i][0] == top[i][0]:
                            bot[i] = top[i]
                ordered = all(all(map(operator.le, lo, hi))
                              for (hi, _), (lo, _) in zip(top, bot))
            if not ordered:
                raise AssertionError("monotone coupling order violated")
        if thr is not None:
            top, bot = _mask_bits(top, m), _mask_bits(bot, m)
        else:
            top = np.array([s for s, _ in top], dtype=np.uint8)
            bot = np.array([s for s, _ in bot], dtype=np.uint8)
        done = (top == bot).all(axis=1)
        result[active[done]] = top[done]
        active = active[~done]
        horizon *= 2
    return result


# ---------------------------------------------------------------------------
# plain chains (burn-in sampling; the only option for q < 1)


def chain_samples(graph, p, q, bc, seed, n_samples, burn_in, thin):
    """(n_samples, m) states of one chain from the all-open state, thinned
    after burn-in.

    Not an exact sampler: the marginal is phi^xi only in the long-chain
    limit, and thinned draws stay correlated. Valid for every q > 0. Up to
    TABLE_MAX_EDGES edges the chain is one integer mask read against
    conn_off_tables, otherwise a state list with kept labels (_sweep).
    """
    _check_draws(n_samples, burn_in, thin)
    m = graph.n_edges
    thr_c, thr_d = thresholds(p, q)
    table = m <= TABLE_MAX_EDGES
    if table:
        thr = np.where(conn_off_tables(graph, bc), thr_c, thr_d).tolist()
        state = (1 << m) - 1
    else:
        links, ends = _links(graph, bc)
        state = [1] * m
        lab = _clusters(ends, state, graph.n_vertices)
    rows = []
    for t in range(burn_in + n_samples * thin):
        u = sweep_uniforms(seed, t, 1, m)[0].tolist()
        if table:
            state = _sweep_mask(state, u, thr)
        else:
            _sweep(links, ends, state, lab, u, thr_c, thr_d)
        if t >= burn_in and (t - burn_in) % thin == thin - 1:
            rows.append(state if table else state[:])
    return _mask_bits(rows, m) if table else np.array(rows, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Edwards-Sokal transfer


def es_forward(graph, bits, q, rng, bc=None, boundary_color=None):
    """Spins from clusters: one uniform color per cluster of omega^xi.

    q must be an integer >= 2, as on the spin side. boundary_color forces
    every cluster that meets the graph boundary to that color (the
    monochromatic boundary condition).
    """
    _check_spin_q(q)
    if len(bits) != graph.n_edges:
        raise ValueError("bits has %d entries for %d edges"
                         % (len(bits), graph.n_edges))
    if boundary_color is not None and boundary_color not in range(int(q)):
        raise ValueError("boundary_color %r not in range(%d)"
                         % (boundary_color, q))
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    if bc is None:
        bc = free_bc(graph)
    _, labels = cluster_stats(graph, bits, bc)
    roots = sorted(set(labels))
    color_of = dict(zip(roots, rng.integers(0, q, size=len(roots)).tolist()))
    if boundary_color is not None:
        for i in graph.boundary_indices:
            color_of[labels[i]] = boundary_color
    return np.array([color_of[labels[i]] for i in range(graph.n_vertices)],
                    dtype=np.int8)


def es_reverse(graph, colors, p, rng):
    """Percolation from spins: equal-endpoint edges open with probability p."""
    if len(colors) != graph.n_vertices:
        raise ValueError("colors has %d entries for %d vertices"
                         % (len(colors), graph.n_vertices))
    _check_pq(p)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    u = rng.random(graph.n_edges)
    return np.array([colors[a] == colors[b] and u[k] < p
                     for k, (a, b) in enumerate(graph.edge_ends)],
                    dtype=np.uint8)


# ---------------------------------------------------------------------------
# estimators


def binomial_estimate(hits, n, seed, method):
    mean = hits / n
    return Estimate(mean, math.sqrt(max(mean * (1.0 - mean), 0.0) / n),
                    n, seed, method)


def _draw(graph, p, q, bc, seed, n_samples, method, burn_in, thin):
    """(n_samples, m) draws: exact CFTP ("cftp") or one thinned heat-bath
    chain ("chain"); any other method is refused."""
    if method == "cftp":
        return cftp_batch(graph, p, q, bc, seed, n_samples)
    if method == "chain":
        return chain_samples(graph, p, q, bc, seed, n_samples, burn_in, thin)
    raise ValueError("method must be cftp or chain")


def crossing_mc(nx, ny, p, q, bc_kind, n_samples, seed, burn_in=1500,
                thin=20):
    """Estimate of the horizontal open-crossing probability of [0,nx]x[0,ny].

    The event is an omega-open path; the boundary condition ("free" or
    "wired") only enters the sampling weights. q = 1 draws product
    configurations directly; q != 1 uses a thinned heat-bath chain.
    """
    if bc_kind not in ("free", "wired"):
        raise ValueError("bc_kind must be free or wired")
    if nx < 1:
        raise ValueError("a crossing needs nx >= 1, not %r" % (nx,))
    _check_pq(p, q)
    graph = build_rect((0, nx), (0, ny))
    bc = wired_bc(graph) if bc_kind == "wired" else free_bc(graph)
    left, right = _crossing_sides(graph, (0, 0, nx, ny), "horizontal")

    def crossings(bits):
        labels = _sampled_labels(graph, free_bc(graph), bits)
        return int(_joined(labels, left, right).any(axis=1).sum())

    if q == 1.0:
        # product draws in chunks of 4096 rows, chunk epoch = rows before it
        _check_draws(n_samples)
        hits = sum(crossings(sweep_uniforms(
            seed, done, min(4096, n_samples - done), graph.n_edges) < p)
            for done in range(0, n_samples, 4096))
        return binomial_estimate(hits, n_samples, seed, "direct")
    batch = chain_samples(graph, p, q, bc, seed, n_samples, burn_in, thin)
    return binomial_estimate(crossings(batch), n_samples, seed, "chain")


def connect_mc(graph, p, q, bc, x, y, n_samples, seed, method="cftp"):
    """Estimate of phi[x <-> y in omega^xi]."""
    ix, iy = graph.index(x), graph.index(y)
    batch = _draw(graph, p, q, bc, seed, n_samples, method, CHAIN_BURN_IN,
                  CHAIN_THIN)
    labels = _sampled_labels(graph, bc, batch)
    hits = int(_pair_events(labels, [(ix, iy)])[0].sum())
    return binomial_estimate(hits, n_samples, seed, method)


def chi_square_gof(masks, probs):
    """Chi-square goodness of fit of sampled masks against exact probs.

    Cells with expected count below 5 are pooled (smallest first) to keep
    the asymptotic chi-square valid. A mask outside range(len(probs)) is
    refused. Returns (stat, p_value, dof).
    """
    from scipy import stats

    masks = np.asarray(masks)
    n = len(masks)
    bad = (masks < 0) | (masks >= len(probs))
    if bad.any():
        raise ValueError("mask %d not in range(%d) of the exact probabilities"
                         % (masks[bad][0], len(probs)))
    counts = np.bincount(masks, minlength=len(probs)).astype(float)
    expected = np.asarray(probs, dtype=float) * n
    order = np.argsort(expected)
    obs_cells, exp_cells = [], []
    acc_o = acc_e = 0.0
    for i in order:
        acc_o += counts[i]
        acc_e += expected[i]
        if acc_e >= 5.0:
            obs_cells.append(acc_o)
            exp_cells.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_cells:
            obs_cells[-1] += acc_o
            exp_cells[-1] += acc_e
        else:
            obs_cells.append(acc_o)
            exp_cells.append(acc_e)
    if len(exp_cells) < 2:
        return 0.0, 1.0, 0
    obs = np.array(obs_cells)
    exp = np.array(exp_cells) * (obs.sum() / sum(exp_cells))
    stat, pval = stats.chisquare(obs, exp)
    return float(stat), float(pval), len(obs) - 1


def bits_to_masks(batch):
    """(n, m) bit rows -> integer masks (bit k = edge k), m <= 63."""
    m = batch.shape[1]
    if m > 63:
        raise ValueError("%d columns overflow an int64 mask (at most 63)" % m)
    weights = (1 << np.arange(m, dtype=np.int64))
    return batch.astype(np.int64) @ weights
