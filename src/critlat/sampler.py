"""Monte Carlo engine: heat-bath dynamics, monotone coupling from the past,
Edwards-Sokal transfer and estimators.

Randomness contract: the uniform used for edge k in sweep t of a batch row i
is random((n_rows, n_edges))[i, k] drawn from a Philox generator keyed by
(seed, t). The stream is counter based, so rerunning a coupling from an
earlier time replays the identical variates at overlapping times, which is
what coupling-from-the-past requires. Sweeps update edges in index order.

The single-edge conditional P[w_e = 1 | rest] is p when the endpoints of e
are connected off e (boundary wiring included), p/(p + q(1-p)) otherwise; an
edge is opened iff its uniform is >= P[w_e = 0 | rest]. For q >= 1 the
disconnected threshold dominates the connected one, so two chains driven by
the same variates preserve the partial order, and both thresholds decrease
in p, which gives the shared-variate monotonicity in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import UnionFind, crossing_detect, cluster_stats, free_bc
from .oracle import scan_configs

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


# doubling horizons 1, 2, 4, ... are capped here; reaching the cap is an
# explicit sampling failure, never a silent truncation
CFTP_MAX_SWEEPS = 1 << 22

# largest edge count for the precomputed connectivity-off-e tables used by
# the vectorized batch sampler
TABLE_MAX_EDGES = 12

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int
    method: str


@dataclass(frozen=True)
class ChainState:
    """Heat-bath chain state; replayable from (seed, graph, params, step)."""

    bits: tuple
    seed: int
    step: int


def sweep_uniforms(seed, epoch, n_rows, n_edges):
    """The (n_rows, n_edges) uniform block of sweep `epoch`."""
    key = np.array([seed & _MASK64, epoch & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random((n_rows, n_edges))


def thresholds(p, q):
    """(connected, disconnected) values of P[w_e = 0 | rest]."""
    return 1.0 - p, q * (1.0 - p) / (p + q * (1.0 - p))


def _base_parent(graph, bc):
    """Flat parent array with the boundary blocks pre-wired."""
    parent = np.arange(graph.n_vertices, dtype=np.int32)
    for block in bc.blocks:
        for i in block:
            parent[i] = block[0]
    return parent


def _edge_ends(graph):
    return np.array([(graph.vertex_index[u], graph.vertex_index[v])
                     for u, v in graph.edges], dtype=np.int32)


def heatbath_step(graph, bits, edge_k, u, p, q, bc):
    """One heat-bath update of edge_k driven by the uniform u.

    Returns the new bits tuple; the edge is opened iff u >= P[w_e=0|rest].
    """
    uf = UnionFind(graph.n_vertices)
    for block in bc.blocks:
        for i in block[1:]:
            uf.union(block[0], i)
    for j, (a, b) in enumerate(graph.edges):
        if j != edge_k and bits[j]:
            uf.union(graph.vertex_index[a], graph.vertex_index[b])
    x, y = graph.edges[edge_k]
    conn = uf.find(graph.vertex_index[x]) == uf.find(graph.vertex_index[y])
    thr_c, thr_d = thresholds(p, q)
    new = 1 if u >= (thr_c if conn else thr_d) else 0
    out = list(bits)
    out[edge_k] = new
    return tuple(out)


# ---------------------------------------------------------------------------
# jitted sweep kernels (pure-python fallbacks when numba is absent)


@njit(cache=True)
def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@njit(cache=True)
def _conn_off_edge(bits, k, ends, base_parent, scratch):
    for i in range(scratch.shape[0]):
        scratch[i] = base_parent[i]
    for j in range(ends.shape[0]):
        if j != k and bits[j]:
            a = _find(scratch, ends[j, 0])
            b = _find(scratch, ends[j, 1])
            if a != b:
                scratch[b] = a
    return _find(scratch, ends[k, 0]) == _find(scratch, ends[k, 1])


@njit(cache=True)
def _sweep(bits, u, ends, base_parent, thr_c, thr_d, scratch):
    for k in range(ends.shape[0]):
        conn = _conn_off_edge(bits, k, ends, base_parent, scratch)
        thr = thr_c if conn else thr_d
        bits[k] = 1 if u[k] >= thr else 0


@njit(cache=True)
def _connected_batch(bits_batch, ends, src, dst, base_parent, scratch):
    """Per-row indicator that some src vertex joins some dst vertex."""
    n_rows = bits_batch.shape[0]
    out = np.zeros(n_rows, dtype=np.uint8)
    for r in range(n_rows):
        for i in range(scratch.shape[0]):
            scratch[i] = base_parent[i]
        for j in range(ends.shape[0]):
            if bits_batch[r, j]:
                a = _find(scratch, ends[j, 0])
                b = _find(scratch, ends[j, 1])
                if a != b:
                    scratch[b] = a
        hit = 0
        for s in range(src.shape[0]):
            rs = _find(scratch, src[s])
            for d in range(dst.shape[0]):
                if rs == _find(scratch, dst[d]):
                    hit = 1
                    break
            if hit:
                break
        out[r] = hit
    return out


# ---------------------------------------------------------------------------
# connectivity-off-e tables for the vectorized small-graph sampler


def conn_off_tables(graph, bc):
    """tables[k][mask] = endpoints of edge k connected in mask minus k.

    Indexed by the full edge mask (bit k is ignored); read from one label
    table per (graph, bc) and reused across sweeps and batches.
    """
    m = graph.n_edges
    if m > TABLE_MAX_EDGES:
        raise ValueError("connectivity tables limited to %d edges"
                         % TABLE_MAX_EDGES)
    labels = scan_configs(graph, bc)
    masks = np.arange(1 << m, dtype=np.int64)
    tables = np.empty((m, 1 << m), dtype=bool)
    for k, (u, v) in enumerate(_edge_ends(graph)):
        rest = masks & ~(1 << k)
        tables[k] = labels[rest, u] == labels[rest, v]
    return tables


def _batch_sweep_masks(masks, u, tables, thr_c, thr_d):
    """One in-place heat-bath sweep of a batch of mask-encoded states."""
    m = tables.shape[0]
    for k in range(m):
        bit = 1 << k
        conn = tables[k][masks]
        thr = np.where(conn, thr_c, thr_d)
        opened = u[:, k] >= thr
        masks[:] = np.where(opened, masks | bit, masks & ~bit)


# ---------------------------------------------------------------------------
# coupling from the past


def cftp_batch(graph, p, q, bc, seed, n_samples, max_sweeps=CFTP_MAX_SWEEPS,
               use_tables=None):
    """n_samples exact draws from phi^xi_{G,p,q} as a (n_samples, m) array.

    Runs the all-open and all-closed chains with shared variates from
    doubling horizons until they coalesce at time 0; the partial order
    between the chains is asserted after every sweep. Requires q >= 1.
    Both code paths (vectorized table lookups for small graphs, the sweep
    kernel otherwise) follow the same variate stream and produce identical
    output; use_tables overrides the automatic choice.
    """
    if q < 1.0:
        raise ValueError("coupling from the past needs q >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be inside (0,1)")
    m = graph.n_edges
    thr_c, thr_d = thresholds(p, q)
    full = (1 << m) - 1
    if use_tables is None:
        use_tables = m <= TABLE_MAX_EDGES
    tables = conn_off_tables(graph, bc) if use_tables else None
    ends = _edge_ends(graph)
    base_parent = _base_parent(graph, bc)
    scratch = np.empty_like(base_parent)
    result = np.zeros((n_samples, m), dtype=np.uint8)
    active = np.arange(n_samples)
    horizon = 1
    while active.size:
        if horizon > max_sweeps:
            raise RuntimeError(
                "CFTP did not coalesce within %d sweeps" % max_sweeps)
        if tables is not None:
            top = np.full(active.size, full, dtype=np.int64)
            bot = np.zeros(active.size, dtype=np.int64)
            for t in range(-horizon, 0):
                u = sweep_uniforms(seed, t, n_samples, m)[active]
                _batch_sweep_masks(top, u, tables, thr_c, thr_d)
                _batch_sweep_masks(bot, u, tables, thr_c, thr_d)
                if (bot & ~top).any():
                    raise AssertionError("monotone coupling order violated")
            done = top == bot
            done_rows = active[done]
            packed = top[done]
            for k in range(m):
                result[done_rows, k] = (packed >> k) & 1
            active = active[~done]
        else:
            still = []
            for r in active:
                top = np.ones(m, dtype=np.uint8)
                bot = np.zeros(m, dtype=np.uint8)
                for t in range(-horizon, 0):
                    u = sweep_uniforms(seed, t, n_samples, m)[r]
                    _sweep(top, u, ends, base_parent, thr_c, thr_d, scratch)
                    _sweep(bot, u, ends, base_parent, thr_c, thr_d, scratch)
                    if (bot & ~top).any():
                        raise AssertionError("monotone coupling order violated")
                if (top == bot).all():
                    result[r] = top
                else:
                    still.append(r)
            active = np.array(still, dtype=int)
        horizon *= 2
    return result


def cftp_sample(graph, p, q, bc, seed, max_sweeps=CFTP_MAX_SWEEPS):
    """One exact sample; row 0 of the batch stream for this seed."""
    return cftp_batch(graph, p, q, bc, seed, 1, max_sweeps)[0]


# ---------------------------------------------------------------------------
# plain chains (burn-in sampling; the only option for q < 1)


def chain_advance(graph, p, q, bc, state, n_sweeps):
    """Advance a ChainState by n_sweeps full sweeps (edges in index order)."""
    m = graph.n_edges
    thr_c, thr_d = thresholds(p, q)
    ends = _edge_ends(graph)
    base_parent = _base_parent(graph, bc)
    scratch = np.empty_like(base_parent)
    bits = np.array(state.bits, dtype=np.uint8)
    for t in range(state.step, state.step + n_sweeps):
        u = sweep_uniforms(state.seed, t, 1, m)[0]
        _sweep(bits, u, ends, base_parent, thr_c, thr_d, scratch)
    return ChainState(tuple(int(b) for b in bits), state.seed,
                      state.step + n_sweeps)


def chain_start(graph, seed, start="open"):
    if start == "open":
        bits = (1,) * graph.n_edges
    elif start == "closed":
        bits = (0,) * graph.n_edges
    else:
        bits = tuple(int(b) for b in start)
    return ChainState(bits, seed, 0)


def chain_samples(graph, p, q, bc, seed, n_samples, burn_in, thin,
                  start="open"):
    """(n_samples, m) states of one chain, thinned after burn-in.

    Not an exact sampler: the marginal is phi^xi only in the long-chain
    limit, and thinned draws stay correlated. Valid for every q > 0.
    """
    m = graph.n_edges
    thr_c, thr_d = thresholds(p, q)
    ends = _edge_ends(graph)
    base_parent = _base_parent(graph, bc)
    scratch = np.empty_like(base_parent)
    state = chain_start(graph, seed, start)
    bits = np.array(state.bits, dtype=np.uint8)
    out = np.zeros((n_samples, m), dtype=np.uint8)
    step = 0
    for t in range(burn_in):
        u = sweep_uniforms(seed, step, 1, m)[0]
        _sweep(bits, u, ends, base_parent, thr_c, thr_d, scratch)
        step += 1
    for i in range(n_samples):
        for t in range(thin):
            u = sweep_uniforms(seed, step, 1, m)[0]
            _sweep(bits, u, ends, base_parent, thr_c, thr_d, scratch)
            step += 1
        out[i] = bits
    return out


# ---------------------------------------------------------------------------
# Edwards-Sokal transfer


def es_forward(graph, bits, q, rng, bc=None, boundary_color=None):
    """Spins from clusters: one uniform color per cluster of omega^xi.

    boundary_color forces every cluster that meets the graph boundary to
    that color (the monochromatic boundary condition).
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    if bc is None:
        bc = free_bc(graph)
    _, labels = cluster_stats(graph, tuple(int(b) for b in bits), bc)
    roots = sorted(set(labels))
    color_of = {r: int(c) for r, c in
                zip(roots, rng.integers(0, q, size=len(roots)))}
    if boundary_color is not None:
        for v in graph.boundary():
            color_of[labels[graph.vertex_index[v]]] = boundary_color
    return np.array([color_of[labels[i]] for i in range(graph.n_vertices)],
                    dtype=np.int8)


def es_reverse(graph, colors, p, rng):
    """Percolation from spins: equal-endpoint edges open with probability p."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    u = rng.random(graph.n_edges)
    bits = np.zeros(graph.n_edges, dtype=np.uint8)
    for k, (a, b) in enumerate(graph.edges):
        same = colors[graph.vertex_index[a]] == colors[graph.vertex_index[b]]
        bits[k] = 1 if (same and u[k] < p) else 0
    return bits


# ---------------------------------------------------------------------------
# estimators


def binomial_estimate(hits, n, seed, method):
    mean = hits / n
    return Estimate(mean, math.sqrt(max(mean * (1.0 - mean), 0.0) / n),
                    n, seed, method)


def mc_estimate(graph, p, q, bc, value_fn, n_samples, seed,
                method="cftp", burn_in=500, thin=5):
    """Sample mean and standard error of value_fn(bits).

    method cftp uses independent exact draws; method chain uses one long
    heat-bath chain with the declared burn-in and thinning (approximate,
    flagged in the result).
    """
    if method == "cftp":
        batch = cftp_batch(graph, p, q, bc, seed, n_samples)
    elif method == "chain":
        batch = chain_samples(graph, p, q, bc, seed, n_samples, burn_in, thin)
    else:
        raise ValueError("method must be cftp or chain")
    vals = np.array([float(value_fn(b)) for b in batch])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return Estimate(mean, se, n_samples, seed, method)


def crossing_mc(nx, ny, p, q, bc_kind, n_samples, seed, method=None,
                burn_in=1500, thin=20):
    """Estimate of the horizontal open-crossing probability of [0,nx]x[0,ny].

    The event is an omega-open path; the boundary condition only enters the
    sampling weights. q = 1 draws product configurations directly; q != 1
    uses a thinned heat-bath chain unless method forces cftp.
    """
    from .lattice import build_rect, wired_bc

    graph = build_rect((0, nx), (0, ny))
    bc = wired_bc(graph) if bc_kind == "wired" else free_bc(graph)
    rect = (0, 0, nx, ny)
    ends = _edge_ends(graph)
    left = np.array([i for i, v in enumerate(graph.vertices) if v[0] == 0],
                    dtype=np.int32)
    right = np.array([i for i, v in enumerate(graph.vertices) if v[0] == nx],
                     dtype=np.int32)
    ident = np.arange(graph.n_vertices, dtype=np.int32)
    scratch = np.empty_like(ident)
    if q == 1.0 and method is None:
        hits = 0
        chunk = 4096
        done = 0
        while done < n_samples:
            take = min(chunk, n_samples - done)
            u = sweep_uniforms(seed, done, take, graph.n_edges)
            bits = (u < p).astype(np.uint8)
            hits += int(_connected_batch(bits, ends, left, right, ident,
                                         scratch).sum())
            done += take
        return binomial_estimate(hits, n_samples, seed, "direct")
    method = method or "chain"
    if method == "chain":
        batch = chain_samples(graph, p, q, bc, seed, n_samples, burn_in, thin)
    else:
        batch = cftp_batch(graph, p, q, bc, seed, n_samples)
    hits = int(_connected_batch(batch, ends, left, right, ident,
                                scratch).sum())
    return binomial_estimate(hits, n_samples, seed, method)


def connect_mc(graph, p, q, bc, x, y, n_samples, seed, method="cftp",
               burn_in=500, thin=5):
    """Estimate of phi[x <-> y in omega^xi]."""

    ix, iy = graph.vertex_index[tuple(x)], graph.vertex_index[tuple(y)]
    base_parent = _base_parent(graph, bc)
    ends = _edge_ends(graph)
    scratch = np.empty_like(base_parent)
    if method == "chain":
        batch = chain_samples(graph, p, q, bc, seed, n_samples, burn_in, thin)
    else:
        batch = cftp_batch(graph, p, q, bc, seed, n_samples)
    hits = int(_connected_batch(batch, ends,
                                np.array([ix], dtype=np.int32),
                                np.array([iy], dtype=np.int32),
                                base_parent, scratch).sum())
    return binomial_estimate(hits, n_samples, seed, method)


def chi_square_gof(masks, probs, min_expected=5.0):
    """Chi-square goodness of fit of sampled masks against exact probs.

    Cells with expected count below min_expected are pooled (smallest
    first) to keep the asymptotic chi-square valid. Returns (stat, p_value,
    dof).
    """
    from scipy import stats

    n = len(masks)
    counts = np.bincount(masks, minlength=len(probs)).astype(float)
    expected = np.asarray(probs, dtype=float) * n
    order = np.argsort(expected)
    obs_cells, exp_cells = [], []
    acc_o = acc_e = 0.0
    for i in order:
        acc_o += counts[i]
        acc_e += expected[i]
        if acc_e >= min_expected:
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
    """(n, m) bit rows -> integer masks (bit k = edge k)."""
    m = batch.shape[1]
    weights = (1 << np.arange(m, dtype=np.int64))
    return batch.astype(np.int64) @ weights
