"""Exact enumeration oracles for random-cluster and Potts measures.

Everything here is exact bookkeeping over all 2^|E| edge configurations
(or the q^(free vertices) spin configurations); it is the ground truth
that the samplers, observables and transfer matrices are tested against.
Z alone needs only how many configurations fall in each weight class, and
_frontier_counts counts those edge by edge over a frontier of vertices, so
Z reaches MAX_COUNT_EDGES edges without enumerating a configuration. Every
other answer enumerates edge configurations into a label table:
labels[mask, v] is the smallest vertex index in the cluster of v in
omega^xi, the convention of lattice.cluster_stats, and bit k of mask is the
state of edge k. _fill_masks builds it edge by edge: the rows of the 2^k
masks over edges < k are copied to the next 2^k rows, where edge k is open,
the larger endpoint label of edge k is rewritten to the smaller one there,
and the weight class k (|E| + 1) + o is built alongside. The tables of
several boundary conditions stack on a leading axis, masks last, and are
built in one pass; the boundary scans build theirs so. Every event array
is a numpy reduction over the labels. Each label or colouring table, and
each frontier step, is sized before it is allocated and refused past
MAX_TABLE_BYTES.

The random-cluster weight p^o (1-p)^c q^k is evaluated in one place,
_log_weights, in log space; probabilities, Z and log Z all come from there,
and so do the dual weights and the weights of the loops and sixvertex
modules. With 0 log 0 = 0, p = 0 and p = 1 are point masses on the
all-closed and the all-open configuration, with Z = q^k of that mask.
The weight depends on a configuration only through its class, and the
Potts weight only through the number of equal-color edges, so each is
evaluated on its class grid only: Z sums the classes by their exact
integer counts, a probability array gathers the normalised grid back by
class, and the Edwards-Sokal check counts its events by class, eight
events to one bincount of packed keys.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import xlogy

from .lattice import (
    BoundaryCondition,
    LatticeGraph,
    build_rect,
    dual_map,
    free_bc,
    wired_bc,
)

# hard cap on enumerable edge sets
MAX_ENUM_EDGES = 26

# most edges a frontier count takes: its int64 class counts reach 2^|E|
MAX_COUNT_EDGES = 62

# memory budget, in bytes, of one label table stack or one colouring table
MAX_TABLE_BYTES = 1 << 29

# masks rewritten or counted at a time, which bounds the temporaries
_MERGE_MASKS = 1 << 15

# _KEY_BITS[j, key]: bit j of an 8-bit key of _class_counts, as float64
_KEY_BITS = (np.arange(256) >> np.arange(8)[:, None] & 1).astype(float)

# tolerance of the exact identities (Edwards-Sokal coupling, duality), and
# the most negative gap the FKG, monotonicity and comparison scans accept
IDENTITY_TOL = 1e-10
SCAN_TOL = 1e-12


def _check_budget(n_bytes, what):
    """Refuse, before allocating it, a table of n_bytes over the budget."""
    if n_bytes > MAX_TABLE_BYTES:
        raise ValueError("%s needs %d bytes, over the budget of %d bytes"
                         % (what, n_bytes, MAX_TABLE_BYTES))


def _check_enum_edges(n_edges):
    """Refuse an enumeration over more than MAX_ENUM_EDGES edges."""
    if n_edges > MAX_ENUM_EDGES:
        raise ValueError("refusing to enumerate more than %d edges"
                         % MAX_ENUM_EDGES)


def _check_edges(graph, edges):
    """Refuse an edge index outside range(graph.n_edges)."""
    bad = set(edges) - set(range(graph.n_edges))
    if bad:
        raise ValueError("edge index %r not in range(%d)"
                         % (min(bad), graph.n_edges))


def _label_dtype(n_edges, n_vertices, n_tables=1):
    """dtype of n_tables label tables, after refusing them past the caps;
    the budget charges the int32 weight class of every mask as well."""
    _check_enum_edges(n_edges)
    dtype = np.min_scalar_type(n_vertices)  # holds every label < n_vertices
    _check_budget((n_tables << n_edges) * (n_vertices * dtype.itemsize + 4),
                  "%d label table(s) over %d edges and %d vertices"
                  % (n_tables, n_edges, n_vertices))
    return dtype


def _copy_half(table, half):
    """table[..., half:2 half] = table[..., :half] in a C-contiguous table.
    numpy cannot prove two strided slices of one array disjoint, so a slice
    assignment first copies the source into a temporary; past _MERGE_MASKS
    masks the copy goes one contiguous row at a time instead, with none."""
    small = half <= _MERGE_MASKS
    for row in [table] if small else table.reshape(-1, table.shape[-1]):
        row[..., half:2 * half] = row[..., :half]


def _fill_masks(n_links, tables, classes, link):
    """Fill tables and classes, masks on the last axis, from mask 0: for
    link k, copy the 2^k masks over links < k to the next 2^k, where k is
    open, and call link(k, rows) on at most _MERGE_MASKS copies of each
    table at a time; it applies the link and returns where it joined two
    components. classes[..., 0] (mask 0's component counts) grows into the
    weight class k (n_links + 1) + o: +1 per link, -(n_links + 1) per join."""
    step = n_links + 1
    classes[..., 0] *= step
    for k in range(n_links):
        half = 1 << k
        for table in tables:
            _copy_half(table, half)
        for start in range(half, 2 * half, _MERGE_MASKS):
            stop = min(start + _MERGE_MASKS, 2 * half)
            joined = link(k, [t[..., start:stop] for t in tables])
            out = classes[..., start:stop]
            np.multiply(joined, -step, out=out, dtype=out.dtype)
            out += classes[..., start - half:stop - half]
            out += 1


def _label_table(n_vertices, ends, roots):
    """scan_configs' (labels, classes) for edges ends[k] = (u, v) and vertex
    v identified with roots[v], the labels stored vertex by vertex (a
    transposed view) so that every column is contiguous. roots (B, |V|)
    stacks B tables, all charged first: labels (B, 2^|E|, |V|), classes
    (B, 2^|E|)."""
    roots = np.asarray(roots)
    lead, n_masks = roots.shape[:-1], 1 << len(ends)
    cols = np.empty(lead + (n_vertices, n_masks),
                    _label_dtype(len(ends), n_vertices, math.prod(lead)))
    classes = np.empty(lead + (n_masks,), dtype=np.int32)
    cols[..., 0] = roots
    classes[..., 0] = (roots == np.arange(n_vertices)).sum(axis=-1)

    def link(k, rows):
        part, (u, v) = rows[0], ends[k]
        a, b = part[..., u, :], part[..., v, :]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        hit = np.equal(part, hi[..., None, :], out=np.empty_like(part))
        hit *= (hi - lo)[..., None, :]
        part -= hit
        return lo != hi

    _fill_masks(len(ends), [cols], classes, link)
    return np.swapaxes(cols, -1, -2), classes


def _frontier_counts(graph, bc):
    """_class_hist of scan_configs(graph, bc)[1], counted edge by edge over
    a frontier instead of per mask (the Tutte-polynomial transfer of
    Sekine, Imai and Tani, ISAAC 1995). Edge ends are contracted to their
    block roots. The frontier holds the vertices with edges on both sides
    of the current one; a state is its first-occurrence block labelling
    and carries one int64 count per class. A closed edge keeps the class,
    an open one adds 1, or 1 - (|E| + 1) when it joins two blocks. Each
    step is charged to the budget before it is built."""
    n = graph.n_edges
    if n > MAX_COUNT_EDGES:
        raise ValueError("refusing to count classes over more than %d edges"
                         % MAX_COUNT_EDGES)
    roots = bc.roots(graph.n_vertices)
    ends = [(roots[u], roots[v]) for u, v in graph.edge_ends]
    last = {v: k for k, uv in enumerate(ends) for v in uv}
    n_roots = len(set(roots))
    start = np.zeros((n_roots + 1) * (n + 1), dtype=np.int64)
    start[n_roots * (n + 1)] = 1
    frontier, states = [], {(): start}
    for k, (a, b) in enumerate(ends):
        _check_budget(len(states) * 2 * start.nbytes, "a frontier of %d "
                      "states over %d classes" % (len(states), len(start)))
        for v in {a, b} - set(frontier):
            frontier.append(v)
            states = {s + (len(set(s)),): c for s, c in states.items()}
        ia, ib = frontier.index(a), frontier.index(b)
        keep = [i for i, v in enumerate(frontier) if last[v] > k]
        frontier = [frontier[i] for i in keep]
        out = {}
        for s, c in states.items():
            opened = np.zeros_like(c)
            if s[ia] == s[ib]:
                opened[1:], joined = c[:-1], s
            else:
                opened[:-n], joined = c[n:], [s[ia] if x == s[ib] else x
                                              for x in s]
            for t, d in ((s, c), (joined, opened)):
                seen = {}
                key = tuple(seen.setdefault(t[i], len(seen)) for i in keep)
                out[key] = out[key] + d if key in out else d
        states = out
    (counts,) = states.values()
    return counts[:np.flatnonzero(counts)[-1] + 1]


def _stacked_classes(graph, roots):
    """Yield the weight classes of graph under the root rows of roots, one
    stack of at most max(1, _MERGE_MASKS >> |E|) rows per _label_table."""
    per = max(1, _MERGE_MASKS >> graph.n_edges)
    for start in range(0, len(roots), per):
        yield _label_table(graph.n_vertices, graph.edge_ends,
                           roots[start:start + per])[1]


def _sampled_labels(graph, bc, bits):
    """scan_configs' labels of the configurations in the rows of bits, by
    _label_table's rule: from the roots of bc, edge by edge, an open edge
    rewrites its larger endpoint label to the smaller one, and a closed row
    is left unchanged. The labels, their merge buffer and a bool copy of
    bits (made unless bits is bool) are charged before they are allocated."""
    n = graph.n_vertices
    dtype = np.min_scalar_type(n)
    _check_budget(len(bits) * (2 * n * dtype.itemsize + graph.n_edges),
                  "labels of %d sampled configurations of %d vertices"
                  % (len(bits), n))
    cols = np.repeat(np.array(bc.roots(n), dtype)[:, None], len(bits), 1)
    hit = np.empty_like(cols)
    for (u, v), is_open in zip(graph.edge_ends, np.asarray(bits, bool).T):
        lo = np.minimum(cols[u], cols[v])
        hi = np.maximum(cols[u], cols[v])
        np.equal(cols, hi, out=hit)
        hit *= (hi - lo) * is_open
        cols -= hit
    return cols.T


def scan_configs(graph, bc, leaf=None):
    """(labels, classes) of all 2^|E| configurations of graph under bc, in
    one pass: labels[mask, v] is the smallest vertex index in the cluster of
    v in omega^xi, and classes[mask] = k(omega^xi) (|E| + 1) + o(omega) as
    int32. leaf(mask, labels[mask]), if given, is called per mask in order."""
    labels, classes = _label_table(graph.n_vertices, graph.edge_ends,
                                   bc.roots(graph.n_vertices))
    if leaf is not None:
        for mask, row in enumerate(labels):
            leaf(mask, row)
    return labels, classes


def cluster_count_array(graph, bc):
    """k(omega^xi), as int32, for every configuration mask."""
    return scan_configs(graph, bc)[1] // (graph.n_edges + 1)


def open_count_array(n_edges):
    """o(omega), as int32, for every configuration mask."""
    _check_enum_edges(n_edges)
    masks = np.arange(1 << n_edges, dtype=np.uint32)
    return np.bitwise_count(masks).astype(np.int32)


def _check_beta(beta):
    """Refuse a NaN or infinite beta, naming it."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite, not %r" % (beta,))


def _check_q(q, rule="q must be positive"):
    """Refuse q <= 0 (NaN included) by rule and an infinite q, naming the
    value."""
    if not q > 0.0:
        raise ValueError("%s, not %r" % (rule, q))
    if q == math.inf:
        raise ValueError("q must be finite, not %r" % (q,))


def _check_pq(p, q=1.0):
    """Refuse p outside [0, 1] and a q that _check_q refuses, naming the
    value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1], not %r" % (p,))
    _check_q(q, "q must be > 0")


def _log_weights(p, q, o, k, n_edges):
    """log of p^o (1-p)^(n_edges-o) q^k for open counts o and cluster
    counts k; 0 log 0 = 0, so at p = 0 or 1 every configuration but the
    all-closed or all-open one gets -inf."""
    _check_pq(p, q)
    counts = np.arange(n_edges + 1)
    by_open = xlogy(counts, p) + xlogy(n_edges - counts, 1.0 - p)
    return by_open[o] + k * math.log(q)


def _class_hist(cls):
    """counts[r, c]: the masks of class c in row r of cls, masks last, up to
    the largest class; each bincount takes at most _MERGE_MASKS classes,
    offset by their row, so no full-length intp copy of cls is made."""
    n_classes, run = int(cls.max()) + 1, min(cls.shape[-1], _MERGE_MASKS)
    runs, per = cls.reshape(-1, run), _MERGE_MASKS // run  # rows cut in runs
    offsets = np.arange(len(runs)) // (cls.shape[-1] // run) * n_classes
    counts = np.zeros(cls.size // cls.shape[-1] * n_classes, dtype=np.int64)
    for s in range(0, len(runs), per):
        keys = runs[s:s + per] + offsets[s:s + per, None]
        counts += np.bincount(keys.ravel(), minlength=len(counts))
    return counts.reshape(-1, n_classes)


def _count_sums(p, q, counts, n_edges):
    """(log_w, log Z) of the class histogram counts[r, c]: _log_weights on
    the class grid, and per row the log-sum-exp of log_w plus log counts."""
    k, o = np.divmod(np.arange(counts.shape[1]), n_edges + 1)  # c = k(|E|+1)+o
    log_w = _log_weights(p, q, o, k, n_edges)
    row, seen = np.nonzero(counts)
    terms = log_w[seen] + np.log(counts[row, seen])
    starts = np.searchsorted(row, np.arange(len(counts)))  # no row is empty
    top = np.maximum.reduceat(terms, starts)
    # one pairwise sum per row, as a single row would be summed
    sums = np.split(np.exp(terms - top[row]), starts[1:])
    return log_w, top + [math.log(s.sum()) for s in sums]


def _class_sums(p, q, cls, n_edges):
    """_count_sums of the _class_hist of the weight classes cls, masks on
    the last axis, with log Z shaped as the rows of cls."""
    log_w, log_z = _count_sums(p, q, _class_hist(cls), n_edges)
    return log_w, log_z.reshape(cls.shape[:-1])[()]


def _probabilities(p, q, cls, n_edges):
    """(probabilities, log Z) of the masks with weight classes cls, masks on
    the last axis: the normalised class grid gathered back by class."""
    log_w, log_z = _class_sums(p, q, cls, n_edges)
    grid = np.exp(log_w - log_z[..., None])
    return np.take_along_axis(grid, cls, -1), log_z


def partition_function(graph, p, q, bc):
    """Z = sum_w p^o (1-p)^c q^k, summed over the weight classes that
    _frontier_counts counts, so up to MAX_COUNT_EDGES edges."""
    return math.exp(log_partition_function(graph, p, q, bc))


def log_partition_function(graph, p, q, bc):
    _check_pq(p, q)
    counts = _frontier_counts(graph, bc)
    return float(_count_sums(p, q, counts[None], graph.n_edges)[1][0])


def probability_array(graph, p, q, bc):
    """Normalized random-cluster probabilities of all configurations."""
    _check_pq(p, q)
    return _probabilities(p, q, scan_configs(graph, bc)[1], graph.n_edges)[0]


def rc_expectation(graph, p, q, bc, values):
    return float(probability_array(graph, p, q, bc) @ values)


def rc_probability(graph, p, q, bc, event):
    return rc_expectation(graph, p, q, bc, np.asarray(event, dtype=float))


# ---------------------------------------------------------------------------
# event arrays


def _pair_events(labels, pairs):
    """Row r: the vertex indices pairs[r] = (i, j) share a cluster."""
    out = np.empty((len(pairs), len(labels)), dtype=bool)
    for r, (i, j) in enumerate(pairs):
        np.equal(labels[:, i], labels[:, j], out=out[r])
    return out


def _joined(labels, sources, targets):
    """(masks, len(targets)) bool: target vertex t shares a cluster with
    some source vertex."""
    hit = np.zeros(labels.shape, dtype=bool)
    np.put_along_axis(hit, labels[:, list(sources)], True, axis=1)
    return np.take_along_axis(hit, labels[:, list(targets)], axis=1)


def _even_overlaps(labels, subsets):
    """Row r: every cluster meets subsets[r] (vertex indices) an even number
    of times, i.e. the sorted labels of the subset pair up."""
    out = np.zeros((len(subsets), len(labels)), dtype=bool)
    for r, ids in enumerate(subsets):
        if len(ids) % 2 == 0:
            s = np.sort(labels[:, list(ids)], axis=1)
            out[r] = (s[:, 0::2] == s[:, 1::2]).all(axis=1)
    return out


def connectivity_event(graph, bc, x, y):
    """Bool array over masks: x and y in one cluster of omega^xi."""
    ix, iy = graph.index(x), graph.index(y)
    return _pair_events(scan_configs(graph, bc)[0], [(ix, iy)])[0]


def boundary_connection_event(graph, bc, x):
    """Bool array over masks: x is connected to some boundary vertex."""
    ix = graph.index(x)
    return _joined(scan_configs(graph, bc)[0], graph.boundary_indices,
                   [ix])[:, 0]


def _crossing_sides(graph, rect, direction):
    """(left, right): the vertex indices on the two sides of rect that an
    open crossing in direction joins. Refuses a graph with a vertex outside
    rect."""
    if direction not in ("horizontal", "vertical"):
        raise ValueError("direction must be horizontal or vertical")
    x0, y0, x1, y1 = (int(math.floor(c)) for c in rect)
    if not all(x0 <= v[0] <= x1 and y0 <= v[1] <= y1 for v in graph.vertices):
        raise ValueError("crossing_event expects the graph inside rect")
    axis = 0 if direction == "horizontal" else 1
    lo, hi = (x0, y0, x1, y1)[axis::2]
    return ([i for i, v in enumerate(graph.vertices) if v[axis] == lo],
            [i for i, v in enumerate(graph.vertices) if v[axis] == hi])


def crossing_event(graph, rect, direction):
    """Bool array over masks: open crossing of rect (no boundary wiring).
    Requires every edge of the graph to lie inside rect."""
    left, right = _crossing_sides(graph, rect, direction)
    return _joined(scan_configs(graph, free_bc(graph))[0], left,
                   right).any(axis=1)


def cylinder_event(graph, open_edges):
    """All edges of open_edges (edge indices) open."""
    _check_enum_edges(graph.n_edges)
    _check_edges(graph, open_edges)
    need = sum(1 << k for k in set(open_edges))
    masks = np.arange(1 << graph.n_edges, dtype=np.int64)
    return (masks & need) == need


def all_pairs_connectivity(graph, bc):
    """One scan; returns (pairs, events) with events[i] the bool array of
    the event that pairs[i] = (x, y) lie in one cluster of omega^xi. The
    events are charged together with the label table, before either is
    built."""
    n, masks = graph.n_vertices, 1 << graph.n_edges
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    size = _label_dtype(graph.n_edges, n).itemsize
    _check_budget(masks * (n * size + 4 + len(pairs)), "the %d pair events "
                  "of %d masks and their label table" % (len(pairs), masks))
    return pairs, _pair_events(scan_configs(graph, bc)[0], pairs)


def all_boundary_connection(graph, bc):
    """One scan; row x is the event that vertex index x touches a cluster
    containing a boundary vertex of omega^xi. Charged, with the label
    table, before either is built."""
    n, masks = graph.n_vertices, 1 << graph.n_edges
    size = _label_dtype(graph.n_edges, n).itemsize
    # beside the labels, _joined holds its mask-by-label hit table, a copy of
    # the labels, the events and an intp mask index; the events' transposed
    # copy is made once the hit table is gone
    _check_budget(masks * (2 * n * (size + 1) + 8), "the boundary connection "
                  "of %d vertices over %d masks" % (n, masks))
    labels = scan_configs(graph, bc)[0]
    return np.ascontiguousarray(_joined(
        labels, graph.boundary_indices, range(n)).T)


def all_even_overlap(graph, bc, subsets):
    """One scan; row r is the event that every cluster of omega^xi meets
    subsets[r] (a vertex tuple) an even number of times."""
    idx = [[graph.index(x) for x in A] for A in subsets]
    return _even_overlaps(scan_configs(graph, bc)[0], idx)


# ---------------------------------------------------------------------------
# the single-edge conditional


def thresholds(p, q):
    """P[w_e = 0 | rest] when the endpoints of e are joined off e in
    omega^xi (bc wiring included), and when they are not."""
    _check_pq(p, q)
    return 1.0 - p, q * (1.0 - p) / (p + q * (1.0 - p))


def _joined_off_rows(labels, ends, k, masks):
    """Per mask: the endpoints ends[k] of edge k share a cluster in the
    label-table row of mask minus edge k."""
    u, v = ends[k]
    rest = masks & ~(1 << k)
    return labels[rest, u] == labels[rest, v]


# ---------------------------------------------------------------------------
# Potts spins and the Edwards-Sokal correspondence


def es_beta_from_p(p, q):
    return -(q - 1.0) / q * math.log1p(-p)


def _check_spin_q(q):
    """Refuse a q that is not an integer >= 2, NaN and inf included: the
    spin side has q colours."""
    if not (2 <= q < math.inf and q == int(q)):
        raise ValueError("spin side needs integer q >= 2, not %r" % (q,))


def _check_color_table(graph, q, fixed):
    """Refuse a q that is not an integer >= 2, then a table over the budget."""
    _check_spin_q(q)
    n = graph.n_vertices
    configs = q ** (n - len(fixed or {}))
    # the int8 colours and the float64 Gibbs weights of spin_ensemble
    _check_budget(configs * (n + 8),
                  "a table of %d colourings of %d vertices" % (configs, n))


def _product_columns(alphabets):
    """The int8 columns of the Cartesian product of the alphabets, the first
    column fastest; a zero-size alphabet empties every column. _color_table
    is the only caller."""
    rows = math.prod(len(a) for a in alphabets)
    inner = 1
    for a in alphabets:
        col = np.repeat(np.asarray(a, dtype=np.int8), inner)
        inner *= len(a)
        yield np.tile(col, rows // inner if rows else 0)


def _color_table(graph, q, fixed=None):
    """All q^(free vertices) colorings and their agreement counts (colors,
    agree): colors is a (configs, |V|) int8 array whose free columns are the
    _product_columns of q colours each, and agree[c] is the number of edges
    whose ends share a color in coloring c. The Gibbs weight at inverse
    temperature beta is exp(beta * _simplex_dots(agree))."""
    _check_color_table(graph, q, fixed)
    q, n = int(q), graph.n_vertices
    fixed = fixed or {}
    free = [i for i in range(n) if i not in fixed]
    m = q ** len(free)
    # stored vertex by vertex, so every column is contiguous
    colors = np.empty((n, m), dtype=np.int8).T
    for i, c in fixed.items():
        colors[:, i] = c
    for i, col in zip(free, _product_columns([range(q)] * len(free))):
        colors[:, i] = col
    agree = np.zeros(m, dtype=np.min_scalar_type(graph.n_edges))
    for iu, iv in graph.edge_ends:
        agree += colors[:, iu] == colors[:, iv]
    return colors, agree


def _simplex_dots(agree, q, n_edges):
    """sum_e sigma_u . sigma_v of colorings with agree equal-color edges of
    n_edges: each such edge gives 1, every other edge -1/(q-1)."""
    off = -1.0 / (q - 1.0)
    return agree * (1.0 - off) + n_edges * off


def spin_ensemble(graph, q, beta, fixed=None):
    """All q^(free vertices) Potts colorings and their Gibbs weights."""
    _check_beta(beta)
    colors, agree = _color_table(graph, q, fixed)
    return colors, np.exp(beta * _simplex_dots(agree, q, graph.n_edges))


def _wired_fix(graph):
    """Every boundary spin fixed to the color 0."""
    return dict.fromkeys(graph.boundary_indices, 0)


def potts_two_point(graph, q, beta, x, y):
    """mu^f[sigma_x . sigma_y] under free boundary conditions."""
    ix, iy = graph.index(x), graph.index(y)
    colors, w = spin_ensemble(graph, q, beta)
    dot = np.where(colors[:, ix] == colors[:, iy], 1.0, -1.0 / (q - 1.0))
    return float(w @ dot) / float(w.sum())


def potts_one_point_wired(graph, q, beta, x):
    """mu^b[sigma_x . b] with boundary spins wired to the color b = 0."""
    ix = graph.index(x)
    colors, w = spin_ensemble(graph, q, beta, _wired_fix(graph))
    dot = np.where(colors[:, ix] == 0, 1.0, -1.0 / (q - 1.0))
    return float(w @ dot) / float(w.sum())


def ising_moment(graph, beta, A, plus_boundary=False):
    """E[prod_{x in A} sigma_x] for q = 2 spins in {-1, +1}."""
    idx = [graph.index(x) for x in A]
    fixed = _wired_fix(graph) if plus_boundary else None
    colors, w = spin_ensemble(graph, 2, beta, fixed)
    s = np.ones(len(w))
    for i in idx:
        s *= 1.0 - 2.0 * colors[:, i]
    return float(w @ s) / float(w.sum())


def even_overlap_event(graph, bc, A):
    """Every cluster of omega^xi meets A an even number of times."""
    return all_even_overlap(graph, bc, [A])[0]


def _class_counts(cls, n_classes, events):
    """Exact integer counts by class: row 0 counts every entry of each class
    of cls, row r + 1 the entries where the r-th bool row of events holds.
    Eight rows at a time (row 0 all true), row j times 1 << j, sum into the
    low bits of the key cls << 8 | bits; the (n_classes, 256) bincount of
    the keys times the (256, rows) key bits, exact below 2^53, is their
    counts transposed, returned C-ordered. events is read a row at a time."""
    base = np.left_shift(cls, 8, dtype=np.intp)
    key, (bits, tmp) = np.empty_like(base), np.empty((2, len(cls)), np.uint8)
    rows = itertools.chain([np.ones(len(cls), dtype=bool)], events)
    out = []
    while True:
        bits[:], j = 0, -1
        for j, ev in enumerate(itertools.islice(rows, 8)):
            bits |= np.multiply(ev.view(np.uint8), 1 << j, out=tmp)
        if j < 0:
            return np.concatenate(out).astype(np.int64, order="C")
        hist = np.bincount(np.bitwise_or(base, bits, out=key),
                           minlength=n_classes << 8)
        out.append((hist.reshape(n_classes, 256) @ _KEY_BITS[:j + 1].T).T)


def _class_means(counts, log_w):
    """Rows 1.. of counts contracted with the class weights exp(log_w) and
    divided by row 0, the weight of every configuration; classes that no
    configuration has are dropped before exponentiating."""
    seen = counts[0] > 0
    log_w = log_w[seen]
    w = np.exp(log_w - log_w.max())
    counts = counts[:, seen]
    return (counts[1:] @ w) / (counts[0] @ w)


def _es_sides(graph, ps, qs, prod_idx):
    """Yield, for each q in qs and p in ps, the lists (spin, cluster) of the
    expectations that the Edwards-Sokal coupling equates at beta(p, q):
    pair: mu^f[sigma_x . sigma_y] and phi^0[x <-> y] over the vertex pairs
    x < y; wired: mu^b[sigma_x . b] and phi^1[x <-> boundary] over x; and
    at q = 2 only, product: E[prod_A sigma_x] and phi^0[every cluster meets
    A evenly] over the vertex index lists A of prod_idx. Each event is
    counted once per class, per boundary condition on the cluster side and
    per q on the spin side; each grid point contracts the counts with the
    class weights."""
    n, n_edges = graph.n_vertices, graph.n_edges
    # cluster side: wired_bc contracts the boundary into one cluster, so a
    # vertex touches it when it shares the label of boundary vertex b
    n_classes = (n_edges + 1) * (n + 1)
    k_cls, o_cls = np.divmod(np.arange(n_classes), n_edges + 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels, cls = scan_configs(graph, free_bc(graph))
    free_counts = _class_counts(cls, n_classes, itertools.chain(
        (labels[:, i] == labels[:, j] for i, j in pairs),
        (_even_overlaps(labels, [ids])[0] for ids in prod_idx)))
    del labels, cls  # before the wired table is built
    labels, cls = scan_configs(graph, wired_bc(graph))
    b = graph.boundary_indices[0]
    wired_counts = _class_counts(
        cls, n_classes, (labels[:, i] == labels[:, b] for i in range(n)))
    del labels, cls

    # spin side: the free colorings with vertex 0 colored 0, q^(|V|-1) of
    # them, which the free weights and the pair events do not tell from
    # their color permutations; a q = 2 product row counts the colorings
    # with an even number of 1s on A minus the rest, and the global spin
    # flip cancels the moment of an odd A
    odd = np.array([len(ids) % 2 for ids in prod_idx], dtype=bool)
    n_pairs = len(pairs)
    spin_counts = {}
    for q in qs:
        q = int(q)
        if q not in spin_counts:
            colors, agree = _color_table(graph, q, {0: 0})
            parity = (np.bitwise_xor.reduce(colors[:, ids], axis=1)
                      for ids in prod_idx if q == 2)
            free = _class_counts(agree, n_edges + 1, itertools.chain(
                (colors[:, i] == colors[:, j] for i, j in pairs),
                (bits == 0 for bits in parity)))
            free[1 + n_pairs:] = 2 * free[1 + n_pairs:] - free[0]
            colors, agree = _color_table(graph, q, _wired_fix(graph))
            spin_counts[q] = free, _class_counts(
                agree, n_edges + 1, (colors[:, i] == 0 for i in range(n)))
            del colors, agree
        spin_free, spin_wired = spin_counts[q]
        off = -1.0 / (q - 1.0)
        dots = _simplex_dots(np.arange(n_edges + 1), q, n_edges)
        for p in ps:
            spin_w = es_beta_from_p(p, q) * dots
            rc_w = _log_weights(p, q, o_cls, k_cls, n_edges)
            same = _class_means(spin_free, spin_w)
            joined = _class_means(free_counts, rc_w)
            spin = [off + (1.0 - off) * same[:n_pairs],
                    off + (1.0 - off) * _class_means(spin_wired, spin_w)]
            cluster = [joined[:n_pairs], _class_means(wired_counts, rc_w)]
            if q == 2:
                spin.append(np.where(odd, 0.0, same[n_pairs:]))
                cluster.append(joined[n_pairs:])
            yield spin, cluster


def verify_es_coupling(graph, ps, qs, products=None):
    """Spin-side vs cluster-side expectations across a (p, q) grid: for
    every p in ps (strictly inside (0,1)), integer q in qs and vertex
    pair x, y, compares mu^f[sigma_x . sigma_y] with phi^0[x <-> y] and
    mu^b[sigma_x . b] with phi^1[x <-> boundary] at the matching beta.
    products, if given, is a list of vertex tuples A; for q = 2 the moment
    E[prod_A sigma_x] is compared with the probability that every cluster
    meets A evenly. An empty ps or qs and a p outside (0,1) are refused, and
    every table is sized, and refused over the budget, before the first is
    built. Returns a report dict; report["ok"] is the verdict."""
    ps, qs = list(ps), list(qs)
    if not ps or not qs:
        raise ValueError("verify_es_coupling needs a nonempty grid, not ps "
                         "%r and qs %r" % (ps, qs))
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0,1), not %r" % (p,))
    if products and 2 not in qs:
        raise ValueError("products are compared at q = 2 only, and qs %r has "
                         "no 2" % (qs,))
    prod_idx = [[graph.index(x) for x in A] for A in products or ()]
    _label_dtype(graph.n_edges, graph.n_vertices)  # refuses past the caps
    for q in set(qs):
        # _es_sides fixes vertex 0 to colour 0 in the free table
        _check_color_table(graph, q, {0: 0})
        _check_color_table(graph, q, _wired_fix(graph))

    keys = ("pair_max_err", "wired_max_err", "product_max_err")
    report = {**dict.fromkeys(keys, 0.0), "tol": IDENTITY_TOL, "cases": 0}
    for spin, cluster in _es_sides(graph, ps, qs, prod_idx):
        for key, s, c in zip(keys, spin, cluster):
            report[key] = float(np.maximum(report[key],
                                           np.abs(s - c).max(initial=0.0)))
        report["cases"] += 1
    report["ok"] = all(report[key] <= IDENTITY_TOL for key in keys)
    return report


# ---------------------------------------------------------------------------
# planar duality of the weights


def p_dual(p, q):
    """The dual edge weight: p p* / ((1-p)(1-p*)) = q."""
    _check_pq(p, q)
    return q * (1.0 - p) / (q * (1.0 - p) + p)


def p_self_dual(q):
    """Fixed point of p_dual: sqrt(q)/(1+sqrt(q))."""
    _check_q(q)
    r = math.sqrt(q)
    return r / (1.0 + r)


def dual_cluster_count_array(graph):
    """kstar[mask] = clusters of the dual of primal mask (open iff e closed)."""
    dual = dual_map(graph)
    index = {v: i for i, v in enumerate(dual.vertices)}
    ends = [(index[f], index[g]) for f, g in dual.edges]
    # dual edge k is open iff primal edge k is closed, so the dual mask of
    # primal mask is 2^|E| - 1 - mask: the dual counts read backwards
    n = len(index)
    return (_label_table(n, ends, range(n))[1] // (len(ends) + 1))[::-1]


def verify_duality(graph, p, q):
    """Configuration-by-configuration duality of the measures: asserts
    phi^0_{G,p,q}[w] = phi^1_{G*,p*,q}[w*] for every configuration (the
    dual graph carries the outer face as an ordinary vertex, which is the
    wired count) plus the partition-function relation
    Z^1_{G*,p*,q} = Z^0_{G,p,q} q^{|E|-|V|+1} ((1-p*)/p)^{|E|}, whose
    exponent counts the bounded faces of a connected G (the relation holds
    for any number of components); returns a report. Checks Euler's relation
    k0(w) = |V| - o(w) + k*(w*) - 1 at every configuration first. Refuses p
    outside (0, 1] and q <= 0; p = 1 is the point mass on the all-open
    configuration."""
    if not 0.0 < p <= 1.0:
        raise ValueError("duality needs p in (0, 1], not %r" % (p,))
    _check_pq(p, q)
    n, n_vertices = graph.n_edges, graph.n_vertices
    _check_enum_edges(n)
    # per mask, the most of: the primal table (uint8 labels, int32 classes);
    # the primal classes and the dual table (2 + |E| - |V| faces); and the
    # int32 dual classes and the two float64 probability arrays
    _check_budget((1 << n) * max(n_vertices + 4, n - n_vertices + 10, 20),
                  "the duality check over %d edges" % n)
    cls = scan_configs(graph, free_bc(graph))[1]
    kstar = dual_cluster_count_array(graph)
    o = cls % (n + 1)
    bad = np.flatnonzero(cls // (n + 1) + o - kstar != n_vertices - 1)
    if bad.size:
        raise AssertionError("Euler cluster identity failed at %d" % bad[0])
    # the dual of mask has kstar[mask] clusters and n - o open edges
    kstar *= n + 1
    kstar += n - o
    prob, log_z0 = _probabilities(p, q, cls, n)
    del cls, o
    p_star = p_dual(p, q)
    prob_dual, log_z1 = _probabilities(p_star, q, kstar, n)
    prob -= prob_dual
    config_err = float(np.abs(prob, out=prob).max())
    log_predicted = (log_z0 + (1 + n - n_vertices) * math.log(q)
                     + n * math.log((1.0 - p_star) / p))
    z_rel = abs(math.expm1(log_predicted - log_z1))
    return {"p_star": p_star, "config_max_err": config_err,
            "z_rel_err": z_rel, "tol": IDENTITY_TOL,
            "ok": config_err <= IDENTITY_TOL and z_rel <= IDENTITY_TOL}


# ---------------------------------------------------------------------------
# FKG, monotonicity and boundary-comparison scans


def increasing_events(n_edges):
    """All nonempty increasing events over n_edges, as bool arrays. An upset
    of {0,1}^n is a pair U0 <= U1 of upsets of {0,1}^(n-1): the rows with
    the top bit clear and those with it set. Their number grows doubly
    exponentially (167 events at 4), so larger scans use the open-cylinder
    events of cylinder_probabilities."""
    if n_edges > 4:
        raise ValueError("full increasing-event enumeration is limited to "
                         "4 edges; use cylinder_probabilities beyond that")
    upsets = [np.array([False]), np.array([True])]
    for _ in range(n_edges):
        upsets = [np.concatenate((u0, u1)) for u1 in upsets for u0 in upsets
                  if not (u0 & ~u1).any()]
    return [u for u in upsets if u.any()]


def _superset_transform(values, g):
    """T[x] = sum over S >= x of g^(|S \\ x|) values[S], all x at once, masks
    on the last axis."""
    out = np.array(values, dtype=float)
    for b in range(out.shape[-1].bit_length() - 1):
        # [..., 0, :] have bit b clear, [..., 1, :] the same masks with it set
        v = out.reshape(out.shape[:-1] + (-1, 2, 1 << b))
        v[..., 0, :] += g * v[..., 1, :]
    return out


def cylinder_probabilities(prob):
    """cp[f] = probability that all edges of f are open, all f at once, by
    the superset-sum transform of prob (cp[0] = 1), masks on the last axis."""
    return _superset_transform(prob, 1.0)


def fkg_gap(graph, p, q, bc, ev_a, ev_b):
    """phi[A and B] - phi[A] phi[B] for increasing events A, B."""
    prob = probability_array(graph, p, q, bc)
    pa, pb, pab = (float(prob[ev].sum()) for ev in (ev_a, ev_b, ev_a & ev_b))
    return pab - pa * pb


def fkg_scan(graph, p, q, bc=None):
    """Positive-association scan: requires q >= 1 and |E| <= 8, checks
    phi[A and B] >= phi[A]phi[B] for every pair from the event class (all
    increasing events up to 4 edges, all open-cylinder events beyond) and
    reports the minimal gap."""
    if graph.n_edges > 8:
        raise ValueError("event scan limited to 8 edges")
    if not q >= 1.0:
        raise ValueError("the FKG scan requires q >= 1")
    prob = probability_array(graph, p, q, free_bc(graph) if bc is None else bc)
    if graph.n_edges <= 4:
        kind, events = "increasing", np.array(increasing_events(graph.n_edges))
        pe = events @ prob
        gaps = (events * prob) @ events.T - np.outer(pe, pe)
    else:
        kind, cp = "cylinder", cylinder_probabilities(prob)
        f = np.arange(1, len(cp))
        gaps = cp[np.bitwise_or.outer(f, f)] - np.outer(cp[f], cp[f])
    return {"event_class": kind, "n_events": len(gaps),
            "min_gap": float(gaps.min()), "tol": SCAN_TOL,
            "ok": bool(gaps.min() >= -SCAN_TOL)}


def _fkg_search(graph, p, q):
    """First cylinder-pair FKG violation over subgraphs of graph, scanned by
    edge count then lexicographic edge subset, and within a subgraph pairs
    (F1, F2) in lexicographic mask order. Returns {edges, f1, f2, gap} or
    None."""
    for n_sub in range(1, graph.n_edges + 1):
        for subset in itertools.combinations(range(graph.n_edges), n_sub):
            edges = [graph.edges[k] for k in subset]
            verts = sorted({v for e in edges for v in e})
            g = LatticeGraph(verts, edges, graph.ambient_dim)
            cp = cylinder_probabilities(
                probability_array(g, p, q, free_bc(g)))
            for f1 in range(1, 1 << g.n_edges):
                for f2 in range(f1, 1 << g.n_edges):
                    gap = float(cp[f1 | f2] - cp[f1] * cp[f2])
                    if gap < -SCAN_TOL:
                        return {"edges": tuple(g.edges), "f1": f1, "f2": f2,
                                "gap": gap}
    return None


def fkg_witness_q_below_one(p=0.5, q=0.5):
    """First FKG violation for q < 1 on subgraphs of the unit square."""
    return _fkg_search(build_rect((0, 1), (0, 1)), p, q)


def mon_scan(graph, q, ps):
    """Monotonicity in p of every open-cylinder probability: for the free
    and the wired boundary condition and each ordered pair p < p' from ps,
    the minimum of phi_{p'}[A] - phi_p[A] over cylinder events A; q >= 1,
    and ps must hold two distinct values (a repeated p is scanned once).
    """
    if not q >= 1.0:
        raise ValueError("monotonicity in p needs q >= 1")
    if len(set(ps)) < 2:
        raise ValueError("mon_scan needs two distinct p values, not ps %r"
                         % (list(ps),))
    ps = sorted(set(ps))
    for p in ps:
        _check_pq(p, q)
    gaps, bcs = [], (free_bc(graph), wired_bc(graph))
    for cls in _stacked_classes(graph, [bc.roots(graph.n_vertices)
                                        for bc in bcs]):
        probs = [_probabilities(p, q, cls, graph.n_edges)[0] for p in ps]
        for rows in zip(*probs):  # one boundary condition, p ascending
            cps = [cylinder_probabilities(row)[1:] for row in rows]
            gaps += [(hi - lo).min()
                     for lo, hi in itertools.combinations(cps, 2)]
    worst = float(np.min(gaps))  # np.min keeps a NaN gap; min would drop it
    return {"min_gap": worst, "tol": SCAN_TOL, "ok": bool(worst >= -SCAN_TOL)}


def set_partitions(items):
    """All partitions of a list into nonempty blocks, the one-block
    partition first and the all-singletons one last."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _bell(n):
    """The number of partitions of n items, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[0]


def cbc_scan(graph, p, q):
    """Comparison between boundary conditions over all boundary partitions.

    For every partition xi of the boundary and every cylinder event A,
    phi^0[A] <= phi^xi[A] <= phi^1[A]; q >= 1. Returns the worst gaps.
    """
    if not q >= 1.0:
        raise ValueError("boundary comparison needs q >= 1")
    _check_pq(p, q)
    n_parts = _bell(len(graph.boundary_indices))
    if n_parts << graph.n_edges > 1 << MAX_ENUM_EDGES:
        raise ValueError("refusing to scan %d boundary partitions of 2^%d "
                         "masks each, more than 2^%d masks" % (
                             n_parts, graph.n_edges, MAX_ENUM_EDGES))
    shape = (n_parts, graph.n_vertices)
    _check_budget(math.prod(shape) * np.dtype(np.intp).itemsize,
                  "the roots of %d boundary partitions" % n_parts)
    roots = np.empty(shape, dtype=np.intp)
    # roots reads each block's first index, which in every block of
    # set_partitions is its smallest; a singleton block stays free
    for row, blocks in zip(roots, set_partitions(graph.boundary_indices)):
        row[:] = BoundaryCondition(blocks).roots(graph.n_vertices)
    # rows 0 and -1 are wired and free; as rounding is monotone, the worst
    # gaps over xi are those of the least and the largest phi^xi[A]
    low, high = np.full((2, (1 << graph.n_edges) - 1), [[np.inf], [-np.inf]])
    for i, cls in enumerate(_stacked_classes(graph, roots)):
        prob = _probabilities(p, q, cls, graph.n_edges)[0]
        cp = cylinder_probabilities(prob)[:, 1:]
        cp1 = cp[0] if i == 0 else cp1
        # np.minimum keeps a NaN, which the builtin min would drop
        np.minimum(low, cp.min(axis=0), out=low)
        np.maximum(high, cp.max(axis=0), out=high)
    lower, upper = float((low - cp[-1]).min()), float((cp1 - high).min())
    return {"min_above_free": lower, "min_below_wired": upper,
            "n_partitions": len(roots), "tol": SCAN_TOL,
            "ok": bool(lower >= -SCAN_TOL and upper >= -SCAN_TOL)}

