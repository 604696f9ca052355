"""Finite subgraphs of Z^d: boxes, boundary conditions, duality, medial geometry.

Conventions used throughout the package:

* Vertices are integer coordinate tuples; edges are unordered nearest-neighbor
  pairs, indexed lexicographically by (min endpoint, max endpoint).
* Boxes, rectangles and every other subgraph of Z^d induced on a vertex set
  (hole checks, Dobrushin domains) come from induced_graph.
* A configuration is a plain sequence of edge bits, bits[k] = 1 when edge k
  is open. A boundary condition lists its wired blocks only: disjoint sorted
  tuples of at least two boundary vertex indices; every other vertex is
  free, so the free condition has no block. Wiring is contraction: omega^xi
  is omega with every vertex replaced by the smallest vertex of its block,
  the map BoundaryCondition.roots.
* Planar faces are read off Z^2 coordinates, with no embedding code. A
  bounded face is a unit square whose four edges are all present, labelled
  by its south-west corner (i,j); the unbounded face gets the label OUTER.
  Euler's relation, taken over every component, counts the bounded faces,
  so dual_map refuses a graph with any other bounded face. The outer walk
  boundary_cycle keeps the domain on its left, leaving each vertex along
  the first edge counterclockwise from the one it arrived by. Quadrant j of
  a vertex is the unit square between its sides CCW_SIDES[j] and
  CCW_SIDES[j + 1].
* Dobrushin domains are re-embedded diagonally so the medial lattice becomes
  the standard grid Z^2: primal vertex (x,y) becomes the unit square labelled
  (x-y, x+y) (a "black" face, coordinate sum even; whites have odd sum).
  Medial vertices are the integer corner points, medial edges the unit
  segments, each oriented counterclockwise around the black face (i,j) it
  borders: along its corner ring (i,j), (i+1,j), (i+1,j+1), (i,j+1). No
  rotation is applied; readers that need a direction take it relative to
  the exit edge e_b.

A DobrushinDomain computes, once, everything its observables read: the
Dobrushin wiring bc of the (ba) arc, the marked edges e_a and e_b (the sides
of black(a) and black(b) facing the first and last white of the (ab)*
chain, whose whites are the exterior quadrants of the (ab) arc's vertices,
each named by _square_white), and the slot table of the exploration
(successor, turn and medial edge of every slot under each edge state, and
the medial edge on each slot's own side). The constructor refuses with a
ValueError: a domain without an edge, a disconnected or holed domain,
missing induced edges, marked points off the boundary or repeated on the
outer walk, a (ba) arc through a vertex that touches the outer face only
through a missing diagonal cell, colliding medial status vertices, and a
slot table in which some arc joins a curve-carrying side to a dead one.

Connectivity in omega^xi goes through one primitive per input shape, and
each reads the contraction bc.roots instead of adding links for the wiring:

* one configuration: cluster_stats, a union-find started from the roots
  (is_connected, complement_connected and currents.simon_report call it);
* a heat-bath chain: kept cluster labels (sampler._clusters) for a closed
  edge, and an early-exit bidirectional BFS over the contracted edges
  (sampler._cut_side) for an open edge that may close, 3.6x faster per
  box(3) sweep than the BFS on every edge; on at most 12 edges,
  sampler.conn_off_tables, read from the all-mask label table below;
* all 2^|E| masks: oracle._fill_masks, with one link rule per table:
  oracle._label_table, whose mask-0 row is the roots, and
  sixvertex._lifted_table on the torus cover, checked against a depth-first
  lift of one mask at a time in tests/reference.py. A link merges by three
  plain ufuncs, hit = (labels == hi) in a buffer of the labels' own dtype,
  hit *= hi - lo, labels -= hit: 5-15x faster than a masked np.copyto;
* sampled batches by the label table's rule, oracle._sampled_labels (0.8-1.4
  ms against 9 ms for a scipy connected-components call on 4096 rows of the
  31-edge 5x4-vertex rectangle, 2-core x86_64 host).
UnionFind stays as the reference the tests compare against. An open
crossing of a rectangle is one more connectivity event, with no primitive of
its own: oracle.crossing_event reads it from the label table, and
sampler.crossing_mc from _sampled_labels, with the same reduction.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

OUTER = "outer"

# compass offsets in ccw order starting east; quadrant j of a vertex lies
# between sides j and j + 1
CCW_SIDES = ((1, 0), (0, 1), (-1, 0), (0, -1))
_SIDE = {d: j for j, d in enumerate(CCW_SIDES)}


class UnionFind:
    """Union-find with path compression.

    The root of every class is its smallest element, so cluster labellings
    are deterministic and reproducible across runs.
    """

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


class LatticeGraph:
    """Immutable finite graph with integer coordinates and unit-step edges.

    Vertex and edge indices are deterministic: both lists are sorted
    lexicographically, edges as (min endpoint, max endpoint) pairs.
    """

    def __init__(self, vertices, edges, ambient_dim=None):
        self.vertices = tuple(sorted({tuple(v) for v in vertices}))
        if ambient_dim is None:
            ambient_dim = len(self.vertices[0]) if self.vertices else 2
        ambient_dim = _integer(ambient_dim, "ambient_dim")
        _check_dim(self.vertices, ambient_dim)
        self.ambient_dim = ambient_dim
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        norm = set()
        for u, v in edges:
            u, v = tuple(u), tuple(v)
            if v < u:
                u, v = v, u
            if sum(abs(a - b) for a, b in zip(u, v)) != 1:
                raise ValueError("not a nearest-neighbor edge: %s-%s" % (u, v))
            if u not in self.vertex_index or v not in self.vertex_index:
                raise ValueError("edge endpoint not a vertex: %s-%s" % (u, v))
            norm.add((u, v))
        self.edges = tuple(sorted(norm))
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        # edge_ends[k]: the vertex-index pair of edge k
        self.edge_ends = tuple((self.vertex_index[u], self.vertex_index[v])
                               for u, v in self.edges)
        adj = [[] for _ in self.vertices]
        for k, (u, v) in enumerate(self.edge_ends):
            adj[u].append((v, k))
            adj[v].append((u, k))
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        # the boundary() vertices by index, in increasing order
        self.boundary_indices = tuple(i for i, nbrs in enumerate(adj)
                                      if len(nbrs) < 2 * ambient_dim)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def boundary(self):
        """Vertices x for which some ambient-lattice edge xy is missing from E
        (y ranges over all 2d unit-step neighbors of x, inside or outside V):
        those with fewer than 2d incident edges."""
        return tuple(self.vertices[i] for i in self.boundary_indices)

    def index(self, v):
        """The index of vertex v (a coordinate sequence), refusing with a
        ValueError a vertex that is not in the graph."""
        v = tuple(v)
        try:
            return self.vertex_index[v]
        except KeyError:
            raise ValueError("vertex %r is not in the graph" % (v,)) from None

    def is_connected(self):
        """At most one cluster when all edges are open (none when empty)."""
        k, _ = cluster_stats(self, (1,) * self.n_edges,
                             BoundaryCondition(()))
        return k <= 1

    def complement_connected(self):
        """True iff Z^2 minus the vertex set is connected (no holes).

        The complement cells of the margin-2 bounding box must form one
        connected graph; a hole is a component the outer ring misses.
        """
        if self.ambient_dim != 2:
            raise ValueError("complement check only implemented for d=2")
        if not self.vertices:
            return True
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        cells = {(x, y) for x in range(min(xs) - 2, max(xs) + 3)
                 for y in range(min(ys) - 2, max(ys) + 3)} - set(self.vertices)
        return induced_graph(cells, 2).is_connected()


def _check_dim(vertices, d):
    """Refuse, naming the least of them, vertices without d coordinates."""
    bad = [v for v in vertices if len(v) != d]
    if bad:
        v = min(bad)
        raise ValueError("vertex %r has %d coordinates, not d=%d"
                         % (v, len(v), d))


def _integer(x, what):
    """x as an int, refusing a non-integer with a ValueError naming it."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError("%s must be an integer, not %r" % (what, x)) from None


def _point(p, what):
    """p as a tuple, refusing a non-sequence with a ValueError naming it."""
    try:
        return tuple(p)
    except TypeError:
        raise ValueError("%s must be a vertex, not %r" % (what, p)) from None


def induced_graph(vertices, d):
    """The subgraph of Z^d induced on vertices: every nearest-neighbor pair
    of them is an edge."""
    d = _integer(d, "d")
    vertices = {tuple(v) for v in vertices}
    _check_dim(vertices, d)
    edges = []
    for v in vertices:
        for axis in range(d):
            w = v[:axis] + (v[axis] + 1,) + v[axis + 1:]
            if w in vertices:
                edges.append((v, w))
    return LatticeGraph(vertices, edges, d)


def build_box(n, d=2):
    """The box Lambda_n = [-n,n]^d with all nearest-neighbor edges."""
    n, d = _integer(n, "n"), _integer(d, "d")
    if n < 0:
        raise ValueError("n must be >= 0")
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    return induced_graph(itertools.product(range(-n, n + 1), repeat=d), d)


def build_rect(x_range, y_range):
    """Rectangle [x0,x1] x [y0,y1] in Z^2 with all nearest-neighbor edges;
    a reversed range (x1 < x0 or y1 < y0) is refused."""
    x0, x1, y0, y1 = (_integer(t, "range bound") for t in (*x_range, *y_range))
    for lo, hi in ((x0, x1), (y0, y1)):
        if hi < lo:
            raise ValueError("range (%r, %r) is reversed" % (lo, hi))
    return induced_graph(itertools.product(range(x0, x1 + 1),
                                           range(y0, y1 + 1)), 2)


@dataclass(frozen=True)
class BoundaryCondition:
    """The wired blocks of a boundary condition; every other vertex is free."""

    blocks: tuple  # sorted tuples of >= 2 vertex indices, in sorted order

    def roots(self, n_vertices):
        """root[v]: the smallest vertex of v's block, v itself when free.

        Identifying v with root[v] turns omega into omega^xi; each block is a
        depth-one tree under its smallest vertex, a valid union-find forest.
        """
        root = list(range(n_vertices))
        for block in self.blocks:
            for v in block:
                root[v] = block[0]
        return root


def free_bc(graph):
    return BoundaryCondition(())


def wired_bc(graph):
    bd = graph.boundary_indices
    return BoundaryCondition((bd,) if len(bd) > 1 else ())


def custom_bc(graph, blocks):
    """Wire the given blocks (vertex coordinate lists); the rest of the
    boundary stays free. Blocks must be disjoint subsets of the boundary."""
    bd = set(graph.boundary_indices)
    out, used = [], set()
    for block in blocks:
        idx = {graph.index(v) for v in block}
        if not idx:
            raise ValueError("boundary-condition block is empty")
        if not idx <= bd:
            raise ValueError(
                "boundary-condition block not inside the boundary: %s"
                % (graph.vertices[min(idx - bd)],))
        if idx & used:
            raise ValueError("boundary-condition blocks overlap")
        used |= idx
        if len(idx) > 1:
            out.append(tuple(sorted(idx)))
    return BoundaryCondition(tuple(sorted(out)))


def cluster_stats(graph, bits, bc):
    """Cluster count and labels of the configuration with bc blocks wired.

    Returns (k, labels): k clusters after contracting every block of bc;
    labels[i] = smallest vertex index in the cluster of vertex i.
    """
    uf = UnionFind(0)
    uf.parent = bc.roots(graph.n_vertices)  # every block already joined
    for k, (u, v) in enumerate(graph.edge_ends):
        if bits[k]:
            uf.union(u, v)
    labels = tuple(uf.find(i) for i in range(graph.n_vertices))
    return len(set(labels)), labels


# ---------------------------------------------------------------------------
# planar faces and duality


def boundary_cycle(graph):
    """Counterclockwise outer boundary walk as a list of directed edges
    (vertex-index pairs). Requires a connected graph with d=2.

    The walk keeps the domain on its left: at each vertex it leaves along
    the first edge counterclockwise from the one it arrived by. It starts at
    vertices[0], the least (x, y), which has no neighbour to its west or
    south, as if it had arrived from the west, and ends when its first step
    comes round again.
    """
    if graph.ambient_dim != 2:
        raise ValueError("boundary cycle only for d=2")
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    if not graph.n_edges:
        raise ValueError("graph has no edges, so no faces")
    walk = []
    u, back = 0, 2  # back: the side of u the walk arrived from
    while True:
        (x, y), nbrs = graph.vertices[u], {w for w, _ in graph.adjacency[u]}
        for t in range(1, 5):
            j = (back + t) % 4
            dx, dy = CCW_SIDES[j]
            w = graph.vertex_index.get((x + dx, y + dy))
            if w in nbrs:
                break
        if walk and walk[0] == (u, w):
            return walk
        walk.append((u, w))
        u, back = w, (j + 2) % 4


def boundary_arcs(graph, a, b):
    """Split the ccw boundary walk at a and b.

    Returns (ab_vertices, ba_vertices, ab_edges, ba_edges): the ccw arc from
    a to b and from b to a, vertices inclusive of both endpoints, edges as
    edge-index lists. a == b gives the degenerate split ((whole cycle), (a,)).
    """
    a, b = _point(a, "a"), _point(b, "b")
    walk = boundary_cycle(graph)
    verts = [graph.vertices[u] for u, _ in walk]
    # leaves and bridges repeat vertices on the outer walk; only the split
    # points must be unambiguous
    if verts.count(a) != 1 or (b != a and verts.count(b) != 1):
        raise ValueError("a and b must appear exactly once on the outer boundary")
    ia = verts.index(a)
    walk = walk[ia:] + walk[:ia]
    # the closed walk from a back to a; b == a splits it at its end
    verts = verts[ia:] + verts[:ia] + [a]
    ib = verts.index(b, 1)
    ends = {e: k for k, e in enumerate(graph.edge_ends)}
    ids = tuple(ends[min(u, v), max(u, v)] for u, v in walk)
    return tuple(verts[:ib + 1]), tuple(verts[ib:]), ids[:ib], ids[ib:]


@dataclass(frozen=True)
class DualGraph:
    """Planar dual: one vertex per face (bounded faces labelled by their
    south-west corner, unbounded face by OUTER); edges[k] crosses primal
    edge k, and dual edge k is open iff primal edge k is closed."""

    vertices: tuple
    edges: tuple


def dual_map(graph):
    """The planar dual of a two-dimensional graph with unit-square faces.

    A bounded face is a unit square whose four edges are all present. By
    Euler's relation a plane graph with k components (isolated vertices
    included) has |E| - |V| + k bounded faces, so a graph with fewer such
    squares has another bounded face and is refused. Dual edge k joins the
    square left of primal edge k, directed from its smaller end, to the
    square right of it; a side with no square is the face OUTER.
    """
    if graph.ambient_dim != 2:
        raise ValueError("duality only for d=2")
    if not graph.n_edges:
        raise ValueError("graph has no edges, so no faces")
    present = graph.edge_index
    squares = {(x, y) for (x, y), _ in graph.edges
               if (((x, y), (x + 1, y)) in present
                   and ((x, y), (x, y + 1)) in present
                   and ((x + 1, y), (x + 1, y + 1)) in present
                   and ((x, y + 1), (x + 1, y + 1)) in present)}
    k, _ = cluster_stats(graph, (1,) * graph.n_edges, BoundaryCondition(()))
    if len(squares) < graph.n_edges - graph.n_vertices + k:
        raise ValueError("bounded faces must be unit squares")
    dual_edges = []
    for (x, y), (_, y1) in graph.edges:
        # east edges have their left square north, north edges west
        sides = ((x, y), (x, y - 1)) if y1 == y else ((x - 1, y), (x, y))
        dual_edges.append(tuple(f if f in squares else OUTER for f in sides))
    return DualGraph(tuple(sorted(squares | {OUTER}, key=str)),
                     tuple(dual_edges))


# ---------------------------------------------------------------------------
# Dobrushin domains and the diagonal (medial = Z^2) embedding


def to_black(v):
    """Primal vertex (x,y) -> black face label in the diagonal embedding."""
    return (v[0] - v[1], v[0] + v[1])


def _square_white(v, j):
    """The white of the unit square in quadrant j of primal vertex v: the
    side of black(v) in direction CCW_SIDES[j + 1]."""
    bx, by = to_black(v)
    dx, dy = CCW_SIDES[(j + 1) % 4]
    return (bx + dx, by + dy)


def shared_corner(f, g):
    """The medial vertex (integer corner) shared by two diagonally adjacent
    faces; this is the midpoint of the primal or dual edge f-g."""
    f, g = _point(f, "f"), _point(g, "g")
    if abs(f[0] - g[0]) != 1 or abs(f[1] - g[1]) != 1:
        raise ValueError("faces are not diagonal neighbors")
    return (max(f[0], g[0]), max(f[1], g[1]))


def segment_faces(z, w):
    """(black face, white face) bordering the unit medial segment z-w."""
    (zx, zy), (wx, wy) = _point(z, "z"), _point(w, "w")
    if abs(zx - wx) + abs(zy - wy) != 1:
        raise ValueError("not a unit medial segment: %r, %r" % (z, w))
    if zx == wx:  # vertical segment, faces east/west
        y = min(zy, wy)
        cands = [(zx, y), (zx - 1, y)]
    else:
        x = min(zx, wx)
        cands = [(x, zy), (x, zy - 1)]
    if (cands[0][0] + cands[0][1]) % 2 == 0:
        return cands[0], cands[1]
    return cands[1], cands[0]


def oriented_segment(z, w):
    """Orient the medial segment z-w counterclockwise around its black face
    (i,j): (z, w) when w follows z in the corner ring (i,j), (i+1,j),
    (i+1,j+1), (i,j+1), else (w, z)."""
    i, j = segment_faces(z, w)[0]
    z, w = tuple(z), tuple(w)
    ring = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
    return (z, w) if ring[(ring.index(z) + 1) % 4] == w else (w, z)


def _shared_side(black, white):
    """The medial segment between two edge-adjacent faces, oriented
    counterclockwise around the black one."""
    corners = [{(f[0] + dx, f[1] + dy) for dx in (0, 1) for dy in (0, 1)}
               for f in (black, white)]
    return oriented_segment(*sorted(corners[0] & corners[1]))


# successor codes of a slot whose next segment leaves the status vertices:
# through e_b, or anywhere off the curve (never reached from e_a)
_EXIT, _STRAY = -1, -2


class _SlotTable(NamedTuple):
    """The exploration rule of a domain over its medial slots.

    Slot 4 i + j is status vertex i entered from side CCW_SIDES[j]. side[s]
    is the index in edges of the canonical segment on that side, or -1 when
    the side carries no curve. For slot s and state b of the primal edge at
    its vertex, succ[s, b] is the next slot (or _EXIT, _STRAY), turn[s, b]
    the turn there (+1 left) and eid[s, b] the index in edges of the
    canonical segment left along; bit[s] is the free position of the edge
    (0 at forced vertices, whose two state columns are equal). Walks enter
    slot start from e_a, whose index in edges is entry.
    """

    edges: tuple
    entry: int
    start: int
    side: np.ndarray
    bit: np.ndarray
    succ: np.ndarray
    turn: np.ndarray
    eid: np.ndarray


class DobrushinDomain:
    """A primal domain with two marked boundary points and all the medial
    structure the loop representation needs.

    All geometry below is in the primal's own diagonal embedding. The
    domain owns its Dobrushin wiring (bc) and its slot table (slots); see
    the module docstring for what it refuses.
    """

    def __init__(self, primal, a, b):
        if primal.ambient_dim != 2:
            raise ValueError("Dobrushin domains are two-dimensional")
        if not primal.edges:
            raise ValueError("a Dobrushin domain needs an edge")
        if not primal.is_connected():
            raise ValueError("domain must be connected")
        if not primal.complement_connected():
            raise ValueError("domain complement must be connected")
        if primal.edges != induced_graph(primal.vertices, 2).edges:
            raise ValueError("domain must contain all induced edges")
        a, b = _point(a, "a"), _point(b, "b")
        bd = set(primal.boundary())
        if a not in bd or b not in bd:
            raise ValueError("a and b must be boundary vertices")

        self.primal = primal
        self.a, self.b = a, b
        ab_v, ba_v, _, ba_e = boundary_arcs(primal, a, b)
        self.ab_vertices, self.ba_vertices = ab_v, ba_v
        self.ba_edges = ba_e
        # a (ba) vertex with all four neighbours in the domain still meets
        # the outer face through a missing diagonal cell; custom_bc refuses
        # to wire it, naming it
        self.bc = custom_bc(primal, (ba_v,))
        ba_set = set(ba_e)
        self.free_edges = tuple(k for k in range(primal.n_edges)
                                if k not in ba_set)

        self.black = black = {v: to_black(v) for v in primal.vertices}
        self.blacks = frozenset(black.values())
        mid = {}
        for k, (u, w) in enumerate(primal.edges):
            mid[k] = shared_corner(black[u], black[w])

        whites = self._hugging_whites()
        self.abstar_whites = tuple(whites)
        forced_dual_mid = [shared_corner(whites[i], whites[i + 1])
                           for i in range(len(whites) - 1)]

        self.status = status = {}
        for k in self.free_edges:
            status[mid[k]] = ("free", k)
        for k in self.ba_edges:
            status[mid[k]] = ("primal", k)
        for z in forced_dual_mid:
            status[z] = ("dual", None)
        if len(status) != len(self.free_edges) + len(self.ba_edges) + len(forced_dual_mid):
            raise ValueError("medial status vertices collide")

        # the path enters across the side of black(a) facing the first
        # (ab)* white and leaves across the side of black(b) facing the last
        self.e_a = _shared_side(black[a], whites[0])
        self.e_b = _shared_side(black[b], whites[-1])
        self.free_pos = {k: t for t, k in enumerate(self.free_edges)}

        # whites of the dual domain: the (ab)* arc plus the squares on both
        # sides of every free edge
        flanks = []
        for u, w in (primal.edges[k] for k in self.free_edges):
            j = _SIDE[w[0] - u[0], w[1] - u[1]]
            flanks += (_square_white(u, j), _square_white(u, j - 1))
        self.whites = frozenset(whites + flanks)
        self.slots = self._slot_table()

    def _slot_table(self):
        """Index the medial slots, refusing a domain whose curve dangles.

        Every arc at a status vertex must join two curve-carrying sides or
        two dead ones, under each state of its edge; the curve-carrying
        sides are the curve segments between status vertices and e_a, e_b.
        Then the exploration from e_a can only leave the status vertices
        through e_b.
        """
        status = self.status
        slot = {(z, d): 4 * i + j for i, z in enumerate(status)
                for j, d in enumerate(CCW_SIDES)}
        side_edge = {}
        for z, d in slot:
            w = (z[0] + d[0], z[1] + d[1])
            e = oriented_segment(z, w)
            if (w in status and self.curve_segment(z, w)) \
                    or e in (self.e_a, self.e_b):
                side_edge[z, d] = e
        edges = tuple(sorted(set(side_edge.values())))
        edge_id = {e: i for i, e in enumerate(edges)}
        side = np.full(len(slot), -1, dtype=np.int64)
        for key, e in side_edge.items():
            side[slot[key]] = edge_id[e]
        bit = np.zeros(len(slot), dtype=np.int64)
        succ, turn, eid = (np.zeros((len(slot), 2), dtype=np.int64)
                           for _ in range(3))
        for z, (kind, k) in status.items():
            if kind == "free":
                states = (False, True)
                bit[[slot[z, d] for d in CCW_SIDES]] = self.free_pos[k]
            else:
                states = (kind == "primal",) * 2
            for b, open_primal in enumerate(states):
                for arc in self.arcs_at(z, open_primal):
                    for d_in, d_out in (arc, arc[::-1]):
                        s, out = slot[z, d_in], side[slot[z, d_out]]
                        if side[s] >= 0 > out:
                            raise ValueError(
                                "the curve dangles at medial vertex %s: no "
                                "exploration path from e_a to e_b" % (z,))
                        # the path arrives travelling along -d_in: a left
                        # turn when the cross product (-d_in) x d_out > 0
                        left = d_in[1] * d_out[0] > d_in[0] * d_out[1]
                        turn[s, b] = 1 if left else -1
                        # 0 on dead sides keeps the walk's histogram index
                        # valid until its stray check fires
                        eid[s, b] = max(out, 0)
                        nxt = (z[0] + d_out[0], z[1] + d_out[1])
                        if (z, nxt) == self.e_b:
                            succ[s, b] = _EXIT
                        elif out >= 0 and nxt in status:
                            succ[s, b] = slot[nxt, (-d_out[0], -d_out[1])]
                        else:
                            succ[s, b] = _STRAY
        tail, head = self.e_a
        start = slot[head, (tail[0] - head[0], tail[1] - head[1])]
        return _SlotTable(edges, edge_id[self.e_a], start, side, bit, succ,
                          turn, eid)

    def _hugging_whites(self):
        """The (ab)* chain: the exterior whites along the (ab) arc, wrap
        whites at a and b included; consecutive entries are dual-adjacent.

        At each arc vertex they are the squares of the quadrants swept
        counterclockwise from its incoming edge to its outgoing one, which
        the walk keeps on its right. At a the square right of the incoming
        (ba) edge is dropped, at b the square right of the outgoing one, and
        consecutive repeats are merged. With a == b there is no (ba) edge:
        the walk enters a and leaves b straight on, so the chain stays open
        across the side of black(a) facing the two missing neighbours; both
        marked edges dangle into that slit and are anti-parallel, which
        makes the exploration wind by pi between them.
        """
        arc, ends = self.ab_vertices, self.ba_vertices
        # the sides moved along into a, along the arc and out of b
        path = ends[-2:-1] + arc + ends[1:2]
        moves = [_SIDE[q[0] - p[0], q[1] - p[1]] for p, q in zip(path, path[1:])]
        if self.a == self.b:
            moves = moves[:1] + moves + moves[-1:]
        chain = []
        for i, v in enumerate(arc):
            back = (moves[i] + 2) % 4
            sweep = (moves[i + 1] - back - 1) % 4 + 1
            for t in range(i == 0, sweep - (i == len(arc) - 1)):
                w = _square_white(v, back + t)
                if not chain or chain[-1] != w:
                    chain.append(w)
        return chain

    # arc pairing: at a status vertex the two arcs avoid the open diagonal
    @staticmethod
    def arcs_at(z, open_primal):
        """The two arcs at medial vertex z as ((in,out),(in,out)) compass
        pairs; open diagonal NE-SW pairs (N,W),(S,E), NW-SE pairs (N,E),(S,W).

        open_primal: True when the primal edge through z is open. The blacks
        at z sit NE and SW when z has even parity, NW and SE otherwise.
        """
        if ((z[0] + z[1]) % 2 == 0) == open_primal:
            return (((0, 1), (-1, 0)), ((0, -1), (1, 0)))
        return (((0, 1), (1, 0)), ((0, -1), (-1, 0)))

    def curve_segment(self, z, w):
        """True when the unit medial segment z-w carries curve: its black
        side is a face of the domain and its white side is a wrap white or
        a flank of a free edge.

        Segments failing this (outside the wired arc, across a degenerate
        slit, between a wrap white and the exterior) are dead even when
        both endpoints are status vertices.
        """
        bf, wf = segment_faces(z, w)
        return bf in self.blacks and wf in self.whites

    # quantities entering the loop count identity
    def v_count(self):
        """|V(Omega)| - |(ba)| + 1, the vertex count entering l = 2k + o - v."""
        return self.primal.n_vertices - len(set(self.ba_vertices)) + 1


def medial_domain(primal, a, b):
    """Construct the Dobrushin domain (primal, a, b) with its medial data."""
    return DobrushinDomain(primal, a, b)
