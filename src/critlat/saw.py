"""Self-avoiding walks on the hexagonal lattice.

Exact walk and bridge counts, the truncated strip S(T, L), and the
parafermionic observable at spin sigma = 5/8.

Geometry: the lattice has mesh size one and is shifted so that the origin a
is the midpoint of a horizontal edge. Points are stored as integer pairs
(X, Y) standing for the complex number (X + i sqrt(3) Y) / 4. Vertices have
even coordinates with X = 4 mod 6 (east-pointing: edges E, NW, SW) or
X = 2 mod 6 (west-pointing: edges W, NE, SE); mid-edges are averages of
adjacent vertices. Walks start at a, step through vertices, and end at the
midpoint of an untraversed edge of their last vertex; the length |gamma| is
the number of vertices visited. Winding is pi/3 per left turn, -pi/3 per
right turn, including the final turn onto the exit half-edge.

Enumeration is breadth first, one walk per symmetry class: the strip sums
walk only the walks that leave (2, 0) to the north-east and add the mirror
images by conjugation, and the counts walk only the walks that begin east
then north-east, one of six images under rotation and reflection. All walks
of one length are held as numpy arrays, the frontier, and each step builds
the walks one vertex longer from them with vectorised gathers and tests:
the strip walks on a move table and uint64 bitsets of visited vertices,
reducing their ends level by level with np.bincount, and the counted walks
on their paths of cells. Each level is charged to oracle.MAX_TABLE_BYTES
before it is built.

The strip of width T cut at height L keeps the vertices with 0 <= X <= 6T
and 3|Y| <= X + 12L + 2. The slant intercept sits half a unit to the right
of a; with that choice the two cuts cross north-west and south-west edges
only, every boundary mid-edge falls in exactly one of the four groups alpha
(west), beta (east), eps_top, eps_bot, the winding to them is +-pi, 0 and
+-2pi/3, and the boundary identity

    cos(3pi/8) A + B + cos(pi/4) E = 1   at   x = 1/sqrt(2 + sqrt(2))

holds exactly. Any other intercept lets north-east edges pierce the slant
and the identity fails by O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import _integer
from .oracle import _check_budget

X_C = 1.0 / math.sqrt(2.0 + math.sqrt(2.0))
SIGMA = 5.0 / 8.0

A_MID = (0, 0)

# direction index k -> step in quarter units, angle k*pi/3
DIRS = ((4, 0), (2, 2), (-2, 2), (-4, 0), (-2, -2), (2, -2))

# each further step multiplies the work and the frontier by about mu_c;
# saw_counts(22) takes 0.05 s and saw_counts(24) 0.15-0.2 s, at a traced
# peak of 76 MiB, on one Xeon core under CPython 3.11 and numpy 2.4
SAW_COUNT_CAP = 24


def dir_indices(x):
    """Direction indices of the three edges at a vertex with first coord x."""
    return (0, 2, 4) if x % 6 == 4 else (1, 3, 5)


@dataclass(frozen=True)
class HexDomain:
    """Truncated strip with every mid-edge classified.

    interior mid-edges have both endpoints in the vertex set; the boundary
    groups are the stick-out edges through the west line (alpha, contains a),
    the east line (beta) and the two slant cuts (eps_top, eps_bot).
    """

    T: int
    L: int
    vertices: frozenset
    interior: frozenset
    alpha: frozenset
    beta: frozenset
    eps_top: frozenset
    eps_bot: frozenset

    def mid_edges(self):
        return self.interior | self.alpha | self.beta | self.eps_top | self.eps_bot


@dataclass(frozen=True)
class StripQuantities:
    """Endpoint-classified walk generating sums at step weight x."""

    A: float            # walks ending on alpha minus a
    B: float            # walks ending on beta
    E: float            # walks ending on either slant cut
    x: float
    max_length: int     # longest walk enumerated


def strip_domain(T, L):
    """The strip S(T, L): width T, cut at height L parallel to the NE edges."""
    T, L = _integer(T, "T"), _integer(L, "L")
    if T < 0 or L < 0:
        raise ValueError("T and L must be nonnegative")
    slack = 12 * L + 2
    verts = set()
    for X in range(2, 6 * T - 1):
        r = X % 6
        if r not in (2, 4):
            continue
        s = (X + 2) // 6 if r == 4 else (X - 2) // 6
        ymax = (X + slack) // 3
        for Y in range(-ymax, ymax + 1):
            if Y % 2 == 0 and (s + Y // 2) % 2 == 0:
                verts.add((X, Y))
    interior, alpha, beta, top, bot = set(), set(), set(), set(), set()
    for (X, Y) in verts:
        for k in dir_indices(X):
            dx, dy = DIRS[k]
            u = (X + dx, Y + dy)
            m = (X + dx // 2, Y + dy // 2)
            if u in verts:
                interior.add(m)
            elif u[0] < 0:
                alpha.add(m)
            elif u[0] > 6 * T:
                beta.add(m)
            elif 3 * u[1] > u[0] + slack:
                top.add(m)
            else:
                # the four violations are mutually exclusive for neighbours
                # of an inside vertex, so this must be the bottom cut
                assert -3 * u[1] > u[0] + slack
                bot.add(m)
    if T == 0:
        # degenerate strip: no vertices, the west and east lines coincide at
        # a, and the empty walk must count on the east side for the boundary
        # identity 1 = B to close
        beta.add(A_MID)
    return HexDomain(
        T=T,
        L=L,
        vertices=frozenset(verts),
        interior=frozenset(interior),
        alpha=frozenset(alpha),
        beta=frozenset(beta),
        eps_top=frozenset(top),
        eps_bot=frozenset(bot),
    )


def _check_mirror(domain):
    """Refuse a domain that the reflection Y -> -Y does not map to itself."""
    for points in (domain.vertices, domain.mid_edges()):
        if any((px, -py) not in points for (px, py) in points):
            raise ValueError("domain is not symmetric under Y -> -Y")


def _move_table(domain):
    """Integer move table of the domain, rebuilt on every sum, not stored.

    Vertex ids follow the sorted vertex list, id len(vertices) stands for
    every point outside the domain, and a state is 6 * (vertex id) +
    (arrival direction). With S = 6 |V|, entries s and S + s of each array
    hold the left turn and the right turn out of state s: the mid-edge id,
    the far vertex id and the next state; entries of unused states stay
    zero. Returns (mid, far, nxt, mid-edge list, vertex ids).
    """
    vid = {v: i for i, v in enumerate(sorted(domain.vertices))}
    n_states = 6 * len(vid)
    mids, mid_id = [], {}
    mid, far, nxt = ([0] * (2 * n_states) for _ in range(3))
    for (vx, vy), i in vid.items():
        # a vertex is entered along the reverses of its own three directions
        for k_in in dir_indices(vx + 2):
            s = 6 * i + k_in
            for q, k in ((s, (k_in + 1) % 6), (n_states + s, (k_in - 1) % 6)):
                dx, dy = DIRS[k]
                m = (vx + dx // 2, vy + dy // 2)
                if m not in mid_id:
                    mid_id[m] = len(mids)
                    mids.append(m)
                j = vid.get((vx + dx, vy + dy), len(vid))
                mid[q], far[q], nxt[q] = mid_id[m], j, 6 * j + k
    return np.array(mid), np.array(far), np.array(nxt), mids, vid


def _midedge_sums(domain, x, sigma):
    """Sum e^{-i sigma W} x^{|gamma|} over all walks, keyed by end mid-edge.

    Breadth first over self-avoiding vertex sequences from a. At the last
    vertex of a walk every untraversed incident edge contributes an end at
    its midpoint (its far endpoint may be outside the strip or already
    visited; only the arrival edge is barred), and the walk continues
    through it when the far endpoint is a fresh strip vertex.

    Every nonempty walk leaves (2, 0) to the north-east or to the
    south-east, and the reflection Y -> -Y swaps the two halves and negates
    the winding. Only the north-east half is walked, on the integer move
    table, and F(m) = half(m) + conj(half(m reflected)) for real x and
    sigma, plus the empty walk at a. The walks of one length form the
    frontier: per walk its state, its index t = row * n + w + offset into
    the weight table (n vertices, winding w, so a left turn moves t by
    row + 1 and a right turn by row - 1) and its visited vertices as uint64
    words, with the outside id always marked. Raises ValueError on a
    non-finite x or sigma, on a domain that the reflection does not map to
    itself, and on a frontier over oracle.MAX_TABLE_BYTES. Returns
    (sums, max length).
    """
    for name, value in (("x", x), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, not %r" % (name, value))
    _check_mirror(domain)
    sums = dict.fromkeys(domain.mid_edges(), 0.0j)
    sums[A_MID] = sums.get(A_MID, 0.0j) + 1.0  # the empty walk
    start = (2, 0)
    if start not in domain.vertices:
        return sums, 0
    mid, far, nxt, mids, vid = _move_table(domain)
    nmax = len(vid)
    n_states = 6 * nmax
    # masks[q]: the bit of the far vertex of move q, in its word
    n_words = nmax // 64 + 1
    masks = np.zeros((2 * n_states, n_words), np.uint64)
    masks[np.arange(2 * n_states), far >> 6] = np.left_shift(
        np.uint64(1), (far & 63).astype(np.uint64))
    # w_re + i w_im at row * n + w + nmax + 1 is x^n e^{-i sigma pi w / 3},
    # for |w| <= nmax + 1
    row = 2 * nmax + 3
    xp = x ** np.arange(nmax + 1.0)
    angle = sigma * math.pi / 3.0 * np.arange(-nmax - 1, nmax + 2)
    w_re = np.outer(xp, np.cos(angle)).ravel()
    w_im = np.outer(xp, -np.sin(angle)).ravel()
    re, im = np.zeros(len(mids)), np.zeros(len(mids))
    q0, t0 = 6 * vid[start], row + nmax + 1  # arrived eastward from a
    re[mid[q0]], im[mid[q0]] = w_re[t0 + 1], w_im[t0 + 1]  # left turn only
    bits = masks[q0:q0 + 1].copy()
    for j in (nmax, vid[start]):
        bits[0, j >> 6] |= np.uint64(1) << np.uint64(j & 63)
    # the walk of two vertices, if the north-east neighbour is in the strip
    state = nxt[q0:q0 + 1][far[q0:q0 + 1] < nmax]
    t = np.full(len(state), t0 + row + 1)
    longest = 1
    while len(state):
        longest += 1
        # a walk kept takes 16 bytes of state and t and 8 per bitset word;
        # with the temporaries that build it, 40 and 24 at the level's peak
        _check_budget(2 * len(state) * (40 + 24 * n_words),
                      "strip walks of %d vertices" % (longest + 1))
        q = np.concatenate((state, state + n_states))  # left, then right turns
        ends = np.concatenate((t + 1, t - 1))
        re += np.bincount(mid[q], w_re[ends], len(mids))
        im += np.bincount(mid[q], w_im[ends], len(mids))
        rows, mask = np.concatenate((bits, bits)), masks[q]
        go = np.flatnonzero(~(rows & mask).any(axis=1))
        bits, state, t = rows[go] | mask[go], nxt[q[go]], ends[go] + row
    for (mx, my), zr, zi in zip(mids, re.tolist(), im.tolist()):
        sums[(mx, my)] += complex(zr, zi)
        sums[(mx, -my)] += complex(zr, -zi)
    return sums, longest


def observable(domain, x=X_C, sigma=SIGMA):
    """The parafermionic observable F on every mid-edge of the domain."""
    sums, _ = _midedge_sums(domain, x, sigma)
    return sums


def strip_quantities(T, L, x):
    """Exact endpoint sums A, B, E for S(T, L) at step weight x."""
    domain = strip_domain(T, L)
    sums, longest = _midedge_sums(domain, x, 0.0)
    a_sum = sum(sums[m].real for m in domain.alpha if m != A_MID)
    b_sum = sum(sums[m].real for m in domain.beta)
    e_sum = sum(sums[m].real for m in domain.eps_top | domain.eps_bot)
    return StripQuantities(A=a_sum, B=b_sum, E=e_sum, x=x, max_length=longest)


def identity_check(T, L, x=X_C):
    """|cos(3pi/8) A + B + cos(pi/4) E - 1| for S(T, L).

    Zero to rounding at x = 1/sqrt(2 + sqrt(2)) for every T, L >= 0; moving
    x off that value loses the triplet cancellation and the residual is
    macroscopic.
    """
    q = strip_quantities(T, L, x)
    return abs(math.cos(3 * math.pi / 8) * q.A + q.B + math.cos(math.pi / 4) * q.E - 1.0)


def vertex_relation(domain, x=X_C, sigma=SIGMA):
    """Worst |(p-v)F(p) + (q-v)F(q) + (r-v)F(r)| over strip vertices.

    p, q, r are the three mid-edges at v. Vanishes at x = x_c, sigma = 5/8:
    the half-edge vectors are cube roots of unity times a rotation, walks
    pair off by loop reversal and triple up by one-step extension.
    """
    fv = observable(domain, x, sigma)
    residuals = []
    for v in domain.vertices:
        acc = 0.0j
        for k in dir_indices(v[0]):
            dx, dy = DIRS[k]
            half = complex(dx / 8.0, dy * math.sqrt(3.0) / 8.0)
            acc += half * fv[(v[0] + dx // 2, v[1] + dy // 2)]
        residuals.append(abs(acc))
    # the builtin max keeps a NaN only in first place; np.max propagates it
    return float(np.max(residuals, initial=0.0))


def saw_counts(n_max):
    """Exact counts (c, b) of self-avoiding walks and bridges by edge count.

    Walks start at an east-pointing vertex; c[0] = b[0] = 1. Bridges keep
    0 < Re(g_i - g_0) <= Re(g_n - g_0) for all 1 <= i <= n, so the first
    step of any bridge is the horizontal one.

    Turning by 120 degrees about the start permutes the three first steps,
    and the reflection Y -> -Y fixes the east step and swaps the two second
    steps. So for n >= 2, c[n] is six times the number of walks that begin
    east then north-east, and b[n] twice the number of their bridges, since
    every bridge begins east and the reflection keeps X. Only those walks
    are enumerated, breadth first: a walk of the frontier holds its arrival
    direction, its X, the largest X hi of a bridge (or a value no X reaches
    once it is none) and its path of cells. Steps onto the last length are
    counted, never taken. Raises ValueError on an n_max that is not an
    integer in [0, SAW_COUNT_CAP] and on a frontier over
    oracle.MAX_TABLE_BYTES.
    """
    n_max = _integer(n_max, "n_max")
    if not 0 <= n_max <= SAW_COUNT_CAP:
        raise ValueError("n_max must lie in [0, %d]" % SAW_COUNT_CAP)
    c = [1, 3, 6][:n_max + 1] + [0] * (n_max - 2)
    b = [1, 1, 2][:n_max + 1] + [0] * (n_max - 2)
    # cells are vertices in half units, Y / 2 * width + (X + 2) / 2, so that
    # the start (-2, 0) is cell 0 and no two vertices within n_max steps of
    # it share a cell
    width = 4 * n_max + 5
    step = np.array([dy // 2 * width + dx // 2 for dx, dy in DIRS], np.int16)
    dxs = np.array([dx for dx, _ in DIRS], np.int16)
    # turns[k] and turns[6 + k]: the left and the right turn after step k
    turns = np.array([(k + t) % 6 for t in (1, -1) for k in range(6)], np.int8)
    never = 4 * n_max + 4  # the hi of a non-bridge: above every X reached
    # path[i] holds step i of every walk; the first walk goes east, north-east
    path = np.array([[0], [step[0]], [step[0] + step[1]]], np.int16)
    k, px = np.array([1], np.int8), np.array([4], np.int16)
    hi = px.copy()
    for n in range(3, n_max + 1):
        size = len(k)
        # live at the step's peak, per walk: its n cells at 2 bytes, 5 bytes
        # of k, X, hi, 16 of gather indices and 16 of temporaries, then the
        # cells, k, X, hi and indices of its at most two children
        kids = 2 * (2 * n + 23) if n < n_max else 0
        _check_budget(size * (2 * n + 37 + kids), "walks of %d steps" % n)
        k_out = turns[np.concatenate((k, k + 6))]  # left, then right turns
        cell = np.concatenate((path[-1], path[-1])) + step[k_out]
        # the lattice is bipartite of girth 6: a step can only land on a cell
        # 6, 8, 10, ... steps back
        hit = [(path[-6::-2] == half).any(axis=0)
               for half in (cell[:size], cell[size:])]
        go = np.flatnonzero(~np.concatenate(hit))
        walk, k = go % size, k_out[go]
        ux, h = px[walk] + dxs[k], hi[walk]
        c[n], b[n] = 6 * len(go), 2 * int(np.count_nonzero(ux >= h))
        if n == n_max:
            break  # the last level is counted, not taken
        taken = np.empty((n + 1, len(go)), np.int16)
        # mode clip: walk is in range, and mode raise would buffer out
        np.take(path, walk, axis=1, out=taken[:-1], mode="clip")
        taken[-1], path = cell[go], taken
        px, hi = ux, np.where(ux > -2, np.maximum(h, ux), never)
    return c, b
