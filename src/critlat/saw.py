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

Enumeration is depth first, one walk per symmetry class: the strip sums
walk only the walks that leave (2, 0) to the north-east and add the mirror
images by conjugation, and the counts walk only the walks that begin east
then north-east, one of six images under rotation and reflection. The
search runs on integer tables built per call (vertex ids, a move table per
arrival direction, a bytearray of visited vertices, a weight table indexed
by length and winding), never on coordinate tuples and sets.

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

import cmath
import math
from dataclasses import dataclass

import numpy as np

X_C = 1.0 / math.sqrt(2.0 + math.sqrt(2.0))
MU_C = math.sqrt(2.0 + math.sqrt(2.0))
SIGMA = 5.0 / 8.0

A_MID = (0, 0)

# direction index k -> step in quarter units, angle k*pi/3
DIRS = ((4, 0), (2, 2), (-2, 2), (-4, 0), (-2, -2), (2, -2))

# each further step multiplies the work by about mu_c; saw_counts(22) takes
# 0.4 s and saw_counts(24) 1.3 s on one Xeon core under CPython 3.11
SAW_COUNT_CAP = 24

# the hi of a walk that can no longer be a bridge: no X reaches it
_NOT_BRIDGE = 1 << 30


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

    Vertex ids follow the sorted vertex list and a state is
    6 * (vertex id) + (arrival direction). moves[state] holds the left turn
    then the right turn, each as (mid-edge id, far vertex id, next state);
    the far id is -1 when that endpoint is outside the domain. Returns
    (moves, mid-edge list, vertex ids).
    """
    vid = {v: i for i, v in enumerate(sorted(domain.vertices))}
    mids, mid_id = [], {}
    moves = [None] * (6 * len(vid))
    for (vx, vy), i in vid.items():
        # a vertex is entered along the reverses of its own three directions
        for k_in in dir_indices(vx + 2):
            turns = ()
            for k in ((k_in + 1) % 6, (k_in - 1) % 6):
                dx, dy = DIRS[k]
                m = (vx + dx // 2, vy + dy // 2)
                if m not in mid_id:
                    mid_id[m] = len(mids)
                    mids.append(m)
                j = vid.get((vx + dx, vy + dy), -1)
                turns += (mid_id[m], j, 6 * j + k)
            moves[6 * i + k_in] = turns
    return moves, mids, vid


def _strip_walks(s, t, moves, seen, wt, acc, row):
    """Add the ends of every walk that extends the one at state s.

    The vertex of s is already marked in seen. t = row * n + w + offset
    encodes the vertex count n and the winding w, so a left turn moves it
    by +1 and each further vertex by +row. Returns the largest t reached.
    The path and the deferred right turns live on lists, not on the call
    stack: CPython 3.11 frees a frame-stack chunk each time a recursion
    returns across its base, and a recursive search ran up to 7x slower at
    some caller stack depths.
    """
    path = [0] * len(seen)  # vertex ids marked since s, depth first
    depth = 0
    todo = []               # deferred right turns: (depth, vertex id, state, t)
    top = t
    while True:
        m_l, j_l, s_l, m_r, j_r, s_r = moves[s]
        acc[m_l] += wt[t + 1]
        acc[m_r] += wt[t - 1]
        if not seen[j_l]:
            if not seen[j_r]:
                todo.append((depth, j_r, s_r, t + row - 1))
            j, s, t = j_l, s_l, t + row + 1
        elif not seen[j_r]:
            j, s, t = j_r, s_r, t + row - 1
        else:
            if t > top:
                top = t
            if not todo:
                return top
            d, j, s, t = todo.pop()
            while depth > d:
                depth -= 1
                seen[path[depth]] = 0
        seen[j] = 1
        path[depth] = j
        depth += 1


def _midedge_sums(domain, x, sigma):
    """Sum e^{-i sigma W} x^{|gamma|} over all walks, keyed by end mid-edge.

    Depth-first over self-avoiding vertex sequences from a. At the current
    vertex every untraversed incident edge contributes an end at its
    midpoint (its far endpoint may be outside the strip or already visited;
    only the arrival edge is barred), and the walk continues through it when
    the far endpoint is a fresh strip vertex.

    Every nonempty walk leaves (2, 0) to the north-east or to the
    south-east, and the reflection Y -> -Y swaps the two halves and negates
    the winding. Only the north-east half is walked, on the integer move
    table, and F(m) = half(m) + conj(half(m reflected)) for real x and
    sigma, plus the empty walk at a. Raises ValueError on a non-finite x or
    sigma and on a domain that the reflection does not map to itself.
    Returns (sums, max length).
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
    moves, mids, vid = _move_table(domain)
    nmax = len(vid)
    # wt[row * n + w + nmax + 1] = x^n e^{-i sigma pi w / 3}, |w| <= nmax + 1
    row = 2 * nmax + 3
    coef = -1j * sigma * math.pi / 3.0
    phases = [cmath.exp(coef * w) for w in range(-nmax - 1, nmax + 2)]
    wt = []
    xp = 1.0
    for _ in range(nmax + 1):
        wt += [xp * ph for ph in phases]
        xp *= x
    seen = bytearray(nmax + 1)
    seen[-1] = 1  # far id -1: outside the domain, never entered
    acc = [0.0j] * len(mids)
    i0 = vid[start]
    seen[i0] = 1
    top = row + nmax + 1  # one vertex, no winding
    m_ne, j_ne, s_ne = moves[6 * i0][:3]  # arrival from a is eastward
    acc[m_ne] += wt[top + 1]
    if not seen[j_ne]:
        seen[j_ne] = 1
        top = _strip_walks(s_ne, top + row + 1, moves, seen, wt, acc, row)
    for (mx, my), z in zip(mids, acc):
        sums[(mx, my)] += z
        sums[(mx, -my)] += z.conjugate()
    return sums, top // row


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


def _count_walks(i, k, px, n, hi, c, b, box, turns, last):
    """Count every extension, up to last + 1 steps, of the walk at box index i.

    The vertex at i is already marked in box. k is its arrival direction,
    px its quarter-unit X and n its step count; hi is the largest X of a
    bridge so far, or _NOT_BRIDGE once the walk has come back to the start
    column. Steps onto the last level are counted, never taken. Iterative
    for the reason given at _strip_walks.
    """
    path = [0] * (last + 1)  # box indices marked since i, depth first
    depth = 0
    todo = []                # steps to take: (depth, i, k, px, n, hi)
    while True:
        m = n + 1
        for k_out, step, dx in turns[k]:
            j = i + step
            if box[j]:
                continue
            c[m] += 1
            ux = px + dx
            if ux >= hi:
                b[m] += 1
                h = ux
            else:
                h = hi if ux > -2 else _NOT_BRIDGE
            if n < last:
                todo.append((depth, j, k_out, ux, m, h))
        if not todo:
            return
        d, i, k, px, n, hi = todo.pop()
        while depth > d:
            depth -= 1
            box[path[depth]] = 0
        box[i] = 1
        path[depth] = i
        depth += 1


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
    are enumerated, depth first on a bytearray box around the start; steps
    onto the last length are counted, never taken.
    """
    if not 0 <= n_max <= SAW_COUNT_CAP:
        raise ValueError("n_max must lie in [0, %d]" % SAW_COUNT_CAP)
    c = [1, 3, 6][:n_max + 1] + [0] * (n_max - 2)
    b = [1, 1, 2][:n_max + 1] + [0] * (n_max - 2)
    if n_max <= 2:
        return c, b
    # box cells are vertices in half units, (X / 2, Y / 2), around the start
    r = n_max + 1
    width = 4 * r + 1
    box = bytearray(width * (2 * r + 1))
    step = [dy // 2 * width + dx // 2 for dx, dy in DIRS]
    turns = [tuple((k_out, step[k_out], DIRS[k_out][0])
                   for k_out in ((k + 1) % 6, (k - 1) % 6)) for k in range(6)]
    start = r * width + 2 * r  # (-2, 0), east-pointing
    east = start + step[0]
    second = east + step[1]
    box[start] = box[east] = box[second] = 1
    _count_walks(second, 1, 4, 2, 4, c, b, box, turns, n_max - 1)
    for n in range(3, n_max + 1):
        c[n] *= 6
        b[n] *= 2
    return c, b
