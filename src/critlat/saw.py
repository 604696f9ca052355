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

X_C = 1.0 / math.sqrt(2.0 + math.sqrt(2.0))
MU_C = math.sqrt(2.0 + math.sqrt(2.0))
SIGMA = 5.0 / 8.0

A_MID = (0, 0)

# direction index k -> step in quarter units, angle k*pi/3
DIRS = ((4, 0), (2, 2), (-2, 2), (-4, 0), (-2, -2), (2, -2))

# enumerating past this length is hours of work
SAW_COUNT_CAP = 24


def dir_indices(x):
    """Direction indices of the three edges at a vertex with first coord x."""
    return (0, 2, 4) if x % 6 == 4 else (1, 3, 5)


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


def _midedge_sums(domain, x, sigma):
    """Sum e^{-i sigma W} x^{|gamma|} over all walks, keyed by end mid-edge.

    Depth-first over self-avoiding vertex sequences from a. At the current
    vertex every untraversed incident edge contributes an end at its
    midpoint (its far endpoint may be outside the strip or already visited;
    only the arrival edge is barred), and the walk continues through it when
    the far endpoint is a fresh strip vertex. Returns (sums, max length).
    """
    sums = dict.fromkeys(domain.mid_edges(), 0.0j)
    sums[A_MID] = sums.get(A_MID, 0.0j) + 1.0  # the empty walk
    start = (2, 0)
    if start not in domain.vertices:
        return sums, 0
    nmax = len(domain.vertices)
    xpow = [1.0] * (nmax + 1)
    for i in range(1, nmax + 1):
        xpow[i] = xpow[i - 1] * x
    coef = -1j * sigma * math.pi / 3.0
    phases = {}
    verts = domain.vertices
    visited = {start}
    best = [1]

    def go(v, k_in, w, n):
        vx, vy = v
        rev = (k_in + 3) % 6
        xp = xpow[n]
        for k in dir_indices(vx):
            if k == rev:
                continue
            wn = w + (1 if (k - k_in) % 6 == 1 else -1)
            ph = phases.get(wn)
            if ph is None:
                ph = phases[wn] = cmath.exp(coef * wn)
            dx, dy = DIRS[k]
            sums[(vx + dx // 2, vy + dy // 2)] += ph * xp
            u = (vx + dx, vy + dy)
            if u in verts and u not in visited:
                if n >= best[0]:
                    best[0] = n + 1
                visited.add(u)
                go(u, k, wn, n + 1)
                visited.discard(u)

    go(start, 0, 0, 1)
    return sums, best[0]


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
    worst = 0.0
    for v in domain.vertices:
        acc = 0.0j
        for k in dir_indices(v[0]):
            dx, dy = DIRS[k]
            half = complex(dx / 8.0, dy * math.sqrt(3.0) / 8.0)
            acc += half * fv[(v[0] + dx // 2, v[1] + dy // 2)]
        worst = max(worst, abs(acc))
    return worst


def saw_counts(n_max):
    """Exact counts (c, b) of self-avoiding walks and bridges by edge count.

    Walks start at an east-pointing vertex; c[0] = b[0] = 1. Bridges keep
    0 < Re(g_i - g_0) <= Re(g_n - g_0) for all 1 <= i <= n, so the first
    step of any bridge is the horizontal one.
    """
    if not 0 <= n_max <= SAW_COUNT_CAP:
        raise ValueError("n_max must lie in [0, %d]" % SAW_COUNT_CAP)
    c = [1] + [0] * n_max
    b = [1] + [0] * n_max
    if n_max == 0:
        return c, b
    start = (-2, 0)  # east-pointing vertex whose east edge carries a
    x0 = start[0]
    visited = {start}

    def go(v, n, lo, hi):
        if n == n_max:
            return
        for k in dir_indices(v[0]):
            dx, dy = DIRS[k]
            u = (v[0] + dx, v[1] + dy)
            if u in visited:
                continue
            m = n + 1
            c[m] += 1
            nlo = lo if lo < u[0] else u[0]
            nhi = hi if hi > u[0] else u[0]
            if nlo > x0 and u[0] == nhi:
                b[m] += 1
            visited.add(u)
            go(u, m, nlo, nhi)
            visited.discard(u)

    go(start, 0, 10 ** 9, -(10 ** 9))
    return c, b
