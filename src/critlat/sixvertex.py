"""Six-vertex model on a torus and its random-cluster correspondence.

Torus geometry.  In the rotated coordinates u = x1 + x2, v = x1 - x2 the
diagonal torus {0 <= x1+x2 <= M, |x1-x2| <= N} of Z^2 (opposite boundaries
glued at equal u, respectively equal v) becomes a plain doubly periodic
grid: sites are the pairs (u, v) with u + v even, u mod M, v mod 2N, and
every site carries two eastward bonds, to (u+1, v+1) and to (u+1, v-1).
Site parity closes up only for M even; the six-vertex model itself lives on
the medial graph, which is the ordinary M x 2N square-lattice torus with
vertices at the bond midpoints (i + 1/2, j + 1/2), and makes sense for all
M, N >= 1.

Arrows and weights.  A six-vertex configuration orients every medial edge.
Horizontal medial edges point towards +u (north-east in the original frame,
bit 1) or -u; vertical edges point towards +v (bit 1).  The ice rule (two
arrows in, two out at every medial vertex) reads W + S = E + N in bits, so
the number of +u arrows crossing a cut u = k is the same for every k; the
state at the cut u = 0 is the conserved "arrow line" and its popcount is
written |w|.  At weights a = b = 1 only the two vertex types where the
horizontal arrow flips are charged, each with weight c, so a configuration
weighs c^{#flips}.

Transfer matrix.  States are bitmasks of the 2N arrows crossing a cut.  The
column-to-column operator V conserves popcount.  Within a block the entry
V[W, E] is c^{#flips} times the number of vertical completions of the
column: 2 for W = E, 1 if the flips alternate in sign around the column and
0 otherwise.  _block_rows applies that rule to a grid of bitmasks: all of a
block's states as columns, and as rows either all of them (transfer_block,
the dense block) or the shift-orbit representatives only (shift_orbits).
Every block commutes with the cyclic shift of the 2N arrows, so its spectrum
is solved one shift momentum at a time from the representatives' rows
alone; TransferMatrix.eigs builds those rows one block at a time and never
a dense block.  The dense blocks (TransferMatrix.blocks) are built only
when read, by the trace identities and cross-checks that need every entry.
TransferMatrix.apply contracts a column the local way instead, one two-state
tensor per row (the vertical arrows perform a {0,1} walk whose steps are
W_j - E_j), and is the independent route the blocks are checked against.
Both builds are sized against the byte budget before they are made.
Z(N, M) = tr(V^M), and the restricted trace Zt over the popcount N-1 block
decays like exp(-M * rate).  For c = sqrt(2 + sqrt(q)) > 2 the Bethe ansatz
value of the limiting rate is

    rate(q) = lambda + 2 sum_{k>=1} (-1)^k tanh(k lambda) / k,
    cosh(lambda) = sqrt(q) / 2,

which vanishes as q -> 4+ like 8 exp(-pi^2 / sqrt(q-4)) (note that
sqrt(q-4) = 2 sinh(lambda)).

Brute-force census.  brute_force_census enumerates the ice configurations
without the transfer matrix.  It visits the medial vertices in row order
over a uint64 array of partial arrow masks with an int8 flip count per row:
each edge of the vertex not yet assigned doubles the array (arrow bit clear,
then set), only the rows with exactly two inward arrows at the vertex are
kept, and their flip count rises by one where W != E.  One bincount over
(|w| at the cut, flips) then gives an integer table, and Z and the sector
sums are that table times c^flips.  Each doubling is sized against the
byte budget before it is made, and tori past 64 medial edges, the mask
width, are refused.

Random-cluster side.  TorusRc holds the primal torus (sites of even
parity).  Cluster homology is computed by lifting clusters to the universal
cover: a cycle closing with displacement (alpha*M, beta*2N) contributes the
winding class (alpha, beta).  A cluster is non-retractible if its winding
subgroup of Z^2 is nonzero, and "winds north-east" if some class has
alpha != 0.  The winding rank of the primal clusters fixes the dual ones
through Euler's relation on the torus and duality, and the loops of the
interface between the two sides follow.  Orienting them with weight
exp(+-mu) per retractible loop, e^mu + e^-mu = sqrt(q), and reading each
oriented loop configuration as an arrow configuration reproduces the
six-vertex sector sums exactly (oriented_sector_sums), which is the
mechanism behind rc6v_verify.

One pass over torus configurations.  TorusRc.census_table builds one lifted
label table over all 2^E bond masks with oracle._fill_masks, the builder of
the oracle's label table: bond by bond, the rows of the masks over earlier
bonds are copied, the bond's link is applied to the copy and the weight
class k (E + 1) + o is built alongside.  Each node carries its label and its
offset from the labelling node in the universal cover; a merge rewrites the
larger label and shifts the rewritten offsets, and a link inside one
component closes a cycle whose displacement is a winding class.  Per mask it
keeps the first nonzero class and whether a later one is not parallel to
it, which give the winding rank.  The weight class and the rank give every
dual and loop column (census_table), so neither a dual nor a medial table is
built.  rc6v_verify, loop_weight_constant and oriented_sector_sums read the
census through _loop_constant and _oriented_sectors; the orientation sum
over l0 parallel loops is a binomial.  The package has no second,
per-configuration census: the tests check the table against a depth-first
lift of both sides, on dual bonds of their own, and a loop walk of one mask
at a time (tests/reference.py).
"""

from __future__ import annotations

import math
import numbers

import mpmath
import numpy as np

from .lattice import _integer
from .oracle import (
    _check_budget,
    _check_enum_edges,
    _check_q,
    _fill_masks,
    _log_weights,
    p_self_dual,
)

# eigs holds, per block of n states and k ~ n / 2N shift orbits, the k x n
# representatives' rows and a k x k x 2N momentum transform: 32 MiB at N = 7
# and 400 MiB at N = 8.  The dense blocks, C(4N, 2N) float64 entries in all,
# take 306 MiB at N = 7 and 4.5 GiB at N = 8, past the byte budget.
MAX_TRANSFER_N = 7

# tolerance of the cluster identity in rc6v_verify
RC6V_TOL = 1e-8


def c_from_q(q):
    """Six-vertex c-weight coupled to the cluster weight q."""
    _check_q(q)
    return math.sqrt(2.0 + math.sqrt(q))


def _check_c(c):
    """Refuse a c-weight that is not positive (NaN included) or that is
    infinite, naming the value."""
    if not c > 0:
        raise ValueError("c-weight must be positive, not %r" % (c,))
    if c == math.inf:
        raise ValueError("c-weight must be finite, not %r" % (c,))


def block_states(n_arrows, m):
    """All arrow-line bitmasks of length n_arrows with popcount m, sorted."""
    words = np.arange(1 << n_arrows, dtype=np.int64)
    return tuple(np.flatnonzero(np.bitwise_count(words) == m).tolist())


def shift_orbits(n_arrows, m):
    """Orbits of block_states(n_arrows, m) under the cyclic shift rotl.

    Each orbit's representative is its smallest word.  Returns reps, the
    representatives' positions in block_states (reps[r] is orbit r's);
    orbit and shift, per state its orbit and a d with state = rotl^d(its
    representative); and period, per orbit its length n_r.
    """
    s = np.array(block_states(n_arrows, m), dtype=np.int64)
    k = np.arange(n_arrows)[:, None]
    rot = ((s << k) | (s >> (n_arrows - k))) & ((1 << n_arrows) - 1)
    orbit = np.unique(rot.min(0), return_inverse=True)[1]
    shift = -rot.argmin(0) % n_arrows
    return np.flatnonzero(shift == 0), orbit, shift, np.bincount(orbit)


def _block_rows(N, c, m, rows=slice(None)):
    """The given rows of the popcount-m block, by the flip-alternation rule.

    The flips alternate exactly when the up flips (W & ~E) or the down flips
    (E & ~W) are the 1st, 3rd, 5th, ... flip from bit 0, which an inclusive
    prefix XOR of the flip word marks; for W = E both hold, giving 2.  The
    rule is evaluated on the W x E grid of the selected rows and every
    column state.
    """
    # the narrowest unsigned type of 2N bits; only the low 2N bits are read
    dtype = np.min_scalar_type((1 << 2 * N) - 1)
    s = np.array(block_states(2 * N, m), dtype=dtype)
    W, E = s[rows, None], s[None, :]
    flips = W ^ E
    odd = flips.copy()
    shift = 1
    while shift < 2 * N:
        odd ^= odd << shift
        shift *= 2
    odd &= flips
    count = ((W & ~E) == odd).astype(np.int8)
    count += (E & ~W) == odd
    del odd
    weights = (c ** np.arange(2 * N + 1.0))[np.bitwise_count(flips)]
    weights *= count
    return weights


def transfer_block(N, c, m):
    """Dense popcount-m block of the column-to-column transfer operator."""
    return _block_rows(N, c, m)


class TransferMatrix:
    """Popcount-blocked row-to-row operator of the toroidal six-vertex model.

    The spectra (eigs) are built from the blocks' rows at the shift-orbit
    representatives, one popcount at a time, and are all that sector_trace,
    trace_power, spectral_rate and gap_rate read.  The dense blocks are
    built on the first read of blocks only, for the readers that need every
    entry (trace identities, cross-checks of apply and of the spectra).
    Each build is sized against the byte budget before it is made.
    """

    def __init__(self, N, c):
        if not isinstance(N, numbers.Integral) or not 1 <= N <= MAX_TRANSFER_N:
            raise ValueError("transfer matrix needs an integer N with 1 <= N <= "
                             "%d, not %r" % (MAX_TRANSFER_N, N))
        _check_c(c)
        self.N = N
        self.c = float(c)
        self._blocks = None
        self._eigs = None

    @property
    def blocks(self):
        """The dense popcount blocks (transfer_block), built on first read."""
        if self._blocks is None:
            N = self.N
            sizes = [math.comb(2 * N, m) ** 2 for m in range(2 * N + 1)]
            # the float64 blocks built so far, and the block being built
            # with the temporaries of its flip rule: the float64 output, the
            # uint16 flip word, the int8 completion and uint8 flip counts
            _check_budget(max(8 * sum(sizes[:m]) + 12 * n
                              for m, n in enumerate(sizes + [0])),
                          "the dense transfer blocks at N = %d" % N)
            self._blocks = tuple(transfer_block(N, self.c, m)
                                 for m in range(2 * N + 1))
        return self._blocks

    @property
    def eigs(self):
        """Per-block spectra, each sorted ascending.

        A block B commutes with the shift of the L = 2N arrows, so it is
        diagonal in the momentum states |r, kappa> = n_r^{-1/2} sum_d
        exp(-2 pi i kappa d / L) |rotl^d rep_r>, which exist for the orbits
        r with kappa n_r = 0 mod L.  Its entries in sector kappa are
        sqrt(n_i / n_j) sum_{b in orbit j} B[rep_i, b] exp(-2 pi i kappa d_b
        / L), d_b the shift of b: the representatives' rows, summed by
        (orbit, shift) and Fourier transformed over the shift.  Only those
        rows are built (_block_rows), one block at a time; the dense blocks
        are not.  Each sector is Hermitian and solved by eigvalsh; sector
        L - kappa is the conjugate of sector kappa and repeats its
        spectrum, so kappa runs over 0..N only.
        """
        if self._eigs is None:
            L = 2 * self.N
            spectra = []
            for m in range(L + 1):
                reps, orbit, shift, period = shift_orbits(L, m)
                k = len(reps)
                # the peak is the k x k x L momentum transform: float64,
                # then its FFT with numpy's complex copy of the input, 8 + 16
                # + 16 bytes an entry; the k x n rows and their bin indices
                # are freed before it and take less, as kL >= n
                _check_budget(40 * k * k * L, "the transfer rows of popcount "
                              "%d at N = %d" % (m, self.N))
                at = np.arange(k)[:, None] * (k * L) + (orbit * L + shift)
                F = np.bincount(at.ravel(),
                                _block_rows(self.N, self.c, m, reps).ravel(),
                                k * k * L)
                del at
                F = np.fft.fft(F.reshape(k, k, L))
                F *= np.sqrt(period[:, None] / period)[..., None]
                e = []
                for kappa in range(self.N + 1):
                    keep = np.flatnonzero(kappa * period % L == 0)
                    sector = np.linalg.eigvalsh(F[..., kappa][np.ix_(keep, keep)])
                    e += [sector] * (1 if kappa in (0, self.N) else 2)
                spectra.append(np.sort(np.concatenate(e)))
            self._eigs = tuple(spectra)
        return self._eigs

    def apply(self, vec):
        """Matrix-free product vec @ V via the local vertex rule.

        The column is contracted as a product of one two-state auxiliary
        tensor per row: R[s, w, s', e] is nonzero when s' = s + w - e lies
        in {0,1}, with weight c when w != e, and the auxiliary index is
        traced at the end.
        """
        n = 2 * self.N
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (1 << n,):
            raise ValueError("state vector must have length 4^N")
        R = np.zeros((2, 2, 2, 2))
        R[0, 0, 0, 0] = R[0, 1, 0, 1] = R[1, 0, 1, 0] = R[1, 1, 1, 1] = 1.0
        R[0, 1, 1, 0] = R[1, 0, 0, 1] = self.c
        A = np.zeros((2, 2, 1 << n))
        A[0, 0] = A[1, 1] = vec
        for j in range(n):
            A = A.reshape(2, 2, 1 << (n - 1 - j), 2, 1 << j)
            A = np.einsum("swte,ashwl->athel", R, A).reshape(2, 2, 1 << n)
        return A[0, 0] + A[1, 1]

    def sector_trace(self, M, m):
        """tr restricted to the popcount-m block of the M-th power."""
        _check_length(M)
        if not isinstance(m, numbers.Integral) or not 0 <= m <= 2 * self.N:
            raise ValueError("popcount m must be an integer in 0..%d, not %r"
                             % (2 * self.N, m))
        return float(np.sum(self.eigs[m] ** M))

    def trace_power(self, M):
        return sum(self.sector_trace(M, m) for m in range(2 * self.N + 1))

    def spectral_rate(self, M):
        """-(1/M) log(Zt / Z), as gap_rate plus its finite-M correction.

        Every block is nonnegative with diagonal 2, so its top eigenvalue is
        its Perron root and bounds every |lambda| in the block; the powers of
        each block are scaled by its own root, so no term exceeds 1.
        """
        _check_length(M)
        tops = np.array([e[-1] for e in self.eigs])
        sums = np.array([np.sum((e / t) ** M) for e, t in zip(self.eigs, tops)])
        total = np.sum((tops / tops.max()) ** M * sums)
        return self.gap_rate() + math.log(total / sums[self.N - 1]) / M

    def gap_rate(self):
        """log of the ratio of the two dominant block eigenvalues, the
        M -> oo limit of spectral_rate."""
        top = max(e[-1] for e in self.eigs)
        return math.log(top / self.eigs[self.N - 1][-1])


# ---------------------------------------------------------------------------
# closed-form rate


def closed_form_rate(q):
    """lambda + 2 sum (-1)^k tanh(k lambda)/k at cosh(lambda) = sqrt(q)/2.

    Rewritten through tanh(x) = 1 - 2/(e^{2x}+1) as

        lambda - 2 log 2 - 4 sum_{k>=1} (-1)^k / (k (e^{2 k lambda} + 1)),

    whose tail is alternating with geometrically decaying terms, so the
    remainder is bounded by the first omitted term.  The value is smaller
    than the summands by a factor ~ exp(-pi^2/(2 sinh lambda)), so the
    working precision is raised to absorb that cancellation.
    """
    if not q > 4:
        raise ValueError("closed-form rate defined for q > 4 only, not %r" % (q,))
    _check_q(q)
    lam_f = math.acosh(math.sqrt(q) / 2.0)
    cancel_digits = math.pi ** 2 / (2.0 * math.sinh(lam_f)) / math.log(10.0)
    with mpmath.workdps(int(cancel_digits) + 30):
        lam = mpmath.acosh(mpmath.sqrt(q) / 2)
        target = mpmath.mpf(10) ** (-(int(cancel_digits) + 22))
        total = mpmath.mpf(0)
        k = 1
        while True:
            term = mpmath.mpf(-1) ** k / (k * (mpmath.exp(2 * k * lam) + 1))
            total += term
            if abs(term) < target:
                break
            k += 1
        rate = lam - 2 * mpmath.log(2) - 4 * total
        return float(rate)


def asymptotic_rate(q):
    """Leading small-(q-4) form of the rate, 8 exp(-pi^2 / sqrt(q-4))."""
    if not q > 4:
        raise ValueError("asymptotic form defined for q > 4 only, not %r" % (q,))
    _check_q(q)
    return 8.0 * math.exp(-math.pi ** 2 / math.sqrt(q - 4.0))


def _check_length(M):
    """Refuse a torus length M that is not an integer >= 1, naming it."""
    if not isinstance(M, numbers.Integral) or M < 1:
        raise ValueError("torus length M must be an integer >= 1, not %r" % (M,))


def rate_report(q, Ns=(2, 3, 4, 5), M=256):
    """Closed form vs finite-N spectral gaps and the q -> 4 asymptote."""
    Ns = list(Ns)
    if not Ns:
        raise ValueError("rate_report needs at least one N, not Ns %r" % (Ns,))
    _check_length(M)
    closed = closed_form_rate(q)
    c = c_from_q(q)
    rows = []
    for N in Ns:
        V = TransferMatrix(N, c)
        g = V.gap_rate()
        rows.append({"N": N, "gap_rate": g, "spectral_rate_M": V.spectral_rate(M),
                     "abs_error": abs(g - closed)})
    return {"q": q, "c": c, "closed_form": closed,
            "asymptotic": asymptotic_rate(q),
            "ratio_to_asymptotic": closed / asymptotic_rate(q), "per_N": rows}


# ---------------------------------------------------------------------------
# brute-force oracle over arrow configurations


def _medial_slots(N, M):
    """Per-vertex slots (edge id, bit value meaning inward).

    Horizontal edge (i, j), id i*2N + j, runs east from vertex (i, j); bit 1
    points +u.  Vertical edge (i, j), id offset by M*2N, runs north from
    (i, j); bit 1 points +v.
    """
    P = 2 * N
    nh = M * P
    slots = {}
    for i in range(M):
        for j in range(P):
            w = ((i - 1) % M) * P + j
            e = i * P + j
            s = nh + i * P + (j - 1) % P
            n = nh + i * P + j
            slots[(i, j)] = ((w, 1), (e, 0), (s, 1), (n, 0))
    return slots


def brute_force_census(N, M, c):
    """Breadth-first enumeration of all ice configurations on the M x 2N torus.

    Independent of the transfer matrix: the medial vertices are visited in
    row order, each unassigned edge of a vertex doubles the array of partial
    arrow masks, and only the rows with two inward arrows at the vertex are
    kept.  Returns total weight, per-|w| sector weights and the
    configuration count.
    """
    N, M = _integer(N, "N"), _integer(M, "M")
    if N < 1 or M < 1:
        raise ValueError("torus needs N >= 1 and M >= 1, not (%r, %r)" % (N, M))
    _check_c(c)
    P = 2 * N
    if 2 * M * P > 64:
        raise ValueError("census masks hold at most 64 medial edges, not %d"
                         % (2 * M * P))
    slots = _medial_slots(N, M)
    masks = np.zeros(1, dtype=np.uint64)
    flips = np.zeros(1, dtype=np.int8)
    assigned = set()
    for four in slots.values():
        for eid, _ in four:
            if eid in assigned:
                continue
            assigned.add(eid)
            # a uint64 mask and an int8 flip count per row
            _check_budget(2 * masks.size * 9, "the ice census at %d rows"
                          % (2 * masks.size))
            masks = np.concatenate((masks, masks | np.uint64(1 << eid)))
            flips = np.concatenate((flips, flips))
        inward = [(masks >> np.uint64(e) & np.uint64(1)) == pol for e, pol in four]
        keep = np.sum(inward, axis=0, dtype=np.uint8) == 2
        masks = masks[keep]
        # W != E exactly when both or neither of W and E point inward
        flips = flips[keep] + (inward[0] == inward[1])[keep]
    cut = sum(1 << ((M - 1) * P + j) for j in range(P))  # horizontal edges at u = 0
    n_v = len(slots)
    sector = np.bitwise_count(masks & np.uint64(cut)).astype(np.intp)
    table = np.bincount(sector * (n_v + 1) + flips,
                        minlength=(P + 1) * (n_v + 1)).reshape(P + 1, n_v + 1)
    weights = table @ c ** np.arange(n_v + 1.0)
    return {"Z": float(weights.sum()),
            "sectors": {m: float(w) for m, w in enumerate(weights) if table[m].any()},
            "configs": int(table.sum())}


# ---------------------------------------------------------------------------
# random-cluster torus


def _lifted_table(n_nodes, links, period):
    """Per-mask cluster census of a graph lifted to the universal cover.

    links[k] = (a, b, du, dv) puts node b at node a plus (du, dv) where bit
    k of the mask is set; period = (pu, pv).  oracle._fill_masks fills the
    table, link k applied to the copied rows of the masks over links < k.
    Every node carries its label (the smallest node of its component), its
    offset from that node in the cover and a flag, set once its component
    closes a cycle of displacement g != 0.  A link between two components
    rewrites the larger label to the smaller, shifts the rewritten offsets
    and ors the flags; a link inside one component closes a cycle, whose g
    is a multiple of the period.  Per mask the table keeps the class
    g / period of the first closure with g != 0 and a net bit, set once a
    later closure is not parallel to it.  Returns per mask the weight class,
    the components with some g != 0, the first class (int8, shape (2,
    masks), zero where nothing winds) and the net bit.
    """
    n_masks = 1 << len(links)
    pu, pv = period
    lab = np.empty((n_nodes, n_masks), dtype=np.uint8)
    off = np.zeros((2, n_nodes, n_masks), dtype=np.int16)
    flag = np.zeros((n_nodes, n_masks), dtype=bool)
    first = np.zeros((2, n_masks), dtype=np.int8)
    net = np.zeros(n_masks, dtype=bool)
    classes = np.empty(n_masks, dtype=np.int32)
    lab[:, 0] = np.arange(n_nodes)
    classes[0] = n_nodes

    def link(k, rows):
        a, b, du, dv = links[k]
        L, (U, V), F, first_k, net_k = rows
        la, lb = L[a].copy(), L[b].copy()
        gu = U[a] + du - U[b]
        gv = V[a] + dv - V[b]
        same = la == lb
        shut = np.flatnonzero(same)
        cu, cv = gu[shut], gv[shut]
        assert not (cu % pu).any() and not (cv % pv).any()
        nz = (cu != 0) | (cv != 0)
        hit = shut[nz]
        cu, cv = cu[nz] // pu, cv[nz] // pv
        F[la[hit], hit] = True
        fu, fv = first_k[0][hit], first_k[1][hit]
        new = (fu == 0) & (fv == 0)
        first_k[0][hit[new]] = cu[new]
        first_k[1][hit[new]] = cv[new]
        net_k[hit] |= fu * cv != fv * cu
        # merge: the component of the larger label moves by +-g onto the
        # other; a closed row rewrites its own label, shifted by 0
        lo, hi = np.minimum(la, lb), np.maximum(la, lb)
        gu[same] = 0
        gv[same] = 0
        sign = np.where(la < lb, 1, -1).astype(np.int16)
        sel = np.equal(L, hi, out=np.empty_like(L))
        U += sel * (sign * gu)
        V += sel * (sign * gv)
        sel *= hi - lo
        L -= sel
        cols = np.arange(L.shape[1])
        F[lo, cols] |= F[hi, cols]
        return ~same

    _fill_masks(len(links), [lab, off, flag, first, net], classes, link)
    del off
    flag &= lab == np.arange(n_nodes)[:, None]
    return classes, flag.sum(axis=0), first, net


class TorusRc:
    """Random-cluster torus: the primal bonds with their cover offsets.

    Sites have even u + v parity; bond k sits under the medial vertex
    (i, j) = divmod(k, 2N) and has slope +1 (towards north-east) when i + j
    is even.  The dual side and the interface loops are not stored:
    census_table derives them from the primal clusters.
    """

    def __init__(self, N, M):
        N, M = _integer(N, "N"), _integer(M, "M")
        if N < 1 or M < 2 or M % 2:
            raise ValueError("torus needs N >= 1 and even M >= 2")
        self.N = N
        self.M = M
        self.P = 2 * N
        P = self.P
        self.sites = [(i, j) for i in range(M) for j in range(P) if (i + j) % 2 == 0]
        self.site_id = {s: k for k, s in enumerate(self.sites)}
        self.edges = []
        for i in range(M):
            for j in range(P):
                if (i + j) % 2 == 0:
                    a, b = (i, j), ((i + 1) % M, (j + 1) % P)
                    self.edges.append((self.site_id[a], self.site_id[b], 1, 1))
                else:
                    a, b = (i, (j + 1) % P), ((i + 1) % M, j)
                    self.edges.append((self.site_id[a], self.site_id[b], 1, -1))
        self.n_edges = len(self.edges)
        self.n_sites = len(self.sites)

    def census_table(self):
        """Cluster, dual-cluster and loop census of every bond mask at once.

        One lifted table (_lifted_table) gives per mask the weight class
        k (E + 1) + o ("classes": k clusters, o open bonds), the
        non-retractible clusters and the winding rank r of the clusters:
        0 when none winds (the dual clusters hold a net), 1 when they wind
        in parallel (as many dual clusters wind between them, in the same
        class), 2 when they hold a net.  The rest follows from r, k and o:
        dual_clusters = o - |V| + k + 1 - r (Euler on the torus); the dual
        winding counts are 1 at r = 0, the primal ones at r = 1 and 0 at
        r = 2; loops = 2k + o - |V| - 2 [r = 2], of which 2 nonretractible at
        r = 1, of the first closure's |alpha|.  The tests check every column
        against per-mask walks of both sides and of the loops.  Table and
        census are sized against the byte budget first.
        """
        E = self.n_edges
        _check_enum_edges(E)
        # per mask, the larger under the edge cap (at most 13 sites) of the
        # table (per site a label, a flag and two int16 offsets; two
        # winding-class bytes, a net byte, the int32 weight class) and the
        # census (nine int64 columns, the weight class, the int64 open
        # count, the winding-class, net and rank bytes, a bool temporary)
        _check_budget((1 << E) * max(6 * self.n_sites + 7, 89), "the torus "
                      "census over %d bonds and %d sites" % (E, self.n_sites))
        classes, wound, first, net = _lifted_table(
            self.n_sites, self.edges, (self.M, self.P))
        comps, o = np.divmod(classes, E + 1, dtype=np.int64)
        rank = (wound > 0).astype(np.int8)
        rank += net
        ne = wound * ((first[0] != 0) | net)
        return {
            "classes": classes,
            "clusters": comps,
            "nonretractible": wound,
            "winding_ne": ne,
            "dual_clusters": comps + o - rank + (1 - self.n_sites),
            "dual_nonretractible": np.where(rank == 1, wound, rank == 0),
            "dual_winding_ne": np.where(rank == 1, ne, rank == 0),
            "loops": 2 * comps + o - 2 * net - self.n_sites,
            "loops_nonretractible": np.where(rank == 1, 2 * wound, 0),
            "alpha": np.where(rank == 1, np.abs(first[0]), 0).astype(np.int64),
        }


def _oriented_sectors(N, table, q, rows=slice(None)):
    """Arrow-sector sums over every orientation of the loops of the masks
    selected by rows, each retractible loop weighted sqrt(q).

    A mask with l0 non-retractible loops, all of class +-(alpha, beta),
    shifts the +u arrow count at the cut by alpha (2j - l0) / 2 when j of
    them are oriented one way, in C(l0, j) ways.
    """
    l0 = table["loops_nonretractible"][rows]
    alpha = table["alpha"][rows]
    base = math.sqrt(q) ** (table["loops"][rows] - l0)
    sectors = {}
    for n, a in sorted(set(zip(l0.tolist(), alpha.tolist()))):
        total = base[(l0 == n) & (alpha == a)].sum()
        for j in range(n + 1):
            d = a * (2 * j - n)
            assert d % 2 == 0
            m = N + d // 2
            if not 0 <= m <= 2 * N:
                raise AssertionError("cut shift outside arrow range")
            sectors[m] = sectors.get(m, 0.0) + math.comb(n, j) * float(total)
    return sectors


def _loop_constant(table, q, w):
    """(min, max) over masks of sqrt(q)^{l + 2s} / w, with l the loop count,
    s the all-dual-clusters-retractible indicator and w the w_RC of every
    mask (_rc_weights)."""
    s = (table["dual_nonretractible"] == 0).astype(np.int64)
    val = math.sqrt(q) ** (table["loops"] + 2 * s) / w
    return float(val.min()), float(val.max())


def _rc_weights(rc, table, q, p):
    """w_RC = p^open (1-p)^closed q^clusters of every bond mask, evaluated
    once per weight class and gathered back by class."""
    cls = table["classes"]
    k, o = np.divmod(np.arange(cls.max() + 1), rc.n_edges + 1)
    return np.exp(_log_weights(p, q, o, k, rc.n_edges))[cls]


def loop_weight_constant(rc, q, p):
    """(min, max) over configurations of sqrt(q)^{l + 2s} / w_RC.

    l is the medial loop count, s the all-dual-clusters-retractible
    indicator and w_RC = p^open (1-p)^closed q^clusters.  census_table
    derives l and s with l + 2s - o - 2k = -|V| on every mask, so at p_c the
    ratio is configuration independent by construction; the per-mask walks
    of the tests, not this check, test the derived dual side.
    """
    table = rc.census_table()
    return _loop_constant(table, q, _rc_weights(rc, table, q, p))


def oriented_sector_sums(rc, q):
    """Arrow-sector weights rebuilt from oriented interface loops.

    Every loop of every bond configuration is oriented; a retractible loop
    carries weight exp(+-mu) with e^mu + e^-mu = sqrt(q) (so the pair sums
    to sqrt(q)) and shifts nothing, while a loop of winding class
    (alpha, beta) carries weight 1 and shifts the +u arrow count at the cut
    by +-alpha.  The resulting map onto arrow configurations is weight
    preserving, so the totals must match the transfer-matrix sector traces
    at c = sqrt(2 + sqrt(q)) exactly.
    """
    _check_q(q)
    return _oriented_sectors(rc.N, rc.census_table(), q)


def rc6v_verify(N, M, q):
    """Torus random-cluster (at p_c) and six-vertex sums compared.

    All quantities come from exact enumeration of the 2^(2MN) bond
    configurations plus the transfer matrix.  The report covers:
      * loop_constant_spread: relative spread of sqrt(q)^{l+2s} / w_RC,
        zero by the census's own derivation (l + 2s - o - 2k = -|V|), so
        it compares no two computations;
      * partition_identity_gap: Z6V against c0 * sum of
        (2/sqrt(q))^{l0} q^{-s} w_RC, the orientation sum over loops;
      * oriented_sector_gap: worst relative mismatch between oriented loop
        sector sums and the transfer sector traces;
      * rel_gap / identity_pass: the cluster identity
        phi[A] = q (Zt/Z) phi[(4/q)^{k_nc}], with A the event that exactly
        one primal and one dual cluster wind north-east and k_nc the number
        of non-retractible primal clusters;
      * zt_from_A / zt_leak: how much of the restricted trace Zt is fed by
        configurations in A versus outside it.
    """
    if N % 2 or M % 2:
        raise ValueError("correspondence needs N and M even")
    if not q > 4:
        raise ValueError("correspondence stated for q > 4, not %r" % (q,))
    # an integer q would fail at q ** -s
    q = float(q)
    rc = TorusRc(N, M)
    table = rc.census_table()
    p = p_self_dual(q)
    w = _rc_weights(rc, table, q, p)
    c0_lo, c0_hi = _loop_constant(table, q, w)
    s = (table["dual_nonretractible"] == 0).astype(np.int64)
    Ztot = float(w.sum())
    w_knc = w * (4.0 / q) ** table["nonretractible"]
    e_knc = float(w_knc.sum())
    e_knc_s = float((w_knc * q ** -s).sum())
    e_loops = float((w * (2.0 / math.sqrt(q)) ** table["loops_nonretractible"]
                     * q ** -s).sum())
    sectors = _oriented_sectors(N, table, q)
    A = (table["winding_ne"] == 1) & (table["dual_winding_ne"] == 1)
    wA = float(w[A].sum())
    # a cut shift of -2 lands in the popcount N-1 sector
    zt_from_A = _oriented_sectors(N, table, q, A).get(N - 1, 0.0)
    c = c_from_q(q)
    V = TransferMatrix(N, c)
    Z6 = V.trace_power(M)
    Zt = V.sector_trace(M, N - 1)
    c0 = c0_hi
    phi_A = wA / Ztot
    rhs = q * (Zt / Z6) * (e_knc / Ztot)
    gap = abs(phi_A - rhs) / max(abs(rhs), 1e-300)
    # the orientation sum over loops IS the six-vertex weight, no constant
    # np.max keeps a NaN gap that the builtin max would drop
    sector_gap = float(np.max([abs(sectors.get(m, 0.0) - V.sector_trace(M, m))
                               / max(V.sector_trace(M, m), 1e-300)
                               for m in range(2 * N + 1)]))
    return {
        "N": N, "M": M, "q": q, "p": p, "c": c,
        "Z6V": Z6,
        "Zt6V": Zt,
        "Zt6V_plus": V.sector_trace(M, N + 1),
        "loop_constant": c0,
        "loop_constant_spread": c0_hi / c0_lo - 1.0,
        "partition_identity_gap": abs(c0 * e_loops / Z6 - 1.0),
        "knc_partition_gap": abs(c0 * e_knc_s / Z6 - 1.0),
        "oriented_sector_gap": sector_gap,
        "phi_A": phi_A,
        "expect_4q_knc": e_knc / Ztot,
        "rhs": rhs,
        "rel_gap": gap,
        "zt_from_A": zt_from_A,
        "zt_leak": Zt - zt_from_A,
        "A_slice_gap": abs(q * zt_from_A / (c0 * wA) - 1.0),
        "identity_pass": bool(gap <= RC6V_TOL),
        "tol": RC6V_TOL,
    }
