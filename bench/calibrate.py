"""Host-speed calibration for the timed end-to-end metrics.

On a shared host the speed of a core drifts by tens of percent over minutes,
with the load of other tenants, and processor time drifts with it. So every
timed unit of work (one check, one set-up) is bracketed by a fixed kernel
that does not use critlat: a union-find over a fixed random graph, dict
updates and a small dense eigensolve, the kinds of work critlat does. The
unit's seconds are divided by the mean of the two kernel times around it
and multiplied by REF_KERNEL_S. The result is in reference seconds: the time
the work would take on a core on which the kernel takes REF_KERNEL_S, about
its time on an idle core of the host this benchmark was built on. A change
to critlat cannot move the kernel, so it moves reference seconds exactly as
it moves seconds.
"""

import random
import statistics
import time

import numpy

REF_KERNEL_S = 0.005

_RNG = random.Random(1707)
_EDGES = [(_RNG.randrange(3000), _RNG.randrange(3000)) for _ in range(9000)]
_MATRIX = numpy.random.default_rng(1707).random((120, 120))


def _kernel_once():
    parent = list(range(3000))
    for a, b in _EDGES:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
    tally = {}
    for i in range(6000):
        key = (i & 63, i % 7)
        tally[key] = tally.get(key, 0) + i
    numpy.linalg.eigvalsh(_MATRIX + _MATRIX.T)


def kernel():
    """Median seconds of three runs of the kernel, now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel_once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times units of work in seconds, processor seconds and reference
    seconds; consecutive units share the kernel run between them."""

    def __init__(self):
        self.last = kernel()

    def measure(self, fn):
        """(fn(), wall s, cpu s, reference s)."""
        t0, c0 = time.perf_counter(), time.process_time()
        out = fn()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        now = kernel()
        ref = wall * 2.0 * REF_KERNEL_S / (self.last + now)
        self.last = now
        return out, wall, cpu, ref
