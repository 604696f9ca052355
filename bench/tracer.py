"""Outside-in tracing of the critlat modules for the per-layer metrics.

The tracer replaces public functions of the seven modules with wrappers that
record one span per call: name, start, end, the enclosing span and a few
work counts read from the arguments or the result. Nothing under src/ is
edited. When a module has imported a traced name from another module (for
example `loops.cluster_stats` or `currents.ising_moment`), the binding in the
importer's namespace is wrapped too, so calls are seen whichever name they
go through. `restore()` puts every original object back.

Spans stay in memory; `Spans` turns them into inclusive times, self times
and summed counts.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _leaves(a, r):
    return {"leaves": 1 << a["graph"].n_edges}


def _edges(a, r):
    return {"edges": a["graph"].n_edges}


def _color_configs(a, r):
    fixed = a["fixed"] or {}
    return {"configs": a["q"] ** (a["graph"].n_vertices - len(fixed))}


def _chain_updates(a, r):
    sweeps = a["burn_in"] + a["n_samples"] * a["thin"]
    m = a["graph"].n_edges
    return {"sweeps": sweeps, "updates": sweeps * m, "edges": m,
            "samples": a["n_samples"]}


def _variates(a, r):
    return {"variates": a["n_rows"] * a["n_edges"], "epoch": a["epoch"]}


def _samples(a, r):
    return {"samples": a["n_samples"]}


def _multigraphs(a, r):
    return {"multigraphs": (a["n_max"] + 1) ** a["graph"].n_edges}


def _loop_configs(a, r):
    return {"configs": 1 << len(a["domain"].free_edges)}


def _walks(a, r):
    return {"walks": sum(r[0])}


def _block(a, r):
    return {"states": math.comb(2 * a["N"], a["m"]), "N": a["N"], "m": a["m"]}


def _torus(a, r):
    return {"masks": 1 << (2 * a["M"] * a["N"]), "N": a["N"], "M": a["M"]}


_EVENT_ARRAYS = ("connectivity_event", "boundary_connection_event",
                 "crossing_event", "cylinder_event", "all_pairs_connectivity",
                 "all_boundary_connection", "all_even_overlap",
                 "even_overlap_event")
_SPIN_SIDE = ("_color_table", "spin_ensemble", "ising_moment",
              "potts_two_point", "potts_one_point_wired")
_SCANS = ("fkg_scan", "mon_scan", "cbc_scan", "fkg_witness_q_below_one")

# (module, attribute, count function or None); a dotted attribute names a
# property on a class of that module
TARGETS = (
    [("lattice", n, None) for n in ("build_rect", "build_box",
                                    "medial_domain", "dual_map",
                                    "cluster_stats")]
    + [("oracle", "scan_configs", _leaves),
       ("oracle", "cluster_count_array", _edges),
       ("oracle", "dual_cluster_count_array", None),
       ("oracle", "verify_es_coupling", _edges),
       ("oracle", "_color_table", _color_configs)]
    + [("oracle", n, None) for n in _EVENT_ARRAYS + _SPIN_SIDE[1:] + _SCANS]
    + [("sampler", "chain_samples", _chain_updates),
       ("sampler", "sweep_uniforms", _variates),
       ("sampler", "cftp_batch", _samples),
       ("sampler", "crossing_mc", _samples),
       ("sampler", "es_forward", None),
       ("sampler", "es_reverse", None),
       ("currents", "verify_switching", _multigraphs),
       ("loops", "edge_observable", _loop_configs),
       ("loops", "sholo_report", None),
       ("loops", "contour_check", None),
       ("saw", "saw_counts", _walks),
       ("saw", "strip_quantities", None),
       ("sixvertex", "transfer_block", _block),
       ("sixvertex", "TransferMatrix.eigs", None),
       ("sixvertex", "rc6v_verify", _torus),
       ("sixvertex", "brute_force_census", None),
       ("sixvertex", "closed_form_rate", None)]
)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []      # [name, start, end, parent index, counts]
        self._stack = []
        self._patches = []   # (owner, attribute, original object)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _wrap(self, fn, name, count):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = t0
                tracer._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = count(bound.arguments, out)
            return out

        return wrapper

    def install(self):
        for mod_name, attr, count in TARGETS:
            mod = self.mods[mod_name]
            name = "%s.%s" % (mod_name, attr)
            if "." in attr:
                cls_name, prop = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[prop]
                self._patch(cls, prop, orig,
                            property(self._wrap(orig.fget, name, count)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, count)
            for owner in self.mods.values():
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._patch(owner, key, orig, wrapped)
        return self

    def _patch(self, owner, key, orig, new):
        self._patches.append((owner, key, orig))
        setattr(owner, key, new)

    def restore(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def patched(self):
        """(owner, attribute, original) for every binding installed."""
        return list(self._patches)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


class Spans:
    """Queries over a list of recorded spans."""

    def __init__(self, spans):
        self.spans = spans

    def _named(self, names):
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(self.spans) if s[0] in names], names

    def _has_ancestor(self, i, names):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def _keep(self, i, where):
        counts = self.spans[i][4]
        return where is None or (counts is not None and where(counts))

    def calls(self, names, where=None):
        idx, _ = self._named(names)
        return sum(1 for i in idx if self._keep(i, where))

    def time(self, names, where=None):
        """Wall time inside the named spans, nested repeats counted once."""
        idx, names = self._named(names)
        return sum(self.spans[i][2] - self.spans[i][1] for i in idx
                   if self._keep(i, where)
                   and not self._has_ancestor(i, names))

    def self_time(self, names):
        """Time inside the named spans minus their traced children."""
        idx, _ = self._named(names)
        child = {}
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
        return sum(self.spans[i][2] - self.spans[i][1] - child.get(i, 0.0)
                   for i in idx)

    def total(self, names, key, where=None, outermost=False):
        """Sum of counts[key] over the named spans."""
        idx, names = self._named(names)
        out = 0
        for i in idx:
            if self.spans[i][4] is None or not self._keep(i, where):
                continue
            if outermost and self._has_ancestor(i, names):
                continue
            out += self.spans[i][4][key]
        return out

    def horizon_max(self):
        """Longest CFTP look-back, read from the epochs cftp_batch drew."""
        out = 0
        for s in self.spans:
            if s[0] == "sampler.sweep_uniforms" and s[3] >= 0 \
                    and self.spans[s[3]][0] == "sampler.cftp_batch":
                out = max(out, -s[4]["epoch"])
        return out


def ratio(num, den, scale=1.0):
    """num/den * scale, 0.0 when the layer did no work on this workload."""
    return num / den * scale if den else 0.0


@dataclass(frozen=True)
class Layer:
    """A per-layer metric and the end-to-end metric it should move.

    value(spans) reads the metric from one traced pass; None marks the two
    metrics the runner supplies (set-up build time and tracing overhead).
    """

    name: str
    unit: str
    better: str
    moves: str
    value: Optional[Callable[[Spans], float]] = None


def _per_call(s, names, where):
    return ratio(s.time(names, where), s.calls(names, where))


def _oracle(names):
    return tuple("oracle." + n for n in names)


_BUILDERS = ("lattice.build_rect", "lattice.build_box", "lattice.medial_domain")
_SAMPLE_SPANS = ("sampler.cftp_batch", "sampler.chain_samples",
                 "sampler.crossing_mc")
_E, _M, _T, _P = ("wall_s on rc_exact", "wall_s on rc_mc", "wall_s on torus",
                  "wall_s on planar")
_ENUM = "wall_s and peak_rss_mb on rc_exact; no change on rc_mc"
_E_RSS = "wall_s and peak_rss_mb on rc_exact"
_T_RSS = "wall_s and peak_rss_mb on torus"


def _is_2x4(c):
    return (c["N"], c["M"]) == (2, 4)


def _is_box3(c):
    return c["edges"] == 84


LAYERS = (
    Layer("lattice.build_s", "s", "lower", "setup_s on all workloads"),
    Layer("lattice.dual_map_s", "s", "lower", _E,
          lambda s: s.time("lattice.dual_map")),
    Layer("lattice.cluster_stats.calls", "count", "lower",
          "wall_s on planar and rc_mc",
          lambda s: s.calls("lattice.cluster_stats")),
    Layer("lattice.cluster_stats_us", "us", "lower",
          "wall_s on planar and rc_mc",
          lambda s: ratio(s.time("lattice.cluster_stats"),
                          s.calls("lattice.cluster_stats"), 1e6)),
    Layer("oracle.enum_calls", "count", "lower", _ENUM,
          lambda s: s.calls("oracle.scan_configs")),
    Layer("oracle.enum_leaves", "count", "lower", _ENUM,
          lambda s: s.total("oracle.scan_configs", "leaves")),
    Layer("oracle.enum_s", "s", "lower", _ENUM,
          lambda s: s.time("oracle.scan_configs")),
    Layer("oracle.leaves_per_s", "1/s", "higher", _ENUM,
          lambda s: ratio(s.total("oracle.scan_configs", "leaves"),
                          s.time("oracle.scan_configs"))),
    Layer("oracle.dual_count_s", "s", "lower", _E,
          lambda s: s.time("oracle.dual_cluster_count_array")),
    Layer("oracle.event_array_s", "s", "lower", _E,
          lambda s: s.time(_oracle(_EVENT_ARRAYS))),
    Layer("oracle.spin_configs", "count", "lower", _E_RSS,
          lambda s: s.total("oracle._color_table", "configs")),
    Layer("oracle.spin_side_s", "s", "lower", _E_RSS,
          lambda s: s.self_time(_oracle(_SPIN_SIDE))),
    Layer("oracle.scan_s", "s", "lower", _E,
          lambda s: s.time(_oracle(_SCANS))),
    Layer("oracle.cluster_count_22e_s", "s", "lower", _E,
          lambda s: _per_call(s, "oracle.cluster_count_array",
                              lambda c: c["edges"] == 22)),
    Layer("oracle.es_coupling_17e_s", "s", "lower", _E_RSS,
          lambda s: _per_call(s, "oracle.verify_es_coupling",
                              lambda c: c["edges"] == 17)),
    Layer("sampler.edge_updates", "count", "lower", _M,
          lambda s: s.total("sampler.chain_samples", "updates")),
    Layer("sampler.us_per_update", "us", "lower", _M,
          lambda s: ratio(s.time("sampler.chain_samples"),
                          s.total("sampler.chain_samples", "updates"), 1e6)),
    Layer("sampler.box3_us_per_sweep", "us", "lower", _M,
          lambda s: ratio(s.time("sampler.chain_samples", _is_box3),
                          s.total("sampler.chain_samples", "sweeps", _is_box3),
                          1e6)),
    Layer("sampler.rng_variates", "count", "lower", _M,
          lambda s: s.total("sampler.sweep_uniforms", "variates")),
    Layer("sampler.rng_variates_per_sample", "count", "lower", _M,
          lambda s: ratio(s.total("sampler.sweep_uniforms", "variates"),
                          s.total(_SAMPLE_SPANS, "samples", outermost=True))),
    Layer("sampler.cftp_horizon_max", "count", "lower", _M,
          lambda s: s.horizon_max()),
    Layer("sampler.cftp_samples_per_s", "1/s", "higher", _M,
          lambda s: ratio(s.total("sampler.cftp_batch", "samples"),
                          s.time("sampler.cftp_batch"))),
    Layer("sampler.es_step_us", "us", "lower", _M,
          lambda s: ratio(s.time(("sampler.es_forward", "sampler.es_reverse")),
                          s.calls("sampler.es_forward"), 1e6)),
    Layer("currents.multigraphs", "count", "lower", _E_RSS,
          lambda s: s.total("currents.verify_switching", "multigraphs")),
    Layer("currents.switching_s", "s", "lower", _E_RSS,
          lambda s: s.time("currents.verify_switching")),
    Layer("loops.configs", "count", "lower", _P,
          lambda s: s.total("loops.edge_observable", "configs")),
    Layer("loops.us_per_config", "us", "lower", _P,
          lambda s: ratio(s.time("loops.edge_observable"),
                          s.total("loops.edge_observable", "configs"), 1e6)),
    Layer("loops.report_self_s", "s", "lower", _P,
          lambda s: s.self_time(("loops.sholo_report", "loops.contour_check"))),
    Layer("saw.walks", "count", "lower", _P,
          lambda s: s.total("saw.saw_counts", "walks")),
    Layer("saw.walks_per_s", "1/s", "higher", _P,
          lambda s: ratio(s.total("saw.saw_counts", "walks"),
                          s.time("saw.saw_counts"))),
    Layer("saw.strip_s", "s", "lower", _P,
          lambda s: s.time("saw.strip_quantities")),
    Layer("sixvertex.block_states", "count", "lower", _T_RSS,
          lambda s: s.total("sixvertex.transfer_block", "states")),
    Layer("sixvertex.block_build_s", "s", "lower", _T_RSS,
          lambda s: s.time("sixvertex.transfer_block")),
    Layer("sixvertex.eigensolve_s", "s", "lower", _T_RSS,
          lambda s: s.time("sixvertex.TransferMatrix.eigs")),
    Layer("sixvertex.transfer_matrix_6_s", "s", "lower", _T_RSS,
          lambda s: ratio(s.time("sixvertex.transfer_block",
                                 lambda c: c["N"] == 6),
                          s.calls("sixvertex.transfer_block",
                                  lambda c: c["N"] == 6 and c["m"] == 0))),
    Layer("sixvertex.torus_masks", "count", "lower", _T,
          lambda s: s.total("sixvertex.rc6v_verify", "masks")),
    Layer("sixvertex.us_per_mask", "us", "lower", _T,
          lambda s: ratio(s.time("sixvertex.rc6v_verify"),
                          s.total("sixvertex.rc6v_verify", "masks"), 1e6)),
    Layer("sixvertex.rc6v_2x4_us_per_mask", "us", "lower", _T,
          lambda s: ratio(s.time("sixvertex.rc6v_verify", _is_2x4),
                          s.total("sixvertex.rc6v_verify", "masks", _is_2x4),
                          1e6)),
    Layer("sixvertex.census_s", "s", "lower", _T,
          lambda s: s.time("sixvertex.brute_force_census")),
    Layer("sixvertex.closed_form_s", "s", "lower", _T,
          lambda s: s.time("sixvertex.closed_form_rate")),
    Layer("trace.overhead_frac", "frac", "lower",
          "none; traced over untraced processor time of a pass, minus 1"),
)

# counters that must repeat exactly from pass to pass and run to run
EXACT_COUNTERS = ("oracle.enum_leaves", "oracle.spin_configs",
                  "sampler.edge_updates", "sampler.rng_variates",
                  "currents.multigraphs", "loops.configs", "saw.walks",
                  "sixvertex.block_states", "sixvertex.torus_masks")


def layer_metrics(pass_spans, setup_runs=(), overhead=0.0):
    """Every per-layer metric, from one traced pass and traced set-ups."""
    s = Spans(pass_spans)
    build = [Spans(r).time(_BUILDERS) for r in setup_runs]
    given = {"lattice.build_s": statistics.median(build) if build else 0.0,
             "trace.overhead_frac": overhead}
    return {x.name: given[x.name] if x.value is None else x.value(s)
            for x in LAYERS}
