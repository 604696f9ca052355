"""critlat benchmark: time to verified verdicts at fixed sizes.

    python3 bench/run.py --workload rc_exact --seed 1 --seconds 25 --trace 0

Runs one workload (rc_exact, rc_mc, torus, planar; see workloads.py) in this
single process, from the critlat sources in this checkout's src/.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_REPS set-ups of importing critlat afresh
               and building the workload's graphs, domains and tori; half
               run before the passes and half after (numpy, scipy and
               mpmath are imported once beforehand);
  wall_s       median time of one pass through the workload's checks, the
               time to all verdicts; passes repeat while the next one is
               expected to end within --seconds, and at least one pass runs;
  peak_rss_mb  peak resident memory of the process;
  passed_frac  share of checks whose verdict was right (1 - failed share).
setup_s and wall_s are in reference seconds (calibrate.py): each check and
each set-up is scaled by the speed of the core around it, measured with a
fixed kernel, so that drift in the load of a shared host does not show as a
change. The summary line gives the plain seconds of every pass as well.
--trace 1 runs one untraced pass and two traced passes (tracer.py) and
reports the per-layer metrics of the second, in plain seconds; --seconds
is not used. Its trace.overhead_frac compares processor times, which leave
out the time the process waits for a core.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it record the environment, each
failed check and, when tracing, the exact work counters.
"""

import os

# one-thread BLAS/OpenMP pools, pinned before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import importlib
import importlib.util
import json
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

# the dependencies, scipy.stats included (sampler imports it lazily), are
# imported once here so that neither set-up nor the first pass pays for them
import mpmath
import numpy
import scipy
import scipy.special
import scipy.stats

import calibrate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("lattice", "oracle", "sampler", "currents", "loops", "saw",
           "sixvertex")
SETUP_REPS = 15
REFERENCE = Path(__file__).resolve().parent / "counters.json"


def load_critlat():
    """Import the seven modules afresh from this checkout's src/."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules
                 if n == "critlat" or n.startswith("critlat.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module("critlat." + n) for n in MODULES}
    where = Path(sys.modules["critlat"].__file__).resolve().parent
    if where != ROOT / "src" / "critlat":
        raise ImportError("critlat imported from %s, not this checkout" % where)
    return mods


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD commit read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def timed_setup(wl, prm, reps, clock):
    """Set up reps times: the last modules and objects, the seconds and
    the reference seconds of each set-up."""
    secs, refs = [], []

    def setup():
        mods = load_critlat()
        return mods, wl.setup(mods, prm)

    for _ in range(reps):
        gc.collect()
        (mods, obj), wall, _, ref = clock.measure(setup)
        secs.append(wall)
        refs.append(ref)
    return mods, obj, secs, refs


def run_pass(checks, clock):
    """One pass through the checks: (seconds, processor seconds, reference
    seconds, [(name, ok, detail)])."""
    verdicts, wall, cpu, ref = [], 0.0, 0.0, 0.0
    for check in checks:
        (ok, detail, _), w, c, r = clock.measure(
            lambda: workloads.run_check(check))
        wall, cpu, ref = wall + w, cpu + c, ref + r
        verdicts.append((check.name, ok, detail))
    return wall, cpu, ref, verdicts


def counters(pass_spans):
    values = tracer.layer_metrics(pass_spans)
    return {k: values[k] for k in tracer.EXACT_COUNTERS}


def compare_reference(workload, seed, got):
    """Counters that differ from the recorded reference run, by name."""
    ref = json.loads(REFERENCE.read_text()).get(workload, {})
    want = dict(ref.get("all_seeds", {}))
    want.update(ref.get("seed_%d" % seed, {}))
    return {k: {"reference": v, "now": got[k]} for k, v in want.items()
            if got[k] != v}, sorted(set(got) - set(want))


def traced_run(wl, prm, mods, obj, checks):
    clock = calibrate.Clock()
    _, base, _, verdicts = run_pass(checks, clock)
    trace = tracer.Tracer(mods)
    with trace:
        setups = []
        for _ in range(SETUP_REPS):
            wl.setup(mods, prm)
            setups.append(trace.spans)
            trace.spans = []
        passes = []
        for _ in range(2):
            _, ct, _, v = run_pass(checks, clock)
            verdicts += v
            passes.append((ct, trace.spans))
            trace.spans = []
        patches = trace.patched()
    if not all(vars(owner)[key] is orig for owner, key, orig in patches):
        raise RuntimeError("a traced attribute was not restored")
    overhead = statistics.median(ct for ct, _ in passes) / base - 1.0
    metrics = tracer.layer_metrics(passes[-1][1], setups, overhead)
    first, second = (counters(s) for _, s in passes)
    return verdicts, metrics, {
        "counters": second,
        "pass_to_pass_differences": {k: [first[k], second[k]] for k in first
                                     if first[k] != second[k]},
        "restored_bindings": len(patches)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    prm = wl.params(random.Random(args.seed))
    clock = calibrate.Clock()
    try:
        mods, obj, setup_secs, setup_refs = timed_setup(
            wl, prm, SETUP_REPS // 2 + 1, clock)
    except ImportError as exc:
        print("cannot import critlat from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args)))
    print("params " + json.dumps(prm))
    checks = wl.checks(mods, prm, obj)

    if args.trace:
        verdicts, metrics, report = traced_run(wl, prm, mods, obj, checks)
        changed, unrecorded = compare_reference(args.workload, args.seed,
                                                report["counters"])
        report["reference_differences"] = changed
        report["no_reference_for"] = unrecorded
        print("counters " + json.dumps(report))
        for layer in tracer.LAYERS:
            print("layer %s moves %s" % (layer.name, layer.moves))
        units = {layer.name: layer.unit for layer in tracer.LAYERS}
    else:
        passes, verdicts = [], []
        start = time.perf_counter()
        while True:
            *times, v = run_pass(checks, clock)
            passes.append(times)
            verdicts += v
            if (time.perf_counter() - start
                    + statistics.median(p[0] for p in passes) > args.seconds):
                break
        _, _, secs, refs = timed_setup(wl, prm, SETUP_REPS // 2, clock)
        setup_secs += secs
        setup_refs += refs
        attempted = len(verdicts)
        passed = sum(ok for _, ok, _ in verdicts)
        metrics = {
            "setup_s": statistics.median(setup_refs),
            "wall_s": statistics.median(p[2] for p in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": passed / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                 "passed_frac": "frac"}
        print("summary " + json.dumps({
            "passes": len(passes),
            "pass_seconds": [p[0] for p in passes],
            "pass_cpu_seconds": [p[1] for p in passes],
            "pass_reference_seconds": [p[2] for p in passes],
            "setup_seconds_median": statistics.median(setup_secs),
            "setup_reps": len(setup_secs),
            "kernel_s": clock.last,
            "failed_frac": (attempted - passed) / attempted}))

    for name, ok, detail in verdicts:
        if not ok:
            print("FAILED %s: %s" % (name, detail))
    failed = sum(not ok for _, ok, _ in verdicts)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(verdicts), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
