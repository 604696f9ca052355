"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Running every check once takes about a minute.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def mods():
    return run.load_critlat()


def _checks(mods, name, seed=1):
    wl = workloads.WORKLOADS[name]
    prm = wl.params(random.Random(seed))
    return wl.checks(mods, prm, wl.setup(mods, prm))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_predicates_accept_results_and_reject_perturbed(mods, name):
    for check in _checks(mods, name):
        ok, detail, result = workloads.run_check(check)
        assert ok, (check.name, detail)
        bad, detail = check.verdict(check.perturb(result))
        assert not bad, (check.name, "accepted a perturbed result", detail)


def test_raising_check_fails_with_its_message():
    def boom():
        raise ValueError("no such domain")

    check = workloads.Check("boom", boom, lambda r: (True, ""), lambda r: r)
    ok, detail, result = workloads.run_check(check)
    assert not ok and "no such domain" in detail and result is None


def _traced(mods, fn):
    with tracer.Tracer(mods) as trace:
        fn()
    return tracer.Spans(trace.spans)


GRAPHS = {"edge": ((0, 0), (1, 0)), "square": ((0, 0), (1, 1))}


@pytest.mark.parametrize("kind,m", [("edge", 1), ("square", 4)])
def test_counter_formulas_match_hand_counts(mods, kind, m):
    L, O, S, C = (mods[k] for k in ("lattice", "oracle", "sampler",
                                    "currents"))
    g = L.build_rect((0, 1), (0, 0)) if kind == "edge" else \
        L.build_rect((0, 1), (0, 1))
    assert g.n_edges == m
    bc = L.free_bc(g)

    leaves = []
    O.scan_configs(g, bc, lambda mask, uf: leaves.append(mask))
    s = _traced(mods, lambda: O.cluster_count_array(g, bc))
    assert s.total("oracle.scan_configs", "leaves") == len(leaves) == 2 ** m

    colors, _ = O.spin_ensemble(g, 3, 0.4)
    s = _traced(mods, lambda: O.spin_ensemble(g, 3, 0.4))
    assert s.total("oracle._color_table", "configs") == len(colors) \
        == 3 ** g.n_vertices

    # burn-in 3 plus 2 samples thinned by 2: seven sweeps of m updates,
    # each sweep drawing one row of m uniforms
    s = _traced(mods, lambda: S.chain_samples(g, 0.5, 2.0, bc, 1, 2, 3, 2))
    assert s.total("sampler.chain_samples", "updates") == 7 * m
    assert s.calls("sampler.sweep_uniforms") == 7
    assert s.total("sampler.sweep_uniforms", "variates") == 7 * m

    a, b = GRAPHS[kind], ((0, 0), (1, 0))
    s = _traced(mods, lambda: C.verify_switching(g, a, b, 0.3, n_max=2))
    assert s.total("currents.verify_switching", "multigraphs") == 3 ** m


def test_work_counters_small_cases(mods):
    L, P, W, X = (mods[k] for k in ("lattice", "loops", "saw", "sixvertex"))
    dom = L.medial_domain(L.build_rect((0, 1), (-1, 0)), (0, 0), (0, -1))
    s = _traced(mods, lambda: P.edge_observable(dom, 0.5, 2.0))
    # one cluster count per configuration of the free edges
    assert s.total("loops.edge_observable", "configs") \
        == s.calls("lattice.cluster_stats") == 2 ** len(dom.free_edges)

    s = _traced(mods, lambda: W.saw_counts(2))
    assert s.total("saw.saw_counts", "walks") == 1 + 3 + 6

    s = _traced(mods, lambda: X.TransferMatrix(2, 2.5))
    assert s.total("sixvertex.transfer_block", "states") == 4 ** 2

    s = _traced(mods, lambda: X.rc6v_verify(2, 2, 6.25))
    assert s.total("sixvertex.rc6v_verify", "masks") == 2 ** 8


def _bindings(mods):
    out = {(m.__name__, k): v for m in mods.values() for k, v in vars(m).items()}
    out[("TransferMatrix", "eigs")] = \
        vars(mods["sixvertex"].TransferMatrix)["eigs"]
    return out


def test_traced_run_restores_every_binding(mods):
    before = _bindings(mods)
    wl = workloads.WORKLOADS["planar"]
    prm = wl.params(random.Random(3))
    obj = wl.setup(mods, prm)
    checks = [c for c in wl.checks(mods, prm, obj)
              if c.name.startswith(("saw_", "vertex_"))]
    with tracer.Tracer(mods) as trace:
        wrapped = trace.patched()
        assert all(vars(owner)[key] is not orig
                   for owner, key, orig in wrapped)
    assert len(wrapped) >= len(tracer.TARGETS)
    verdicts, metrics, report = run.traced_run(wl, prm, mods, obj, checks)
    assert all(ok for _, ok, _ in verdicts)
    assert report["restored_bindings"] == len(wrapped)
    assert not report["pass_to_pass_differences"]
    assert metrics["saw.walks"] == sum(workloads.A001668)
    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(x.name, x.unit, x.better) for x in tracer.LAYERS]
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"setup_s", "wall_s", "peak_rss_mb", "passed_frac"}
    assert set(tracer.EXACT_COUNTERS) <= {x.name for x in tracer.LAYERS}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planar", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
