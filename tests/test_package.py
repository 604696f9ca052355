import importlib
import importlib.util
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    # an installed console script imports its target module and calls the
    # named attribute; a missing module crashes every invocation
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


TRACER = PYPROJECT.parent / "bench" / "tracer.py"
MODULES = ("lattice", "oracle", "sampler", "currents", "loops", "saw",
           "sixvertex")


def test_bench_tracer_installs_and_restores(monkeypatch):
    # the bench tracer wraps critlat functions by name, so a deleted or
    # renamed target fails here and not only in a traced bench run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    mods = {n: importlib.import_module("critlat." + n) for n in MODULES}
    owners = list(mods.values()) + [mods["sixvertex"].TransferMatrix]
    before = [dict(vars(owner)) for owner in owners]
    trace = tracer.Tracer(mods)
    try:
        # installing looks up every target, and raises on a missing one
        trace.install()
        wrapped = {key for _, key, _ in trace.patched()}
        assert {attr.rpartition(".")[2]
                for _, attr, _ in tracer.TARGETS} <= wrapped
        assert all(vars(owner)[key] is not orig
                   for owner, key, orig in trace.patched())
    finally:
        trace.restore()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[key] is value for key, value in saved.items())
