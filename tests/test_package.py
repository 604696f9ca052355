import ast
import collections
import importlib
import importlib.util
import re
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


def test_every_top_level_name_is_used():
    # a function, class or constant of the package that no program names
    # outside its own definition, or a reference of the tests that nothing
    # names, is dead code; the programs are src/, bench/ and the references
    # of tests/reference.py, so a package name that only tests call fails
    root = PYPROJECT.parent
    reference = root / "tests" / "reference.py"
    texts = {path: path.read_text() for folder in ("src", "bench", "tests")
             for path in sorted((root / folder).rglob("*.py"))}
    # a name is used where it is a whole \w+ word; count each file once
    words, program_words = collections.Counter(), collections.Counter()
    for path, text in texts.items():
        found = re.findall(r"\w+", text)
        words.update(found)
        if path == reference or path.parts[len(root.parts)] != "tests":
            program_words.update(found)
    defining = sorted((root / "src" / "critlat").glob("*.py"))
    defining.append(reference)
    unused = []
    for path in defining:
        used = words if path == reference else program_words
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path]).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            # the words of this definition's own lines
            own = collections.Counter(re.findall(
                r"\w+", "".join(lines[node.lineno - 1:node.end_lineno])))
            for name in names:
                if not name.startswith("__") and used[name] == own[name]:
                    unused.append("%s.%s" % (path.stem, name))
    assert not unused
