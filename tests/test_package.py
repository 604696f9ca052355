import ast
import collections
import importlib
import importlib.util
import io
import re
import sys
import tokenize
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


def _code_words(text):
    """(syntax tree, {row: [word]}) of a source text: the \\w+ words of its
    tokens, leaving out comments and docstrings, the leading string
    statement of a module, class or function body. Other string literals
    keep their words: the bench tracer looks its targets up by name."""
    tree = ast.parse(text)
    # the rows of every docstring
    docs = {row for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
            for row in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    words = collections.defaultdict(list)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.COMMENT and not (
                tok.type == tokenize.STRING and tok.start[0] in docs):
            words[tok.start[0]] += re.findall(r"\w+", tok.string)
    return tree, words


def test_every_top_level_name_is_used():
    # a function, class, constant or class member of the package that no
    # program's code names outside its own definition, or a reference of
    # the tests that no code names, is dead code; the programs are src/,
    # bench/ but its test_*.py, and tests/reference.py, so a package name
    # that only tests call, or only a comment or docstring names, fails
    root = PYPROJECT.parent
    reference = root / "tests" / "reference.py"
    files = {path: _code_words(path.read_text())
             for folder in ("src", "bench", "tests")
             for path in sorted((root / folder).rglob("*.py"))}
    words, program_words = collections.Counter(), collections.Counter()
    for path, (_, rows) in files.items():
        found = [word for row in rows.values() for word in row]
        words.update(found)
        if path == reference or (path.parts[len(root.parts)] != "tests"
                                 and not path.name.startswith("test_")):
            program_words.update(found)
    defining = sorted((root / "src" / "critlat").glob("*.py"))
    defining.append(reference)
    unused = []
    for path in defining:
        used = words if path == reference else program_words
        tree, rows = files[path]
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node, [node.name], path.stem))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs.append((node, [n.id for t in targets for n in ast.walk(t)
                                    if isinstance(n, ast.Name)], path.stem))
            # methods and properties of the package's classes
            if isinstance(node, ast.ClassDef) and path != reference:
                defs += [(m, [m.name], "%s.%s" % (path.stem, node.name))
                         for m in node.body if isinstance(m, ast.FunctionDef)]
        for node, names, owner in defs:
            # the words of this definition's own lines
            own = collections.Counter(
                word for row in range(node.lineno, node.end_lineno + 1)
                for word in rows.get(row, ()))
            for name in names:
                if not name.startswith("__") and used[name] == own[name]:
                    unused.append("%s.%s" % (owner, name))
    assert not unused
