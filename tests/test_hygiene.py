"""Every library module uses each name it imports, and the benchmark's
tracer finds every library name it wraps or reads."""

import ast
import importlib
import importlib.util
import pathlib

from cosafe import models
from cosafe.closure import ClosureConfig, KnowledgeBase

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cosafe"
PERFBENCH = ROOT / "perfbench"


def unused_imports(source):
    """The names a module binds by import and never reads, sorted.  The
    package's __init__ imports only to re-export, so it is not checked."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom .a import b, c as d\n"
                          "print(d)\n") == ["b", "os"]
    assert unused_imports("import sys as _s\n_s.exit()\n") == []


def test_library_modules_use_every_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def perfbench_module(name):
    """A module of perfbench/, loaded from its file under its own name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_attaches():
    # the traced benchmark run wraps library functions and methods by
    # name and reads the closure engine's indexes and verify's cfg: a
    # name it needs that is gone fails here, not in the benchmark
    layers, spans = perfbench_module("layers"), perfbench_module("spans")
    verify = importlib.import_module("cosafe.verify")
    system = models.lock_model(2)
    props = models.lock_properties(system)
    cfg = ClosureConfig(operators=[models.lock_operators(2)["shift"]])
    plain, _, _ = verify.check_many(system, 0, props, KnowledgeBase(), cfg)
    untraced = verify.check_many
    tracer = spans.Tracer()
    layers.instrument(tracer)
    try:
        tracer.phase = layers.ROUND
        traced, _, _ = verify.check_many(system, 0, props, KnowledgeBase(),
                                         cfg)
    finally:
        tracer.unpatch()
    assert verify.check_many is untraced
    assert [(v.outcome, v.stats) for _, v in traced] == \
        [(v.outcome, v.stats) for _, v in plain]
    assert tracer.calls(layers.ROUND, "closure.load") == 1
    verdicts = [v for _, v in traced]
    metrics = layers.metrics(tracer, 1, 1, verdicts)
    assert set(metrics) == set(layers.UNITS)
    for name in ("verify.runs", "closure.prescreen_calls",
                 "closure.note_calls", "closure.fail_index_entries"):
        assert metrics[name]["value"] > 0, name
