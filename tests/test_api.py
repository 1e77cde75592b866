"""Every name the package exports, and every function the benchmark traces,
resolves."""

import importlib
import json
import pkgutil
from pathlib import Path

import neutrace


def test_benchmark_traced_names_resolve_to_functions():
    # the benchmark times each <module>.<function> of a per-layer .calls or
    # .self_s metric; its other per-layer metrics name no function
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = {m["name"].rpartition(".")[0] for m in spec["per_layer"]
             if m["name"].endswith((".calls", ".self_s"))}
    assert names
    missing = []
    for name in sorted(names):
        module, _, func = name.rpartition(".")
        if not callable(getattr(importlib.import_module(f"neutrace.{module}"), func, None)):
            missing.append(name)
    assert missing == []


def test_exported_names_resolve():
    modules = [neutrace] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(neutrace.__path__, "neutrace.")
        if info.name != "neutrace.__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
