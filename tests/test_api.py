"""Every name the package exports, and every function the benchmark traces,
resolves; distances between points come from one route; every private helper
has a caller in the package."""

import ast
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


def _is_difference(node) -> bool:
    """A subtraction, maybe scaled: ``a - b``, ``(a - b) / r``, ``s * (a - b)``."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Sub):
        return True
    return isinstance(node.op, (ast.Mult, ast.Div)) and (
        _is_difference(node.left) or _is_difference(node.right)
    )


def _last_axis_square_sums(source: str) -> list[int]:
    """Lines of ``np.sum(<difference> ** 2, axis=-1)`` and of
    ``np.sum(d * d, axis=-1)`` where d is a name bound, in the same function,
    to a point difference, maybe scaled (:func:`_is_difference`)."""
    tree = ast.parse(source)
    found = []
    for scope in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        differences = {
            target.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Assign) and _is_difference(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(scope):
            if not (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "np.sum"
                and node.args
                and any(k.arg == "axis" and ast.unparse(k.value) == "-1" for k in node.keywords)
            ):
                continue
            arg = node.args[0]
            squared = (
                isinstance(arg, ast.BinOp)
                and isinstance(arg.op, ast.Pow)
                and ast.unparse(arg.right) == "2"
                and _is_difference(arg.left)
            )
            product = (
                isinstance(arg, ast.BinOp)
                and isinstance(arg.op, ast.Mult)
                and ast.unparse(arg.left) == ast.unparse(arg.right)
                and (_is_difference(arg.left) or ast.unparse(arg.left) in differences)
            )
            if squared or product:
                found.append(node.lineno)
    return sorted(set(found))


def test_the_guard_finds_the_last_axis_square_sums():
    source = """
def f(pts, c, r):
    a = np.sqrt(np.sum((pts - c) ** 2, axis=-1))
    d = (pts - c) / r
    b = np.sum(d * d, axis=-1)
    e = np.sum((pts - c) * (pts - c), axis=-1)
    rim = pts * r
    g = np.sign(d) * np.abs(d / r) ** (c - 1.0) / r
    ok = np.sum(rim * rim, axis=-1) + np.sum((a * c) ** 2, axis=-1) + np.sum(d * d)
    ok = ok + np.sum(g * g, axis=-1, keepdims=True)
"""
    assert _last_axis_square_sums(source) == [3, 5, 6]


def test_point_distances_use_the_one_distance_route():
    """Summing squared coordinate differences along the last axis is numpy's
    slow path for short axes, and a second distance formula besides
    ``geometry._distance``."""
    src = Path(neutrace.__file__).resolve().parent
    hits = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _last_axis_square_sums(path.read_text())
    ]
    assert hits == [], (
        f"squared point differences summed along the last axis at {hits}; "
        "take distances from geometry._distance, which adds the coordinate planes in axis order"
    )


def _unreferenced_private_defs(sources: dict) -> list:
    """``file:name`` of each private function or class (one leading
    underscore) that no code of ``sources`` (file name -> text) names, as a
    name or an attribute, outside its own definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses: dict = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            outside = [
                (where, line)
                for where, line in uses.get(node.name, ())
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                found.append(f"{path}:{node.name}")
    return sorted(found)


def test_the_guard_finds_private_helpers_without_a_caller():
    sources = {
        "a.py": """
from b import _used_elsewhere

def _recursive(k):
    return _recursive(k - 1) if k else 0

def _called(x):
    return x

class _Box:
    def _method(self):
        return self._helper()

    def _helper(self):
        return _called(1)

def public():
    return _Box()._method() + _used_elsewhere()
""",
        "b.py": """
import a

def _used_elsewhere():
    return a.public()

def _imported_only():
    return 0
""",
    }
    assert _unreferenced_private_defs(sources) == ["a.py:_recursive", "b.py:_imported_only"]


def test_private_helpers_have_a_caller_in_the_package():
    """A private function or class that only tests call is test code, and
    belongs in the tests."""
    src = Path(neutrace.__file__).resolve().parent
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    unused = _unreferenced_private_defs(sources)
    assert unused == [], f"private helpers with no caller in src/neutrace: {unused}"
