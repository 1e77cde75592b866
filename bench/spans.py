"""In-memory span recorder for the traced benchmark run.

Wraps neutrace functions from the outside: every module attribute that is
bound to a traced function is replaced by a timing wrapper.  ``from ...
import`` copies a function into each importing module's namespace, so a
function has to be replaced in all of those namespaces, not only where it
is defined, or calls through the copies would go unseen.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time


class SpanRecorder:
    """Records (name, start, end, parent) spans and per-name call counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, package, names: list[str]) -> None:
        """Trace ``<module>.<function>`` for each name, e.g. ``calculus.gauss_legendre``.

        Raises LookupError for a name that does not resolve to a function, so
        a renamed function cannot silently drop out of the trace.
        """
        # __main__ is skipped: importing it runs the CLI
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
            if info.name.rpartition(".")[2] != "__main__"
        ]
        for name in names:
            module_name, _, func_name = name.rpartition(".")
            owner = importlib.import_module(f"{package.__name__}.{module_name}")
            func = getattr(owner, func_name, None)
            if not callable(func):
                raise LookupError(f"cannot trace {name}: no such function")
            wrapper = self._wrap(name, func)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self, names: list[str], since: float) -> dict:
        """Per-name call counts and self times, plus the total self time of
        spans that started at or after ``since``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in names}
        covered = 0.0
        for (name, start, end, _), inner in zip(self.spans, child_time):
            own = (end - start) - inner
            out[name]["calls"] += 1
            out[name]["self_s"] += own
            if start >= since:
                covered += own
        return {"functions": out, "covered_s": covered}
