"""In-memory span tracer for the benchmark's traced run.

The tracer replaces chosen public functions of a package with wrappers
that record one span per call: name, start, end, the span that caused it
and the request it belongs to.  The program imports functions by name, so
one function is bound in several modules; every binding gets the same
wrapper.  ``remove`` puts every original attribute back.  Untraced runs
never create a tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    request: int
    start: float
    end: float = float("nan")
    error: str | None = None
    bytes: int = 0
    points: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the public functions of ``package``'s modules.

    ``layers`` maps a module name (relative to the package) to the function
    names to wrap, or to None for every function in the module's
    ``__all__``.  ``hooks`` maps a span name to a callable
    ``hook(tracer, span, args, kwargs, result) -> result`` run after the
    call; hooks fill ``span.bytes`` / ``span.points``, wrap returned
    callables, or keep values in ``tracer.captured``.
    """

    def __init__(self, package: str, layers: dict, hooks: dict | None = None):
        self.package = package
        self.layers = layers
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self.captured: dict = {}
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, hook=None):
        """A callable that records a span named ``name`` around ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, self.request, perf_counter())
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                span.end = perf_counter()
            return result if hook is None else hook(self, span, args, kwargs, result)

        return traced

    def targets(self) -> dict:
        """{span name: function} for every function the tracer wraps."""
        out = {}
        for mod_name, names in self.layers.items():
            mod = importlib.import_module(f"{self.package}.{mod_name}")
            if names is None:
                names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
            for n in names:
                out[f"{mod_name}.{n}"] = getattr(mod, n)
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {id(fn): (name, fn) for name, fn in self.targets().items()}
        wrappers = {key: self.wrap(name, fn, self.hooks.get(name)) for key, (name, fn) in originals.items()}
        for mod in package_modules(self.package):
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def remove(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def write(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def package_modules(package: str) -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def self_times(spans: list[Span]) -> dict:
    """{sid: duration minus the part of it that child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.sid], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.seconds - covered
    return out


def request_totals(spans: list[Span]) -> dict:
    """{request: {"<name>.<stat>": value}} with stats s (outermost spans of
    the name only, so recursion is not counted twice), self_s, calls,
    failed, bytes and points."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        tot = out[s.request]
        tot[f"{s.name}.calls"] += 1
        tot[f"{s.name}.self_s"] += selfs[s.sid]
        tot[f"{s.name}.failed"] += s.error is not None
        tot[f"{s.name}.bytes"] += s.bytes
        tot[f"{s.name}.points"] += s.points
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            tot[f"{s.name}.s"] += s.seconds
    return out
