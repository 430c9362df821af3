"""In-memory span tracer that wraps backproc's public functions from outside.

The package source is never edited: after import, every public function of
every backproc module is replaced, in each module that binds it, by a
wrapper that records a span (name, start, end, parent, run id). The
``WindowEngine`` methods are wrapped on the class. Private helpers are not
wrapped, so their time lands in the self time of the public caller.

A span's self time is its duration minus the durations of its direct
children; the self times of all spans therefore add up to the durations of
the root spans.
"""

from __future__ import annotations

import collections
import csv
import functools
import gzip
import inspect
import sys
import time

__all__ = ["Tracer", "install", "self_times"]

PACKAGE = "backproc"


class Tracer:
    """Spans of one process, kept in parallel lists until written out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.exceptions: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.peaks: dict[str, float] = {}
        # computed-metric hooks, called as hook(tracer, args, kwargs, result)
        # after the span has closed
        self.hooks: dict = {}

    def peak(self, key: str, value: float) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        i = len(self.start)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.exceptions[f"{name}:{type(exc).__name__}"] += 1
            raise
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        """Write every span as one CSV row (gzip): run, id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "id", "parent", "name", "start", "end"])
            writer.writerows(
                (self.run_id, i, p, name, s, e)
                for i, (p, name, s, e)
                in enumerate(zip(self.parent, self.name, self.start, self.end))
            )


def self_times(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name self time and call count."""
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    self_s: dict[str, float] = collections.defaultdict(float)
    calls: dict[str, int] = collections.Counter()
    for i, name in enumerate(tracer.name):
        self_s[name] += dur[i] - child[i]
        calls[name] += 1
    return dict(self_s), dict(calls)


def _public_functions(module):
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every public function of backproc's modules wherever it is bound,
    and ``__init__`` and the public methods of ``WindowEngine``.

    Span names are ``<defining module>.<function>`` relative to the package,
    and ``backward.WindowEngine.<method>`` for the methods.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    wrappers: dict[int, object] = {}
    for module in modules:
        short = module.__name__[len(PACKAGE) + 1:] or PACKAGE
        for attr, fn in _public_functions(module):
            wrappers[id(fn)] = tracer.wrap(f"{short}.{attr}", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    cls = sys.modules[f"{PACKAGE}.backward"].WindowEngine
    for attr, fn in list(vars(cls).items()):
        if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
            setattr(cls, attr, tracer.wrap(f"backward.WindowEngine.{attr}", fn))
