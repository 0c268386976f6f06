"""Span tracer that wraps the public functions of the frameforge modules.

The tracer lives entirely in the benchmark: it replaces every binding of a
wrapped function (the defining module, every module that imported it by
name, the package namespace) with a timing wrapper, and puts the originals
back when the ``installed`` context exits.  Spans nest on one stack, so a
span's self time is its duration minus the durations of the spans it
directly contains.  Counters are aggregated per span name; a run resets
them before each traced operation and reads them after it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass

# Marker attribute set on every wrapper, so a leftover wrapper can be found.
MARK = "__perfbench_span__"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0


def _file_bytes(path) -> int:
    """Size of a matrix file plus its JSON sidecar, 0 for a missing file."""
    total = 0
    for p in (os.fspath(path), os.fspath(path) + ".json"):
        with contextlib.suppress(OSError):
            total += os.path.getsize(p)
    return total


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.stats = {}
        self.counters = {}

    def count(self, name: str, amount: int):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(args, kwargs)`` runs once the span has closed and the call
        returned normally; the matio hooks use it to count file bytes.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = self.clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = self.clock() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                rec = self.stats.setdefault(name, SpanStats())
                rec.calls += 1
                rec.total_s += elapsed
                rec.self_s += elapsed - child
                rec.raised += not ok
            if after is not None:
                after(args, kwargs)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, modules, package_prefix: str, extra=()):
        """Wrap the public functions and hand-written ``__init__`` methods of
        ``modules``, and the callables named in ``extra`` (``(owner, layer,
        names)`` triples, e.g. ``numpy.linalg``).

        A function defined in module ``pkg.frames`` becomes span
        ``frames.<name>``; a class ``C`` defined there becomes span
        ``frames.C`` around its ``__init__``.  Every module whose name is
        ``package_prefix`` or starts with ``package_prefix + "."`` has its
        bindings of a wrapped function replaced as well.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            wrappers = {}
            for mod in modules:
                layer = mod.__name__.rsplit(".", 1)[-1]
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, self._hook(layer, attr))
                    elif inspect.isclass(obj):
                        init = vars(obj).get("__init__")
                        # Generated dataclass initialisers are not hand-written code.
                        if inspect.isfunction(init) and init.__code__.co_filename == mod.__file__:
                            self._patch(obj, "__init__", self.wrap(f"{layer}.{attr}", init))
            for owner, layer, names in extra:
                for attr in names:
                    obj = getattr(owner, attr)
                    self._patch(owner, attr, self.wrap(f"{layer}.{attr}", obj))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == package_prefix or name.startswith(package_prefix + ".")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hook(self, layer: str, attr: str):
        if layer != "matio" or attr not in ("load_matrix", "save_matrix"):
            return None
        counter = "matio.bytes_read" if attr == "load_matrix" else "matio.bytes_written"

        def after(args, kwargs):
            path = args[0] if args else kwargs.get("path")
            self.count(counter, _file_bytes(path))

        return after


def leftover_wrappers(owners) -> list[str]:
    """Names of attributes of ``owners`` (modules or classes, searched one
    level into classes) that are still tracer wrappers."""
    found = []
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if hasattr(obj, MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            elif inspect.isclass(obj) and hasattr(vars(obj).get("__init__"), MARK):
                found.append(f"{obj.__qualname__}.__init__")
    return found
