"""Call tracer for the benchmark's traced run.

The tracer measures each layer of shallowperm from outside: it replaces
chosen public functions by timing wrappers wherever a ``shallowperm``
module refers to them, as a module attribute or inside a dict or tuple
the module holds (``SUITES``, the refinement table). The
library's source is not touched.

Two kinds of wrapper exist. Operations and layer entry points (``cli.main``,
``count``, ``descent_table``, each suite check, ``catalog``) record one span
each: name, tag, start, end, parent span and operation id. Hot leaf calls
(``is_shallow``, ``avoids``, ``inversion_count``, the generator's ``next()``)
are aggregated per (enclosing span, function) into call counts and times,
so the memory of a traced run stays bounded.

Self time is a call's duration minus the time of the traced calls made
directly inside it. Calls nest strictly in one thread, so the directly
nested calls never overlap and their durations add up to the part of the
interval they cover.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter
from typing import Callable, Optional

# (module, attribute, layer name) of each traced function, by wrapper kind.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "_emit", "cli.emit"),
    ("enumeration", "count", "enumeration.count"),
    ("enumeration", "descent_table", "enumeration.descent_table"),
    ("enumeration", "verify", "enumeration.verify"),
    ("enumeration", "profile", "enumeration.profile"),
    ("series", "catalog", "series.catalog"),
    ("suites", "run_suite", "suites.run_suite"),
)
LEAVES = (
    ("shallow", "is_shallow", "shallow.is_shallow"),
    ("shallow", "certify_shallow", "shallow.certify_shallow"),
    ("patterns", "avoids", "patterns.avoids"),
    ("perms", "inversion_count", "perms.inversion_count"),
    ("perms", "cycle_count", "perms.cycle_count"),
    ("perms", "descent_count", "perms.descent_count"),
    ("perms", "is_in_class", "perms.is_in_class"),
)
GENERATORS = (("shallow", "generate_shallow", "shallow.generate_shallow"),)

PACKAGE = "shallowperm"


class Tracer:
    """Spans and leaf aggregates of one traced pass, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        # (enclosing span id or None, leaf name) -> [calls, total_s, self_s, hits]
        self.leaves: dict[tuple[Optional[int], str], list] = {}
        self.generator_sizes: Counter = Counter()
        self.op: Optional[int] = None
        self._frames: list[list[float]] = []  # [start, time of nested calls]
        self._open: list[int] = []  # ids of the open spans, innermost last

    def begin(self, name: str, tag: Optional[str] = None) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "tag": tag,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "start": self.clock(),
            "end": None,
            "self_s": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        self._frames.append([span["start"], 0.0])
        return span

    def end(self, span: dict) -> None:
        start, nested = self._frames.pop()
        self._open.pop()
        span["end"] = self.clock()
        elapsed = span["end"] - start
        span["self_s"] = elapsed - nested
        if self._frames:
            self._frames[-1][1] += elapsed

    def call_leaf(self, name: str, fn: Callable, args, kwargs):
        """Run one leaf call; hits count the calls that returned True."""
        frame = [self.clock(), 0.0]
        self._frames.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self._close_leaf(name, frame, result is True)

    def next_leaf(self, name: str, iterator):
        """Time one ``next()`` of a traced generator; hits count the items."""
        frame = [self.clock(), 0.0]
        self._frames.append(frame)
        produced = False
        try:
            item = next(iterator)
            produced = True
            return item
        finally:
            self._close_leaf(name, frame, produced)

    def _close_leaf(self, name: str, frame: list[float], hit: bool) -> None:
        self._frames.pop()
        elapsed = self.clock() - frame[0]
        if self._frames:
            self._frames[-1][1] += elapsed
        key = (self._open[-1] if self._open else None, name)
        agg = self.leaves.get(key)
        if agg is None:
            agg = self.leaves[key] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]
        agg[3] += hit

    def dump(self) -> dict:
        """The trace as plain data, for writing out when the run ends."""
        return {
            "spans": self.spans,
            "leaves": [
                {"parent": parent, "name": name, "calls": a[0], "total_s": a[1],
                 "self_s": a[2], "hits": a[3]}
                for (parent, name), a in self.leaves.items()
            ],
            "generator_sizes": {str(n): c for n, c in sorted(self.generator_sizes.items())},
        }


def spec_tag(specs) -> str:
    """Short name of an ``avoids`` spec list: 123..321, anchored or other."""
    if not isinstance(specs, tuple):
        return "other"
    if any(a is not None for spec in specs for a in spec.anchors):
        return "anchored"
    if len(specs) == 1 and len(specs[0].pattern) == 3:
        return "".join(str(v) for v in specs[0].pattern)
    return "other"


def _span_wrapper(tracer: Tracer, name: str, fn: Callable, tag_of=None) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = tracer.begin(name, tag_of(args) if tag_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapped


def _parser_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """Span around ``build_parser``; its parser's ``parse_args`` gets one too."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = tracer.begin("cli.build_parser")
        try:
            parser = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        parser.parse_args = _span_wrapper(tracer, "cli.parse", parser.parse_args)
        return parser

    return wrapped


def _leaf_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call_leaf(name, fn, args, kwargs)

    return wrapped


def _avoids_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    tags: dict[int, tuple] = {}  # id(specs) -> (specs, leaf name); keeps specs alive

    @functools.wraps(fn)
    def wrapped(host, specs):
        entry = tags.get(id(specs))
        if entry is None:
            entry = tags[id(specs)] = (specs, "patterns.avoids." + spec_tag(specs))
        return tracer.call_leaf(entry[1], fn, (host, specs), {})

    return wrapped


class _TracedIterator:
    __slots__ = ("tracer", "name", "iterator")

    def __init__(self, tracer: Tracer, name: str, iterator):
        self.tracer = tracer
        self.name = name
        self.iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        return self.tracer.next_leaf(self.name, self.iterator)


def _generator_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(n, *args, **kwargs):
        tracer.generator_sizes[n] += 1
        return _TracedIterator(tracer, name, fn(n, *args, **kwargs))

    return wrapped


def package_modules() -> list[types.ModuleType]:
    return sorted(
        (m for name, m in sys.modules.items()
         if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))),
        key=lambda m: m.__name__,
    )


def _module(short: str) -> types.ModuleType:
    return sys.modules[f"{PACKAGE}.{short}"]


def build_wrappers(tracer: Tracer) -> dict[int, tuple[Callable, Callable]]:
    """id(original) -> (original, wrapper) for every traced function."""
    table: dict[int, tuple[Callable, Callable]] = {}

    def add(original, wrapper):
        table[id(original)] = (original, wrapper)

    tags = {  # span tags: the catalog name, the count method
        "series.catalog": lambda args: args[0] if args else None,
        "enumeration.count": lambda args: args[0].method.value if args else None,
    }
    for mod, attr, name in SPANS:
        fn = getattr(_module(mod), attr)
        if name == "cli.build_parser":
            add(fn, _parser_wrapper(tracer, fn))
        else:
            add(fn, _span_wrapper(tracer, name, fn, tags.get(name)))
    suites = _module("suites")
    for attr in sorted(vars(suites)):
        if attr.startswith("check_"):
            fn = getattr(suites, attr)
            add(fn, _span_wrapper(tracer, f"suites.{attr}", fn))
    for mod, attr, name in LEAVES:
        fn = getattr(_module(mod), attr)
        if name == "patterns.avoids":
            add(fn, _avoids_wrapper(tracer, fn))
        else:
            add(fn, _leaf_wrapper(tracer, name, fn))
    for mod, attr, name in GENERATORS:
        fn = getattr(_module(mod), attr)
        add(fn, _generator_wrapper(tracer, name, fn))
    return table


def _bindings(modules):
    """Yield (container, key, value, path) for each module attribute and
    each entry of a dict a module holds; tuples are searched by _swap."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            path = f"{mod.__name__}.{attr}"
            yield vars(mod), attr, value, path
            if isinstance(value, dict):
                for key, inner in list(value.items()):
                    yield value, key, inner, f"{path}[{key!r}]"


class Instrumentation:
    """Installs the wrappers into every shallowperm binding and undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.table = build_wrappers(tracer)
        self._undo: list[tuple[object, object, object]] = []

    def _swap(self, value):
        """The value with traced originals replaced, or None if unchanged."""
        if callable(value) and id(value) in self.table and self.table[id(value)][0] is value:
            return self.table[id(value)][1]
        if isinstance(value, tuple):
            swapped = tuple(self._swap(v) or v for v in value)
            if any(a is not b for a, b in zip(swapped, value)):
                return swapped
        return None

    def install(self) -> None:
        for container, key, value, _ in _bindings(package_modules()):
            new = self._swap(value)
            if new is not None:
                self._undo.append((container, key, value))
                container[key] = new

    def uninstall(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            container[key] = value

    def unwrapped(self) -> list[str]:
        """Paths of shallowperm bindings that still hold an unwrapped original."""
        return [path for _, _, value, path in _bindings(package_modules())
                if self._swap(value) is not None]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_table(tracer: Tracer) -> dict[str, dict]:
    """Calls, total and self seconds and hits per traced function, with
    per-spec ``avoids`` and per-name ``catalog`` entries, their sums, and
    one self-time total per module."""
    table: dict[str, dict] = {}

    def add(name, calls, total_s, self_s, hits=0):
        entry = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0})
        entry["calls"] += calls
        entry["total_s"] += total_s
        entry["self_s"] += self_s
        entry["hits"] += hits

    modules: dict[str, float] = {}
    for span in tracer.spans:
        name = span["name"]
        add(name, 1, span["end"] - span["start"], span["self_s"])
        if name == "series.catalog":
            add(f"{name}.{span['tag']}", 1, span["end"] - span["start"], span["self_s"])
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + span["self_s"]
    for (_, name), (calls, total_s, self_s, hits) in tracer.leaves.items():
        add(name, calls, total_s, self_s, hits)
        if name.startswith("patterns.avoids."):
            add("patterns.avoids", calls, total_s, self_s, hits)
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + self_s
    for module, self_s in modules.items():
        table[module] = {"self_s": self_s}
    return dict(sorted(table.items()))
