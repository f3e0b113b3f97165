"""Spans around calls into the layers of ``verity``, recorded from outside.

Nothing inside the package is instrumented.  ``Tracer.installed`` replaces
each layer's public functions, in every ``verity`` module that imported
them, with a wrapper that records a span, and puts the originals back on
exit.  Calls between layers, and calls a module makes to its own public
functions through its globals, go through the wrappers too, so spans nest:
``cli.main`` > ``report.tally`` > ``taxonomy.classify`` > ``entail.entails``
> ``entail.satisfiable`` > ``mr.validate_formula``.

Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

# The public functions of each layer (module of ``verity``) that get spans.
LAYERS: dict[str, tuple[str, ...]] = {
    "mr": ("parse_formula", "parse_schema", "validate_formula"),
    "entail": ("satisfiable", "entails", "is_tautology", "is_contradiction"),
    "taxonomy": ("classify",),
    "report": ("ingest_corpus", "tally", "render_report"),
    "oracle": ("oracle_classify", "checked_classify", "oracle_entails"),
    "bdi": ("load_scenario", "default_candidates", "scan_misleading"),
    "cli": ("main",),
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    error: Optional[str]  # class name of the exception that ended the call
    tag: Any  # set by the caller, to group spans (a pass, a slot count)

    @property
    def us(self) -> float:
        return (self.end_ns - self.start_ns) / 1e3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tag: Any = None
        self._stack: list[int] = []
        self._next = 0

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = None
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, error, self.tag))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        modules = [m for n, m in list(sys.modules.items()) if n == "verity" or n.startswith("verity.")]
        patched = []
        try:
            for layer, names in LAYERS.items():
                home = sys.modules[f"verity.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    traced = self.wrap(f"{layer}.{fname}", original)
                    for module in modules:
                        if getattr(module, fname, None) is original:
                            setattr(module, fname, traced)
                            patched.append((module, fname, original))
            yield
        finally:
            for module, fname, original in reversed(patched):
                setattr(module, fname, original)

    def named(self, name: str, parent_name: Optional[str] = None) -> list[Span]:
        """Spans called ``name``, optionally only direct children of spans
        called ``parent_name``."""
        if parent_name is None:
            return [s for s in self.spans if s.name == name]
        parents = {s.id for s in self.spans if s.name == parent_name}
        return [s for s in self.spans if s.name == name and s.parent in parents]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps([s.id, s.parent, s.name, s.start_ns, s.end_ns, s.error, s.tag]) + "\n")
