"""In-memory span tracer that wraps errandlab's public functions from outside.

The tracer replaces each named function in every ``errandlab`` module
namespace that holds it (``simulate`` imports ``advance`` by name, while
``replay`` looks it up as ``scenario.advance``), records one span per call,
and puts the originals back on :meth:`Tracer.uninstall`.  Nothing in the
package itself is changed.

A span is ``(name, start, end, parent, invocation)``; spans live in flat
arrays until the run ends.  Self time is a span's duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Iterable, Optional

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.failed = array("b")
        self._stack: list[int] = [NO_PARENT]
        self._current_invocation = -1
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------------

    def _open(self, name: int) -> int:
        index = len(self.start)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.invocation.append(self._current_invocation)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int, failed: bool) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        if failed:
            self.failed[index] = 1

    def call(self, name: str, invocation: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of one invocation."""
        self._current_invocation = invocation
        index = self._open(self.name_id(name))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(index, True)
            raise
        self._close(index, False)
        return result

    def wrap(self, fn: Callable, name: str,
             name_of: Optional[Callable[..., str]] = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span.

        ``name_of(*args)``, when given, picks the span name per call.
        """
        fixed = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(fixed if name_of is None
                                else tracer.name_id(name_of(*args, **kwargs)))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, True)
                raise
            tracer._close(span, False)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ----------------------------------------------------------

    def install(self, package: str,
                targets: Iterable[tuple[object, str, Optional[Callable]]]) -> None:
        """Wrap ``getattr(module, attr)`` wherever a ``package`` module holds it.

        ``targets`` yields ``(module, attr, name_of)``; the span name is
        ``<module short name>.<attr>`` unless ``name_of`` picks one per call.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module, attr, name_of in targets:
            original = getattr(module, attr)
            short = module.__name__.rsplit(".", 1)[-1]
            wrapper = self.wrap(original, f"{short}.{attr}", name_of)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                children.setdefault(parent, []).append(index)
        out = []
        for index in range(len(self.start)):
            lo, hi = self.start[index], self.end[index]
            covered = 0.0
            cursor = lo
            for child in sorted(children.get(index, ()), key=self.start.__getitem__):
                c_lo = max(self.start[child], cursor)
                c_hi = min(self.end[child], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    cursor = c_hi
            out.append((hi - lo) - covered)
        return out

    def rows(self) -> Iterable[tuple[str, float, float, int, int, int]]:
        for index in range(len(self.start)):
            yield (self.names[self.name[index]], self.start[index], self.end[index],
                   self.parent[index], self.invocation[index], self.failed[index])
