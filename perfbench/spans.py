"""Spans recorded from the benchmark's own files, around calls into the
program's layers, and the self times computed from them.

A span carries a name (``layer.what``), start, end, the span that was
open on the same thread when it started (its parent) and the request
id(s) it served.  Spans are kept in memory and analysed when the run
ends.  A layer's self time is its span's duration minus the time its
child spans cover; on one thread children nest strictly, so that is the
duration minus the children's summed durations.

Wrappers are installed as module attributes, class or instance
attributes, and for the kernel through the solvers' ``kernel=`` seam
(:class:`TracedKernel`).  Each :class:`Patch` remembers what it replaced
and puts it back on :meth:`Patch.restore`.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time

clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "rids")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = None
        self.rids = ()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float | None = None) -> Span:
        stack = self._stack()
        span = Span(name, clock() if start is None else start,
                    stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, tag=None):
        """``fn`` timed as a span ``name`` while the tracer is enabled.

        ``tag(span, args, result)`` may attach request ids after the
        call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if tag is not None:
                tag(span, args, result)
            return result

        return traced


class TracedKernel:
    """A workspace-capable sweep kernel behind the ``kernel=`` seam, timed.

    Keeps the ``accepts_workspace`` capability and forwards ``workspace=``
    (and ``timeout=``) untouched: a wrapper that dropped them would send
    the solvers down the workspace-less path and measure the wrong code.
    Other attributes (the pool's health and sort counters that
    ``SolveService.stats`` reads) resolve on the wrapped kernel.
    """

    accepts_workspace = True

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner
        self.calls = 0
        self.rows = 0

    def __call__(self, breakpoints, slopes, target, a=None, c=None, **kwargs):
        tracer = self._tracer
        if not tracer.enabled:
            return self._inner(breakpoints, slopes, target, a=a, c=c, **kwargs)
        self.calls += 1
        self.rows += breakpoints.shape[0]
        span = tracer.open("equilibration.kernel")
        try:
            return self._inner(breakpoints, slopes, target, a=a, c=c, **kwargs)
        finally:
            tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Patch:
    """Replace attributes with traced wrappers; :meth:`restore` undoes
    every replacement in reverse order."""

    _MISSING = object()

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        old = vars(owner).get(attr, self._MISSING)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        self.set(owner, attr, self.tracer.wrap(name, getattr(owner, attr), tag))

    def wrap_pair(self, cls, start_attr: str, finish_attr: str,
                  name: str, tag=None) -> None:
        """One span from a ``start(op, ...)`` call to the matching
        ``finish`` return (a request/reply transport split in two calls),
        named ``name.op``.  The span sits on the thread's stack while
        ``finish`` runs, so work done inside ``finish`` nests under it.
        ``tag(span, args, result)`` sees the ``start`` arguments and the
        ``finish`` result."""
        tracer = self.tracer
        start_fn = getattr(cls, start_attr)
        finish_fn = getattr(cls, finish_attr)
        started: dict[int, tuple] = {}

        @functools.wraps(start_fn)
        def start(obj, *args, **kwargs):
            if tracer.enabled:
                started[id(obj)] = (clock(), args)
            return start_fn(obj, *args, **kwargs)

        @functools.wraps(finish_fn)
        def finish(obj, *args, **kwargs):
            begun = started.pop(id(obj), None)
            if not tracer.enabled or begun is None:
                return finish_fn(obj, *args, **kwargs)
            t0, start_args = begun
            span = tracer.open(f"{name}.{start_args[0]}", start=t0)
            try:
                result = finish_fn(obj, *args, **kwargs)
            finally:
                tracer.close(span)
            if tag is not None:
                tag(span, start_args, result)
            return result

        self.set(cls, start_attr, start)
        self.set(cls, finish_attr, finish)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """``id(span) -> self time``: duration minus the children's."""
    child = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child[key] = child.get(key, 0.0) + span.duration
    return {id(s): s.duration - child.get(id(s), 0.0) for s in spans}


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def root_layers(spans: list[Span]) -> dict[int, tuple[Span, dict, float]]:
    """``id(root) -> (root, {layer: self seconds over its subtree},
    catch-all seconds)``.  Under a closed loop's ``request`` root the
    outermost program span's self time is a catch-all: whatever no
    inner span names lands there."""
    selfs = self_times(spans)
    out: dict[int, tuple[Span, dict, float]] = {}
    for span in spans:
        root = _root(span)
        _, layers, rest = out.get(id(root), (root, {}, 0.0))
        layers[span.layer] = layers.get(span.layer, 0.0) + selfs[id(span)]
        if span.parent is root and root.name == "request":
            rest += selfs[id(span)]
        out[id(root)] = (root, layers, rest)
    return out


def _union(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def per_request(spans: list[Span], requests: list[tuple]) -> list[dict]:
    """Self seconds by layer for each request.

    ``requests`` holds ``(rid, due, sent, done)``.  A root span belongs to
    a request when it carries the request's id (``rid`` or ``rids``); a
    root that names no request (a drain that returned nothing) belongs
    to every request whose ``[sent, done]`` holds it whole.  The time
    from ``sent`` to ``done`` that no attributed root covers is the
    ``edge`` layer's: the client round trip minus the router's spans.
    A closed loop passes ``sent == done == due`` and its own ``request``
    root spans, so nothing is charged to ``edge``.

    Each row is ``{"wall": done - due or the request span, "layers":
    {layer: seconds}, "residual": seconds}``.  ``residual`` is the time
    no span around a named inner function accounts for: the ``edge``
    remainder of an open loop, the outermost program span's self time
    in a closed loop.
    """
    roots = root_layers(spans)
    by_rid: dict = {}
    anonymous = []
    for entry in roots.values():
        root = entry[0]
        ids = list(root.rids) or ([root.rid] if root.rid is not None else [])
        if not ids:
            anonymous.append(entry)
        for rid in ids:
            by_rid.setdefault(rid, []).append(entry)
    anonymous.sort(key=lambda item: item[0].start)
    starts = [entry[0].start for entry in anonymous]
    out = []
    for rid, due, sent, done in requests:
        mine = list(by_rid.get(rid, ()))
        if done > sent:
            lo = bisect.bisect_left(starts, sent)
            for entry in anonymous[lo:]:
                if entry[0].start >= done:
                    break
                if entry[0].end <= done:
                    mine.append(entry)
        layers: dict = {}
        residual = 0.0
        for _, sub, rest in mine:
            residual += rest
            for layer, seconds in sub.items():
                layers[layer] = layers.get(layer, 0.0) + seconds
        if done > sent:
            covered = _union(
                (max(r.start, sent), min(r.end, done)) for r, _, _ in mine
                if r.end > sent and r.start < done
            )
            edge = (done - sent) - covered
            layers["edge"] = layers.get("edge", 0.0) + edge
            residual += edge
            wall = done - due
        else:
            wall = sum(r.duration for r, _, _ in mine if r.name == "request")
        out.append({"rid": rid, "wall": wall, "layers": layers,
                    "residual": residual})
    return out
