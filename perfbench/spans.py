"""Host-clock span recorder for the traced benchmark run.

The traced run wraps the public functions of each layer under
``src/repro`` from here, the benchmark's own code: nothing in the program
changes.  A wrapper is installed at the attribute each caller looks the
function up by -- the module global of a caller that did ``from x import
f`` (``repro.training.worker.corrupt_batch``), the module attribute of a
caller that did ``import x`` (``repro.comm.collectives.allreduce_bytes``),
or the class attribute of a method (``ComplEx.score``) -- and removed
again when the run ends.

Every span carries a name, start, end, parent and the phase it ran in.
A layer's self time is its spans' durations minus the parts their child
spans cover; :func:`layer_self_times` reduces a trace to that, and
:func:`untraced_by_phase` reports the share of each phase no layer span
covers.  :meth:`Tracer.chrome_trace` exports the spans in the Chrome
trace-event format (``chrome://tracing``, Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``[start, end)`` on the host clock, in seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str | None


class Tracer:
    """Keeps spans and counters in memory until the run writes them out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: (phase name, start, end) for every closed phase.
        self.phases: list[tuple[str, float, float]] = []
        self._stack: list[Span] = []
        self._phase: str | None = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent,
                    self._phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def innermost(self) -> str | None:
        """Name of the open span a new span would nest under."""
        return self._stack[-1].name if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextmanager
    def phase(self, name: str):
        """Tag every span opened inside with phase id ``name``."""
        if self._phase is not None:
            raise RuntimeError(f"phase {name!r} opened inside {self._phase!r}")
        self._phase = name
        start = self.clock()
        try:
            yield
        finally:
            self.phases.append((name, start, self.clock()))
            self._phase = None

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON: layer spans on thread 1, phases on 0."""
        origin = min([s.start for s in self.spans]
                     + [p[1] for p in self.phases], default=0.0)
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 0,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6, "args": {"phase": name}}
                  for name, start, end in self.phases]
        events += [{"name": s.name, "ph": "X", "pid": 1, "tid": 1,
                    "ts": (s.start - origin) * 1e6,
                    "dur": (s.end - s.start) * 1e6,
                    "args": {"id": s.id, "parent": s.parent,
                             "phase": s.phase}}
                   for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Sum of self time (duration minus child durations) per span name."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - child[s.id]
    return dict(out)


def untraced_by_phase(tracer: Tracer) -> dict[str, float]:
    """Per phase: wall time minus the time its top-level spans cover."""
    covered = defaultdict(float)
    for s in tracer.spans:
        if s.parent is None and s.phase is not None:
            covered[s.phase] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for name, start, end in tracer.phases:
        out[name] += end - start
    return {name: wall - covered[name] for name, wall in out.items()}


# -- wrappers -----------------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """Where to wrap, what to call the span, and what to count.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  With
    ``parent`` set, the call is only spanned when the innermost open span
    has that name; otherwise it runs unwrapped and its time stays with
    the caller (``ComplEx.score`` is the training forward pass under
    ``training.step``, but part of evaluation elsewhere).  ``on_return``
    is called as ``on_return(tracer, args, kwargs, result)`` after the
    call, to count the work it did.
    """

    target: str
    name: str
    parent: str | None = None
    on_return: object = None


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(tracer: Tracer, probe: Probe, fn):
    name, parent, on_return = probe.name, probe.parent, probe.on_return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if parent is not None and tracer.innermost() != parent:
            return fn(*args, **kwargs)
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, probes):
    """Install ``probes``; return a function that removes them again,
    restoring every attribute exactly as it was."""
    undo: list = []

    def remove() -> None:
        while undo:
            undo.pop()()

    try:
        for probe in probes:
            owner, attr = _resolve(probe.target)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(tracer, probe, raw.__func__))
            else:
                patched = _wrap(tracer, probe, raw)
            if attr in vars(owner):
                undo.append(functools.partial(setattr, owner, attr, raw))
            else:  # inherited: shadow it here, delete the shadow after
                undo.append(functools.partial(delattr, owner, attr))
            setattr(owner, attr, patched)
    except BaseException:
        remove()
        raise
    return remove
