"""In-memory span recorder installed from outside the program.

The traced repeat wraps the layers' public callables (class methods via
``setattr`` on the class, module functions in every ``repro.*``
namespace that imported them) and records one span per call.  Nothing
under ``src/`` knows about it.  A span's parent is the span open on the
same thread when it started.  Wrappers are never removed — a traced
repeat is a throw-away process.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Records ``(name, start, end, parent, event)`` spans and plain counts.

    ``event`` is the index of the unit of work the span ran in (one
    sim-clock event, one loop iteration); :meth:`tag_frame` maps an event
    to the frame it served, so spans of one frame share an identifier
    even when the frame's client and server halves run in different
    events.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.names: List[str] = []      # every span name wrapped so far
        self.counts: Dict[str, float] = defaultdict(float)
        self.event = 0
        self.event_frame: Dict[int, int] = {}
        self._local = threading.local()

    # ------------------------------------------------------------ recording
    def _begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        # name, start, end, parent span, event, seconds covered by children
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.event, 0.0]
        stack.append(span)
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[2] = perf_counter()
        self._local.stack.pop()
        if span[3] is not None:
            span[3][5] += span[2] - span[1]

    def _register(self, name: str) -> None:
        if name not in self.names:
            self.names.append(name)

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one span per call.

        ``before(*args, **kwargs)`` runs ahead of the call and
        ``after(result)`` on a normal return, so counts (bytes written,
        successes) are taken at the boundary where the work happens.
        """
        begin, end = self._begin, self._end
        self._register(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), **hooks))

    def wrap_context_method(self, cls: type, attr: str, name: str) -> None:
        """Span a ``@contextmanager`` method from enter to exit.

        Wrapping the call alone would time only the creation of the
        generator; the lock wait and the body run inside ``with``.
        """
        original = getattr(cls, attr)
        begin, end = self._begin, self._end
        self._register(name)

        @contextmanager
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                with original(*args, **kwargs) as value:
                    yield value
            finally:
                end(span)

        setattr(cls, attr, traced)

    def wrap_function(self, module, attr: str, name: str, **hooks) -> None:
        """Replace ``module.attr`` wherever a ``repro`` module holds it.

        ``from x import f`` copies the reference, so patching only the
        defining module would miss every caller that imported by name.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def hook_method(self, cls: type, attr: str, before: Callable) -> None:
        """Run ``before(*args, **kwargs)`` ahead of a method, no span."""
        original = getattr(cls, attr)

        def hooked(*args, **kwargs):
            before(*args, **kwargs)
            return original(*args, **kwargs)

        setattr(cls, attr, hooked)

    def next_event(self) -> None:
        self.event += 1

    def tag_frame(self, frame: int) -> None:
        self.event_frame[self.event] = frame

    # ------------------------------------------------------------- analysis
    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per span name: calls, self seconds and every duration.

        A span's self time is its duration minus the part its children
        cover; children are strictly nested and sequential on a thread,
        so that part is the sum of their durations.  Self times of all
        names add up to the duration of the root spans.
        """
        rows: Dict[str, Dict[str, object]] = {}
        for name, start, end, _parent, _event, child_s in self.spans:
            row = rows.setdefault(
                name, {"calls": 0, "self_s": 0.0, "durations_s": []})
            row["calls"] += 1
            row["self_s"] += end - start - child_s
            row["durations_s"].append(end - start)
        return rows

    def root_seconds(self) -> float:
        return sum(span[2] - span[1] for span in self.spans
                   if span[3] is None)

    def write_jsonl(self, path: str) -> int:
        """One span per line: name, start, end, parent index, frame."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[0], "start": span[1], "end": span[2],
                    "parent": -1 if span[3] is None else index[id(span[3])],
                    "frame": self.event_frame.get(span[4], -1),
                }))
                fh.write("\n")
        return len(self.spans)
