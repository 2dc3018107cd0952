"""In-memory span tracer for timing fdlink's layers from outside the package.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, parent span and frame id. Spans stay in memory until
the caller asks for them; nothing is written while a campaign runs. The
wrappers are removed again when the ``installed`` block exits, and
``restored`` reports whether every attribute holds its original object.
"""

import contextlib
import functools
import time

NAME, START, END, PARENT, FRAME = range(5)


class Tracer:
    """Collects spans and counters from wrapped callables (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index, frame id]
        self.counters = {}       # "<span name>.<counter>" -> float
        self.frames = 0
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def wrap(self, owner, attr, name, on_result=None, frame_root=False):
        """Replace owner.attr with a span-recording wrapper.

        ``on_result(tracer, args, kwargs, result)`` runs after the call and
        may add counters. A ``frame_root`` call starts a new frame id, which
        every span opened inside it inherits.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if frame_root:
                self.frames += 1
                frame = self.frames
            else:
                frame = self.spans[parent][FRAME] if parent >= 0 else 0
            span = [name, 0.0, 0.0, parent, frame]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = self.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count(self, key, value=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def unwrap(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """True when every wrapped attribute holds its original object."""
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._patches)

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap each (owner, attr, name, on_result, frame_root) while inside."""
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.unwrap()


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(spans):
    """{span name: (calls, total self seconds)} in first-seen order."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        calls, total = out.get(s[NAME], (0, 0.0))
        out[s[NAME]] = (calls + 1, total + own)
    return out
