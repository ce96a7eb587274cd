"""In-memory spans around calls into the library's modules.

The benchmark wraps chosen public functions and methods from here (the
library itself is not edited): each call becomes a span with a name, a
parent span, a phase ('setup' or 'round'), a start and an end.  Per-name
totals are kept exactly; raw spans are kept up to a cap per name, so a
hot method called millions of times does not fill memory, and are
written out as JSON lines when the run ends.
"""

import json
import time
from collections import defaultdict

# raw spans kept per name
KEEP_PER_NAME = 2000


class Tracer:
    def __init__(self):
        self.phase = "setup"
        # (phase, name) -> [calls, total seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, layer) -> seconds inside outermost spans of that layer
        self.layer_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self._kept = defaultdict(int)
        self._stack = []          # open spans: [span id, child seconds]
        self._layer_depth = defaultdict(int)
        self._next_id = 0
        self._patched = []

    def wrap(self, name, fn, on_return=None):
        """A callable that runs fn inside a span called name; the layer
        is the part of the name before the first dot.  on_return, if
        given, is called as on_return(args, result, self seconds)."""
        layer = name.split(".", 1)[0]
        stack = self._stack
        depth = self._layer_depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                self_s = self._close(name, layer, span_id, parent, start,
                                     end, frame[1])
            if on_return is not None:
                on_return(args, out, self_s)
            return out

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, layer, span_id, parent, start, end, child_s):
        took = end - start
        if self._stack:
            self._stack[-1][1] += took
        key = (self.phase, name)
        row = self.totals[key]
        row[0] += 1
        row[1] += took
        row[2] += took - child_s
        if self._layer_depth[layer] == 0:
            self.layer_s[(self.phase, layer)] += took
        if self._kept[name] < KEEP_PER_NAME:
            self._kept[name] += 1
            self.spans.append((span_id, parent, name, self.phase, start,
                               end))
        else:
            self.dropped += 1
        return took - child_s

    def patch(self, owner, attr, name, on_return=None):
        """Replace owner.attr (a module function or a class method) by
        its traced version until unpatch()."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, on_return))
        self._patched.append((owner, attr, original))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, phase, *names):
        return sum(self.totals[(phase, n)][0] for n in names)

    def seconds(self, phase, *names):
        return sum(self.totals[(phase, n)][1] for n in names)

    def self_seconds(self, phase, *names):
        return sum(self.totals[(phase, n)][2] for n in names)

    def write(self, path):
        """Spans as JSON lines, then one line of per-name totals."""
        with open(path, "w") as fh:
            for span_id, parent, name, phase, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "phase": phase,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({
                "totals": {"%s/%s" % key: row
                           for key, row in sorted(self.totals.items())},
                "dropped_spans": self.dropped,
            }) + "\n")
