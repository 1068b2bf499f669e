"""Spans around calls into magpi's modules, recorded from outside.

`Tracer.wrap` replaces a module attribute with a timing wrapper, so every
caller that resolves the attribute at call time is traced; `restore` puts
the originals back.  Coarse functions become spans (name, start, end,
parent span, op id), one record per call.  Hot functions called thousands
of times per op become leaves: their calls, total time and the time of the
leaves nested in them are summed per (enclosing span, caller, name), which
is enough to derive every self time without one record per call.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, op id]
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (span, caller, name) -> [calls, s]
        self.counts: dict = defaultdict(float)
        self.op = -1
        self._stack: list = []  # open frames: (span index or None, name)
        self._saved: list = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, leaf: bool = False,
             on_result=None) -> None:
        """Trace `module.attr` as `name`; `on_result(counts, args, result,
        seconds)` records counts from each call's arguments and result."""
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        stack, spans, leaves, counts = self._stack, self.spans, self.leaves, self.counts

        def traced(*args, **kwargs):
            if leaf:
                frame = (None, name)
            else:
                frame = (len(spans), name)
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                spans.append([name, 0.0, 0.0, parent, self.op])
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if leaf:
                span = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                caller = stack[-1][1] if stack else None
                agg = leaves[(span, caller, name)]
                agg[0] += 1
                agg[1] += t1 - t0
            else:
                spans[frame[0]][1] = t0
                spans[frame[0]][2] = t1
            if on_result is not None:
                on_result(counts, args, result, t1 - t0)
            return result

        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- derived times -----------------------------------------------------

    def totals(self) -> tuple:
        """(inclusive seconds, self seconds, calls) per name.  A span's self
        time is its duration minus its child spans and the leaves called
        directly from it; a leaf's self time is its total minus the leaves
        it called.  Inclusive time counts only calls not nested in a call of
        the same name, so recursion is not counted twice."""
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child: dict = defaultdict(float)     # span index -> time in children
        leaf_s: dict = defaultdict(float)    # (span, leaf name) -> seconds
        leaf_child: dict = defaultdict(float)  # (span, leaf name) -> nested leaf s
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        for (span, caller, name), (n, s) in self.leaves.items():
            calls[name] += n
            incl[name] += s
            leaf_s[(span, name)] += s
            if span is not None and caller == self.spans[span][0]:
                child[span] += s
            elif caller is not None:
                leaf_child[(span, caller)] += s
        for (span, name), s in leaf_s.items():
            self_s[name] += s - leaf_child[(span, name)]
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            if not self._nested_in_same(i):
                incl[name] += t1 - t0
        return incl, self_s, calls

    def _nested_in_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def op_time(self, name: str, op_ids) -> float:
        """Summed duration of the spans called `name` in the given ops."""
        op_ids = set(op_ids)
        return sum(t1 - t0 for n, t0, t1, _, op in self.spans
                   if n == name and op in op_ids)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
            for (span, caller, name), (n, s) in sorted(
                    self.leaves.items(), key=lambda kv: (kv[0][0] if kv[0][0] is not None else -1,
                                                         str(kv[0][1]), kv[0][2])):
                fh.write(json.dumps({"leaf": name, "span": span, "caller": caller,
                                     "calls": n, "seconds": s}) + "\n")
