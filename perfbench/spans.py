"""In-memory span recorder that traces a program from outside.

A :class:`Tracer` replaces functions and methods with wrappers that record
one span (name, start, end, parent) per call, and puts every original back
on :meth:`Tracer.restore`. Modules import functions by name, so a function
is replaced under every name that refers to it in the traced package, not
only where it is defined.

Spans live in flat arrays while the program runs; :func:`summarize` turns
them into per-name call counts, total time and self time afterwards.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self._ids = itertools.count()
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._local = threading.local()
        # innermost open span of the main thread: the parent of spans opened
        # by worker threads that have no span of their own open
        self._main_top = -1
        self._patches: list = []
        self.phase = ""
        self.counters = collections.Counter()

    # -- recording -------------------------------------------------------

    def _index(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self):
        stack = self._stack()
        is_main = threading.current_thread() is threading.main_thread()
        parent = stack[-1] if stack else (-1 if is_main else self._main_top)
        sid = next(self._ids)
        stack.append(sid)
        if is_main:
            self._main_top = sid
        return sid, parent, is_main

    def _pop(self, sid, parent, is_main, ix, t0):
        t1 = _clock()
        stack = self._stack()
        stack.pop()
        if is_main:
            self._main_top = stack[-1] if stack else -1
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(ix)
        self.start.append(t0)
        self.end.append(t1)

    @contextlib.contextmanager
    def span(self, name: str):
        ix = self._index(name)
        sid, parent, is_main = self._push()
        t0 = _clock()
        try:
            yield
        finally:
            self._pop(sid, parent, is_main, ix, t0)

    def count(self, key: str, amount=1):
        self.counters[(self.phase, key)] += amount

    def record_max(self, key: str, value):
        self.counters[(self.phase, key)] = max(self.counters[(self.phase, key)], value)

    def wrap(self, name: str, fn, observe=None):
        """Wrapper of fn recording a span; observe(tracer, args, kwargs,
        result) runs after each successful call."""
        ix = self._index(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # the work of a generator happens while it is consumed
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                sid, parent, is_main = tracer._push()
                t0 = _clock()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._pop(sid, parent, is_main, ix, t0)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, is_main = tracer._push()
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(sid, parent, is_main, ix, t0)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result
        return traced

    # -- patching --------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(prefix))]

    def patch_function(self, module, attr: str, name: str, observe=None):
        """Replace module.attr under every name bound to it in the package."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, observe=None):
        """Replace a plain method, classmethod or property on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, observe))
        elif isinstance(raw, property):
            new = property(self.wrap(name, raw.fget, observe))
        else:
            new = self.wrap(name, raw, observe)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def patch_item(self, mapping: dict, key, name: str):
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(name, original)

    def patch_value(self, owner, attr: str, value):
        """Bind owner.attr to value (no span), restored like the rest."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def clear(self):
        """Drop recorded spans and counters; patches stay installed."""
        for arr in (self.sid, self.parent, self.name, self.start, self.end):
            del arr[:]
        self.counters.clear()

    # -- output ----------------------------------------------------------

    def arrays(self):
        """Recorded spans as numpy arrays in the order the spans opened, with
        parents given as indices into those arrays (-1 for a root)."""
        sid = np.asarray(self.sid, dtype=np.int64)
        if sid.size == 0:
            none = np.zeros(0, dtype=np.int64)
            return {"name": none, "parent": none, "start": np.zeros(0), "end": np.zeros(0)}
        order = np.argsort(sid)
        index_of = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
        index_of[sid[order]] = np.arange(sid.size)
        parent = np.asarray(self.parent, dtype=np.int64)[order]
        return {
            "name": np.asarray(self.name, dtype=np.int64)[order],
            "parent": np.where(parent >= 0, index_of[np.maximum(parent, 0)], -1),
            "start": np.asarray(self.start, dtype=float)[order],
            "end": np.asarray(self.end, dtype=float)[order],
        }

    def save(self, path):
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), **spans)


def self_times(start, end, parent):
    """Duration of each span minus the part of its interval that the union
    of its child spans covers. Children of one parent may overlap when they
    ran on different threads."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.nonzero(parent >= 0)[0]
    if child.size == 0:
        return dur
    base = float(start.min())
    width = float(end.max()) - base + 1.0
    p = parent[child]
    s = start[child] - base
    e = end[child] - base
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    # shift each parent's children into their own band of the time axis so
    # the running maximum of end times never carries over between parents
    band = np.concatenate(([0], np.cumsum(p[1:] != p[:-1]))) * width
    s, e = s + band, e + band
    prev_end = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    covered = np.maximum(0.0, e - np.maximum(s, prev_end))
    return dur - np.bincount(p, weights=covered, minlength=dur.size)


def child_time(spans, child_ix: int):
    """Per span: summed duration of its direct children with name index child_ix."""
    name, parent = spans["name"], spans["parent"]
    sel = (name == child_ix) & (parent >= 0)
    dur = spans["end"] - spans["start"]
    return np.bincount(parent[sel], weights=dur[sel], minlength=name.size)


def ancestors_named(name, parent, target: int):
    """Boolean mask: span has an ancestor whose name index is target."""
    n = name.size
    inside = np.zeros(n, dtype=bool)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    direct = has_parent & (name[safe_parent] == target)
    inside |= direct
    # propagate down the tree; depth is small, so a few rounds settle it
    while True:
        new = inside | (has_parent & inside[safe_parent])
        if np.array_equal(new, inside):
            return inside
        inside = new


def roots(parent):
    """Index of the root span of each span."""
    idx = np.arange(parent.size)
    anc = np.where(parent >= 0, parent, idx)
    while True:
        nxt = anc[anc]
        if np.array_equal(nxt, anc):
            return anc
        anc = nxt


def summarize(tracer: Tracer):
    """Per root span name, {span name: (calls, total_s, self_s)}; also the
    span arrays, with "root" holding each span's root name index."""
    spans = tracer.arrays()
    name, parent = spans["name"], spans["parent"]
    own = self_times(spans["start"], spans["end"], parent)
    dur = spans["end"] - spans["start"]
    spans["root"] = name[roots(parent)]
    k = len(tracer.names)
    table = {}
    for r in np.unique(spans["root"]):
        sel = spans["root"] == r
        calls = np.bincount(name[sel], minlength=k)
        total = np.bincount(name[sel], weights=dur[sel], minlength=k)
        selft = np.bincount(name[sel], weights=own[sel], minlength=k)
        table[tracer.names[r]] = {
            tracer.names[i]: (int(calls[i]), float(total[i]), float(selft[i]))
            for i in np.nonzero(calls)[0]
        }
    return table, spans
