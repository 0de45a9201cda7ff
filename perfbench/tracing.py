"""Spans and counts recorded around calls into growfrag's public functions.

A ``Tracer`` replaces chosen functions and methods with wrappers that
record one span per call (name, start, end, parent, thread) and update
per-thread counters.  Nothing in growfrag changes: the wrappers are
installed from here and removed again by ``uninstall``.  Spans are kept
in memory, one event log per thread, and written out by ``save``.

Self time is computed as a share of wall time.  At every instant each
thread contributes its innermost open span, unless that span is waiting
on spans it started on other threads (a thread pool's caller); the
instant is split evenly among the contributing spans.  With one thread
this is the usual span duration minus the part its children cover, and
with several the self times of all spans still add up to the time that
any span covers.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np


class _ThreadLog:
    """Events and counters of one thread, appended only by that thread."""

    def __init__(self, index):
        self.index = index
        self.span_name = array("i")
        self.parent_thread = array("i")
        self.parent_span = array("q")
        self.ev_time = array("d")
        self.ev_span = array("q")    # span index; -1 - index for an end
        self.stack = []
        self.counts = {}


def _copy(buf, dtype):
    return np.array(buf, dtype=dtype) if len(buf) else np.zeros(0, dtype)


class Tracer:
    """Installs wrappers, records spans and counts, and analyses them."""

    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._patches = []
        self._main = self._log()
        self._main_top = None        # (thread, span) open on the main thread

    # -- recording ----------------------------------------------------

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            with self._logs_lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def count(self, key):
        counts = self._log().counts
        counts[key] = counts.get(key, 0) + 1

    def current_span_name(self):
        """Name of the innermost span open on the calling thread, or ''."""
        log = self._log()
        if not log.stack:
            return ""
        return self._names[log.span_name[log.stack[-1]]]

    def span(self, fn, name, before=None, after=None):
        """Wrap fn so that every call records a span called name.

        before(counts, args, kwargs) runs ahead of the call and
        after(counts, args, kwargs, result) after it returns.
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            idx = len(log.span_name)
            log.span_name.append(nid)
            if stack:
                log.parent_thread.append(log.index)
                log.parent_span.append(stack[-1])
            elif log is not tracer._main and tracer._main_top is not None:
                top = tracer._main_top
                log.parent_thread.append(top[0])
                log.parent_span.append(top[1])
            else:
                log.parent_thread.append(-1)
                log.parent_span.append(-1)
            if before is not None:
                before(log.counts, args, kwargs)
            stack.append(idx)
            if log is tracer._main:
                tracer._main_top = (log.index, idx)
            log.ev_span.append(idx)
            log.ev_time.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ev_time.append(clock())
                log.ev_span.append(-1 - idx)
                stack.pop()
                if log is tracer._main:
                    tracer._main_top = (log.index, stack[-1]) if stack \
                        else None
            if after is not None:
                after(log.counts, args, kwargs, result)
            return result

        return traced

    def counter(self, fn, key):
        """Wrap fn so that every call adds one to counter key (no span)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------

    def patch(self, owner, attr, wrapper, also_in=()):
        """Replace owner.attr by wrapper(original).

        Module-level functions are also replaced in every module of
        also_in that bound the same object by name at import time.
        Returns False, and patches nothing, when owner has no attr.
        """
        if attr not in vars(owner):
            return False
        original = vars(owner)[attr]
        replacement = wrapper(original)
        targets = [owner] + [m for m in also_in
                             if m is not owner
                             and vars(m).get(attr) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, replacement)
        return True

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------

    def counts(self):
        total = {}
        for log in self._logs:
            for key, n in log.counts.items():
                total[key] = total.get(key, 0) + n
        return total

    def _offsets(self):
        return np.cumsum([0] + [len(log.span_name) for log in self._logs])

    def spans(self):
        """All spans as arrays: name, thread, parent (global), start, end."""
        offsets = self._offsets()
        names, threads, parents, starts, ends = [], [], [], [], []
        for log in self._logs:
            n = len(log.span_name)
            names.append(_copy(log.span_name, np.int32))
            threads.append(np.full(n, log.index, dtype=np.int32))
            p_thread = _copy(log.parent_thread, np.int64)
            p_span = _copy(log.parent_span, np.int64)
            parents.append(np.where(p_span >= 0,
                                    offsets[np.maximum(p_thread, 0)] + p_span,
                                    -1))
            ev_span = _copy(log.ev_span, np.int64)
            ev_time = _copy(log.ev_time, np.float64)
            start = np.empty(n)
            end = np.empty(n)
            opened = ev_span >= 0
            start[ev_span[opened]] = ev_time[opened]
            end[-1 - ev_span[~opened]] = ev_time[~opened]
            starts.append(start)
            ends.append(end)
        return {"names": list(self._names),
                "name": np.concatenate(names),
                "thread": np.concatenate(threads),
                "parent": np.concatenate(parents).astype(np.int64),
                "start": np.concatenate(starts),
                "end": np.concatenate(ends)}

    def self_times(self, arrays):
        """Wall-share self time of every span (see the module docstring)."""
        offsets = self._offsets()
        total = int(offsets[-1])
        if total == 0:
            return np.zeros(0)
        parent = arrays["parent"]
        thread = arrays["thread"]
        times, spans, seqs = [], [], []
        for log, off in zip(self._logs, offsets):
            ev = _copy(log.ev_span, np.int64)
            times.append(_copy(log.ev_time, np.float64))
            spans.append(np.where(ev >= 0, ev + off, ev - off))
            seqs.append(np.arange(len(ev)))
        times = np.concatenate(times)
        spans = np.concatenate(spans)
        order = np.lexsort((np.concatenate(seqs), times))
        cross = ((parent >= 0)
                 & (thread[np.maximum(parent, 0)] != thread)).tolist()
        parent = parent.tolist()
        thread = thread.tolist()
        own = [0.0] * total
        waiting = [0] * total          # open children on other threads
        stacks = {}
        prev = float(times[order[0]])
        for t, s in zip(times[order].tolist(), spans[order].tolist()):
            dt = t - prev
            if dt > 0.0:
                leaves = [st[-1] for st in stacks.values()
                          if st and not waiting[st[-1]]]
                if leaves:
                    part = dt / len(leaves)
                    for leaf in leaves:
                        own[leaf] += part
            prev = t
            if s >= 0:
                stacks.setdefault(thread[s], []).append(s)
                if cross[s]:
                    waiting[parent[s]] += 1
            else:
                s = -1 - s
                stacks[thread[s]].pop()
                if cross[s]:
                    waiting[parent[s]] -= 1
        return np.array(own)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        arrays = self.spans()
        share = self.self_times(arrays)
        n_names = len(arrays["names"])
        dur = arrays["end"] - arrays["start"]
        calls = np.bincount(arrays["name"], minlength=n_names)
        incl = np.bincount(arrays["name"], weights=dur, minlength=n_names)
        own = np.bincount(arrays["name"], weights=share, minlength=n_names)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(arrays["names"])}

    def durations(self, name):
        """Inclusive duration of every span called name, in start order."""
        if name not in self._name_ids:
            return []
        arrays = self.spans()
        sel = arrays["name"] == self._name_ids[name]
        order = np.argsort(arrays["start"][sel])
        return (arrays["end"][sel] - arrays["start"][sel])[order].tolist()

    def save(self, path):
        """Write every span to a compressed .npz file."""
        arrays = self.spans()
        np.savez_compressed(path, names=np.array(arrays["names"]),
                            name=arrays["name"], thread=arrays["thread"],
                            parent=arrays["parent"], start=arrays["start"],
                            end=arrays["end"])
