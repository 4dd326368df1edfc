"""Spans and counters recorded around shmod's layer boundaries.

The benchmark traces shmod from the outside: ``instrument`` replaces each
listed public callable by a wrapper that records a span, in every shmod
module that imported the name (``shmod.studies`` binds ``simulate_paired``
at import time, for example), and wraps ``numpy.fft`` to count transforms.
Everything is restored when the ``with`` block ends, so traced and untraced
solves can alternate in one process.

Spans stay in memory until ``write_spans`` is called at the end of a run.
Each thread keeps its own span stack, because ``run_study`` runs cells on
a thread pool.
"""
from __future__ import annotations

import csv
import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Span name -> (module, attribute) of a module-level function.
FUNCTIONS = {
    "operators.dealiased_powers": ("shmod.operators", "dealiased_powers"),
    "operators.dealiased_product": ("shmod.operators", "dealiased_product"),
    "bands.project": ("shmod.bands", "project"),
    "bands.project_complement": ("shmod.bands", "project_complement"),
    "bands.demodulate": ("shmod.bands", "demodulate"),
    "sh.simulate": ("shmod.sh", "simulate"),
    "reduced.simulate_paired": ("shmod.reduced", "simulate_paired"),
    "analysis.averaging_residual": ("shmod.analysis", "averaging_residual"),
    "analysis.estimate_landau_coefficient":
        ("shmod.analysis", "estimate_landau_coefficient"),
    "studies.append_record": ("shmod.studies", "append_record"),
}

#: Span name -> (module, class, method).
METHODS = {
    "sh.SHStepper.step_spec": ("shmod.sh", "SHStepper", "step_spec"),
    "reduced.ReducedStepper.step_spec":
        ("shmod.reduced", "ReducedStepper", "step_spec"),
    "noise.SpectralNoise.raw": ("shmod.noise", "SpectralNoise", "raw"),
}

#: Spans whose result holds the stored snapshots of a run.
SNAPSHOT_SOURCES = ("sh.simulate", "reduced.simulate_paired")

FFT_FUNCTIONS = ("rfft", "irfft", "fft", "ifft")


class _ThreadState:
    """What one thread recorded: its spans, its open-span stack, its counts."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.spans: list[tuple] = []  # (seq, parent seq or None, name, start, end)
        self.next_seq = 0
        self.fft_calls = 0
        self.fft_points = 0
        self.snapshots = 0
        self.snapshot_bytes = 0


class Tracer:
    """Collects spans and counters from every thread that calls a wrapper."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        # Thread idents are reused once a pool shuts down, so each thread
        # state gets its own index instead.
        self._ids = itertools.count()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(next(self._ids))
                self._threads.append(st)
            self._local.state = st
        return st

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span called ``name`` per call."""
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            seq = st.next_seq
            st.next_seq += 1
            parent = st.stack[-1] if st.stack else None
            st.stack.append(seq)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                st.stack.pop()
                st.spans.append((seq, parent, name, start, end))
            if on_result is not None:
                on_result(st, result)
            return result

        return traced

    def wrap_fft(self, fn):
        """``fn`` (a numpy.fft transform) counting calls and transform points."""
        state = self._state
        inverse_real = fn.__name__ == "irfft"

        @functools.wraps(fn)
        def counted(a, n=None, axis=-1, *args, **kwargs):
            st = state()
            arr = np.asarray(a)
            if n is None:
                n = 2 * (arr.shape[axis] - 1) if inverse_real else arr.shape[axis]
            st.fft_calls += 1
            st.fft_points += (arr.size // arr.shape[axis]) * n
            return fn(a, n, axis, *args, **kwargs)

        return counted

    def spans(self) -> list[tuple]:
        """All spans as (thread, seq, parent, name, start, end)."""
        return [(st.index,) + span for st in self._threads for span in st.spans]

    def totals(self) -> dict:
        keys = ("fft_calls", "fft_points", "snapshots", "snapshot_bytes")
        return {k: sum(getattr(st, k) for st in self._threads) for k in keys}


def self_times(spans) -> dict:
    """Per span name: (summed self time, call count).

    ``spans`` holds (thread, seq, parent, name, start, end) tuples; a parent
    is the seq of the enclosing span on the same thread.  Spans on one
    thread nest, so the children of a span cover disjoint parts of it and
    its self time is its duration minus theirs.
    """
    covered = defaultdict(float)
    for thread, _, parent, _, start, end in spans:
        if parent is not None:
            covered[thread, parent] += end - start
    out: dict = {}
    for thread, seq, _, name, start, end in spans:
        own = (end - start) - covered.get((thread, seq), 0.0)
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + own, calls + 1)
    return out


def _count_snapshots(st: _ThreadState, result) -> None:
    """Add the snapshots a trajectory (or a pair of them) holds."""
    trajs = ([result] if hasattr(result, "snapshots")
             else [v for v in vars(result).values() if hasattr(v, "snapshots")])
    for traj in trajs:
        st.snapshots += len(traj.snapshots)
        st.snapshot_bytes += sum(s.values.nbytes for s in traj.snapshots)


def _shmod_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "shmod" or name.startswith("shmod."))]


@contextmanager
def instrument(tracer: Tracer):
    """Route shmod's layer callables and numpy.fft through ``tracer``.

    Yields the span names whose target does not exist in this version of
    shmod; those are not traced.
    """
    undo = []  # (owner, attribute, original)
    missing = []
    try:
        modules = _shmod_modules()
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                missing.append(name)
                continue
            hook = _count_snapshots if name in SNAPSHOT_SOURCES else None
            wrapped = tracer.wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for name, (modname, clsname, attr) in METHODS.items():
            cls = getattr(importlib.import_module(modname), clsname, None)
            orig = None if cls is None else cls.__dict__.get(attr)
            if orig is None:
                missing.append(name)
                continue
            undo.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(name, orig))
        for attr in FFT_FUNCTIONS:
            orig = getattr(np.fft, attr)
            undo.append((np.fft, attr, orig))
            setattr(np.fft, attr, tracer.wrap_fft(orig))
        yield missing
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def write_spans(path, spans) -> None:
    """Write spans as CSV: thread, seq, parent, name, start_s, end_s."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["thread", "seq", "parent", "name", "start_s", "end_s"])
        for thread, seq, parent, name, start, end in spans:
            writer.writerow([thread, seq, "" if parent is None else parent,
                             name, repr(start), repr(end)])
