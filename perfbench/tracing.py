"""In-memory spans around calls into fermicov's public functions.

The tracer replaces each listed function, in every fermicov module that holds
a reference to it, by a wrapper that records one span per call: name, span
id, parent span id (the enclosing traced call on the same thread), thread,
pass index, and start/end readings of the wall clock and of the calling
thread's CPU clock.  Spans stay in memory until `dump` writes them out.

Per-layer times are self times: a span's duration minus the duration of the
traced calls nested inside it, so the layers of one pass add up without
double counting.  They are measured on the thread CPU clock, which excludes
time a pool thread spends waiting for the interpreter lock; summed over
threads they give the serial cost of the stages.

Counters are taken at the same boundaries from the arguments and results of
the wrapped calls.  A function that no longer exists is skipped, and the
metrics it would feed read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

from fermicov.spectral import singular_rate_band

MODULES = (
    "fermicov",
    "fermicov.torus",
    "fermicov.spectral",
    "fermicov.covariance",
    "fermicov.mspace",
    "fermicov.car_fock",
    "fermicov.modular",
    "fermicov.verify",
    "fermicov.cli",
)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _singular_hits(values, torus) -> int:
    """Eigenvalues inside the band that fermicov itself treats as singular."""
    return int(np.sum(np.abs(np.asarray(values) - torus.rate) <= singular_rate_band(torus)))


def _label_jordan_wigner(args, kwargs):
    return f"car_fock.jordan_wigner.D{int(_first(args, kwargs, 'modes'))}"


def _label_quasifree(args, kwargs):
    h = _first(args, kwargs, "h")
    return f"car_fock.quasifree_density.D{np.shape(getattr(h, 'matrix', h))[0]}"


def _label_representation(args, kwargs):
    inst = _first(args, kwargs, "inst")
    modes = inst.H.dim * int(np.linalg.matrix_rank(inst.M))
    return f"modular.determinant_representation.D{modes}"


def _count_pinned(count, args, kwargs, inst):
    hits = _singular_hits(np.linalg.eigvalsh(inst.H.matrix), inst.torus)
    count("verify.pinned", int(hits > 0))


def _count_det(count, args, kwargs, result):
    inst = _first(args, kwargs, "inst")
    spectral = args[2] if len(args) > 2 else kwargs.get("spectral")
    values = spectral.values if spectral is not None else np.linalg.eigvalsh(inst.H.matrix)
    count("covariance.det_entries", inst.pair_count**2)
    count("spectral.singular_band_hits", _singular_hits(values, inst.torus))


def _count_jordan_wigner(count, args, kwargs, result):
    count("car_fock.jordan_wigner.calls", 1)


# (module, function, span label or None, counter or None, count RuntimeWarnings as)
LAYERS = (
    ("verify", "random_instance", None, _count_pinned, None),
    ("spectral", "eig_hermitian", None, None, None),
    ("covariance", "covariance_det", None, _count_det, None),
    ("covariance", "instance_bound", None, None, None),
    ("cli", "write_csv", None, None, None),
    ("mspace", "quotient_space", None, None, None),
    ("car_fock", "jordan_wigner", _label_jordan_wigner, _count_jordan_wigner, None),
    ("car_fock", "quasifree_density", _label_quasifree, None, None),
    ("car_fock", "expect_monomial", None, None, None),
    ("car_fock", "wick_determinant", None, None, None),
    ("modular", "determinant_representation", _label_representation, None,
     "modular.energy_clamps"),
    ("modular", "correlation_vector", None, None, None),
)


class Tracer:
    """Records spans and counters while installed and `active`."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, thread, pass, wall0, wall1, cpu0, cpu1)
        self.counts = Counter()
        self.pass_index = 0
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int):
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, name, fn, label, counter, warning_key):
        tracer = self

        def timed(args, kwargs):
            span_name = label(args, kwargs) if label else name
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1, w1 = time.thread_time(), time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, span_name, threading.get_ident(), tracer.pass_index,
                     w0, w1, c0, c1)
                )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if warning_key:  # catch_warnings is process-wide: single-threaded callers only
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    result = timed(args, kwargs)
                tracer.count(warning_key, sum(issubclass(w.category, RuntimeWarning)
                                              for w in caught))
            else:
                result = timed(args, kwargs)
            if counter:
                counter(tracer.count, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for modname, fname, label, counter, warning_key in LAYERS:
            home = importlib.import_module(f"fermicov.{modname}")
            original = getattr(home, fname, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{modname}.{fname}", original, label, counter, warning_key)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._patches.append((module, fname, original))
                    setattr(module, fname, wrapper)
        operator_cls = getattr(importlib.import_module("fermicov.car_fock"), "FockOperator", None)
        post_init = getattr(operator_cls, "__post_init__", None)
        if post_init is not None:
            tracer = self

            def counted_post_init(op):
                post_init(op)
                if tracer.active:
                    modes = op.fock.modes
                    tracer.count(f"car_fock.dense_bytes.D{modes}", 16 * 4**modes)

            self._patches.append((operator_cls, "__post_init__", post_init))
            operator_cls.__post_init__ = counted_post_init

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_cpu_times(self) -> dict:
        """Summed thread-CPU self time per span name."""
        nested = defaultdict(float)
        for _, parent, _, _, _, _, _, c0, c1 in self.spans:
            if parent >= 0:
                nested[parent] += c1 - c0
        totals = defaultdict(float)
        for sid, _, name, _, _, _, _, c0, c1 in self.spans:
            totals[name] += (c1 - c0) - nested[sid]
        return dict(totals)

    def dump(self, path):
        """Write the spans as JSON lines, after the run's measurements end."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
