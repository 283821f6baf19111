"""Span recording around the package's public functions, for traced runs.

``Tracer.install`` replaces each listed function, in every module namespace
that binds it (``gibbs.perron`` and ``spectrum.perron`` alike), by a wrapper
that records a span: name, start, end, parent span and the op it ran in.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans; children of one span never
overlap, since the package is single-threaded.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

# Functions timed per layer, by defining module.
LAYER_FUNCTIONS = {
    "shiftcore": ("admissible_words", "automorphisms", "simple_cycles", "is_primitive"),
    "gibbs": ("perron", "normalize", "GibbsChain.from_stochastic", "chains_cohomologous"),
    "spectrum": ("spectrum_curve", "spectrum_point", "char_poly", "char_poly_family_equal"),
    "rigidity": (
        "snr_certificate",
        "spectral_twin_chain",
        "has_distinct_branch_values",
        "induce_conjugacy",
        "reconstruct_word",
    ),
    "cli": ("main", "load_problem"),
}
NAMESPACES = ("", ".shiftcore", ".gibbs", ".spectrum", ".rigidity", ".cli")

PERRON_SIZES = (4, 6, 8, 12, 16)
CHAR_POLY_SIZES = (4, 8, 16)


def _size_of_matrix(args, kwargs, result):
    return len(args[0]) if args else None


def _word_count(args, kwargs, result):
    return len(result)


# Extra data recorded on a span, by span name.
EXTRAS = {
    "gibbs.perron": _size_of_matrix,
    "spectrum.char_poly": _size_of_matrix,
    "shiftcore.admissible_words": _word_count,
}


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index, extra]
        self.op = -1  # index of the op running now, -1 between ops
        self.ops = 0  # ops begun so far
        self._stack = []
        self._restore = []

    def begin_op(self) -> None:
        self.op = self.ops
        self.ops += 1

    def end_op(self) -> None:
        self.op = -1

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        import importlib

        modules = [importlib.import_module(package + suffix) for suffix in NAMESPACES]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"{package}.{layer}")
            for name in names:
                if "." in name:  # a classmethod, wrapped on its class
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    wrapped = self._wrap(f"{layer}.{attr}", original.__func__)
                    setattr(cls, attr, classmethod(wrapped))
                    self._restore.append((cls, attr, original))
                    continue
                original = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        setattr(module, name, wrapped)
                        self._restore.append((module, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op, extra) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if extra is not None:
                    record["extra"] = extra
                handle.write(json.dumps(record) + "\n")

    def metrics(self, scale=None) -> dict:
        """Per-layer metrics, per op traced.

        ``calls`` and ``words`` are counts per op, ``self_ms`` is self time
        per op, and the ``nK`` entries are medians of whole-call durations at
        matrix size K.  ``scale(start times)`` gives each span's time factor
        (1 when omitted).  Spans outside ops (drawing inputs) are left out;
        functions that were never called report 0.
        """
        spans = [span for span in self.spans if span[4] >= 0]
        factors = scale([span[1] for span in spans]) if scale is not None and spans else [1.0] * len(spans)
        position = {id(span): k for k, span in enumerate(spans)}
        durations = [(span[2] - span[1]) * f for span, f in zip(spans, factors)]
        child = [0.0] * len(spans)
        for span, duration in zip(spans, durations):
            if span[3] >= 0:
                child[position[id(self.spans[span[3]])]] += duration
        calls, self_s, words, sizes = {}, {}, {}, {}
        for (name, _, _, _, _, extra), duration, inner in zip(spans, durations, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration - inner
            if name == "shiftcore.admissible_words":
                words[name] = words.get(name, 0) + extra
            elif name in ("gibbs.perron", "spectrum.char_poly"):
                sizes.setdefault((name, extra), []).append(duration)
        per_op = 1.0 / max(self.ops, 1)
        out = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                key = f"{layer}.{name.split('.')[-1]}"
                out[f"{key}.calls"] = (calls.get(key, 0) * per_op, "1/op")
                out[f"{key}.self_ms"] = (self_s.get(key, 0.0) * 1e3 * per_op, "ms/op")
        out["shiftcore.admissible_words.words"] = (words.get("shiftcore.admissible_words", 0) * per_op, "1/op")
        for n in PERRON_SIZES:
            found = sizes.get(("gibbs.perron", n))
            out[f"gibbs.perron.n{n}.p50_us"] = (statistics.median(found) * 1e6 if found else 0.0, "us")
        for n in CHAR_POLY_SIZES:
            found = sizes.get(("spectrum.char_poly", n))
            out[f"spectrum.char_poly.n{n}.p50_ms"] = (statistics.median(found) * 1e3 if found else 0.0, "ms")
        return out
