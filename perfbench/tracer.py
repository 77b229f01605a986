"""Span recorder for the traced benchmark run.

Wraps the public functions and methods of every ``telhaz`` layer module in a
recorder, and rebinds every by-name import of them (``telhaz.cli.integrate_path``,
``telhaz.telegraph.bessel_i0e``, ...) so that spans nest across layers. Spans
stay in memory as flat arrays and are written out when the process ends.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.

Run as a script, it is the bootstrap of one traced CLI process::

    python perfbench/tracer.py SPANS_PREFIX telhaz-argv...

which imports ``telhaz.cli`` (recorded as a ``cli.import`` span), installs the
wrappers, runs ``telhaz.cli.main(argv)`` and writes ``SPANS_PREFIX.bin`` (raw
spans) and ``SPANS_PREFIX.json`` (their summary). CLI processes do not track
peak memory; the peak-memory metrics belong to the in-process workloads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from collections import Counter

LAYERS = ("special", "telegraph", "hazard", "perturbed", "estimation", "datasets", "cli")
# presets holds parameter sets only; its bindings are rebound but not wrapped.
REBIND_ONLY = ("telhaz", "telhaz.presets")
# With track_peaks, tracemalloc runs during the outermost span of these names
# or layers only, and records the peak of what the span allocated.
PEAK_KEYS = ("telegraph.sample_w", "estimation")


def _args_hook(tracer, args, result):
    import numpy as np

    tracer.counters["special.args"] += int(np.size(args[0]))


def _band_hook(tracer, args, result):
    tracer.counters["estimation.usable_points"] += int(result.usable.sum())
    tracer.counters["estimation.grid_points"] += int(result.usable.size)


def _load_hook(tracer, args, result):
    tracer.counters["datasets.load_values"] += result.sample.n


# Counters taken at layer boundaries: hook(tracer, args, result).
# A boundary hook fires only when the caller is outside the layer.
BOUNDARY_HOOKS = {"special": _args_hook}
NAME_HOOKS = {
    "estimation.confidence_band": _band_hook,
    "datasets.load": _load_hook,
}


class Tracer:
    def __init__(self, track_peaks: bool):
        self.track_peaks = track_peaks
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_of_span = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._peak_span = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(name.split(".", 1)[0])
        return len(self.names) - 1

    def open_span(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of_span.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span measured by the caller."""
        self.name_of_span.append(self._name_id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        layer = self.layer_of[nid]
        boundary_hook = BOUNDARY_HOOKS.get(layer)
        name_hook = NAME_HOOKS.get(name)
        peak_key = next((k for k in PEAK_KEYS if name == k or layer == k), None)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            outside = not stack or tracer.layer_of[tracer.name_of_span[stack[-1]]] != layer
            peak = peak_key is not None and tracer.track_peaks and tracer._peak_span < 0
            if peak:
                tracemalloc.start()
            idx = tracer.open_span(nid)
            if peak:
                tracer._peak_span = idx
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)
                if peak:
                    tracer._peak_span = -1
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[peak_key] = max(tracer.peaks.get(peak_key, 0.0), mb)
            if outside and boundary_hook is not None:
                boundary_hook(tracer, args, result)
            if name_hook is not None:
                name_hook(tracer, args, result)
            return result

        return span

    # -- installing wrappers -------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public API and rebind all imports of it."""
        modules = {m: importlib.import_module(m) for m in REBIND_ONLY}
        modules.update({f"telhaz.{layer}": importlib.import_module(f"telhaz.{layer}") for layer in LAYERS})
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"telhaz.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = wrapped
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(name, obj.__func__)))
            elif isinstance(obj, functools.cached_property):
                self._set(obj, "func", self.wrap(name, obj.func))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, prefix: str) -> dict:
        """Write raw spans and their summary; return the summary."""
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name_of_span, self.parent, self.start, self.end):
                arr.tofile(fh)
        summary = self.summary()
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start), "summary": summary}, fh)
        return summary

    def summary(self) -> dict:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_self: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        boundary_calls: Counter = Counter()
        density_in_cdf = 0
        root_s = 0.0
        names, layer_of = self.names, self.layer_of
        for i in range(n):
            nid = self.name_of_span[i]
            name, layer = names[nid], layer_of[nid]
            layer_self[layer] += dur[i] - child[i]
            calls[name] += 1
            p = self.parent[i]
            if p < 0:
                root_s += dur[i]
            if p < 0 or layer_of[self.name_of_span[p]] != layer:
                boundary_calls[layer] += 1
            if not self._has_ancestor(i, name):
                inclusive[name] += dur[i]
            if name == "telegraph.w_density" and p >= 0 and names[self.name_of_span[p]] == "telegraph.w_cdf":
                density_in_cdf += 1
        counters = dict(self.counters)
        counters["telegraph.w_density_in_cdf"] = density_in_cdf
        return {
            "layer_self_s": dict(layer_self),
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "boundary_calls": dict(boundary_calls),
            "counters": counters,
            "peaks_mb": dict(self.peaks),
            "root_s": root_s,
        }

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.names[self.name_of_span[p]] == name:
                return True
            p = self.parent[p]
        return False


def merge(summaries: list[dict]) -> dict:
    """Add up per-process summaries; peaks take the maximum."""
    out: dict = {"root_s": 0.0}
    for s in summaries:
        out["root_s"] += s["root_s"]
        for key, table in s.items():
            if key == "root_s":
                continue
            acc = out.setdefault(key, {})
            for k, v in table.items():
                acc[k] = max(acc.get(k, 0.0), v) if key == "peaks_mb" else acc.get(k, 0) + v
    return out


def _main(argv: list[str]) -> int:
    prefix, cli_argv = argv[0], argv[1:]
    tracer = Tracer(track_peaks=False)
    t0 = time.perf_counter()
    cli = importlib.import_module("telhaz.cli")
    tracer.record("cli.import", t0, time.perf_counter())
    tracer.install()
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(prefix)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
