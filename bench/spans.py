"""Span tracer for the benchmark's traced run.

The wrappers live here, outside the package: ``install()`` wraps every
public function of whlab's layer modules and rebinds it under each name a
whlab module holds it by (``whlab.ladder.convolve``, ``whlab.montecarlo
.convolve``, ``whlab.lattice.lattice``, the package namespace, ...), so
calls between layers are caught where they happen. A span is (name, start,
end, parent span, item id); spans stay in memory in flat arrays and are
written out once, at the end of the run. Work counters are read from call
arguments and results after the span has closed, so their cost lands in
the caller's self time, not the callee's.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np
from run import LAYERS
from whlab.lattice import FFT_THRESHOLD


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_convolve(counts, args, kwargs, result):
    a, b = args[0], args[1]
    if a.is_zero or b.is_zero:
        return
    window = len(a.weights) + len(b.weights) - 1
    if len(a.weights) == 1 or len(b.weights) == 1:
        counts["lattice.convolve.singleton_calls"] += 1
    elif window < FFT_THRESHOLD:
        counts["lattice.convolve.direct_calls"] += 1
    else:
        counts["lattice.convolve.fft_calls"] += 1
    key = "lattice.convolve.max_window"
    counts[key] = max(counts[key], window)


def _count_ladder_law(counts, args, kwargs, result):
    counts["ladder.ladder_law.steps"] += result.horizon


def _count_mgf_rows(counts, args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    counts["ladder.log_restricted_mgf.rows"] += sum(
        1 for r in data.restricted if not r.is_zero
    )


def _count_walk_steps(counts, args, kwargs, result):
    steps = sum(n * c for (n, _), c in result.counts.items())
    counts["montecarlo.sample_ladder.walk_steps"] += (
        steps + result.censored_count * result.max_steps
    )


def _count_loaded_bytes(counts, args, kwargs, result):
    root = Path(_arg(args, kwargs, 0, "directory"))
    counts["data.load_data_dir.bytes"] += sum(
        entry.stat().st_size for entry in os.scandir(root) if entry.is_file()
    )


def _count_verdicts(counts, args, kwargs, result):
    verdicts = result.diagnostics["detector_verdicts"].values()
    counts["reconstruct.detectors_run"] += sum(v != "disabled" for v in verdicts)
    counts["reconstruct.detectors_hit"] += sum(v.startswith("detected") for v in verdicts)


def _count_report_bytes(counts, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        counts["cli.report_bytes"] += sum(
            entry.stat().st_size for entry in os.scandir(out) if entry.is_file()
        )


HOOKS = {
    "lattice.convolve": _count_convolve,
    "ladder.ladder_law": _count_ladder_law,
    "ladder.log_restricted_mgf": _count_mgf_rows,
    "montecarlo.sample_ladder": _count_walk_steps,
    "data.load_data_dir": _count_loaded_bytes,
    "reconstruct.auto_reconstruct": _count_verdicts,
    "cli.main": _count_report_bytes,
}


class Tracer:
    """Collects spans from wrapped whlab functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1
        # set while the benchmark checks outputs: calls pass through unrecorded
        self.paused = False
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        code = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack = self._stack
        span_name, span_parent, span_item = self.span_name, self.span_parent, self.span_item
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(span_name)
            span_name.append(code)
            span_parent.append(stack[-1])
            span_item.append(self.item)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                span_start[sid] = start
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("whlab." + layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap("%s.%s" % (layer, attr), fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "whlab" and not mod_name.startswith("whlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def take_counts(self) -> dict[str, int]:
        """Counters since the previous call, then reset them."""
        out = dict(self.counts)
        self.counts.clear()
        return out

    def summary(self, lo: int, hi: int) -> dict[str, float]:
        """``<function>.calls`` and ``<function>.self_ms`` for every traced
        function, and ``<layer>.self_ms``, over spans lo..hi-1.

        Self time is a span's duration minus its children's; the range must
        start and end between root spans so that no child outlives it.
        """
        size = len(self.names)
        name = np.array(self.span_name[lo:hi], dtype=np.int64)
        parent = np.array(self.span_parent[lo:hi], dtype=np.int64) - lo
        dur = np.array(self.span_end[lo:hi]) - np.array(self.span_start[lo:hi])
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=hi - lo)
        self_ms = np.bincount(name, weights=(dur - covered) * 1e3, minlength=size)
        calls = np.bincount(name, minlength=size)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out["%s.self_ms" % layer] = 0.0
        for code, fn_name in enumerate(self.names):
            out["%s.calls" % fn_name] = int(calls[code])
            out["%s.self_ms" % fn_name] = float(self_ms[code])
            out["%s.self_ms" % fn_name.split(".")[0]] += float(self_ms[code])
        return out

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int64),
            parent=np.array(self.span_parent, dtype=np.int64),
            item=np.array(self.span_item, dtype=np.int64),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
        )
