"""Call spans around palink's public functions, recorded from outside the
package.

``instrument`` wraps every public function of each layer module and rebinds
the wrapper under every name that refers to the original in every loaded
``palink`` module.  Rebinding everywhere is needed because
``from .x import y`` copies the function object into the importing module
at import time, so patching only ``palink.x.y`` would miss those calls.

Spans live in memory as ``[name, start, end, parent]`` lists (``parent`` is
the index of the enclosing span, -1 at the top) and are written out by the
caller when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "palink"

# The package's modules that do timed work.  ``synth`` only makes inputs
# before timing and ``cli`` only parses arguments, so neither is a layer.
LAYERS = ("graphdata", "spectral", "training", "gcn", "metrics", "fairness",
          "theory", "pipelines")

# The benchmark's own span around the workload's top-level call; its self
# time is whatever the call spends outside every layer (argument parsing,
# the benchmark's loop).
ROOT = "workload.call"


def _report_bytes(payload) -> int:
    return os.path.getsize(payload["paths"]["report"])


# Counts taken at a span boundary: span name -> (metric name, result -> int).
COUNTERS = {
    "training.sample_negatives": ("training.sample_negatives.pairs", len),
    "metrics.roc_auc": ("metrics.roc_auc.samples", lambda value: value.n),
    **{f"pipelines.{name}": ("pipelines.report_bytes", _report_bytes)
       for name in ("run_train", "run_validate_theory",
                    "run_delta_comparison", "run_fairness_sweep")},
}


class Recorder:
    """In-memory span and counter store for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``.

        The wrapper returns what ``fn`` returns and re-raises what it
        raises; the span is closed either way.
        """
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if counter is not None:
                self.counts[counter[0]] += int(counter[1](result))
            return result

        return wrapper


def public_functions(module):
    """``(name, function)`` for each public function defined in ``module``."""
    return [(name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


def instrument(recorder: Recorder):
    """Wrap the public functions of every layer module and rebind each
    wrapper in every loaded ``palink`` module.  Returns a function that
    restores the originals."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in public_functions(module):
            wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{name}", fn))

    rebound = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                rebound.append((module, attr, obj))

    def restore():
        for module, attr, obj in rebound:
            setattr(module, attr, obj)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per function ``<layer>.<fn>.s`` (summed duration), ``.self_s`` and
    ``.calls``; per layer ``<layer>.self_s``; plus the recorded counts."""
    metrics: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        metrics[f"{name}.s"] += end - start
        metrics[f"{name}.self_s"] += own
        metrics[f"{name}.calls"] += 1
        metrics[f"{name.split('.', 1)[0]}.self_s"] += own
    metrics.update(counts)
    return dict(metrics)
