"""Span tracer that instruments the disorder package from outside.

`Tracer.install` replaces every public function of each layer module at every
binding site where it is bound: the package imports with `from .x import y`,
so `simulate.state_step`, `stopping.state_step` and `oracle.state_step` are
separate names for `posterior.state_step`, and each one is wrapped.  A call
records a span when it enters a layer from another layer, or when its
function is a probe (one that a per-layer metric is read from).  Any other
call stays inside the current layer and records nothing, so its time is that
layer's self time and the tracer stays cheap on hot inner loops.

Spans stay in memory as four flat columns (name, parent, start, end).  Self
time is computed once at the end: a span's duration minus the durations of
its direct children.  Nothing under `src/` is modified on disk.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "likelihood", "posterior", "payoff", "stopping", "oracle", "simulate", "crosscheck")

CHECKS = (
    "path_unity", "joint_consistency", "filter_vs_oracle", "survival_projection",
    "lagged_change", "payoff_criterion", "multistep_composition",
    "backshift_inversion", "continuation_normalization", "predictive_chain",
)

# Functions that get their own span even when called from inside their own
# layer, because a per-layer metric is read from them.
PROBES = {
    "simulate": {"TrajectorySampler.sample", "monte_carlo_eval"},
    "posterior": {"state_step", "predictive"},
    "stopping": {"value_iterate", "stop_decision", "boundary_decision"},
    "oracle": {"build_joint", "exact_optimal_rule", "optimal_value_state_indexed", "exact_rule_value"},
    "crosscheck": {"run_crosscheck"} | {f"check_{name}" for name in CHECKS},
}

# Class methods traced like functions.  Other methods (ModelSpec.pairs, the
# l0/l1 properties) sit in hot loops and count as their caller's self time.
METHODS = {"simulate": ("TrajectorySampler.sample",)}


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    `reducers` maps a span name to a function applied to each return value of
    that function; the reduced values are kept in `results[name]`.
    """

    def __init__(self, reducers=None):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._layers: list = [None]
        self.reducers = dict(reducers or {})
        self.results: dict[str, list] = {key: [] for key in self.reducers}
        self._restore: list = []

    def wrap(self, fn, key: str, layer: str, probe: bool):
        """Return `fn` instrumented as span `key` of `layer`."""
        name_id = self._ids.get(key)
        if name_id is None:
            name_id = self._ids[key] = len(self.names)
            self.names.append(key)
            self.name_layer.append(LAYERS.index(layer))
        stack, layers = self._stack, self._layers
        name_col, parent_col, start_col, end_col = self.name, self.parent, self.start, self.end
        reduce = self.reducers.get(key)
        kept = self.results.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not probe and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(start_col)
            name_col.append(name_id)
            parent_col.append(stack[-1])
            end_col.append(0.0)
            stack.append(idx)
            layers.append(layer)
            start_col.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_col[idx] = perf_counter()
                stack.pop()
                layers.pop()
            if reduce is not None:
                kept.append(reduce(out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer at every binding site."""
        sites = [m for name, m in sorted(sys.modules.items()) if name == "disorder" or name.startswith("disorder.")]
        for layer in LAYERS:
            module = sys.modules[f"disorder.{layer}"]
            probes = PROBES.get(layer, set())
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(fn, f"{layer}.{attr}", layer, attr in probes)
                for site in sites:
                    if vars(site).get(attr) is fn:
                        self._restore.append((site, attr, fn))
                        setattr(site, attr, wrapped)
            for qualname in METHODS.get(layer, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(fn, f"{layer}.{qualname}", layer, qualname in probes))

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._restore):
            setattr(site, attr, fn)
        self._restore.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns as arrays, plus each span's duration and self time."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        layer = np.array(self.name_layer, dtype=np.int64)[name] if len(name) else name
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child, "layer": layer}

    def save(self, path) -> None:
        """Write every span (name, parent, start, end) to one .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_layer=np.array([LAYERS[i] for i in self.name_layer]),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )
