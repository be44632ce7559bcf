"""Span tracing of the whtfire layers, from outside the library.

``Tracer.install`` wraps every public function (and public method of a
public class) defined in the layer modules, and rebinds the wrapper in
every ``whtfire`` namespace that holds the original: ``from .x import y``
copies bindings into other modules, and ``ifwht`` reaches ``fwht`` through
its own module globals, so patching only the defining module would miss
calls.  Spans (name, start, end, parent id) stay in memory until the run
ends; ``layer_metrics`` turns them into per-operation counts and self
times.  No library file is changed.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYER_MODULES = ("fwht", "wht_layer", "nn", "arch", "tiling", "dataio", "pipeline")
# Row lengths with a per-layer metric: the channel rows of the toy nets and
# the lengths transform-long uses.  Any other length seen lands in the
# run's detail file only.
FWHT_LENGTHS = (8, 64, 256, 4096, 1 << 16, 1 << 18, 1 << 20)
NN_OPS = ("pointwise", "conv3x3", "relu", "gain", "avgpool2", "gap", "dense")


def _timed(name: str) -> list[tuple[str, str, str]]:
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = _timed("fwht.fwht") + [
        ("fwht.fwht.melem", "Melem", "lower"),
        ("fwht.fwht.bytes_computed", "B", "lower"),
    ]
    spec += _timed("fwht.ifwht")
    spec += [(f"fwht.fwht.ns_per_elem.n{n}", "ns", "lower") for n in FWHT_LENGTHS]
    spec += _timed("wht_layer.wht_layer_forward") + _timed("wht_layer.wht_layer_backward")
    for op in NN_OPS:
        spec += _timed(f"nn.{op}_forward") + _timed(f"nn.{op}_backward")
    spec += _timed("nn.softmax_cross_entropy") + _timed("nn.SgdOptimizer.step")
    for fn in ("network_forward", "network_backward", "forward_classify"):
        spec += _timed(f"arch.{fn}")
    spec.append(("arch.samples_per_forward", "count", "higher"))
    for fn in ("score_grid", "extract_windows", "downsample_window",
               "render_overlay", "score_grid_json"):
        spec += _timed(f"tiling.{fn}")
    spec += [
        ("tiling.windows_per_frame", "count", "lower"),
        ("tiling.forwards_per_window", "ratio", "lower"),
        ("tiling.pooled_px_per_frame_px", "ratio", "lower"),
    ]
    spec += _timed("dataio.ppm_read") + [("dataio.ppm_read.mb", "MB", "lower")]
    for fn in ("ppm_write", "checkpoint_load", "checkpoint_save", "load_manifest"):
        spec += _timed(f"dataio.{fn}")
    for fn in ("train", "evaluate", "detect"):
        spec += _timed(f"pipeline.{fn}")
    spec += [
        ("pipeline.batches", "count", "lower"),
        ("pipeline.samples", "count", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return spec


PER_LAYER = _per_layer_spec()


# -- quantities measured at a span boundary ---------------------------------

def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _fwht_quantities(args, kwargs, result):
    x = np.asarray(args[0])
    n = x.shape[_arg(args, kwargs, 2, "axis", -1)]
    itemsize = 4 if x.dtype == np.float32 else 8
    return n, x.size, x.size * itemsize


def _samples(x) -> int:
    """Samples in one network input or logits: a leading batch axis if any."""
    return int(np.shape(x)[0]) if np.ndim(x) in (2, 4) else 1


# name -> f(args, kwargs, result) giving the quantity stored on the span
QUANTITIES = {
    "fwht.fwht": _fwht_quantities,
    "arch.network_forward": lambda a, k, r: _samples(a[1]),
    "nn.softmax_cross_entropy": lambda a, k, r: _samples(a[0]),
    "tiling.downsample_window": lambda a, k, r: int(np.shape(a[0])[0] * np.shape(a[0])[1]),
    "dataio.ppm_read": lambda a, k, r: int(np.size(r)),
}


class Tracer:
    """Collects spans around the public functions of the layer modules."""

    def __init__(self):
        self.names: list[str] = []
        # one record per span: [name id, start ns, end ns, parent span id, quantity]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._classes: list[tuple[type, str, object]] = []
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"whtfire.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapped = self._wrap(fn, f"{short}.{attr}.{meth}")
                            self._classes.append((obj, meth, wrapped))

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        quantity = QUANTITIES.get(name)

        def traced(*args, **kwargs):
            rec = [name_id, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if quantity is not None:
                rec[4] = quantity(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        """Rebind every wrapped original in every loaded whtfire namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "whtfire" or mod_name.startswith("whtfire.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        for cls, meth, wrapped in self._classes:
            self._patches.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def top_level_seconds(self) -> float:
        return sum(e - s for _, s, e, parent, _ in self.spans if parent == -1) * 1e-9

    def write(self, path: Path) -> None:
        """Write all spans as gzipped JSON: a name table plus span rows."""
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "quantity"],
            "names": self.names,
            "spans": self.spans,
        }
        with gzip.open(path, "wt") as f:
            json.dump(payload, f, separators=(",", ":"))


def layer_metrics(tracer: Tracer, ops: int, context: dict,
                  traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-operation per-layer figures from the spans of ``ops`` traced operations.

    ``context`` carries what only the workload knows: ``frames`` per
    operation, ``windows`` scored per frame, and ``grid_px`` (R*C block
    pixels) per frame; all are 0 on workloads that detect nothing.
    """
    names = tracer.names
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    quantity: dict[str, float] = defaultdict(float)
    fwht_ns: dict[int, int] = defaultdict(int)
    fwht_elems: dict[int, int] = defaultdict(int)
    fwht_bytes = 0
    for sid, (name_id, start, end, _, q) in enumerate(spans):
        name = names[name_id]
        own = end - start - child_ns[sid]
        calls[name] += 1
        self_ns[name] += own
        if name == "fwht.fwht":
            n, elems, nbytes = q
            fwht_ns[n] += own
            fwht_elems[n] += elems
            fwht_bytes += nbytes
        elif q is not None:
            quantity[name] += q

    per_op = 1.0 / ops
    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[base] * per_op
        elif field == "self_s":
            out[metric] = self_ns[base] * 1e-9 * per_op
    out["fwht.fwht.melem"] = sum(fwht_elems.values()) * 1e-6 * per_op
    out["fwht.fwht.bytes_computed"] = fwht_bytes * per_op
    for n in sorted(set(FWHT_LENGTHS) | set(fwht_elems)):
        elems = fwht_elems.get(n, 0)
        out[f"fwht.fwht.ns_per_elem.n{n}"] = fwht_ns[n] / elems if elems else 0.0

    forwards = calls["arch.network_forward"]
    samples = quantity["arch.network_forward"]
    out["arch.samples_per_forward"] = samples / forwards if forwards else 0.0
    frames = context["frames"] * ops
    windows = context["windows"] * frames
    out["tiling.windows_per_frame"] = float(context["windows"])
    out["tiling.forwards_per_window"] = forwards / windows if windows else 0.0
    grid_px = context["grid_px"] * frames
    out["tiling.pooled_px_per_frame_px"] = (
        quantity["tiling.downsample_window"] / grid_px if grid_px else 0.0
    )
    out["dataio.ppm_read.mb"] = quantity["dataio.ppm_read"] * 1e-6 * per_op
    out["pipeline.batches"] = calls["nn.SgdOptimizer.step"] * per_op
    out["pipeline.samples"] = quantity["nn.softmax_cross_entropy"] * per_op
    out["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    return out
