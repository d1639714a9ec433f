"""Outside-in instrumentation of the orbiconv package.

Nothing under ``src/`` knows about it: every hook is installed by replacing a
module-level binding or a class attribute, and removed again afterwards.

* ``StepClock`` marks step boundaries for the end-to-end step times. It hooks
  the call that ends a step (``SGD.step``, ``Adam.step`` or ``evaluate``) and,
  for training loops, the epoch-end ``evaluate`` that extends the last step
  of the epoch.
* ``Tracer`` wraps the public functions of the layers named in the benchmark
  doc, plus the ``backward_fn`` of every ``Var`` they return, and records one
  span (name, start, end, parent) per call, in memory. Self time is a span's
  duration minus that of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "orbiconv"
                                  or name.startswith("orbiconv."))]


def patch_function(patcher: Patcher, home, name: str, make) -> None:
    """Wrap ``home.name`` and every other package binding of the same object
    (``from .train import evaluate`` makes a second binding in ``nas``)."""
    original = getattr(home, name)
    wrapper = make(original)
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patcher.set(mod, attr, wrapper)


class StepClock:
    """Step boundaries of one episode, taken from the calls that end a step.

    ``marks`` hooks end a step; ``extends`` hooks (the epoch-end evaluation of
    a training loop) move the end of the last step to when they return, so
    that the evaluation counts in the step that closes the epoch.
    """

    def __init__(self, marks, extends):
        self.marks_at = marks
        self.extends_at = extends
        self.ends: list[float] = []
        self._patcher = Patcher()

    def _wrap(self, fn, extend: bool):
        ends = self.ends

        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if extend and ends:
                ends[-1] = clock()
            else:
                ends.append(clock())
            return out
        return hooked

    def install(self) -> None:
        for owner, attr in self.marks_at:
            self._patcher.set(owner, attr, self._wrap(getattr(owner, attr), False))
        for owner, attr in self.extends_at:
            self._patcher.set(owner, attr, self._wrap(getattr(owner, attr), True))

    def uninstall(self) -> None:
        self._patcher.restore()

    def start(self) -> float:
        self.ends.clear()
        return clock()

    def steps_ms(self, start: float) -> list[float]:
        edges = [start] + self.ends
        return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]


# ---------------------------------------------------------------------------
# Tracing

# span name -> per-layer time metric that receives its self time
BUCKETS = {
    "layers.extract_patches": "layers.im2col_s",
    "layers.scatter_patches": "layers.col2im_s",
    "layers.conv2d.dw": "layers.conv_dw_fwd_s",
    "layers.conv2d.dw.bwd": "layers.conv_dw_bwd_s",
    "layers.conv2d.dense": "layers.conv_dense_fwd_s",
    "layers.conv2d.dense.bwd": "layers.conv_dense_bwd_s",
    "layers.max_pool2d": "layers.pool_fwd_s",
    "layers.avg_pool2d": "layers.pool_fwd_s",
    "layers.max_pool2d.bwd": "layers.pool_bwd_s",
    "layers.avg_pool2d.bwd": "layers.pool_bwd_s",
    "transform.reparameterize": "transform.reparam_s",
    "transform.transform_gradient_pushforward": "transform.pushforward_s",
    "transform.build_transform": "transform.build_s",
    "data.gen_synthetic": "data.gen_s",
    "autodiff.Var.backward": "autodiff.backward_self_s",
    "autodiff.Var.accumulate": "autodiff.accumulate_s",
    "train.SGD.step": "train.sgd_s",
    "nas.Adam.step": "nas.adam_s",
    "nas.SearchNetwork.__init__": "nas.supernet_build_s",
    "train.evaluate": "train.evaluate_s",
    "integrated.IntegratedConv.draw_for_iteration": "integrated.draw_s",
    "rng.stream": "rng.stream_s",
    "experiments.warp_dataset": "experiments.warp_s",
    "trace.walk": "trace.walk_s",
}
_HEAD = ("linear", "channel_affine", "global_avg_pool", "softmax_cross_entropy")
_MIX = ("weighted_sum", "softmax_vec")
_ELEMENTWISE = ("add", "scale", "mul", "relu", "matmul", "reshape", "concat",
                "mean_all")
for _fn in _HEAD:
    BUCKETS[f"layers.{_fn}"] = BUCKETS[f"layers.{_fn}.bwd"] = "layers.head_s"
for _fn in _MIX:
    BUCKETS[f"autodiff.{_fn}"] = BUCKETS[f"autodiff.{_fn}.bwd"] = "autodiff.mix_s"
for _fn in _ELEMENTWISE:
    BUCKETS[f"autodiff.{_fn}"] = BUCKETS[f"autodiff.{_fn}.bwd"] = \
        "autodiff.elementwise_s"

# the span that wraps a whole episode; its self time is unattributed
EPISODE = "episode"

# counters reported per episode, with the scale from the integer count
# (calls, bytes, MACs) to the reported unit; ``conv.*`` and ``draw.*``
# counts are reported as the ratios f64_share and circular_share
COUNTERS = {
    "layers.im2col_calls": 1, "layers.im2col_mb": 1e-6,
    "layers.col2im_calls": 1, "layers.col2im_mb": 1e-6,
    "layers.conv_gmac": 1e-9, "transform.reparam_calls": 1,
    "autodiff.accumulate_calls": 1, "autodiff.zero_fill_calls": 1,
    "rng.stream_calls": 1, "experiments.warp_images": 1,
}


def _root_array(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_arrays(fn, out: dict, depth: int = 0) -> None:
    """Arrays captured by a backward closure, following wrapped closures."""
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, np.ndarray):
            root = _root_array(value)
            out[id(root)] = root
        elif callable(value) and depth < 3 and hasattr(value, "__closure__"):
            _closure_arrays(value, out, depth + 1)


def graph_size(root) -> tuple[int, int]:
    """(nodes, bytes) of the graph reachable from ``root``: every Var.data plus
    the arrays the backward closures hold, each buffer counted once."""
    seen: set[int] = set()
    arrays: dict[int, np.ndarray] = {}
    stack = [root]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        base = _root_array(v.data)
        arrays[id(base)] = base
        if v.backward_fn is not None:
            _closure_arrays(v.backward_fn, arrays)
        stack.extend(v.parents)
    return len(seen), sum(a.nbytes for a in arrays.values())


class Tracer:
    """Spans and counters for calls into the orbiconv layers."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent]
        self._stack: list[int] = []
        self._opaque = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.tape_nodes = 0
        self.tape_bytes = 0
        self._patcher = Patcher()

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def walk(self, root) -> None:
        idx = self.open("trace.walk")
        try:
            nodes, nbytes = graph_size(root)
        finally:
            self.close(idx)
        self.tape_nodes = max(self.tape_nodes, nodes)
        self.tape_bytes = max(self.tape_bytes, nbytes)

    # -- wrappers -----------------------------------------------------------

    def _traced_backward(self, name: str, bw, after=None):
        def traced_bw(g):
            self.call(name, bw, (g,), {})
            if after is not None:
                after()
        return traced_bw

    def span_fn(self, name: str, *, backward: bool = False, name_of=None,
                count=None, opaque: bool = False):
        """Wrapper factory: one span per call (named by ``name_of`` when
        given), an optional counter hook, and a traced ``backward_fn`` on the
        returned Var when ``backward`` is set."""
        def make(fn):
            def traced(*args, **kwargs):
                if self._opaque:
                    return fn(*args, **kwargs)
                span = name_of(args, kwargs) if name_of else name
                if opaque:
                    self._opaque += 1
                try:
                    out = self.call(span, fn, args, kwargs)
                finally:
                    if opaque:
                        self._opaque -= 1
                after = count(args, kwargs, out) if count else None
                if backward and out.backward_fn is not None:
                    out.backward_fn = self._traced_backward(
                        span + ".bwd", out.backward_fn, after)
                return out
            return traced
        return make

    # -- counter hooks --------------------------------------------------------

    def _count_im2col(self, args, kwargs, out):
        self.counts["layers.im2col_calls"] += 1
        self.counts["layers.im2col_mb"] += out.nbytes

    def _count_col2im(self, args, kwargs, out):
        self.counts["layers.col2im_calls"] += 1
        self.counts["layers.col2im_mb"] += np.asarray(args[0]).nbytes

    def _count_conv(self, args, kwargs, out):
        x, weights = args[0], args[1]
        cout, cin, k, _ = weights.data.shape
        macs = out.data.size * cin * k * k      # per output element: cin*K*K
        self.counts["layers.conv_gmac"] += macs
        self.counts["conv.calls"] += 1
        self.counts["conv.f64_calls"] += x.data.dtype == np.float64

        def backward_macs():
            grads = int(weights.requires_grad) + int(x.requires_grad)
            self.counts["layers.conv_gmac"] += grads * macs
        return backward_macs

    def _count_reparam(self, args, kwargs, out):
        self.counts["transform.reparam_calls"] += 1

    def _count_stream(self, args, kwargs, out):
        self.counts["rng.stream_calls"] += 1

    def _count_draw(self, args, kwargs, out):
        self.counts["draw.calls"] += 1
        self.counts["draw.circular"] += out.value == "circular"

    def _count_warp(self, args, kwargs, out):
        self.counts["experiments.warp_images"] += len(out)

    # -- install ------------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the package's public layer functions. ``pkg`` maps module
        names (``layers``, ``autodiff``, ...) to the imported modules."""
        layers, autodiff = pkg["layers"], pkg["autodiff"]
        transform, train, nas = pkg["transform"], pkg["train"], pkg["nas"]
        p = self._patcher

        def fn(home, name, **kw):
            modname = home.__name__.rsplit(".", 1)[-1]
            patch_function(p, home, name,
                           self.span_fn(f"{modname}.{name}", **kw))

        def method(cls, name, **kw):
            modname = cls.__module__.rsplit(".", 1)[-1]
            span = f"{modname}.{cls.__name__}.{name}"
            p.set(cls, name, self.span_fn(span, **kw)(cls.__dict__[name]))

        fn(layers, "extract_patches", count=self._count_im2col)
        fn(layers, "scatter_patches", count=self._count_col2im)
        fn(layers, "conv2d", backward=True, count=self._count_conv,
           name_of=lambda a, kw: ("layers.conv2d.dw" if kw.get("depthwise")
                                  else "layers.conv2d.dense"))
        for name in ("max_pool2d", "avg_pool2d") + _HEAD:
            fn(layers, name, backward=True)
        for name in _MIX + _ELEMENTWISE:
            fn(autodiff, name, backward=True)
        fn(transform, "reparameterize", count=self._count_reparam)
        fn(transform, "transform_gradient_pushforward")
        fn(transform, "build_transform")
        fn(pkg["data"], "gen_synthetic")
        fn(pkg["rng"], "stream", count=self._count_stream)
        fn(pkg["experiments"], "warp_dataset", count=self._count_warp)
        method(train.SGD, "step")
        method(nas.Adam, "step")
        method(nas.SearchNetwork, "__init__", opaque=True)
        method(pkg["integrated"].IntegratedConv, "draw_for_iteration",
               count=self._count_draw)
        self._install_accumulate(autodiff.Var)
        self._install_backward(autodiff.Var)
        self._install_evaluate(train)

    def _install_accumulate(self, var_cls) -> None:
        original = var_cls.accumulate
        counts = self.counts

        def accumulate(v, g):
            counts["autodiff.accumulate_calls"] += 1
            counts["autodiff.zero_fill_calls"] += v.grad is None
            self.call("autodiff.Var.accumulate", original, (v, g), {})
        self._patcher.set(var_cls, "accumulate", accumulate)

    def _install_backward(self, var_cls) -> None:
        original = var_cls.backward

        def backward(v, seed=None):
            self.walk(v)
            self.call("autodiff.Var.backward", original, (v, seed), {})
        self._patcher.set(var_cls, "backward", backward)

    def _install_evaluate(self, train) -> None:
        def make(original):
            def evaluate(model, ds, *args, **kwargs):
                forward = model.forward

                def forward_and_walk(x):
                    out = forward(x)
                    self.walk(out)
                    return out
                model.forward = forward_and_walk
                try:
                    return self.call("train.evaluate", original,
                                     (model, ds) + args, kwargs)
                finally:
                    del model.forward
            return evaluate
        patch_function(self._patcher, train, "evaluate", make)

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- reports ------------------------------------------------------------

    def subtree(self, root: int) -> list[int]:
        """Span ``root`` and its descendants; parents precede children."""
        inside = {root}
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][3] in inside:
                inside.add(idx)
        return sorted(inside)

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over the subtree of span ``root``."""
        ids = self.subtree(root)
        child_time: dict[int, float] = defaultdict(float)
        for idx in ids[1:]:
            _, start, end, parent = self.spans[idx]
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx in ids:
            name, start, end, _ = self.spans[idx]
            out[name] += (end - start) - child_time[idx]
        return out
