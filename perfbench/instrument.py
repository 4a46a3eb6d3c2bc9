"""Hooks the benchmark puts around tqnet's public functions.

Nothing here edits the package: every hook rebinds a module attribute or a
class method and puts the original back on ``uninstall``.

``Probe`` is what an untraced run needs and nothing more: the return time
of each ``Adam.step`` (step latency), the result of each ``fit`` (loss
curves and a parameter digest) and the window count and wall time of each
``evaluate`` call.  ``Tracer`` adds a span around every layer boundary the
per-layer metrics name; it is installed only for the traced passes of a
``--trace 1`` run.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

KERNELS = (
    "gelu", "gelu_grad", "softmax_rows", "softmax_rows_grad",
    "row_norm_stats", "adam_update", "scatter_add_cols", "mse_mae",
)
OPS = (
    "linear", "matmul", "softmax_rows", "gelu", "dropout", "gather_cols",
    "concat_cols", "add", "scale", "row_affine", "take_rows", "mse_loss",
)
GEMM_OPS = ("linear", "matmul")
# module -> public functions wrapped as "<module>.<function>" spans
FUNCTIONS = {
    "data": ("generate_synthetic", "split_and_scale", "make_windows", "load_csv"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "training": ("fit", "evaluate", "loss_and_metrics", "run_experiment"),
    "analysis": ("bank_correlation", "run_variant_matrix"),
}
FIT = "training.fit"
EVALUATE = "training.evaluate"


def _tqnet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tqnet" or name.startswith("tqnet."))]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, original, replacement):
        """Point every public tqnet module name bound to ``original`` at
        ``replacement``, so callers that imported the name see it too."""
        for mod in _tqnet_modules():
            for name, value in list(vars(mod).items()):
                if value is original and not name.startswith("_"):
                    self.set(mod, name, replacement)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def param_digest(model):
    """SHA-256 over the model's named parameters, names and bytes."""
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode())
        h.update(str(p.values.shape).encode())
        h.update(np.ascontiguousarray(p.values).tobytes())
    return h.hexdigest()


def all_finite(model):
    return all(np.isfinite(p.values).all() for p in model.parameters())


@dataclass
class FitRecord:
    train_curve: list
    val_curve: list
    best_val_mse: float
    param_sha256: str


@dataclass
class PassStats:
    """What the hooks saw during one workload pass."""

    traced: bool = False
    wall_s: float = 0.0
    step_ms: list = field(default_factory=list)
    train_samples: int = 0
    nonfinite_steps: int = 0
    eval_calls: list = field(default_factory=list)  # (windows, seconds)
    nonfinite_eval_windows: int = 0
    fits: list = field(default_factory=list)

    @property
    def steps(self):
        return len(self.step_ms)

    @property
    def eval_windows(self):
        return sum(n for n, _ in self.eval_calls)


class Probe:
    """The untraced run's hooks: Adam.step, fit and evaluate."""

    def __init__(self, tqnet):
        self.tq = tqnet
        self.stats = None
        self._patches = Patches()
        self._mark = 0.0
        self._model = None

    def install(self, stats):
        self.stats = stats
        tr = self.tq.training
        step, fit, evaluate = tr.Adam.step, tr.fit, tr.evaluate
        probe = self

        def timed_step(opt, *a, **k):
            out = step(opt, *a, **k)
            now = time.perf_counter()
            probe.stats.step_ms.append((now - probe._mark) * 1e3)
            if probe._model is not None and not all_finite(probe._model):
                probe.stats.nonfinite_steps += 1
            probe._mark = time.perf_counter()
            return out

        def recorded_fit(model, train_windows, val_windows, plan, *a, **k):
            probe._model = model
            probe._mark = time.perf_counter()
            res = fit(model, train_windows, val_windows, plan, *a, **k)
            probe._model = None
            probe.stats.train_samples += len(train_windows) * res.epochs_run
            probe.stats.fits.append(FitRecord(
                list(res.train_curve), list(res.val_curve),
                res.best_val_mse, param_digest(model),
            ))
            return res

        def counted_evaluate(model, windows, *a, **k):
            t0 = time.perf_counter()
            out = evaluate(model, windows, *a, **k)
            probe.stats.eval_calls.append((len(windows), time.perf_counter() - t0))
            if not all(math.isfinite(v) for v in out):
                probe.stats.nonfinite_eval_windows += len(windows)
            probe._mark = time.perf_counter()
            return out

        self._patches.set(tr.Adam, "step", timed_step)
        self._patches.rebind(fit, recorded_fit)
        self._patches.rebind(evaluate, counted_evaluate)

    def uninstall(self):
        self._patches.undo()


class Tracer:
    """Spans around layer boundaries, aggregated in memory.

    Each span knows its parent.  A span is a *step* span when it runs inside
    a training step: a child of ``training.fit`` other than the validation
    ``evaluate``, or anything below one.  Aggregates are keyed by
    ``(name, in_step)``; ``edges`` keeps inclusive time per (parent, child).
    """

    def __init__(self, tqnet):
        self.tq = tqnet
        self._patches = Patches()
        self._stack = []
        self.reset()

    def reset(self):
        """Clear the aggregates; return the ones collected so far."""
        old = getattr(self, "agg", None)
        self.agg = {
            "spans": defaultdict(lambda: [0, 0.0, 0.0]),  # count, total, self
            "edges": defaultdict(float),
            "step_span_s": 0.0,
            "nodes": 0,
            "flops_step": 0.0,
            "flops_all": 0.0,
            "fwd_windows": defaultdict(int),
            "windows_made": 0,
        }
        return old

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, on_enter=None, on_exit=None):
        stack = self._stack
        tracer = self

        def wrapper(*a, **k):
            span = name(a, k) if callable(name) else name
            parent = stack[-1] if stack else None
            if parent is None:
                in_step = False
            else:
                in_step = parent[2] or (parent[0] == FIT and span != EVALUATE)
            frame = [span, 0.0, in_step]  # name, child time, in_step[, bwd flops]
            if on_enter is not None:
                on_enter(frame, a, k)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                agg = tracer.agg
                st = agg["spans"][(span, in_step)]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    agg["edges"][(parent[0], span)] += dur
                    if parent[0] == FIT and in_step:
                        agg["step_span_s"] += dur
            if on_exit is not None:
                on_exit(frame, a, k, out)
            return out

        return wrapper

    def _current_op(self):
        for frame in reversed(self._stack):
            if frame[0].startswith("tensor.fwd."):
                return frame
        return None

    def install(self):
        tq, p = self.tq, self._patches
        tracer = self

        for k in KERNELS:
            if k in vars(tq.kernels):
                p.set(tq.kernels, k, self._wrap("kernels." + k, getattr(tq.kernels, k)))

        for op in OPS:
            fn = getattr(tq.tensor, op, None)
            if fn is None:
                continue
            enter = self._count_gemm if op in GEMM_OPS else None

            def op_name(a, k, op=op):
                tape = a[0] if a else k.get("tape")
                return ("tensor.fwd." if tape is not None else "tensor.eval.") + op

            p.rebind(fn, self._wrap(op_name, fn, on_enter=enter))

        for mod_name, names in FUNCTIONS.items():
            mod = getattr(tq, mod_name)
            for fn_name in names:
                fn = vars(mod).get(fn_name)
                if fn is None:
                    continue
                exit_ = self._count_windows if fn_name == "make_windows" else None
                p.rebind(fn, self._wrap(f"{mod_name}.{fn_name}", fn, on_exit=exit_))

        model_cls = tq.model.TQNet

        def fwd_name(a, k):
            mode = k.get("mode", a[4] if len(a) > 4 else "eval")
            return "model.forward_" + mode

        def fwd_enter(frame, a, k):
            cfg = a[0].config
            x = np.asarray(a[1])
            tracer.agg["fwd_windows"][frame[0]] += max(1, x.size // (cfg.channels * cfg.lookback))

        p.set(model_cls, "forward", self._wrap(fwd_name, model_cls.forward, on_enter=fwd_enter))

        tape_cls = tq.tensor.Tape
        record = tape_cls.record

        def traced_record(tape, fn, *a, **k):
            frame = tracer._current_op()
            op = frame[0][len("tensor.fwd."):] if frame else "other"
            if frame is not None and frame[2]:
                tracer.agg["nodes"] += 1
            bwd_flops = frame[3] if frame is not None and len(frame) > 3 else 0.0
            if bwd_flops:
                def exit_(fr, a_, k_, out, f=bwd_flops):
                    tracer._add_flops(fr[2], f)
            else:
                exit_ = None
            return record(tape, tracer._wrap("tensor.bwd." + op, fn, on_exit=exit_), *a, **k)

        p.set(tape_cls, "record", traced_record)
        p.set(tape_cls, "backward", self._wrap("tensor.backward", tape_cls.backward))
        adam = tq.training.Adam
        p.set(adam, "step", self._wrap("training.adam", adam.step))

    def uninstall(self):
        self._patches.undo()

    # -- counters ------------------------------------------------------------

    def _add_flops(self, in_step, flops):
        self.agg["flops_all"] += flops
        if in_step:
            self.agg["flops_step"] += flops

    def _count_gemm(self, frame, a, k):
        """Computed GEMM flops from operand shapes: 2*m*k*n forward, and
        the same again per operand that receives a gradient backward."""
        tape, x, w = a[0], a[1], a[2]
        transpose_b = len(a) > 3 and frame[0].endswith("matmul") and a[3]
        transpose_b = transpose_b or k.get("transpose_b", False)
        m_k = x.values.shape
        n = w.values.shape[0] if transpose_b else w.values.shape[-1]
        flops = 2.0 * math.prod(m_k) * n
        self._add_flops(frame[2], flops)
        grads = int(x.requires_grad) + int(w.requires_grad)
        frame.append(flops * grads if tape is not None else 0.0)

    def _count_windows(self, frame, a, k, out):
        self.agg["windows_made"] += len(out)


def per_layer(setup, passes, traced, extra):
    """The per-layer metrics of a traced run as name -> (value, unit).

    ``setup`` and ``passes`` are tracer aggregates of the set-up and of all
    traced passes; ``traced`` are the probe's PassStats of those passes;
    ``extra`` holds the workload's own counts (checkpoint bytes, CLI time).
    """
    n_pass = len(traced)
    steps = sum(s.steps for s in traced)
    samples = sum(s.train_samples for s in traced)
    eval_windows = sum(s.eval_windows for s in traced)
    spans, edges = passes["spans"], passes["edges"]

    def total(name, in_step=None):
        keys = (True, False) if in_step is None else (in_step,)
        return sum(spans[(name, s)][1] for s in keys if (name, s) in spans)

    def count(name, in_step=None):
        keys = (True, False) if in_step is None else (in_step,)
        return sum(spans[(name, s)][0] for s in keys if (name, s) in spans)

    def setup_total(name):
        return sum(v[1] for (n, _), v in setup["spans"].items() if n == name)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    out["tensor.nodes_per_sample"] = (ratio(passes["nodes"], samples), "count")
    out["tensor.backward_ms_per_step"] = (
        ratio(total("tensor.backward", True) * 1e3, steps), "ms")
    for op in OPS:
        out[f"tensor.fwd.{op}.ms_per_step"] = (
            ratio(total(f"tensor.fwd.{op}", True) * 1e3, steps), "ms")
        out[f"tensor.bwd.{op}.ms_per_step"] = (
            ratio(total(f"tensor.bwd.{op}", True) * 1e3, steps), "ms")
    for kname in KERNELS:
        out[f"kernels.{kname}.ms_per_step"] = (
            ratio(total(f"kernels.{kname}", True) * 1e3, steps), "ms")
        out[f"kernels.{kname}.calls_per_step"] = (
            ratio(count(f"kernels.{kname}", True), steps), "count")

    fwd_w = passes["fwd_windows"]
    gemm_s = sum(total(f"tensor.{kind}.{op}") for kind in ("fwd", "eval", "bwd")
                 for op in GEMM_OPS)
    out["model.forward_train_ms_per_sample"] = (
        ratio(total("model.forward_train") * 1e3, fwd_w["model.forward_train"]), "ms")
    out["model.forward_eval_ms_per_window"] = (
        ratio(total("model.forward_eval") * 1e3, fwd_w["model.forward_eval"]), "ms")
    out["model.gemm_gflop_per_sample"] = (ratio(passes["flops_step"], samples) / 1e9, "GFLOP")
    out["model.gemm_gflops"] = (ratio(passes["flops_all"], gemm_s) / 1e9, "GFLOP/s")

    out["training.adam_ms_per_step"] = (ratio(total("training.adam") * 1e3, steps), "ms")
    out["training.loss_ms_per_step"] = (
        ratio(total("training.loss_and_metrics", True) * 1e3, steps), "ms")
    out["training.evaluate_ms_per_window"] = (
        ratio(total(EVALUATE) * 1e3, eval_windows), "ms")
    out["training.steps"] = (ratio(steps, n_pass), "count")
    out["training.nonfinite_steps"] = (sum(s.nonfinite_steps for s in traced), "count")

    def per_pass_ms(name):
        return (setup_total(name) + ratio(total(name), n_pass)) * 1e3

    out["data.generate_ms"] = (per_pass_ms("data.generate_synthetic"), "ms")
    out["data.split_ms"] = (per_pass_ms("data.split_and_scale"), "ms")
    out["data.windows_ms"] = (per_pass_ms("data.make_windows"), "ms")
    out["data.load_csv_ms"] = (per_pass_ms("data.load_csv"), "ms")
    out["data.windows"] = (
        setup["windows_made"] + ratio(passes["windows_made"], n_pass), "count")

    out["checkpoint.save_ms"] = (per_pass_ms("checkpoint.save_checkpoint"), "ms")
    out["checkpoint.load_ms"] = (per_pass_ms("checkpoint.load_checkpoint"), "ms")
    out["checkpoint.bytes"] = (extra.get("checkpoint_bytes", 0), "bytes")

    runs = count("training.run_experiment")
    inner = edges[("training.run_experiment", FIT)] + edges[("training.run_experiment", EVALUATE)]
    out["analysis.runs"] = (ratio(runs, n_pass), "count")
    out["analysis.run_overhead_ms"] = (
        ratio((total("training.run_experiment") - inner) * 1e3, runs), "ms")
    out["analysis.bank_correlation_ms"] = (
        ratio(total("analysis.bank_correlation") * 1e3, n_pass), "ms")
    out["cli.evaluate_ms"] = (extra.get("cli_evaluate_ms", 0.0), "ms")

    step_wall = sum(sum(s.step_ms) for s in traced) / 1e3
    out["trace.coverage"] = (ratio(passes["step_span_s"], step_wall), "share")
    out["trace.overhead"] = (extra.get("trace_overhead", 0.0), "share")
    return out
