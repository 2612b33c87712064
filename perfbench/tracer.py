"""In-memory span tracer that hooks medlm's public functions from outside.

Hooks go on by name. For each hooked function the tracer rebinds every
attribute of every loaded ``medlm`` module that refers to that function
object, so calls through a module (``T.matmul``), through Tensor operator
sugar (``x @ w`` looks up ``matmul`` in ``medlm.tensor``) and through
names bound at import (``from .tensor import backward`` in the trainer)
are all caught. A function a later refactor removes gets no hook and
reports zero calls; a new public function in ``medlm.tensor`` is hooked
as one more op and appears in the per-op detail.

Spans are kept in memory, one bucket per traced region, and written out
when the run ends. A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions of medlm.tensor that are not ops; backward has its own hook.
TENSOR_NON_OPS = {"no_grad", "grad_check", "backward"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _n_positions(tokens):
    """Token positions in one sequence, or in a batch given as a list of sequences."""
    if len(tokens) and isinstance(tokens[0], (list, tuple, np.ndarray)):
        return sum(len(row) for row in tokens)
    return len(tokens)


def _cli_name(args, kwargs):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    words, i = [], 0
    while i < len(argv):
        if argv[i].startswith("--"):
            i += 2 if "=" not in argv[i] else 1
            continue
        words.append(argv[i])
        i += 1
    return "cli." + "_".join(words[:2])


# (module, function, extra) beyond the ops of medlm.tensor. ``extra`` maps
# (args, kwargs, result) to a number or label kept with the span.
HOOKS = [
    ("tensor", "backward", None),
    ("model", "forward_logits",
     lambda a, k, r: _n_positions(_arg(a, k, 2, "tokens"))),
    ("model", "generate_greedy", lambda a, k, r: len(r)),
    ("model", "merge_lora", None),
    ("model", "attach_lora", None),
    ("objectives", "cpt_loss", None),
    ("objectives", "sft_loss", None),
    ("objectives", "dpo_loss", None),
    ("objectives", "sequence_logprob",
     lambda a, k, r: "reference" if _arg(a, k, 1, "adapter") is None else "policy"),
    ("trainer", "run_stage", lambda a, k, r: _arg(a, k, 1, "cfg").stage),
    ("trainer", "clip_gradients", None),
    ("trainer", "optim_step", None),
    ("trainer", "save_checkpoint",
     lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    ("trainer", "load_checkpoint", None),
    ("trainer", "write_metrics", None),
    # w, g, m, v read and w, m, v written
    ("kernels", "adamw_update", lambda a, k, r: 7 * a[0].nbytes),
    ("kernels", "lcs_length", lambda a, k, r: len(a[0]) * len(a[1])),
    ("evalkit", "extract_choice", None),
    ("evalkit", "accuracy", None),
    ("evalkit", "weighted_f1", None),
    ("evalkit", "bleu_n", None),
    ("evalkit", "rouge_n", None),
    ("evalkit", "rouge_l", None),
    ("data", "dedup_corpus", None),
    ("data", "pack_blocks", None),
    ("data", "load_dataset", lambda a, k, r: len(r[1].rejected)),
    ("synth", "build_corpus", None),
]


def tensor_ops(tensor_module):
    """Names of the public op functions defined in medlm.tensor."""
    return sorted(
        name for name, fn in vars(tensor_module).items()
        if inspect.isfunction(fn) and fn.__module__ == tensor_module.__name__
        and not name.startswith("_") and name not in TENSOR_NON_OPS
    )


def _matmul_flop(args, kwargs, result):
    # 2*m*k*n, written so batched leading dims count too
    return 2 * result.data.size * args[0].data.shape[-1]


class Tracer:
    def __init__(self):
        self.buckets = []  # (label, spans); a span is (name, start, end, self, parent, extra)
        self._spans = None
        self._stack = []
        tensor = sys.modules["medlm.tensor"]
        self.ops = tensor_ops(tensor)
        self._hooks = [("tensor", op, _matmul_flop if op == "matmul" else None)
                       for op in self.ops] + HOOKS

    def _wrap(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._spans, tracer._stack
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                parent = stack[-1][0] if stack else -1
                spans[idx] = (label, t0, t1, t1 - t0 - frame[1], parent, None)
            if extra is not None:
                spans[idx] = spans[idx][:5] + (extra(args, kwargs, result),)
            return result

        return traced

    @contextlib.contextmanager
    def bucket(self, label):
        """Trace every hooked call inside the block into one new bucket."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "medlm" or n.startswith("medlm."))]
        hooks = [("cli", "main", _cli_name, None)] + [
            (mod, fn, f"{mod}.{fn}", extra) for mod, fn, extra in self._hooks]
        restore = []
        for mod, attr, name, extra in hooks:
            fn = getattr(sys.modules.get("medlm." + mod), attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, fn, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
                        restore.append((m, key, fn))
        self._spans, self._stack = [], []
        try:
            yield
        finally:
            for m, key, fn in reversed(restore):
                setattr(m, key, fn)
            self.buckets.append((label, self._spans))
            self._spans = None

    def write(self, path):
        """All spans of the run as gzipped CSV, times in microseconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            w = csv.writer(fh)
            w.writerow(["bucket", "label", "index", "name", "start_us", "end_us",
                        "self_us", "parent", "extra"])
            for b, (label, spans) in enumerate(self.buckets):
                base = spans[0][1] if spans else 0.0
                for i, (name, t0, t1, self_s, parent, extra) in enumerate(spans):
                    w.writerow([b, label, i, name, round((t0 - base) * 1e6, 1),
                                round((t1 - base) * 1e6, 1), round(self_s * 1e6, 1),
                                parent, "" if extra is None else extra])


def bucket_sums(spans, ops):
    """Additive per-bucket totals: calls, ms and self_ms per span name, plus counters."""
    s = defaultdict(float)
    op_names = {f"tensor.{op}" for op in ops}
    steps_by_stage = defaultdict(list)  # run_stage index -> optim_step end times
    for name, t0, t1, self_s, parent, extra in spans:
        n = extra or 0  # None when the call raised
        s[f"{name}.calls"] += 1
        s[f"{name}.ms"] += (t1 - t0) * 1e3
        s[f"{name}.self_ms"] += self_s * 1e3
        if name in op_names:
            s["tensor.op_calls"] += 1
        if name == "tensor.matmul":
            s["tensor.matmul.gflop"] += n / 1e9
        elif name == "model.forward_logits":
            s["model.forward_logits.positions"] += n
            if parent >= 0 and spans[parent][0] == "model.generate_greedy":
                s["generate.positions"] += n
        elif name == "model.generate_greedy":
            s["generate.tokens"] += n
        elif name == "objectives.sequence_logprob":
            s[f"objectives.sequence_logprob.{extra}_ms"] += (t1 - t0) * 1e3
        elif name == "trainer.save_checkpoint":
            s["trainer.checkpoint_bytes"] += n
        elif name == "kernels.adamw_update":
            s["kernels.adamw_update.bytes"] += n
        elif name == "kernels.lcs_length":
            s["kernels.lcs_length.cells"] += n
        elif name == "data.load_dataset":
            s["data.load_dataset.rejected"] += n
        elif name == "trainer.optim_step":
            steps_by_stage[parent].append(t1)
        elif name in ("objectives.cpt_loss", "objectives.sft_loss", "objectives.dpo_loss"):
            s["trainer.forward_ms"] += (t1 - t0) * 1e3
        elif name.startswith("evalkit.") and (
                parent < 0 or not spans[parent][0].startswith("evalkit.")):
            s["evalkit.score_ms"] += (t1 - t0) * 1e3
    intervals = defaultdict(list)
    for stage_idx, ends in steps_by_stage.items():
        extra = spans[stage_idx][5] if stage_idx >= 0 else None
        stage = extra if isinstance(extra, str) else "other"
        intervals[stage] += [(b - a) * 1e3 for a, b in zip(ends, ends[1:])]
    return s, intervals


def percentile(values, q):
    """q-th percentile (statistics.quantiles' default method); 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _median(values):
    return percentile(values, 50)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Per-layer metrics from the tracer's buckets.

    Additive totals are per set-up plus per iteration: the median over
    "setup" buckets plus the median over "iteration" buckets. Ratios are
    formed from those medians.
    """
    per_label = defaultdict(list)
    intervals = defaultdict(list)
    for label, spans in tracer.buckets:
        sums, iv = bucket_sums(spans, tracer.ops)
        per_label[label].append(sums)
        if label == "iteration":
            for stage, xs in iv.items():
                intervals[stage] += xs
    keys = set().union(*(s.keys() for runs in per_label.values() for s in runs))
    m = {k: sum(_median([s.get(k, 0.0) for s in runs]) for runs in per_label.values())
         for k in keys}

    def g(key):
        return m.get(key, 0.0)

    steps = g("trainer.optim_step.calls") or g("generate.tokens")
    optimizer_ms = g("trainer.clip_gradients.ms") + g("trainer.optim_step.ms")
    other_ms = (g("trainer.run_stage.ms") - g("trainer.forward_ms")
                - g("tensor.backward.ms") - optimizer_ms
                - g("trainer.write_metrics.ms") - g("model.merge_lora.ms")
                - g("model.attach_lora.ms"))
    traced_wall = _median(traced_walls)
    m.update({
        "tensor.ops_per_step": _ratio(g("tensor.op_calls"), steps),
        "tensor.backward.ms_per_step": _ratio(g("tensor.backward.ms"), steps),
        "tensor.matmul.gflops": _ratio(g("tensor.matmul.gflop"),
                                       g("tensor.matmul.self_ms") / 1e3),
        "model.positions_per_generated_token": _ratio(g("generate.positions"),
                                                      g("generate.tokens")),
        "trainer.forward_ms_per_step": _ratio(g("trainer.forward_ms"), steps),
        "trainer.backward_ms_per_step": _ratio(g("tensor.backward.ms"), steps),
        "trainer.optimizer_ms_per_step": _ratio(optimizer_ms, steps),
        "trainer.other_ms_per_step": _ratio(other_ms, steps),
        "kernels.adamw_update.calls_per_step": _ratio(g("kernels.adamw_update.calls"), steps),
        "kernels.adamw_update.bytes_per_step": _ratio(g("kernels.adamw_update.bytes"), steps),
        "evalkit.scoring_share": _ratio(g("evalkit.score_ms"), traced_wall * 1e3),
        "trace.overhead_s": traced_wall - _median(untraced_walls),
        "steps_per_iteration": steps,
    })
    for stage, xs in intervals.items():
        m[f"trainer.{stage}.step_ms_p50"] = _median(xs)
        m[f"trainer.{stage}.step_ms_p90"] = percentile(xs, 90)
        m[f"trainer.{stage}.step_samples"] = len(xs)
    return m
