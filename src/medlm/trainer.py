"""Stage orchestration: optimizer, warmup schedule, training loops,
binary checkpoints and the metrics log.

Checkpoint layout: magic "QLNM", little-endian u32 version, u32 header
length, UTF-8 JSON header (model config, training metadata, tensor
index with shapes and byte offsets), then the parameter buffer and the
adapter buffer (if any) as raw little-endian float64. The index tiles
the payload exactly, in buffer order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import kernels
from . import model as M
from . import objectives as O
from .data import PreferencePair, SftExample, render_prompt
from .errors import ConfigError, IntegrityError, TrainingError
from .tensor import backward

MAGIC = b"QLNM"
VERSION = 1
CLIP_NORM = 1.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LoraSettings:
    rank: int = 8
    alpha: float = 32.0
    dropout: float = 0.05


@dataclass
class StageConfig:
    stage: str
    learning_rate: float
    warmup_ratio: float = 0.05
    weight_decay: float = 0.0
    epochs: int = 1
    batch_size: int = 8
    block_size: int = 256  # cpt; paper-scale profile uses 1024
    max_source_length: int = 256
    max_target_length: int = 256
    lora: LoraSettings | None = None
    beta: float = 0.1  # dpo
    seed: int = 0

    def __post_init__(self):
        if self.stage not in ("cpt", "sft", "dpo"):
            raise ConfigError(f"unknown stage {self.stage!r}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not (0 <= self.warmup_ratio < 1):
            raise ConfigError("warmup_ratio must be in [0, 1)")
        if self.block_size < 2 or self.max_source_length < 1 or self.max_target_length < 1:
            raise ConfigError("lengths must be >= 1 (block_size >= 2)")
        if self.stage in ("sft", "dpo") and self.lora is None:
            self.lora = LoraSettings() if self.stage == "sft" else LoraSettings(alpha=16.0)


def default_stage_config(stage):
    """Published defaults per stage (desk block size 256)."""
    if stage == "cpt":
        return StageConfig(stage="cpt", learning_rate=2e-4, warmup_ratio=0.05,
                           weight_decay=0.01, epochs=3, block_size=256)
    if stage == "sft":
        return StageConfig(stage="sft", learning_rate=2e-5, warmup_ratio=0.05,
                           weight_decay=0.05, epochs=1,
                           lora=LoraSettings(rank=8, alpha=32.0, dropout=0.05))
    if stage == "dpo":
        return StageConfig(stage="dpo", learning_rate=2e-5, warmup_ratio=0.05,
                           weight_decay=0.05, epochs=1,
                           lora=LoraSettings(rank=8, alpha=16.0, dropout=0.05))
    raise ConfigError(f"unknown stage {stage!r}")


def lr_at(cfg, step, total_steps):
    """Linear 0 -> lr over ceil(warmup_ratio * total_steps) steps, then constant."""
    if total_steps == 0:
        raise ConfigError("lr_at: total_steps must be > 0")
    if not (0 <= step <= total_steps):
        raise ConfigError(f"lr_at: step {step} outside [0, {total_steps}]")
    warmup = math.ceil(cfg.warmup_ratio * total_steps)
    if warmup == 0 or step >= warmup:
        return cfg.learning_rate
    return cfg.learning_rate * step / warmup


class OptimState:
    """First/second moment buffers for one parameter table, plus the step count."""

    def __init__(self, table):
        self.step = 0
        self.m = np.zeros_like(table.data)
        self.v = np.zeros_like(table.data)


def clip_gradients(table, max_norm=CLIP_NORM):
    """Scale the table's gradient to global norm max_norm if it is larger;
    returns the norm before clipping."""
    norm = math.sqrt(float(table.grad @ table.grad))
    if norm > max_norm:
        table.grad *= max_norm / norm
    return norm


def optim_step(table, state, lr, weight_decay):
    """Decoupled-weight-decay adaptive-moment update of the whole table, in place."""
    if not np.isfinite(table.grad).all():
        bad = next(name for name, t in table.named() if not np.isfinite(t.grad).all())
        raise TrainingError(f"non-finite gradient in tensor {bad!r}")
    state.step += 1
    kernels.adamw_update(table.data, table.grad, state.m, state.v, state.step, lr,
                         weight_decay, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)


@dataclass
class TrainState:
    params: M.ModelParams
    adapter: M.LoraAdapter | None = None
    stage: str = "init"
    step: int = 0
    seed: int = 0


def _check_schema(cfg, dataset):
    want = {"cpt": list, "sft": SftExample, "dpo": PreferencePair}
    if cfg.stage == "cpt":
        ok = dataset and all(isinstance(b, list) for b in dataset)
    else:
        ok = dataset and all(isinstance(r, want[cfg.stage]) for r in dataset)
    if not ok:
        raise ConfigError(f"dataset does not match stage {cfg.stage!r} schema")


def run_stage(state, cfg, dataset, vocab=None, log_path=None):
    """Train one stage; returns (new TrainState, metrics rows).

    cpt updates the full parameter set; sft/dpo attach a fresh adapter
    and update only it (an incoming adapter is merged into the base
    first). dpo snapshots the merged incoming model as the frozen
    reference before any update.
    """
    if cfg.epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if dataset:
        _check_schema(cfg, dataset)
    rng = np.random.default_rng(cfg.seed)

    params, adapter = state.params, state.adapter
    params = M.merge_lora(params, adapter) if adapter is not None else params.copy()
    if cfg.stage == "cpt":
        adapter = None
        params.set_requires_grad(True)
        trainable = params
    else:
        params.set_requires_grad(False)
        lora_cfg = M.LoraConfig(
            rank=cfg.lora.rank, alpha=cfg.lora.alpha, dropout=cfg.lora.dropout
        )
        adapter = M.attach_lora(params, lora_cfg, rng)
        trainable = adapter

    dpo_cfg = None
    if cfg.stage == "dpo":
        ref = params.copy()
        ref.set_requires_grad(False)
        dpo_cfg = O.DpoConfig(beta=cfg.beta, reference_params=ref)

    opt = OptimState(trainable)
    metrics = []
    n_batches = max(1, math.ceil(len(dataset) / cfg.batch_size)) if dataset else 0
    total_steps = cfg.epochs * n_batches
    train_rng = np.random.default_rng(cfg.seed + 1)

    def batch_loss(batch):
        if cfg.stage == "dpo":
            return O.dpo_loss(params, adapter, dpo_cfg, batch, vocab, train_rng=train_rng)
        total = None
        for ex in batch:
            if cfg.stage == "cpt":
                term = O.cpt_loss(params, adapter, ex, train_rng=train_rng)
            else:
                term = O.sft_loss(params, adapter, ex, vocab, render_prompt,
                                  train_rng=train_rng)
            total = term if total is None else total + term
        return (1.0 / len(batch)) * total

    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for b in range(n_batches):
            batch = [dataset[i] for i in order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
            if not batch:
                continue
            lr = lr_at(cfg, step, total_steps)
            trainable.grad.fill(0.0)
            graph = batch_loss(batch)
            backward(graph)
            loss = float(graph.data)
            del graph  # free it before the optimizer's full-buffer temporaries
            clip_gradients(trainable)
            optim_step(trainable, opt, lr, cfg.weight_decay)
            step += 1
            metrics.append({"step": step, "stage": cfg.stage, "lr": lr, "loss": loss})
    if log_path is not None:
        write_metrics(metrics, log_path)
    new_state = TrainState(params=params, adapter=adapter, stage=cfg.stage,
                           step=step, seed=cfg.seed)
    return new_state, metrics


def write_metrics(metrics, path):
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["step", "stage", "lr", "loss"])
    writer.writeheader()
    writer.writerows(metrics)
    atomic_write_text(buf.getvalue(), path)


def atomic_write_text(text, path):
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- checkpoints -------------------------------------------------------


def _tensor_index(kind, table, offset):
    index = []
    for name, shape in table.shapes.items():
        index.append({"kind": kind, "name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return index


def save_checkpoint(state, path):
    """Atomic write: temp file in the target directory, then rename."""
    tables = [state.params]
    index = _tensor_index("p", state.params, 0)
    adapter_info = None
    if state.adapter is not None:
        ac = state.adapter.config
        adapter_info = {"rank": ac.rank, "alpha": ac.alpha, "dropout": ac.dropout,
                        "targets": list(ac.targets)}
        tables.append(state.adapter)
        index += _tensor_index("a", state.adapter, state.params.data.nbytes)
    cfg = state.params.config
    header = {
        "config": {"vocab_size": cfg.vocab_size, "d_model": cfg.d_model,
                   "n_layers": cfg.n_layers, "n_heads": cfg.n_heads,
                   "max_seq_len": cfg.max_seq_len, "d_ff": cfg.d_ff,
                   "dropout": cfg.dropout},
        "adapter": adapter_info,
        "meta": {"stage": state.stage, "step": state.step, "seed": state.seed},
        "tensors": index,
        "payload_bytes": sum(t.data.nbytes for t in tables),
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            for table in tables:
                fh.write(table.data.astype("<f8", copy=False))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _tile(index, payload_bytes, path):
    """Shapes of the 'p' and 'a' tensors, from an index that must tile the
    payload exactly: each offset where the previous tensor ends, every
    parameter before every adapter tensor, the last one ending at the end."""
    shapes = {"p": {}, "a": {}}
    offset = 0
    for entry in index:
        kind, name, shape = entry["kind"], entry["name"], tuple(entry["shape"])
        where = f"{path}: tensor {name!r}"
        if kind not in shapes or (kind == "p" and shapes["a"]) or name in shapes[kind]:
            raise IntegrityError(f"{where}: unexpected {kind!r} entry in the index")
        if entry["offset"] != offset:
            raise IntegrityError(f"{where} at offset {entry['offset']}, expected {offset}")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise IntegrityError(f"{where}: bad shape {list(shape)}")
        shapes[kind][name] = shape
        offset += 8 * math.prod(shape)
    if offset != payload_bytes:
        raise IntegrityError(f"{path}: tensor index ends at offset {offset}, "
                             f"payload has {payload_bytes} bytes")
    return shapes


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise IntegrityError(f"{path}: bad magic at offset 0")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise IntegrityError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header_end = 12 + header_len
    if len(blob) < header_end:
        raise IntegrityError(f"{path}: truncated header at offset {len(blob)}")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: corrupt header ({exc})") from exc
    try:
        expected = header_end + header["payload_bytes"]
        if len(blob) != expected:
            raise IntegrityError(
                f"{path}: payload size mismatch at offset {min(len(blob), expected)}"
            )
        shapes = _tile(header["tensors"], header["payload_bytes"], path)
        config = M.ModelConfig(**header["config"])
        a = header["adapter"]
        lcfg = None if a is None else M.LoraConfig(
            rank=a["rank"], alpha=a["alpha"], dropout=a["dropout"],
            targets=tuple(a["targets"]))
        meta = header["meta"]
        stage, step, seed = meta["stage"], meta["step"], meta["seed"]
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"{path}: malformed header ({exc!r})") from None
    if lcfg is None and shapes["a"]:
        raise IntegrityError(f"{path}: adapter tensors without an adapter config")
    payload = np.frombuffer(blob, dtype="<f8", offset=header_end).astype(np.float64)
    n_base = sum(math.prod(shape) for shape in shapes["p"].values())
    params = M.ModelParams(config, shapes["p"], payload[:n_base])
    adapter = None if lcfg is None else M.LoraAdapter(lcfg, shapes["a"], payload[n_base:])
    return TrainState(params=params, adapter=adapter, stage=stage, step=step, seed=seed)
