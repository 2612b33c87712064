"""Stage orchestration: optimizer, warmup and cosine schedule, training
loops, binary checkpoints and the metrics log.

CPT trains data-parallel on two threads. Each batch splits into the same
two halves whatever the machine (``np.array_split(batch, 2)``): the
caller's thread trains half 0 while a second thread, started once per
stage, trains half 1 on the same parameters with its own gradient buffer.
The two gradients add in a fixed order, half 0 then half 1, before
clipping and AdamW, so the bits depend neither on the core count nor on
how the threads are scheduled. SFT and DPO train each batch whole.

Checkpoint layout (version 3): magic "QLNM", then little-endian u32
version, u32 header length and u32 CRC32 (zlib) of every byte after these
16, then the UTF-8 JSON header (model config, training metadata, payload
dtype "<f4" or "<f8", tensor index with shapes and byte offsets), then the
parameter buffer and the adapter buffer (if any) as raw little-endian
floats of that dtype, the tables' own. The index follows from the model
and adapter configs and the dtype alone: a load recomputes it and requires
the header's to be equal. Any other version, versions 1 and 2 included,
is an IntegrityError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from . import model as M
from . import objectives as O
from .atomic import atomic_write
from .data import PreferencePair, SftExample
from .errors import ConfigError, DataError, IntegrityError, TrainingError, check_fields
from .tensor import backward

MAGIC = b"QLNM"
VERSION = 3
PREFIX = 16  # magic, version, header length, CRC32
PAYLOAD_DTYPES = ("<f4", "<f8")
CLIP_NORM = 1.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STAGES = ("cpt", "sft", "dpo")


@dataclass
class StageConfig:
    stage: str
    learning_rate: float
    warmup_ratio: float = 0.05
    weight_decay: float = 0.0
    epochs: int = 1
    batch_size: int = 8
    lora: M.LoraConfig | None = None  # sft/dpo
    beta: float = 0.1  # dpo
    seed: int = 0

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}")
        check_fields(self, learning_rate="(0, inf)", warmup_ratio="[0, 1)",
                     weight_decay="[0, inf)", epochs="[0, inf)", batch_size="[1, inf)",
                     beta="(0, inf)", seed="[0, inf)")
        if self.stage in ("sft", "dpo") and self.lora is None:
            self.lora = M.LoraConfig() if self.stage == "sft" else M.LoraConfig(alpha=16.0)


def default_stage_config(stage):
    """Published defaults per stage."""
    if stage == "cpt":
        return StageConfig(stage="cpt", learning_rate=2e-4, weight_decay=0.01, epochs=3)
    if stage in ("sft", "dpo"):
        return StageConfig(stage=stage, learning_rate=2e-5, weight_decay=0.05)
    raise ConfigError(f"unknown stage {stage!r}")


def lr_at(cfg, step, total_steps):
    """Linear 0 -> lr over ceil(warmup_ratio * total_steps) steps, then a
    cosine decay from lr at the end of warmup to 0 at total_steps (SGDR
    without restarts). A warmup covering every step leaves no decay."""
    if total_steps == 0:
        raise ConfigError("lr_at: total_steps must be > 0")
    if not (0 <= step <= total_steps):
        raise ConfigError(f"lr_at: step {step} outside [0, {total_steps}]")
    warmup = math.ceil(cfg.warmup_ratio * total_steps)
    if step < warmup:
        return cfg.learning_rate * step / warmup
    if warmup == total_steps:
        return cfg.learning_rate
    progress = (step - warmup) / (total_steps - warmup)
    return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


class OptimState:
    """First/second moment buffers for one parameter table, plus the step count."""

    def __init__(self, table):
        self.step = 0
        self.m = np.zeros_like(table.data)
        self.v = np.zeros_like(table.data)


def clip_gradients(table, max_norm=CLIP_NORM):
    """Scale the table's gradient to global norm max_norm if it is larger;
    returns the norm before clipping. The squares add up in float64: in
    float32 one entry above about 1.8e19 would overflow the sum to inf and
    zero the whole gradient."""
    g = table.grad.astype(np.float64, copy=False)
    norm = math.sqrt(float(g @ g))
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
    if not all(isinstance(r, want[cfg.stage]) for r in dataset):
        raise ConfigError(f"dataset does not match stage {cfg.stage!r} schema")


class _CptStep:
    """One CPT step: (loss, {}), with the batch's gradient left in ``params.grad``.

    The batch splits into two halves, each scored against the whole batch's
    positions (``cpt_loss``'s ``n_positions``), so their losses and gradients
    add up to the batch's. Half 1 runs on a second thread while the caller's
    runs half 0: numpy's BLAS calls and large array operations release the
    interpreter lock, so the two overlap on two cores. Each half has its own
    gradient buffer (half 1's is a second table over the same parameter
    buffer) and nothing random, so the bits do not depend on how the threads
    are scheduled. ``close()`` ends the thread.
    """

    def __init__(self, params, blocks):
        self.blocks = blocks
        self.tables = [params, M.ModelParams(params.config, params.shapes, params.data)]
        self.pool = ThreadPoolExecutor(max_workers=1)

    def _half(self, idx, n, h):
        table = self.tables[h]
        table.grad.fill(0.0)
        graph = O.cpt_loss(table, None, [self.blocks[i] for i in idx], n_positions=n)
        backward(graph)
        return float(graph.data)

    def __call__(self, idx):
        h0, h1 = np.array_split(idx, 2)
        n = sum(len(self.blocks[i]) - 1 for i in idx)
        if not len(h1):  # a batch of one block
            return self._half(h0, n, 0), {}
        half1 = self.pool.submit(self._half, h1, n, 1)
        loss = self._half(h0, n, 0) + half1.result()
        self.tables[0].grad += self.tables[1].grad  # half 0, then half 1
        return loss, {}

    def close(self):
        self.pool.shutdown()


def run_stage(state, cfg, dataset, vocab=None, log_path=None):
    """Train one stage; returns (new TrainState, metrics rows).

    cpt updates the full parameter set, data-parallel on two halves of each
    batch (``_CptStep``; its second thread ends before this call returns or
    raises); sft/dpo attach a fresh adapter and update only it (an incoming
    adapter is merged into the base first). The merged incoming model is
    dpo's frozen reference: its preference margins are computed once,
    before any update, and each dpo metrics row adds the batch's mean
    reward margin and the share of pairs whose margin is positive.
    """
    if dataset:
        _check_schema(cfg, dataset)
    elif cfg.epochs:
        raise DataError(f"{cfg.stage}: empty dataset, nothing to train on")
    rng = np.random.default_rng(cfg.seed)

    params, adapter = state.params, state.adapter
    params = M.merge_lora(params, adapter) if adapter is not None else params.copy()
    if cfg.stage == "cpt":
        adapter = None
        params.set_requires_grad(True)
        trainable = params
    else:
        params.set_requires_grad(False)
        adapter = M.attach_lora(params, cfg.lora, rng)
        trainable = adapter

    opt = OptimState(trainable)
    metrics = []
    n_batches = math.ceil(len(dataset) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches

    if cfg.stage == "cpt":
        grad_step = _CptStep(params, dataset)
    else:
        if cfg.stage == "dpo" and total_steps:
            reference = O.preference_margins(params, None, dataset, vocab, cfg.batch_size)

        def grad_step(idx):
            trainable.grad.fill(0.0)
            batch = [dataset[i] for i in idx]
            if cfg.stage == "sft":
                graph = O.sft_loss(params, adapter, batch, vocab)
                extra = {}
            else:
                graph, rewards = O.dpo_loss(params, adapter, cfg.beta, batch, vocab, reference[idx])
                extra = {"reward_margin": float(rewards.mean()),
                         "reward_acc": float((rewards > 0).mean())}
            backward(graph)
            return float(graph.data), extra

    step = 0
    try:
        for _ in range(cfg.epochs):
            order = rng.permutation(len(dataset))
            for b in range(n_batches):
                lr = lr_at(cfg, step, total_steps)
                loss, extra = grad_step(order[b * cfg.batch_size : (b + 1) * cfg.batch_size])
                grad_norm = clip_gradients(trainable)
                optim_step(trainable, opt, lr, cfg.weight_decay)
                step += 1
                metrics.append({"step": step, "stage": cfg.stage, "lr": lr, "loss": loss,
                                "grad_norm": grad_norm, **extra})
    finally:
        if cfg.stage == "cpt":
            grad_step.close()
    if log_path is not None:
        write_metrics(metrics, log_path)
    new_state = TrainState(params=params, adapter=adapter, stage=cfg.stage,
                           step=step, seed=cfg.seed)
    return new_state, metrics


def write_metrics(metrics, path):
    buf = io.StringIO()
    fields = list(metrics[0]) if metrics else ["step", "stage", "lr", "loss", "grad_norm"]
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(metrics)
    atomic_write(buf.getvalue(), path)


# -- checkpoints -------------------------------------------------------


def _layout(config, lora_config, itemsize):
    """(tensor shapes by kind, tensor index, payload bytes) of a checkpoint of
    this model and adapter config with itemsize-byte floats: the index lists
    every parameter ("p"), then every adapter tensor ("a"), in buffer order,
    each starting where the previous one ends."""
    shapes = {"p": {name: shape for name, shape, _ in M.param_spec(config)},
              "a": {} if lora_config is None else M.lora_shapes(config, lora_config)}
    index, offset = [], 0
    for kind, table in shapes.items():
        for name, shape in table.items():
            index.append({"kind": kind, "name": name, "shape": list(shape), "offset": offset})
            offset += itemsize * math.prod(shape)
    return shapes, index, offset


def save_checkpoint(state, path):
    """Write the checkpoint atomically (temp file in the target directory,
    then rename)."""
    tables = [state.params] if state.adapter is None else [state.params, state.adapter]
    lora_config = None if state.adapter is None else state.adapter.config
    dtype = state.params.data.dtype.newbyteorder("<")
    _, index, payload_bytes = _layout(state.params.config, lora_config, dtype.itemsize)
    header = {
        "config": asdict(state.params.config),
        "adapter": None if lora_config is None else asdict(lora_config),
        "meta": {"stage": state.stage, "step": state.step, "seed": state.seed},
        "dtype": dtype.str,
        "tensors": index,
        "payload_bytes": payload_bytes,
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    body = b"".join([header_bytes, *(t.data.astype(dtype, copy=False).tobytes() for t in tables)])
    atomic_write(MAGIC + struct.pack("<III", VERSION, len(header_bytes), zlib.crc32(body)) + body,
                 path)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise IntegrityError(f"{path}: bad magic at offset 0")
    if len(blob) < PREFIX:
        raise IntegrityError(f"{path}: truncated header at offset {len(blob)}")
    version, header_len, crc = struct.unpack_from("<III", blob, 4)
    if version != VERSION:
        raise IntegrityError(f"{path}: unsupported version {version}")
    header_end = PREFIX + header_len
    if len(blob) < header_end:
        raise IntegrityError(f"{path}: truncated header at offset {len(blob)}")
    try:
        header = json.loads(blob[PREFIX:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: corrupt header ({exc})") from None
    try:
        config = M.ModelConfig(**header["config"])
        a = header["adapter"]
        lcfg = None if a is None else M.LoraConfig(
            rank=a["rank"], alpha=a["alpha"], dropout=a["dropout"],
            targets=tuple(a["targets"]))
        meta = header["meta"]
        stage, step, seed = meta["stage"], meta["step"], meta["seed"]
        if stage not in ("init", *STAGES) or not all(
                type(n) is int and n >= 0 for n in (step, seed)):
            raise IntegrityError(f"{path}: malformed header (meta {meta!r}: stage must be one "
                                 f"of {('init', *STAGES)}, step and seed integers >= 0)")
        dtype = header["dtype"]
        if dtype not in PAYLOAD_DTYPES:
            raise IntegrityError(f"{path}: malformed header (payload dtype {dtype!r}, "
                                 f"need one of {PAYLOAD_DTYPES})")
        dtype = np.dtype(dtype)
        shapes, index, payload_bytes = _layout(config, lcfg, dtype.itemsize)
        if header["tensors"] != index or header["payload_bytes"] != payload_bytes:
            raise IntegrityError(f"{path}: malformed header (tensor index does not match "
                                 f"the model config and adapter config)")
    except (KeyError, TypeError, ConfigError) as exc:
        raise IntegrityError(f"{path}: malformed header ({exc!r})") from None
    expected = header_end + payload_bytes
    if len(blob) != expected:
        raise IntegrityError(f"{path}: payload size mismatch at offset {min(len(blob), expected)}")
    if zlib.crc32(memoryview(blob)[PREFIX:]) != crc:
        raise IntegrityError(f"{path}: checksum mismatch (CRC32 of the bytes from offset "
                             f"{PREFIX} on)")
    payload = np.frombuffer(blob, dtype=dtype, offset=header_end).astype(dtype.type)
    n_base = sum(math.prod(shape) for shape in shapes["p"].values())
    params = M.ModelParams(config, shapes["p"], payload[:n_base])
    adapter = None if lcfg is None else M.LoraAdapter(lcfg, shapes["a"], payload[n_base:])
    return TrainState(params=params, adapter=adapter, stage=stage, step=step, seed=seed)
