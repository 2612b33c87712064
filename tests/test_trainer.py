import csv
import concurrent.futures
import dataclasses
import functools
import json
import math
import os
import stat
import struct
import tempfile
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medlm import data as D
from medlm import model as M
from medlm import objectives as O
from medlm import trainer as TR
from medlm.atomic import atomic_write
from medlm.errors import ConfigError, DataError, IntegrityError, TrainingError
from medlm.tensor import backward


@pytest.fixture
def vocab():
    return M.build_vocab(["abcdefghQ:A:\n？。药"])


@pytest.fixture
def state(vocab):
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=48)
    params = M.init_params(cfg, np.random.default_rng(9))
    return TR.TrainState(params=params, seed=0)


@pytest.fixture
def state64(state):
    """state in float64, for tests with float64 tolerances."""
    return TR.TrainState(params=oracles.float64_table(state.params), seed=0)


def _cpt_cfg(**kw):
    base = dict(stage="cpt", learning_rate=0.01, warmup_ratio=0.0, epochs=2,
                batch_size=2)
    base.update(kw)
    return TR.StageConfig(**base)


class TestStageConfig:
    def test_rejects_unknown_stage(self):
        with pytest.raises(ConfigError):
            TR.StageConfig(stage="rl", learning_rate=0.1)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            TR.StageConfig(stage="cpt", learning_rate=0.0)

    def test_sft_defaults_lora(self):
        cfg = TR.StageConfig(stage="sft", learning_rate=0.1)
        assert cfg.lora is not None and cfg.lora.alpha == 32.0

    def test_dpo_defaults_lora_alpha_16(self):
        cfg = TR.StageConfig(stage="dpo", learning_rate=0.1)
        assert cfg.lora.alpha == 16.0

    def test_published_defaults(self):
        cpt = TR.default_stage_config("cpt")
        assert (cpt.learning_rate, cpt.warmup_ratio, cpt.weight_decay, cpt.epochs) \
            == (2e-4, 0.05, 0.01, 3)
        sft = TR.default_stage_config("sft")
        assert (sft.learning_rate, sft.weight_decay) == (2e-5, 0.05)
        assert (sft.lora.rank, sft.lora.alpha, sft.lora.dropout) == (8, 32.0, 0.0)
        dpo = TR.default_stage_config("dpo")
        assert (dpo.lora.rank, dpo.lora.alpha) == (8, 16.0)


class TestSchedule:
    def test_linear_warmup_then_cosine_decay(self):
        cfg = _cpt_cfg(learning_rate=1.0, warmup_ratio=0.5)
        # 10 total steps -> 5 warmup steps, then 5 of decay
        assert TR.lr_at(cfg, 0, 10) == 0.0
        assert TR.lr_at(cfg, 1, 10) == pytest.approx(0.2)
        assert TR.lr_at(cfg, 5, 10) == 1.0
        for step in range(6, 11):
            want = 0.5 * (1.0 + math.cos(math.pi * (step - 5) / 5))
            assert TR.lr_at(cfg, step, 10) == pytest.approx(want, abs=1e-15)
        assert TR.lr_at(cfg, 10, 10) == 0.0
        lrs = [TR.lr_at(cfg, step, 10) for step in range(5, 11)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_no_warmup_starts_at_the_peak(self):
        cfg = _cpt_cfg(learning_rate=2.0, warmup_ratio=0.0)
        assert TR.lr_at(cfg, 0, 4) == 2.0
        assert TR.lr_at(cfg, 2, 4) == pytest.approx(1.0)

    def test_warmup_covering_every_step_leaves_no_decay(self):
        # ceil(0.5 * 1) = 1 warmup step of 1: no decay steps to divide by
        cfg = _cpt_cfg(learning_rate=1.0, warmup_ratio=0.5)
        assert TR.lr_at(cfg, 0, 1) == 0.0
        assert TR.lr_at(cfg, 1, 1) == 1.0

    def test_warmup_steps_are_ceiled(self):
        cfg = _cpt_cfg(learning_rate=1.0, warmup_ratio=0.05)
        # ceil(0.05 * 30) = 2 warmup steps
        assert TR.lr_at(cfg, 1, 30) == pytest.approx(0.5)
        assert TR.lr_at(cfg, 2, 30) == 1.0

    def test_zero_total_steps_rejected(self):
        with pytest.raises(ConfigError):
            TR.lr_at(_cpt_cfg(), 0, 0)


def _table(**values):
    """A parameter table with one 1-d tensor per keyword, grads zeroed."""
    shapes = {name: (len(v),) for name, v in values.items()}
    return M.ParamTable(None, shapes, np.concatenate([np.asarray(v, float)
                                                      for v in values.values()]))


class TestOptimizer:
    def test_single_step_matches_manual_formula(self):
        table = _table(w=[1.0, -2.0])
        table["w"].grad[:] = [0.5, -0.25]
        opt = TR.OptimState(table)
        lr, wd = 0.1, 0.01
        w0 = table["w"].data.copy()
        g = table["w"].grad.copy()
        TR.optim_step(table, opt, lr, wd)
        m = (1 - TR.ADAM_BETA1) * g
        v = (1 - TR.ADAM_BETA2) * g * g
        m_hat = m / (1 - TR.ADAM_BETA1)
        v_hat = v / (1 - TR.ADAM_BETA2)
        expected = w0 - lr * (m_hat / (np.sqrt(v_hat) + TR.ADAM_EPS) + wd * w0)
        assert np.allclose(table["w"].data, expected, atol=1e-15)

    def test_weight_decay_is_decoupled(self):
        # zero gradient: only the decay term moves the weight
        table = _table(w=[2.0])
        opt = TR.OptimState(table)
        TR.optim_step(table, opt, lr=0.1, weight_decay=0.5)
        assert np.allclose(table["w"].data, 2.0 - 0.1 * 0.5 * 2.0)

    def test_nonfinite_gradient_names_tensor(self):
        table = _table(head=[1.0], embed=[1.0, 2.0])
        table["embed"].grad[1] = np.nan
        opt = TR.OptimState(table)
        with pytest.raises(TrainingError, match="'embed'"):
            TR.optim_step(table, opt, 0.1, 0.0)
        assert np.array_equal(table.data, [1.0, 1.0, 2.0])  # nothing updated

    def test_clip_rescales_to_max_norm(self):
        table = _table(w=[3.0], b=[4.0])
        table.grad[:] = [3.0, 4.0]
        norm = TR.clip_gradients(table, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(table["w"].grad, [0.6]) and np.allclose(table["b"].grad, [0.8])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clip_survives_a_huge_finite_entry(self, dtype):
        # in float32, 1e20 squared overflows: a float32 sum of squares reads
        # inf, and scaling by 1/inf would zero the whole update
        table = M.ParamTable(None, {"w": (3,)}, dtype=dtype)
        table.grad[:] = [1e20, 3.0, -4.0]
        norm = TR.clip_gradients(table, max_norm=1.0)
        assert norm == pytest.approx(1e20, rel=1e-6)
        assert table.grad.dtype == dtype
        assert table.grad[0] == pytest.approx(1.0, rel=1e-6) and table.grad[1] > 0

    def test_clip_leaves_small_gradients_alone(self):
        table = _table(w=[0.1])
        table.grad[:] = [0.1]
        TR.clip_gradients(table, max_norm=1.0)
        assert table["w"].grad[0] == 0.1


class TestRunStage:
    def _blocks(self):
        rng = np.random.default_rng(4)
        return [list(rng.integers(4, 12, size=8)) for _ in range(6)]

    def test_cpt_reduces_loss(self, state):
        new_state, metrics = TR.run_stage(state, _cpt_cfg(epochs=10), self._blocks())
        assert metrics[-1]["loss"] < metrics[0]["loss"]
        assert new_state.stage == "cpt" and new_state.adapter is None

    def test_incoming_state_is_not_mutated(self, state):
        before = {n: t.data.copy() for n, t in state.params.named()}
        TR.run_stage(state, _cpt_cfg(), self._blocks())
        for name, t in state.params.named():
            assert np.array_equal(t.data, before[name])

    def test_sft_trains_only_adapter(self, state, vocab):
        examples = [D.SftExample(instruction="ab？", output="cd。") for _ in range(4)]
        cfg = TR.StageConfig(stage="sft", learning_rate=0.01, warmup_ratio=0.0,
                             epochs=2, batch_size=2,
                             lora=M.LoraConfig(dropout=0.0))
        new_state, metrics = TR.run_stage(state, cfg, examples, vocab=vocab)
        assert new_state.adapter is not None
        for name, t in new_state.params.named():
            assert np.array_equal(t.data, state.params.tensors[name].data)
        changed = any(
            float(np.abs(t.data).sum()) > 0
            for name, t in new_state.adapter.named() if name.endswith(".B")
        )
        assert changed

    def test_incoming_adapter_merged_before_new_stage(self, state, vocab):
        adapter = M.attach_lora(state.params, M.LoraConfig(dropout=0.0),
                                np.random.default_rng(1))
        for name, t in adapter.named():
            if name.endswith(".B"):
                t.data += 0.01
        prev = TR.TrainState(params=state.params, adapter=adapter)
        cfg = TR.StageConfig(stage="sft", learning_rate=0.01, epochs=0,
                             lora=M.LoraConfig(dropout=0.0))
        new_state, _ = TR.run_stage(prev, cfg, [], vocab=vocab)
        merged = M.merge_lora(state.params, adapter)
        for name, t in new_state.params.named():
            assert np.allclose(t.data, merged.tensors[name].data, atol=1e-12)

    def test_dpo_runs_and_logs_metrics(self, state64, vocab):
        pairs = [D.PreferencePair(prompt="ab？", preferred="cd。", rejected="ef。")]
        cfg = TR.StageConfig(stage="dpo", learning_rate=0.01, warmup_ratio=0.0,
                             epochs=2, batch_size=4, beta=0.1,
                             lora=M.LoraConfig(dropout=0.0))
        new_state, metrics = TR.run_stage(state64, cfg, pairs, vocab=vocab)
        assert len(metrics) == 2
        # first step: fresh adapter == reference, so loss is exactly ln 2
        assert metrics[0]["loss"] == pytest.approx(math.log(2), abs=1e-9)

    def test_dpo_reference_follows_batch_order(self, state64, vocab):
        # with a vanishing learning rate the policy stays the reference, so
        # every step's loss is ln 2 only if each pair meets its own reference
        pairs = [D.PreferencePair(prompt="ab" * i + "？", preferred="c" * i + "。",
                                  rejected="d药。") for i in range(1, 6)]
        cfg = TR.StageConfig(stage="dpo", learning_rate=1e-300, warmup_ratio=0.0,
                             epochs=2, batch_size=2, lora=M.LoraConfig(dropout=0.0))
        _, metrics = TR.run_stage(state64, cfg, pairs, vocab=vocab)
        assert len(metrics) == 6
        for row in metrics:
            assert row["loss"] == pytest.approx(math.log(2), abs=1e-12)
            assert abs(row["reward_margin"]) < 1e-12

    def test_schema_mismatch_rejected(self, state, vocab):
        with pytest.raises(ConfigError):
            TR.run_stage(state, _cpt_cfg(), [D.SftExample(instruction="a", output="b")])

    def test_mixed_length_cpt_batch_trains(self, state64):
        state = state64  # a float64 oracle: the two halves' sum is not float32's one sum
        blocks = [b[:n] for b, n in zip(self._blocks(), (8, 5, 2, 8, 3, 6))]
        new_state, metrics = TR.run_stage(state, _cpt_cfg(epochs=10, batch_size=6), blocks)
        # the first step's loss is the token-weighted mean NLL at the initial params
        nll = []
        for b in blocks:
            logits = M.forward_logits(state.params, None, b[:-1]).data
            logp = logits - logits.max(axis=1, keepdims=True)
            logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
            nll += [-logp[t, target] for t, target in enumerate(b[1:])]
        assert metrics[0]["loss"] == pytest.approx(np.mean(nll), rel=1e-12)
        assert metrics[-1]["loss"] < metrics[0]["loss"]
        assert not np.array_equal(new_state.params.data, state.params.data)

    def test_seeded_run_is_bit_reproducible(self, state):
        blocks = self._blocks()
        s1, m1 = TR.run_stage(state, _cpt_cfg(epochs=3, seed=5), blocks)
        s2, m2 = TR.run_stage(state, _cpt_cfg(epochs=3, seed=5), blocks)
        assert m1 == m2
        for name, t in s1.params.named():
            assert np.array_equal(t.data, s2.params.tensors[name].data)

    def test_metrics_csv_format(self, state, vocab, tmp_path):
        log = tmp_path / "metrics.csv"
        TR.run_stage(state, _cpt_cfg(epochs=1), self._blocks(), log_path=log)
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["step", "stage", "lr", "loss", "grad_norm"]
        assert rows[0]["stage"] == "cpt" and int(rows[0]["step"]) == 1
        float(rows[0]["lr"]), float(rows[0]["loss"])  # parseable
        assert float(rows[0]["grad_norm"]) > 0

        # dpo rows add the batch's reward margin and reward accuracy
        pairs = [D.PreferencePair(prompt="ab？", preferred="cd。", rejected="ef药。"),
                 D.PreferencePair(prompt="abc？", preferred="g。", rejected="hd。")]
        cfg = TR.StageConfig(stage="dpo", learning_rate=0.05, warmup_ratio=0.0, epochs=3,
                             batch_size=2, lora=M.LoraConfig(dropout=0.0))
        _, metrics = TR.run_stage(state, cfg, pairs, vocab=vocab, log_path=log)
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["step", "stage", "lr", "loss", "grad_norm",
                                        "reward_margin", "reward_acc"]
        # step 1: the fresh adapter is the reference, so every margin is ~0
        assert abs(float(rows[0]["reward_margin"])) < 1e-12
        for row, m in zip(rows, metrics):
            margin, acc = float(row["reward_margin"]), float(row["reward_acc"])
            assert acc in (0.0, 0.5, 1.0) and margin == m["reward_margin"]
            # -log sigmoid is convex: the loss is at least that of the mean margin
            assert float(row["loss"]) >= -math.log(1.0 / (1.0 + math.exp(-margin))) - 1e-12
        assert float(rows[-1]["reward_margin"]) > 0 and float(rows[-1]["reward_acc"]) > 0


class _InlineExecutor:
    """ThreadPoolExecutor's interface, running each call at once in the caller's thread."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self):
        pass


class TestDataParallelCpt:
    """CPT trains each batch's two halves on two threads; the bits are those
    of running both halves in one thread."""

    @staticmethod
    def _blocks(n):
        rng = np.random.default_rng(6)
        return [list(rng.integers(4, 12, size=int(k))) for k in rng.integers(2, 10, size=n)]

    @pytest.mark.parametrize("n_blocks,batch_size", [(7, 3), (11, 5), (5, 5)])
    def test_two_threads_give_the_bits_of_one(self, state, monkeypatch, n_blocks, batch_size):
        blocks = self._blocks(n_blocks)  # 7 and 11: the last batch is one block
        stage = _cpt_cfg(epochs=3, batch_size=batch_size, seed=4)
        threads = threading.active_count()
        two, two_metrics = TR.run_stage(state, stage, blocks)
        assert threading.active_count() == threads
        monkeypatch.setattr(TR, "ThreadPoolExecutor", _InlineExecutor)
        one, one_metrics = TR.run_stage(state, stage, blocks)
        assert two.params.data.dtype == np.float32
        assert two_metrics == one_metrics
        assert two.params.data.tobytes() == one.params.data.tobytes()

    def test_step_follows_the_whole_batch_gradient(self, state64):
        # in float64 the halves' summed gradient is the batch's to rounding
        blocks = self._blocks(5)
        stage = _cpt_cfg(epochs=1, batch_size=5)
        new_state, _ = TR.run_stage(state64, stage, blocks)
        ref = state64.params.copy()
        ref.set_requires_grad(True)
        backward(O.cpt_loss(ref, None, blocks))
        TR.clip_gradients(ref)
        TR.optim_step(ref, TR.OptimState(ref), TR.lr_at(stage, 0, 1), stage.weight_decay)
        np.testing.assert_allclose(new_state.params.data, ref.data, rtol=0, atol=1e-12)

    def test_error_in_half_1_is_raised(self, state):
        blocks = self._blocks(6)
        stage = _cpt_cfg(epochs=1, batch_size=6, seed=2)
        order = np.random.default_rng(stage.seed).permutation(len(blocks))
        blocks[order[-1]] = [4] * (state.params.config.max_seq_len + 2)  # in half 1
        threads = threading.active_count()
        with pytest.raises(DataError, match="max_seq_len"):
            TR.run_stage(state, stage, blocks)
        assert threading.active_count() == threads


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, state, tmp_path):
        state.adapter = M.attach_lora(state.params, M.LoraConfig(),
                                      np.random.default_rng(3))
        state.stage, state.step, state.seed = "sft", 17, 5
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        loaded = TR.load_checkpoint(path)
        assert loaded.stage == "sft" and loaded.step == 17 and loaded.seed == 5
        assert loaded.params.config == state.params.config
        for name, t in state.params.named():
            assert np.array_equal(loaded.params.tensors[name].data, t.data)
        for name, t in state.adapter.named():
            assert np.array_equal(loaded.adapter.tensors[name].data, t.data)
        assert loaded.adapter.config == state.adapter.config

    def test_magic_and_version(self, state, tmp_path):
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        blob = path.read_bytes()
        assert blob[:4] == b"QLNM"
        version, header_len, crc = struct.unpack_from("<III", blob, 4)
        assert version == 3
        assert crc == zlib.crc32(blob[16:])
        header = json.loads(blob[16:16 + header_len])
        assert header["dtype"] == "<f4"
        assert len(blob) == 16 + header_len + 4 * state.params.n_params()

    def test_bad_magic_rejected_with_offset(self, state, tmp_path):
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="offset 0"):
            TR.load_checkpoint(path)

    def test_truncation_rejected(self, state, tmp_path):
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        blob = path.read_bytes()
        for n in range(4, 12):  # inside the version or header-length field
            path.write_bytes(blob[:n])
            with pytest.raises(IntegrityError, match=f"truncated header at offset {n}$"):
                TR.load_checkpoint(path)
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(IntegrityError, match="offset"):
            TR.load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_keeps_the_dtype(self, state, tmp_path, dtype):
        params = M.ModelParams(state.params.config, state.params.shapes,
                               state.params.data.astype(dtype))
        adapter = M.attach_lora(params, M.LoraConfig(), np.random.default_rng(3))
        adapter.data[...] = np.random.default_rng(4).standard_normal(adapter.data.shape)
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(TR.TrainState(params=params, adapter=adapter), path)
        loaded = TR.load_checkpoint(path)
        for want, got in ((params, loaded.params), (adapter, loaded.adapter)):
            assert got.data.dtype == dtype and got.data.tobytes() == want.data.tobytes()

    def test_version_1_file_rejected(self, state, tmp_path):
        # the float64 layout before the checksum: magic, version 1, header
        # length, JSON header, payload
        path = tmp_path / "model.ckpt"
        header = json.dumps({"config": dataclasses.asdict(state.params.config)}).encode()
        path.write_bytes(b"QLNM" + struct.pack("<II", 1, len(header)) + header
                         + state.params.data.astype("<f8").tobytes())
        with pytest.raises(IntegrityError, match="unsupported version 1$"):
            TR.load_checkpoint(path)

    def test_version_2_file_rejected(self, state, tmp_path):
        # the layout before model dropout went: version 2, a valid checksum
        # and a model config holding "dropout": 0.0
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        blob = path.read_bytes()
        n = struct.unpack_from("<I", blob, 8)[0]
        header = json.loads(blob[16:16 + n])
        header["config"]["dropout"] = 0.0
        raw = json.dumps(header).encode()
        body = raw + blob[16 + n:]
        path.write_bytes(b"QLNM" + struct.pack("<III", 2, len(raw), zlib.crc32(body)) + body)
        with pytest.raises(IntegrityError, match="unsupported version 2$"):
            TR.load_checkpoint(path)

    def test_payload_bit_flip_is_a_checksum_mismatch(self, state, tmp_path):
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            TR.load_checkpoint(path)

    def test_unsupported_version_rejected(self, state, tmp_path):
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="version"):
            TR.load_checkpoint(path)

    def test_no_partial_file_left_on_failure(self, state, tmp_path):
        target = tmp_path / "sub" / "model.ckpt"
        with pytest.raises(FileNotFoundError):
            TR.save_checkpoint(state, target)  # parent dir does not exist
        assert not (tmp_path / "sub").exists()
        assert list(tmp_path.iterdir()) == []


@functools.lru_cache(maxsize=None)
def _fuzz_checkpoint():
    """(bytes, header end) of a small float32 checkpoint with an adapter."""
    vocab = M.build_vocab(["abcdefghQ:A:\n？。药"])
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                        max_seq_len=8)
    params = M.init_params(cfg, np.random.default_rng(9))
    adapter = M.attach_lora(params, M.LoraConfig(rank=2), np.random.default_rng(3))
    state = TR.TrainState(params=params, adapter=adapter, stage="sft", step=7, seed=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        TR.save_checkpoint(state, path)
        with open(path, "rb") as fh:
            blob = fh.read()
    return blob, 16 + struct.unpack_from("<I", blob, 8)[0]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), xor=st.integers(1, 255))
def test_single_byte_flip_is_rejected_or_harmless(data, xor):
    blob, header_end = _fuzz_checkpoint()
    # half the flips land in the magic, prefix and JSON header
    offset = data.draw(st.one_of(st.integers(0, header_end - 1),
                                 st.integers(0, len(blob) - 1)))
    flipped = bytearray(blob)
    flipped[offset] ^= xor
    with tempfile.TemporaryDirectory() as tmp:
        original, path = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        for name, content in ((original, blob), (path, flipped)):
            with open(name, "wb") as fh:
                fh.write(content)
        want = TR.load_checkpoint(original)
        try:
            got = TR.load_checkpoint(path)
        except IntegrityError:
            return
    assert (got.params.config, got.adapter.config, got.stage, got.step, got.seed) == \
        (want.params.config, want.adapter.config, want.stage, want.step, want.seed)
    for a, b in ((got.params, want.params), (got.adapter, want.adapter)):
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes()


def _rewrite_header(path, edit):
    """Apply edit to the checkpoint's JSON header, keeping the payload bytes
    and giving the file the checksum of its new contents, so that only the
    header's own checks can reject it."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[16:16 + n])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    body = raw + blob[16 + n:]
    path.write_bytes(blob[:8] + struct.pack("<II", len(raw), zlib.crc32(body)) + body)


def _shift(i, delta):
    def edit(h):
        h["tensors"][i]["offset"] += delta
    return edit


def _delete(*keys):
    def edit(h):
        for k in keys[:-1]:
            h = h[k]
        del h[keys[-1]]
    return edit


def _set(i, key, value):
    def edit(h):
        h["tensors"][i][key] = value(h) if callable(value) else value
    return edit


def _config(key, value):
    def edit(h):
        h["config"][key] = value
    return edit


def _head(key, value):
    def edit(h):
        entry = next(e for e in h["tensors"] if e["name"] == "head")
        entry[key] = value(entry) if callable(value) else value
    return edit


def _move_last_to_front(h):
    h["tensors"].insert(0, h["tensors"].pop())


class TestCheckpointHeader:
    """A header the payload cannot be read by is an IntegrityError, never a
    KeyError or a silently misread tensor."""

    @pytest.fixture
    def path(self, state, tmp_path):
        state.adapter = M.attach_lora(state.params, M.LoraConfig(),
                                      np.random.default_rng(3))
        path = tmp_path / "model.ckpt"
        TR.save_checkpoint(state, path)
        return path

    @pytest.mark.parametrize("edit", [
        _delete("payload_bytes"), _delete("config"), _delete("adapter"),
        _delete("meta"), _delete("tensors"), _delete("meta", "stage"),
        _delete("config", "vocab_size"), _delete("adapter", "rank"),
        _delete("tensors", 2, "offset"), _delete("tensors", 2, "shape"),
        _config("n_heads", 0), _config("d_model", -16), _config("n_layers", 0),
        _config("vocab_size", 0),
        lambda h: h["adapter"].update(rank=0),
        lambda h: h["adapter"].update(targets=["wz"]),
        lambda h: h["adapter"].update(alpha=float("nan")),
        lambda h: h["adapter"].update(alpha=float("inf")),
        lambda h: h["adapter"].update(alpha=0.0),
        lambda h: h.update(meta={"stage": 5, "step": "x", "seed": -1}),
        lambda h: h.update(meta="bogus"),
        lambda h: h.update(meta=[]),
        lambda h: h.update(meta=None),
        lambda h: h["meta"].update(stage="pretrain"),
        lambda h: h["meta"].update(stage=None),
        lambda h: h["meta"].update(step=-1),
        lambda h: h["meta"].update(step=1.0),
        lambda h: h["meta"].update(step=True),
        lambda h: h["meta"].update(seed="0"),
        lambda h: h["meta"].update(seed=False),
    ], ids=["payload_bytes", "config", "adapter", "meta", "tensors", "meta.stage",
            "config.vocab_size", "adapter.rank", "tensor.offset", "tensor.shape",
            "zero-heads", "negative-d_model", "zero-layers", "zero-vocab",
            "zero-rank", "unknown-target", "nan-alpha", "infinite-alpha", "zero-alpha",
            "meta-all-wrong", "meta-str", "meta-list", "meta-null", "unknown-stage",
            "null-stage", "negative-step", "float-step", "bool-step", "str-seed",
            "bool-seed"])
    def test_missing_key(self, path, edit):
        _rewrite_header(path, edit)
        with pytest.raises(IntegrityError, match="malformed header"):
            TR.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        _shift(1, 8),
        _shift(1, -8),
        _set(-1, "offset", lambda h: h["payload_bytes"] + 8),
        _set(0, "shape", lambda h: [h["tensors"][0]["shape"][0] - 1,
                                    h["tensors"][0]["shape"][1]]),
        _set(-1, "shape", lambda h: [h["tensors"][-1]["shape"][0] + 1,
                                     h["tensors"][-1]["shape"][1]]),
        _set(0, "shape", [-1, 1]),
        _set(1, "kind", "x"),
        _set(1, "name", "embed"),
        _move_last_to_front,
        _delete("tensors", -1),
        _head("name", "head2"),
        _head("shape", lambda e: e["shape"][::-1]),
        _config("max_seq_len", 47),
    ], ids=["gap", "overlap", "offset-past-end", "short-shape", "long-last-shape",
            "negative-dim", "unknown-kind", "duplicate-name", "adapter-first",
            "uncovered-tail", "renamed-head", "reshaped-head", "config-mismatch"])
    def test_index_must_tile_payload(self, path, edit):
        _rewrite_header(path, edit)
        with pytest.raises(IntegrityError):
            TR.load_checkpoint(path)

    def test_adapter_tensors_need_adapter_config(self, path):
        _rewrite_header(path, lambda h: h.update(adapter=None))
        with pytest.raises(IntegrityError, match="adapter config"):
            TR.load_checkpoint(path)


def _assert_views(table):
    """Every tensor's .data and .grad are views of the table's buffers, in order."""
    assert np.array_equal(np.concatenate([t.data.ravel() for _, t in table.named()]),
                          table.data)
    for name, t in table.named():
        assert np.shares_memory(t.data, table.data), name
        if table.grad is None:
            assert t.grad is None and not t.requires_grad, name
        else:
            assert np.shares_memory(t.grad, table.grad) and t.requires_grad, name


def test_tensors_stay_views_of_their_buffers(state, vocab, tmp_path):
    params = state.params
    for _, t in params.named():
        oracles.zero_grad(t)
    _assert_views(params)
    adapter = M.attach_lora(params, M.LoraConfig(dropout=0.0), np.random.default_rng(1))
    _assert_views(adapter)
    assert params.grad is not None and params.copy().grad is None
    _assert_views(params.copy())
    _assert_views(adapter.copy())
    adapter.data += 0.01
    _assert_views(M.merge_lora(params, adapter))

    blocks = [list(range(4, 12)), list(range(5, 13))]
    cpt, metrics = TR.run_stage(state, _cpt_cfg(epochs=1), blocks)
    assert len(metrics) == 1
    _assert_views(cpt.params)
    assert np.any(cpt.params.grad != 0)  # backward wrote into the buffer

    examples = [D.SftExample(instruction="ab？", output="cd。")]
    sft_cfg = TR.StageConfig(stage="sft", learning_rate=0.01, epochs=1,
                             lora=M.LoraConfig(dropout=0.0))
    sft, metrics = TR.run_stage(cpt, sft_cfg, examples, vocab=vocab)
    assert len(metrics) == 1
    _assert_views(sft.params)
    _assert_views(sft.adapter)
    assert np.any(sft.adapter.grad != 0)

    TR.save_checkpoint(sft, tmp_path / "model.ckpt")
    loaded = TR.load_checkpoint(tmp_path / "model.ckpt")
    _assert_views(loaded.params)
    _assert_views(loaded.adapter)


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write("new", path)
    assert path.read_text() == "new"
    atomic_write(b"\x00bytes", path)
    assert path.read_bytes() == b"\x00bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_gives_the_umask_mode(tmp_path):
    # like open(path, "w"): 0o666 less the umask, not mkstemp's 0o600
    old = os.umask(0o022)
    try:
        atomic_write("x", tmp_path / "a.txt")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == 0o644
