import csv
import json
import math
import struct

import numpy as np
import pytest

from medlm import data as D
from medlm import model as M
from medlm import trainer as TR
from medlm.errors import ConfigError, IntegrityError, TrainingError


@pytest.fixture
def vocab():
    return M.build_vocab(["abcdefghQ:A:\n？。药"])


@pytest.fixture
def state(vocab):
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=48)
    params = M.init_params(cfg, np.random.default_rng(9))
    return TR.TrainState(params=params, seed=0)


def _cpt_cfg(**kw):
    base = dict(stage="cpt", learning_rate=0.01, warmup_ratio=0.0, epochs=2,
                batch_size=2, block_size=8)
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
        assert (sft.lora.rank, sft.lora.alpha, sft.lora.dropout) == (8, 32.0, 0.05)
        assert (sft.max_source_length, sft.max_target_length) == (256, 256)
        dpo = TR.default_stage_config("dpo")
        assert (dpo.lora.rank, dpo.lora.alpha) == (8, 16.0)


class TestSchedule:
    def test_linear_warmup_then_constant(self):
        cfg = _cpt_cfg(learning_rate=1.0, warmup_ratio=0.5)
        # 10 total steps -> 5 warmup steps
        assert TR.lr_at(cfg, 0, 10) == 0.0
        assert TR.lr_at(cfg, 1, 10) == pytest.approx(0.2)
        assert TR.lr_at(cfg, 5, 10) == 1.0
        assert TR.lr_at(cfg, 10, 10) == 1.0

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
                             lora=TR.LoraSettings(dropout=0.0))
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
                             lora=TR.LoraSettings(dropout=0.0))
        new_state, _ = TR.run_stage(prev, cfg, [], vocab=vocab)
        merged = M.merge_lora(state.params, adapter)
        for name, t in new_state.params.named():
            assert np.allclose(t.data, merged.tensors[name].data, atol=1e-12)

    def test_dpo_runs_and_logs_metrics(self, state, vocab):
        pairs = [D.PreferencePair(prompt="ab？", preferred="cd。", rejected="ef。")]
        cfg = TR.StageConfig(stage="dpo", learning_rate=0.01, warmup_ratio=0.0,
                             epochs=2, batch_size=4, beta=0.1,
                             lora=TR.LoraSettings(dropout=0.0))
        new_state, metrics = TR.run_stage(state, cfg, pairs, vocab=vocab)
        assert len(metrics) == 2
        # first step: fresh adapter == reference, so loss is exactly ln 2
        assert metrics[0]["loss"] == pytest.approx(math.log(2), abs=1e-9)

    def test_schema_mismatch_rejected(self, state, vocab):
        with pytest.raises(ConfigError):
            TR.run_stage(state, _cpt_cfg(), [D.SftExample(instruction="a", output="b")])

    def test_seeded_run_is_bit_reproducible(self, state):
        blocks = self._blocks()
        s1, m1 = TR.run_stage(state, _cpt_cfg(epochs=3, seed=5), blocks)
        s2, m2 = TR.run_stage(state, _cpt_cfg(epochs=3, seed=5), blocks)
        assert m1 == m2
        for name, t in s1.params.named():
            assert np.array_equal(t.data, s2.params.tensors[name].data)

    def test_metrics_csv_format(self, state, tmp_path):
        log = tmp_path / "metrics.csv"
        TR.run_stage(state, _cpt_cfg(epochs=1), self._blocks(), log_path=log)
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["step", "stage", "lr", "loss"]
        assert rows[0]["stage"] == "cpt" and int(rows[0]["step"]) == 1
        float(rows[0]["lr"]), float(rows[0]["loss"])  # parseable


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
        assert int.from_bytes(blob[4:8], "little") == 1

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
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(IntegrityError):
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


def _rewrite_header(path, edit):
    """Apply edit to the checkpoint's JSON header, keeping the payload bytes."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + n])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + n:])


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
    ], ids=["payload_bytes", "config", "adapter", "meta", "tensors", "meta.stage",
            "config.vocab_size", "adapter.rank", "tensor.offset", "tensor.shape"])
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
    ], ids=["gap", "overlap", "offset-past-end", "short-shape", "long-last-shape",
            "negative-dim", "unknown-kind", "duplicate-name", "adapter-first",
            "uncovered-tail"])
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
        t.zero_grad()
    _assert_views(params)
    adapter = M.attach_lora(params, M.LoraConfig(dropout=0.0), np.random.default_rng(1))
    _assert_views(adapter)
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
                             lora=TR.LoraSettings(dropout=0.0))
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
    TR.atomic_write_text("new", path)
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
