import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlm import model as M
from medlm import tensor as T
from medlm.errors import ConfigError, ContractError, DataError, VocabError


class TestVocab:
    def test_specials_have_fixed_ids(self):
        vocab = M.build_vocab(["ab"])
        assert vocab.symbols[:4] == ("<BOS>", "<EOS>", "<PAD>", "<SEP>")
        assert (M.BOS, M.EOS, M.PAD, M.SEP) == (0, 1, 2, 3)

    def test_chars_sorted_by_code_point(self):
        vocab = M.build_vocab(["ba", "症状"])
        chars = vocab.symbols[4:]
        assert list(chars) == sorted(chars)
        assert set(chars) == {"a", "b", "症", "状"}

    def test_encode_decode_roundtrip(self):
        vocab = M.build_vocab(["医学问答abc"])
        text = "医abc学"
        assert M.decode(vocab, M.encode(vocab, text)) == text

    def test_unknown_char_names_offset(self):
        vocab = M.build_vocab(["ab"])
        with pytest.raises(VocabError, match="offset 2"):
            M.encode(vocab, "abz")

    def test_decode_out_of_range(self):
        vocab = M.build_vocab(["ab"])
        with pytest.raises(VocabError):
            M.decode(vocab, [99])

    def test_decode_text_drops_specials(self):
        vocab = M.build_vocab(["ab"])
        ids = [M.BOS] + M.encode(vocab, "ab") + [M.EOS]
        assert M.decode_text(vocab, ids) == "ab"

    def test_save_load_roundtrip_with_newline_symbol(self, tmp_path):
        vocab = M.build_vocab(["a\nb\\c\r"])
        path = tmp_path / "vocab.txt"
        M.save_vocab(vocab, path)
        loaded = M.load_vocab(path)
        assert loaded.symbols == vocab.symbols
        assert loaded.id_of == vocab.id_of

    def test_vocab_file_is_line_per_symbol(self, tmp_path):
        vocab = M.build_vocab(["ab"])
        path = tmp_path / "vocab.txt"
        M.save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        assert lines == ["<BOS>", "<EOS>", "<PAD>", "<SEP>", "a", "b"]

    def test_failed_save_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        M.save_vocab(M.build_vocab(["ab"]), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="simulated"):
            M.save_vocab(M.build_vocab(["abcdef"]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]

    def test_load_rejects_missing_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n", encoding="utf-8")
        with pytest.raises(VocabError):
            M.load_vocab(path)

    @settings(max_examples=50, deadline=None)
    @given(st.text(min_size=1, max_size=40))
    def test_roundtrip_property(self, text):
        vocab = M.build_vocab([text])
        assert M.decode(vocab, M.encode(vocab, text)) == text

    @settings(max_examples=25, deadline=None)
    @given(st.text(min_size=1, max_size=30))
    def test_save_load_property(self, tmp_path_factory, text):
        vocab = M.build_vocab([text])
        path = tmp_path_factory.mktemp("v") / "vocab.txt"
        M.save_vocab(vocab, path)
        assert M.load_vocab(path).symbols == vocab.symbols


class TestModelConfig:
    def test_d_ff_defaults_to_4x(self):
        cfg = M.ModelConfig(vocab_size=10, d_model=16, n_heads=2)
        assert cfg.d_ff == 64

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(vocab_size=10, d_model=10, n_heads=3)


class TestForward:
    def test_logit_shape(self, tiny_config, tiny_params):
        logits = M.forward_logits(tiny_params, None, [0, 4, 5, 6])
        assert logits.shape == (4, tiny_config.vocab_size)

    def test_causality_is_bit_exact(self, tiny_params):
        """Changing a future token must leave earlier logits bit-identical."""
        a = M.forward_logits(tiny_params, None, [0, 4, 5, 6, 7]).data
        b = M.forward_logits(tiny_params, None, [0, 4, 5, 6, 12]).data
        assert np.array_equal(a[:4], b[:4])
        assert not np.array_equal(a[4], b[4])

    def test_rejects_overlong_sequence(self, tiny_config, tiny_params):
        with pytest.raises(DataError):
            M.forward_logits(tiny_params, None, [0] * (tiny_config.max_seq_len + 1))

    def test_rejects_empty_sequence(self, tiny_params):
        with pytest.raises(DataError):
            M.forward_logits(tiny_params, None, [])

    def test_deterministic(self, tiny_params):
        a = M.forward_logits(tiny_params, None, [0, 4, 5]).data
        b = M.forward_logits(tiny_params, None, [0, 4, 5]).data
        assert np.array_equal(a, b)

    def test_head_slices_cover_d_model(self, tiny_config):
        assert tiny_config.d_model % tiny_config.n_heads == 0


class TestLora:
    def test_fresh_adapter_is_identity(self, tiny_params, rng):
        """B is zero-initialized, so attaching an adapter must not change
        the logits at all (bit-identical)."""
        base = M.forward_logits(tiny_params, None, [0, 4, 5, 6]).data
        adapter = M.attach_lora(tiny_params, M.LoraConfig(dropout=0.0), rng)
        adapted = M.forward_logits(tiny_params, adapter, [0, 4, 5, 6]).data
        assert np.array_equal(base, adapted)

    def test_trained_adapter_changes_logits(self, tiny_params, rng):
        adapter = M.attach_lora(tiny_params, M.LoraConfig(dropout=0.0), rng)
        for name, t in adapter.named():
            if name.endswith(".B"):
                t.data += 0.1
        base = M.forward_logits(tiny_params, None, [0, 4, 5]).data
        adapted = M.forward_logits(tiny_params, adapter, [0, 4, 5]).data
        assert not np.array_equal(base, adapted)

    def test_merge_matches_adapter_forward(self, tiny_params, rng):
        adapter = M.attach_lora(tiny_params, M.LoraConfig(dropout=0.0), rng)
        for name, t in adapter.named():
            t.data[...] = 0.05 * np.random.default_rng(1).standard_normal(t.data.shape)
        with_adapter = M.forward_logits(tiny_params, adapter, [0, 4, 5, 6]).data
        merged = M.merge_lora(tiny_params, adapter)
        folded = M.forward_logits(merged, None, [0, 4, 5, 6]).data
        assert np.max(np.abs(with_adapter - folded)) < 1e-10

    def test_scaling_is_alpha_over_rank(self):
        cfg = M.LoraConfig(rank=8, alpha=32.0)
        assert M.LoraAdapter(cfg, {}).scaling() == 4.0

    def test_unknown_target_rejected(self, tiny_params, rng):
        with pytest.raises(ConfigError):
            M.attach_lora(tiny_params, M.LoraConfig(targets=("nope",)), rng)

    def test_adapter_param_count(self, tiny_config, tiny_params, rng):
        cfg = M.LoraConfig(rank=4)
        adapter = M.attach_lora(tiny_params, cfg, rng)
        per_target = 2 * tiny_config.d_model * 4  # A + B
        expected = per_target * tiny_config.n_layers * len(cfg.targets)
        assert sum(t.data.size for _, t in adapter.named()) == expected


class TestGenerate:
    def test_greedy_is_deterministic(self, tiny_params):
        a = M.generate_greedy(tiny_params, None, [0, 4], 10)
        b = M.generate_greedy(tiny_params, None, [0, 4], 10)
        assert a == b

    def test_stops_at_stop_id(self, tiny_params):
        # whatever the model emits first, treating it as the stop id must
        # end generation immediately
        first = M.generate_greedy(tiny_params, None, [0, 4], 10)[0]
        out = M.generate_greedy(tiny_params, None, [0, 4], 10, stop_id=first)
        assert out == [first]

    def test_respects_max_new(self, tiny_params):
        out = M.generate_greedy(tiny_params, None, [0, 4], 3)
        assert len(out) <= 3

    def test_empty_prompt_rejected(self, tiny_params):
        with pytest.raises(DataError):
            M.generate_greedy(tiny_params, None, [], 5)

    def test_window_slides_past_max_seq_len(self, tiny_config, tiny_params):
        prompt = [0] + [4] * (tiny_config.max_seq_len - 1)
        out = M.generate_greedy(tiny_params, None, prompt, 5)
        assert len(out) >= 1  # no length error raised


def _uncached_greedy(params, adapter, prompt, max_new, stop_id):
    """Greedy decoding without a cache: a full forward over the last window per step."""
    ids, out = list(prompt), []
    with T.no_grad():
        for _ in range(max_new):
            logits = M.forward_logits(params, adapter, ids[-params.config.max_seq_len:])
            nxt = int(np.argmax(logits.data[-1]))
            out.append(nxt)
            if nxt == stop_id:
                break
            ids.append(nxt)
    return out


class TestKvCache:
    @pytest.fixture
    def params(self, tiny_config):
        # a larger init than the default keeps greedy output from settling on
        # one repeated token, so a wrong cached position would show
        return M.init_params(tiny_config, np.random.default_rng(3), init_scale=0.5)

    @pytest.fixture
    def adapter(self, params, rng):
        adapter = M.attach_lora(params, M.LoraConfig(rank=2, dropout=0.0), rng)
        for name, t in adapter.named():
            if name.endswith(".B"):
                t.data[...] = 0.3 * rng.standard_normal(t.data.shape)
        return adapter

    def _prompt(self, config, n):
        rng = np.random.default_rng(n)
        return [M.BOS] + [int(t) for t in rng.integers(4, config.vocab_size, n - 1)]

    # max_seq_len is 24: 22 decodes past the window, 30 starts beyond it
    @pytest.mark.parametrize("prompt_len", [1, 5, 22, 30])
    @pytest.mark.parametrize("with_adapter", [False, True])
    def test_generate_matches_uncached(self, tiny_config, params, adapter,
                                       prompt_len, with_adapter):
        adapter = adapter if with_adapter else None
        prompt = self._prompt(tiny_config, prompt_len)
        ref = _uncached_greedy(params, adapter, prompt, 12, stop_id=-1)
        assert len(set(ref)) > 1
        assert M.generate_greedy(params, adapter, prompt, 12, stop_id=-1) == ref

    def test_early_stop_matches_uncached(self, tiny_config, params):
        prompt = self._prompt(tiny_config, 5)
        free = _uncached_greedy(params, None, prompt, 12, stop_id=-1)
        j = next(j for j in range(1, len(free)) if free[j] not in free[:j])
        out = M.generate_greedy(params, None, prompt, 12, stop_id=free[j])
        assert out == free[: j + 1]
        assert out == _uncached_greedy(params, None, prompt, 12, stop_id=free[j])

    def test_prefill_then_steps_match_full_forward(self, tiny_config, params, adapter):
        tokens = self._prompt(tiny_config, tiny_config.max_seq_len)
        cache = []
        with T.no_grad():
            full = M.forward_logits(params, adapter, tokens).data
            rows = [M.forward_logits(params, adapter, tokens[:10], cache=cache).data]
            for tok in tokens[10:]:
                rows.append(M.forward_logits(params, adapter, [tok], cache=cache).data)
        # the one-row matmuls may round differently from the full ones
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0, atol=1e-12)
        assert len(cache) == tiny_config.n_layers
        for k, v in cache:
            assert k.shape == v.shape == (len(tokens), tiny_config.d_model)

    def test_cache_needs_no_grad(self, params):
        with pytest.raises(ContractError):
            M.forward_logits(params, None, [0, 4], cache=[])

    def test_cache_overflow_rejected(self, tiny_config, params):
        cache = []
        with T.no_grad():
            M.forward_logits(params, None, [0] * (tiny_config.max_seq_len - 1), cache=cache)
            M.forward_logits(params, None, [4], cache=cache)  # exactly full
            with pytest.raises(DataError):
                M.forward_logits(params, None, [4], cache=cache)


def test_init_params_is_seeded(tiny_config):
    a = M.init_params(tiny_config, np.random.default_rng(7))
    b = M.init_params(tiny_config, np.random.default_rng(7))
    for name, t in a.named():
        assert np.array_equal(t.data, b.tensors[name].data)


def test_params_copy_is_deep(tiny_params):
    c = tiny_params.copy()
    c["embed"].data += 1.0
    assert not np.array_equal(c["embed"].data, tiny_params["embed"].data)
