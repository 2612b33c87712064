import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medlm import model as M
from medlm import tensor as T
from medlm import trainer as TR
from medlm.errors import ConfigError, DataError, VocabError


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

    def test_unknown_char_error_names_the_first_one(self):
        vocab = M.build_vocab(["abz"])
        with pytest.raises(VocabError) as exc:
            M.encode(vocab, "ab?z?")
        assert str(exc.value) == "unknown character '?' at offset 2"

    def test_empty_text_encodes_to_no_ids(self):
        assert M.encode(M.build_vocab(["ab"]), "") == []

    def test_decode_out_of_range(self):
        vocab = M.build_vocab(["ab"])
        for bad in ([99], [-1], [4, 6], [4, -6]):
            with pytest.raises(VocabError, match=r"out of range \[0, 6\)"):
                M.decode(vocab, bad)

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

    # the file save_vocab writes for build_vocab(["ab"]) is "<BOS>\n...<SEP>\na\nb\n"
    @pytest.mark.parametrize("edit, line, message", [
        (lambda t: t[:-1], 6, "no newline at the end"),
        (lambda t: t + "a\n", 7, "symbol 'a' repeats line 5"),
        (lambda t: t.replace("a\n", "\na\n"), 5, "blank line"),
        (lambda t: t + "\n", 7, "blank line")])
    def test_load_rejects_a_broken_line(self, tmp_path, edit, line, message):
        path = tmp_path / "vocab.txt"
        M.save_vocab(M.build_vocab(["ab"]), path)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(VocabError) as exc:
            M.load_vocab(path)
        assert str(exc.value) == f"vocab file {path} line {line}: {message}"

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

    @pytest.mark.parametrize("with_adapter", [False, True])
    def test_batch_rows_match_single_sequences(self, tiny_config, tiny_params,
                                               with_adapter):
        rng = np.random.default_rng(3)
        adapter = None
        if with_adapter:
            adapter = M.attach_lora(tiny_params, M.LoraConfig(dropout=0.0), rng)
            adapter.data[...] = 0.05 * rng.standard_normal(adapter.data.shape)
        tokens = rng.integers(0, tiny_config.vocab_size, size=(3, 9))
        flat = M.forward_logits(tiny_params, adapter, tokens.ravel(), lengths=[9] * 3).data
        batch = flat.reshape(3, 9, -1)
        assert batch.shape == (3, 9, tiny_config.vocab_size)
        for row, logits in zip(tokens, batch):
            single = M.forward_logits(tiny_params, adapter, list(row)).data
            assert np.allclose(logits, single, rtol=0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(1, 24), min_size=1, max_size=5),
           with_adapter=st.booleans(), seed=st.integers(0, 2**16))
    def test_ragged_rows_match_single_sequences(self, lengths, with_adapter, seed):
        tiny_config = M.ModelConfig(vocab_size=13, d_model=16, n_layers=2, n_heads=2,
                                    max_seq_len=24)  # conftest's tiny config
        tiny_params = oracles.float64_table(M.init_params(tiny_config,
                                                          np.random.default_rng(42)))
        rng = np.random.default_rng(seed)
        adapter = None
        if with_adapter:
            adapter = M.attach_lora(tiny_params, M.LoraConfig(dropout=0.0), rng)
            adapter.data[...] = 0.05 * rng.standard_normal(adapter.data.shape)
        tokens = rng.integers(0, tiny_config.vocab_size, size=sum(lengths))
        ragged = M.forward_logits(tiny_params, adapter, tokens, lengths=lengths).data
        start = 0
        for n in lengths:
            single = M.forward_logits(tiny_params, adapter, tokens[start:start + n]).data
            assert np.allclose(ragged[start:start + n], single, rtol=0.0, atol=1e-12)
            start += n

    def test_segments_restart_positions(self, tiny_params):
        # the second segment is the first one again, so its logits must be too
        logits = M.forward_logits(tiny_params, None, [0, 4, 5, 0, 4, 5],
                                  lengths=[3, 3]).data
        assert np.allclose(logits[:3], logits[3:], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("lengths", [[2, 1], [5, 0], [0, 4]])
    def test_rejects_lengths_not_covering_tokens(self, tiny_params, lengths):
        with pytest.raises(DataError):
            M.forward_logits(tiny_params, None, [0, 4, 5, 6], lengths=lengths)

    def test_one_segment_lengths_and_scored_accepted(self, tiny_params64):
        tokens = [0, 4, 5]
        full = M.forward_logits(tiny_params64, None, tokens).data
        for lengths in ([3], (3,), np.array([3])):
            out = M.forward_logits(tiny_params64, None, tokens, lengths=lengths).data
            assert np.array_equal(out, full)
            for scored in ([3], np.array([3]), [np.int64(3)]):
                out = M.forward_logits(tiny_params64, None, tokens, lengths=lengths,
                                       scored=scored).data
                assert np.array_equal(out, full)
        last = M.forward_logits(tiny_params64, None, tokens, lengths=np.array([3]),
                                scored=np.array([1])).data
        np.testing.assert_allclose(last, full[2:], rtol=0, atol=1e-12)
        # the same counts for two segments go through the same check
        tokens = [0, 4, 5, 6]
        full = M.forward_logits(tiny_params64, None, tokens, lengths=[2, 2]).data
        for counts in (np.array([2, 2]), (2, 2), [np.int64(2)] * 2):
            for kwargs in ({"lengths": counts}, {"lengths": counts, "scored": counts}):
                out = M.forward_logits(tiny_params64, None, tokens, **kwargs).data
                assert np.array_equal(out, full)

    @pytest.mark.parametrize("lengths, scored, match", [
        ([4], None, "lengths"), ([2], None, "lengths"), ([0], None, "lengths"),
        ([[3]], None, "lengths"), ([3.0], None, "lengths"),
        ([3], [0], "scored"), ([3], [4], "scored"), ([3], [[1]], "scored"),
        ([3], [1, 1], "scored"), (np.array([3]), [1.0], "scored"),
        (np.array([4]), np.array([1]), "lengths"), (None, np.array([4]), "scored"),
        # two segments: a float count is rejected, never truncated
        ([2.9, 1.2], None, "lengths"), ([2, 1], [1.7, 1.2], "scored")])
    def test_one_segment_rejects_bad_counts(self, tiny_params, lengths, scored, match):
        with pytest.raises(DataError, match=match):
            M.forward_logits(tiny_params, None, [0, 4, 5], lengths=lengths, scored=scored)

    def test_rejects_overlong_segment(self, tiny_config, tiny_params):
        n = tiny_config.max_seq_len
        with pytest.raises(DataError):
            M.forward_logits(tiny_params, None, [0] * (n + 2), lengths=[1, n + 1])


class TestGraphRelease:
    def test_backward_frees_a_layer_before_the_layer_below_runs(self, tiny_config,
                                                                  tiny_params, monkeypatch):
        """The hidden activation the last layer's feed-forward op saves is
        freed by the time layer 0's feed-forward backward runs, while layer
        0's own is still held; once backward returns, the loss holds no
        closure and no input."""
        hidden, alive_at_layer0 = [], []
        feed_forward = T.feed_forward

        def spy(*args):
            out = feed_forward(*args)
            saved = [a for a in out._backward_fn.__defaults__ if isinstance(a, np.ndarray)]
            assert len(saved) == 1  # the one array the op saves
            hidden.append(weakref.ref(saved[0]))
            if len(hidden) == 1:  # layer 0
                bwd = out._backward_fn

                def layer0_bwd(g):
                    alive_at_layer0.append([h() is not None for h in hidden])
                    bwd(g)

                out._backward_fn = layer0_bwd
            return out

        monkeypatch.setattr(T, "feed_forward", spy)
        tokens = [0, 4, 5, 6, 7, 8, 9, 10]
        logits = M.forward_logits(tiny_params, None, tokens[:-1])
        loss = T.tsum(T.logprob_sums(logits, tokens[1:], np.ones(7), np.zeros(7), 1))
        del logits
        assert len(hidden) == tiny_config.n_layers
        assert all(h() is not None for h in hidden)
        T.backward(loss)
        assert alive_at_layer0 == [[True] + [False] * (tiny_config.n_layers - 1)]
        assert all(h() is None for h in hidden)
        assert loss._backward_fn is None and loss._parents == ()


class TestScoredRows:
    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 24), min_size=1, max_size=5),
           with_adapter=st.booleans(), seed=st.integers(0, 2**16))
    def test_rows_match_full_forward(self, lengths, with_adapter, seed):
        # scored: a random suffix of each segment, from one row to all of them
        config = M.ModelConfig(vocab_size=13, d_model=16, n_layers=2, n_heads=2,
                               max_seq_len=24)  # conftest's tiny config
        params = oracles.float64_table(M.init_params(config, np.random.default_rng(42)))
        rng = np.random.default_rng(seed)
        adapter = None
        if with_adapter:
            adapter = M.attach_lora(params, M.LoraConfig(dropout=0.0,
                                                         targets=("wq", "wv", "wo")), rng)
            adapter.data[...] = 0.05 * rng.standard_normal(adapter.data.shape)
        tokens = rng.integers(0, config.vocab_size, size=sum(lengths))
        scored = [int(rng.integers(1, n + 1)) for n in lengths]
        rows = np.concatenate([np.arange(end - s, end)
                               for end, s in zip(np.cumsum(lengths), scored)])
        full = M.forward_logits(params, adapter, tokens, lengths=lengths).data
        kept = M.forward_logits(params, adapter, tokens, lengths=lengths, scored=scored).data
        assert kept.shape == (rows.size, config.vocab_size)
        np.testing.assert_allclose(kept, full[rows], rtol=0, atol=1e-12)

    def test_every_row_is_the_full_forward(self, tiny_params):
        tokens = [0, 4, 5, 6, 0, 7, 8]
        full = M.forward_logits(tiny_params, None, tokens, lengths=[4, 3]).data
        every = M.forward_logits(tiny_params, None, tokens, lengths=[4, 3],
                                 scored=[4, 3]).data
        assert np.array_equal(every, full)

    def test_cached_prefill_keeps_last_row(self, tiny_config, tiny_params64):
        tokens = [0, 4, 5, 6, 7, 8, 9]
        plan = M.decode_plan(tiny_params64, None)
        cache = []
        full = M.forward_logits(tiny_params64, None, tokens).data
        last = M.decode_logits(tiny_config, plan, cache, tokens[:5])
        step = M.decode_logits(tiny_config, plan, cache, tokens[5:])
        np.testing.assert_allclose(last, full[4], rtol=0, atol=1e-12)
        np.testing.assert_allclose(step, full[6], rtol=0, atol=1e-12)
        assert [kv.shape for kv in cache] == [(7, 2 * tiny_config.d_model)] * 2

    # rows: how many trailing rows of each segment are scored, for lengths [3]
    @pytest.mark.parametrize("rows", [[0], [4], [-1], [1, 1], [[1]]])
    def test_bad_rows_rejected(self, tiny_params, rows):
        with pytest.raises(DataError, match="scored"):
            M.forward_logits(tiny_params, None, [0, 4, 5], scored=rows)


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

    def test_merge_matches_adapter_forward(self, tiny_params64, rng):
        adapter = M.attach_lora(tiny_params64, M.LoraConfig(dropout=0.0), rng)
        for name, t in adapter.named():
            t.data[...] = 0.05 * np.random.default_rng(1).standard_normal(t.data.shape)
        with_adapter = M.forward_logits(tiny_params64, adapter, [0, 4, 5, 6]).data
        merged = M.merge_lora(tiny_params64, adapter)
        folded = M.forward_logits(merged, None, [0, 4, 5, 6]).data
        assert np.max(np.abs(with_adapter - folded)) < 1e-10

    def test_folded_weights_are_merge_lora_bits(self, tiny_params, rng):
        adapter = M.attach_lora(tiny_params, M.LoraConfig(dropout=0.0), rng)
        adapter.data[...] = 0.05 * np.random.default_rng(1).standard_normal(adapter.data.shape)
        folded = M.folded_weights(tiny_params, adapter)
        merged = M.merge_lora(tiny_params, adapter)
        assert sorted(folded) == ["layer0.wq", "layer0.wv", "layer1.wq", "layer1.wv"]
        for name, t in merged.named():
            assert np.array_equal(t.data, folded.get(name, tiny_params[name].data))

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

    @pytest.mark.parametrize("bad", [-1, 13])  # the tiny vocab_size is 13
    def test_prompt_id_out_of_range_rejected(self, tiny_config, tiny_params, bad):
        assert tiny_config.vocab_size == 13
        with pytest.raises(DataError, match=f"prompt id {bad} at offset 1 out of range"):
            M.generate_greedy(tiny_params, None, [0, bad, 4], 5)

    @pytest.mark.parametrize("prompt,match", [([0, 1.5], "prompt id 1.5 at offset 1"),
                                              ([0, 4, "5"], "prompt id '5' at offset 2"),
                                              (np.array([0.0, 4.0]), "at offset 0"),
                                              ([[0, 4]], r"shape \(1, 2\)")])
    def test_non_integer_prompt_rejected(self, tiny_params, prompt, match):
        with pytest.raises(DataError, match=match):
            M.generate_greedy(tiny_params, None, prompt, 5)

    @pytest.mark.parametrize("max_new", [2.0, -2, True, "3", None])
    def test_bad_max_new_rejected(self, tiny_params, max_new):
        with pytest.raises(DataError, match=f"max_new must be an integer >= 0, got {max_new!r}"):
            M.generate_greedy(tiny_params, None, [0, 4], max_new)

    def test_max_new_zero_generates_nothing(self, tiny_params):
        assert M.generate_greedy(tiny_params, None, [0, 4], 0) == []
        assert M.generate_greedy(tiny_params, None, np.array([0, 4], np.uint8), np.int64(2)) \
            == M.generate_greedy(tiny_params, None, [0, 4], 2)

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

    @staticmethod
    def _prompt(config, n):
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

    @pytest.mark.parametrize("prompt_len", [5, 30])
    def test_generate_decodes_on_a_merged_copy(self, tiny_config, params, adapter,
                                               prompt_len, monkeypatch):
        prompt = self._prompt(tiny_config, prompt_len)
        before = params.data.tobytes(), adapter.data.tobytes()

        def fail(*args, **kwargs):
            raise AssertionError("decoding must not run the graph forward or copy the table")

        plans = []
        decode_plan = M.decode_plan

        def recording(*args):
            plans.append(decode_plan(*args))
            return plans[-1]

        monkeypatch.setattr(M, "forward_logits", fail)
        monkeypatch.setattr(M, "merge_lora", fail)
        monkeypatch.setattr(M, "decode_plan", recording)
        out = M.generate_greedy(params, adapter, prompt, 12, stop_id=-1)
        first = len(plans)  # 0 if an earlier test left a plan of equal tables
        assert M.generate_greedy(params, adapter, prompt, 12, stop_id=-1) == out
        repeat = len(plans) - first
        b = adapter["layer1.wv.B"].data
        b_old = b[0, 0]
        b[0, 0] = b_old + 0.25
        M.generate_greedy(params, adapter, prompt, 12, stop_id=-1)
        changed = len(plans) - first - repeat
        b[0, 0] = b_old
        monkeypatch.undo()
        # at most once per call, also when the window slides; none while the
        # tables keep their bits, and one after an entry changed
        assert first <= 1 and repeat == 0 and changed == 1
        assert (params.data.tobytes(), adapter.data.tobytes()) == before
        merged = M.merge_lora(params, adapter)
        assert out == _uncached_greedy(merged, None, prompt, 12, stop_id=-1)
        assert out == _uncached_greedy(params, adapter, prompt, 12, stop_id=-1)

    def test_early_stop_matches_uncached(self, tiny_config, params):
        prompt = self._prompt(tiny_config, 5)
        free = _uncached_greedy(params, None, prompt, 12, stop_id=-1)
        j = next(j for j in range(1, len(free)) if free[j] not in free[:j])
        out = M.generate_greedy(params, None, prompt, 12, stop_id=free[j])
        assert out == free[: j + 1]
        assert out == _uncached_greedy(params, None, prompt, 12, stop_id=free[j])

    def test_prefill_then_steps_match_full_forward(self, tiny_config, params, adapter):
        params, adapter = oracles.float64_table(params), oracles.float64_table(adapter)
        tokens = self._prompt(tiny_config, tiny_config.max_seq_len)
        plan = M.decode_plan(params, adapter)
        cache = []
        full = M.forward_logits(params, adapter, tokens).data
        rows = [M.decode_logits(tiny_config, plan, cache, tokens[:10])]
        for tok in tokens[10:]:
            rows.append(M.decode_logits(tiny_config, plan, cache, [tok]))
        # the folded weights and the one-row matmuls may round differently
        np.testing.assert_allclose(np.stack(rows), full[9:], rtol=0, atol=1e-12)
        assert len(cache) == tiny_config.n_layers
        for kv in cache:
            assert kv.shape == (len(tokens), 2 * tiny_config.d_model)

    def test_steps_write_into_one_buffer_per_layer(self, tiny_config, params):
        plan, cache = M.decode_plan(params, None), []
        M.decode_logits(tiny_config, plan, cache, [0, 4, 5])
        bases = [kv.base for kv in cache]
        before = [kv.copy() for kv in cache]
        M.decode_logits(tiny_config, plan, cache, [6])
        for kv, base, kv_before in zip(cache, bases, before):
            assert kv.base is base
            assert base.shape == (tiny_config.max_seq_len, 2 * tiny_config.d_model)
            assert np.array_equal(kv[:3], kv_before)  # earlier rows stay in place

    def test_cache_overflow_rejected(self, tiny_config, params):
        plan, cache = M.decode_plan(params, None), []
        M.decode_logits(tiny_config, plan, cache, [0] * (tiny_config.max_seq_len - 1))
        M.decode_logits(tiny_config, plan, cache, [4])  # exactly full
        with pytest.raises(DataError):
            M.decode_logits(tiny_config, plan, cache, [4])


class TestPlanCache:
    """``generate_greedy`` keeps the last ``decode_plan`` while params and
    adapter hold the same bits, and builds it again, from copies, when an
    entry changes."""

    params = TestKvCache.params
    adapter = TestKvCache.adapter

    @pytest.fixture
    def builds(self, monkeypatch):
        """The arguments of each ``decode_plan`` call from here on, starting
        from an empty cache."""
        monkeypatch.setattr(M, "_plan_slot", None)
        builds = []
        decode_plan = M.decode_plan

        def recording(*args):
            builds.append(args)
            return decode_plan(*args)

        monkeypatch.setattr(M, "decode_plan", recording)
        return builds

    @staticmethod
    def _generate(params, adapter, decode=M.generate_greedy):
        prompt = TestKvCache._prompt(params.config, 5)
        return decode(params, adapter, prompt, 12, stop_id=-1)

    def test_equal_tables_build_no_plan(self, params, adapter, builds):
        out = self._generate(params, adapter)
        assert len(builds) == 1
        assert self._generate(params, adapter) == out
        assert self._generate(params.copy(), adapter.copy()) == out  # equal bits
        assert len(builds) == 1
        assert out == self._generate(params, adapter, _uncached_greedy)

    @pytest.mark.parametrize("change", ["embed ulp", "ffn.b2 sign", "nan", "nan payload",
                                        "adapter B"])
    def test_a_changed_entry_builds_again(self, params, adapter, builds, change):
        pos = params["pos"].data  # rows past the 17 positions decoded here are never read
        if change == "nan payload":
            pos[-1, 0] = np.nan
        self._generate(params, adapter)
        if change == "embed ulp":
            e = params["embed"].data
            e[4, 0] = np.nextafter(e[4, 0], np.float32(np.inf))
        elif change == "ffn.b2 sign":
            b2 = params["layer0.ffn.b2"].data
            assert b2[3] == 0.0 and not np.signbit(b2[3])
            b2[3] = -0.0
        elif change == "nan":
            pos[-1, 0] = np.nan
        elif change == "nan payload":
            pos.view(np.uint32)[-1, 0] += 1
            assert np.isnan(pos[-1, 0])
        else:
            adapter["layer0.wq.B"].data[0, 0] += 0.25
        out = self._generate(params, adapter)
        assert len(builds) == 2
        assert out == self._generate(params, adapter, _uncached_greedy)
        assert self._generate(params, adapter) == out
        assert len(builds) == 2

    def test_plan_reads_no_table_of_the_caller(self, params, adapter, builds):
        twin = params.copy()
        self._generate(params, adapter)
        params["embed"].data[...] = params["embed"].data[::-1].copy()
        twin_out = self._generate(twin, adapter)
        assert len(builds) == 1  # the twin has the bits the plan was built from
        assert twin_out == self._generate(twin, adapter, _uncached_greedy)
        assert twin_out != self._generate(params, adapter, _uncached_greedy)
        assert self._generate(params, adapter) == self._generate(params, adapter, _uncached_greedy)

    def test_no_adapter_is_its_own_entry(self, params, adapter, builds):
        with_adapter = self._generate(params, adapter)
        without = self._generate(params, None)
        assert without == self._generate(params, None, _uncached_greedy)
        assert without != with_adapter
        assert self._generate(params, adapter) == with_adapter
        assert len(builds) == 3

    def test_training_builds_again(self, params, builds):
        state = TR.TrainState(params)
        before = self._generate(params, None)
        rng = np.random.default_rng(4)
        blocks = [list(rng.integers(4, 12, size=8)) for _ in range(6)]
        stage = TR.StageConfig(stage="cpt", learning_rate=0.01, warmup_ratio=0.0, epochs=2,
                               batch_size=2)
        trained = TR.run_stage(state, stage, blocks)[0].params
        out = self._generate(trained, None)
        assert len(builds) == 2
        assert out == self._generate(trained, None, _uncached_greedy)
        assert out != before


class TestDecodePlan:
    """The plan folds every layer norm's gain and bias into the projection
    after it, so these tables have gains and biases far from 1 and 0, and an
    adapter on all four attention projections with B != 0."""

    @staticmethod
    def _random_tables(config, seed):
        """float32 params and adapter drawn from rng ``seed``."""
        rng = np.random.default_rng(seed)
        params = M.init_params(config, rng, init_scale=0.5)
        for name, t in params.named():
            if name.endswith(".g"):
                t.data[...] = 1.0 + 0.5 * rng.standard_normal(t.data.shape)
            elif name.endswith((".b", ".b1", ".b2")):
                t.data[...] = 0.5 * rng.standard_normal(t.data.shape)
        adapter = M.attach_lora(params, M.LoraConfig(rank=2, dropout=0.0,
                                                     targets=("wq", "wk", "wv", "wo")), rng)
        adapter.data[...] = 0.3 * rng.standard_normal(adapter.data.shape)
        return params, adapter

    @pytest.fixture(params=[np.float64, np.float32])
    def tables(self, request, tiny_config):
        params, adapter = self._random_tables(tiny_config, 11)
        if request.param == np.float64:
            params, adapter = oracles.float64_table(params), oracles.float64_table(adapter)
        return params, adapter

    _ROW_OFFSETS = {"embed": 4.0, "pos": -2.0, "wo": 1.0, "ffn.w2": 1.0, "ffn.b2": 3.0}
    _LARGE_ROW_OFFSETS = dict(_ROW_OFFSETS, embed=40.0, pos=-20.0)
    _TOKENS = [M.BOS] + [int(t) for t in np.random.default_rng(5).integers(4, 13, 23)]
    _ROWS = [*range(9, 21), 23]  # the positions whose logits _decode returns

    @staticmethod
    def _assert_close(got, want, eps32=1024):
        if got.dtype == np.float64:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            # float32 rounding through the layer norms: measured at most 22
            # eps32 of the row's largest logit on this fixture's table, but
            # 899 over 200 tables like it (seeds 1000-1199), where the float32
            # forward itself is up to 630 eps32 off float64;
            # test_many_tables_against_float64 covers that spread
            bound = eps32 * np.finfo(np.float32).eps * np.abs(want).max(axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound)

    @staticmethod
    def _add_row_offsets(config, params, offsets):
        for name, offset in offsets.items():
            for full_name in ([name] if name in params.shapes else
                              [f"layer{i}.{name}" for i in range(config.n_layers)]):
                params[full_name].data[...] += offset

    @classmethod
    def _decode(cls, config, params, adapter):
        """The decoder's logits at ``_ROWS`` of ``_TOKENS``: a prefill,
        one-token steps, then three tokens continuing the cache."""
        tokens = cls._TOKENS
        plan, cache = M.decode_plan(params, adapter), []
        got = [M.decode_logits(config, plan, cache, tokens[:10])]
        got += [M.decode_logits(config, plan, cache, [t]) for t in tokens[10:21]]
        got.append(M.decode_logits(config, plan, cache, tokens[21:]))
        return np.stack(got)

    def _assert_steps_match_full_forward(self, config, params, adapter, eps32_64=1024,
                                         table_forward=True):
        """The decoder against ``forward_logits`` on float64 copies of the
        tables, within ``eps32_64`` eps32 of the row maximum for float32
        tables, and, if ``table_forward``, on the tables themselves."""
        got = self._decode(config, params, adapter)
        assert got.dtype == params.data.dtype
        if table_forward:
            self._assert_close(got, M.forward_logits(params, adapter, self._TOKENS)
                               .data[self._ROWS])
        full64 = M.forward_logits(oracles.float64_table(params), oracles.float64_table(adapter),
                                  self._TOKENS).data
        self._assert_close(got, full64[self._ROWS], eps32_64)

    def test_steps_match_full_forward(self, tiny_config, tables):
        # against float64: measured at most 888 eps32 over 200 tables like these
        self._assert_steps_match_full_forward(tiny_config, *tables)

    def test_row_offsets_keep_the_bounds(self, tiny_config, tables):
        # A constant added along a row moves the row's mean, which layer norm
        # removes. The decoder subtracts it once, where the embeddings enter
        # the stream, and from every array that writes into the stream, so
        # large ones test that cancellation. Measured at most 379 eps32 of the
        # row's largest logit over 40 float32 tables like these (2,842 over
        # 200), and 284 against float64 (1,091 over 200).
        params, adapter = tables
        self._add_row_offsets(tiny_config, params, self._ROW_OFFSETS)
        self._assert_steps_match_full_forward(tiny_config, params, adapter)

    def test_large_row_offsets_against_float64(self, tiny_config, tables):
        # With +40 on embed and -20 on pos, layer norm's float32 mean
        # subtraction in the graph forward loses the low bits of every row
        # (up to 31,159 eps32 off float64 over 200 tables like these), so
        # only the float64 forward is a reference. The decoder, which removes
        # the offsets where the embeddings enter, measured at most 7,133
        # eps32 off it over the same 200 tables, and 113 on this one.
        params, adapter = tables
        self._add_row_offsets(tiny_config, params, self._LARGE_ROW_OFFSETS)
        self._assert_steps_match_full_forward(tiny_config, params, adapter, eps32_64=8192,
                                              table_forward=False)

    @pytest.mark.parametrize("offsets", ["none", "row", "large row"])
    def test_many_tables_against_float64(self, tiny_config, offsets):
        # How far a float32 computation lands from the exact logits depends
        # on the table: on these 200 the float32 graph forward is 2 to 630
        # eps32 of the row maximum off float64, 3,512 with the row offsets
        # and 31,159 with the large ones. So each table's bound is 1024 eps32
        # plus twice the graph forward's own error on it. Measured at most
        # 654, 187 and 704 eps32 above twice that error, and 888, 1,091 and
        # 7,133 eps32 off float64.
        offsets = {"none": {}, "row": self._ROW_OFFSETS,
                   "large row": self._LARGE_ROW_OFFSETS}[offsets]
        for seed in range(1000, 1200):
            params, adapter = self._random_tables(tiny_config, seed)
            self._add_row_offsets(tiny_config, params, offsets)
            got = self._decode(tiny_config, params, adapter)
            with T.no_grad():
                graph = M.forward_logits(params, adapter, self._TOKENS).data[self._ROWS]
                want = M.forward_logits(oracles.float64_table(params),
                                        oracles.float64_table(adapter),
                                        self._TOKENS).data[self._ROWS]
            eps32 = np.finfo(np.float32).eps * np.abs(want).max(axis=-1, keepdims=True)
            bound = 1024 + 2 * (np.abs(graph - want) / eps32).max()
            assert (np.abs(got - want) / eps32).max() <= bound, f"table seed {seed}"

    def test_slid_window_matches_full_forward(self, tiny_config, tables):
        # past max_seq_len generate_greedy re-encodes the last window on a
        # fresh cache: its positions restart at 0
        params, adapter = tables
        n = tiny_config.max_seq_len
        ids = [int(t) for t in np.random.default_rng(6).integers(4, 13, n + 5)]
        logits = M.decode_logits(tiny_config, M.decode_plan(params, adapter), [], ids[-n:])
        self._assert_close(logits, M.forward_logits(params, adapter, ids[-n:]).data[-1])

    @pytest.mark.parametrize("prompt_len", [5, 22, 30])
    def test_generate_matches_uncached(self, tiny_config, tables, prompt_len):
        params, adapter = tables
        prompt = [M.BOS] + [int(t) for t in
                            np.random.default_rng(prompt_len).integers(4, 13, prompt_len - 1)]
        ref = _uncached_greedy(params, adapter, prompt, 12, stop_id=-1)
        assert len(set(ref)) > 1
        assert M.generate_greedy(params, adapter, prompt, 12, stop_id=-1) == ref


def test_init_params_is_seeded(tiny_config):
    a = M.init_params(tiny_config, np.random.default_rng(7))
    b = M.init_params(tiny_config, np.random.default_rng(7))
    for name, t in a.named():
        assert np.array_equal(t.data, b.tensors[name].data)


def test_params_copy_is_deep(tiny_params):
    c = tiny_params.copy()
    c["embed"].data += 1.0
    assert not np.array_equal(c["embed"].data, tiny_params["embed"].data)
