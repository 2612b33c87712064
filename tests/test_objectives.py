import math

import numpy as np
import oracles
import pytest

from medlm import data as D
from medlm import model as M
from medlm import objectives as O
from medlm import tensor as T
from medlm import trainer as TR
from medlm.errors import ConfigError, DataError, ShapeError
from medlm.tensor import backward
from oracles import grad_check


@pytest.fixture
def vocab():
    return M.build_vocab(["abcdefgh西药丸Q:A:\n？。"])


@pytest.fixture
def params(vocab):
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2,
                        max_seq_len=64)
    # float64: the objectives are held to float64 reference arithmetic
    return oracles.float64_table(M.init_params(cfg, np.random.default_rng(5)))


class TestCptLoss:
    def test_matches_manual_cross_entropy(self, params):
        block = [0, 4, 5, 6, 7]
        loss = O.cpt_loss(params, None, [block])
        logits = M.forward_logits(params, None, block[:-1]).data
        manual = 0.0
        for t, tgt in enumerate(block[1:]):
            p = np.exp(logits[t] - logits[t].max())
            p /= p.sum()
            manual += -math.log(p[tgt])
        manual /= len(block) - 1
        assert abs(loss.item() - manual) < 1e-12

    def test_uniform_model_gives_log_vocab(self, vocab):
        cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1,
                            n_heads=2, max_seq_len=32)
        params = oracles.float64_table(M.init_params(cfg, np.random.default_rng(0)))
        params["head"].data[:] = 0.0  # logits all zero -> uniform
        loss = O.cpt_loss(params, None, [[0, 4, 5, 6]])
        assert abs(loss.item() - math.log(len(vocab))) < 1e-12

    def test_produces_gradients(self, params):
        params.set_requires_grad(True)
        loss = O.cpt_loss(params, None, [[0, 4, 5, 6]])
        backward(loss)
        assert float(np.abs(params["embed"].grad).sum()) > 0

    def test_stack_matches_mean_of_blocks(self, params):
        blocks = [list(b) for b in np.random.default_rng(2).integers(0, 12, size=(4, 9))]
        params.set_requires_grad(True)
        stacked = O.cpt_loss(params, None, blocks)
        backward(stacked)
        stacked_grad = params.grad.copy()
        params.grad.fill(0.0)
        per_block = [O.cpt_loss(params, None, [b]) for b in blocks]
        mean = (1.0 / len(blocks)) * sum(per_block[1:], per_block[0])
        backward(mean)
        assert abs(stacked.item() - mean.item()) < 1e-12
        assert np.allclose(stacked_grad, params.grad, rtol=0.0, atol=1e-12)


class TestSftTokens:
    def test_weights_mask_prompt(self, vocab):
        ex = D.SftExample(instruction="ab", output="cd")
        ids, weights = O.sft_tokens(ex, vocab)
        prompt = D.render_prompt(ex)
        assert len(ids) == 1 + len(prompt) + len(ex.output) + 1  # BOS ... EOS
        assert ids[0] == M.BOS and ids[-1] == M.EOS
        # weights align with targets ids[1:]: zero until the first response token
        assert list(weights[: len(prompt)]) == [0.0] * len(prompt)
        assert list(weights[len(prompt) :]) == [1.0] * (len(ex.output) + 1)

    def test_masking_is_exact(self, vocab, params):
        """Scrambling every zero-weight target leaves the loss bit-identical."""
        ex = D.SftExample(instruction="ab", output="cd")
        ids, weights = O.sft_tokens(ex, vocab)
        targets = ids[1:]
        scrambled = [(t if w else (t + 3) % len(vocab)) for t, w in zip(targets, weights)]
        a = O.sft_loss(params, None, [ex], vocab)
        b = O.sft_loss(params, None, [ex], vocab, target_override=scrambled)
        assert a.item() == b.item()

    def test_batch_is_mean_of_examples(self, vocab, params):
        # examples of different lengths: the loss weights each example's
        # token mean equally, whatever its response length
        batch = [D.SftExample(instruction="ab", output="cd"),
                 D.SftExample(instruction="abcdef", output="g"),
                 D.SftExample(instruction="h", output="abcdefgh")]
        params.set_requires_grad(True)
        joint = O.sft_loss(params, None, batch, vocab)
        backward(joint)
        joint_grad = params.grad.copy()
        params.grad.fill(0.0)
        single = [O.sft_loss(params, None, [ex], vocab) for ex in batch]
        mean = (1.0 / len(batch)) * sum(single[1:], single[0])
        backward(mean)
        assert abs(joint.item() - mean.item()) < 1e-12
        assert np.allclose(joint_grad, params.grad, rtol=0.0, atol=1e-12)

    def test_target_override_of_wrong_length_rejected(self, vocab, params):
        ex = D.SftExample(instruction="ab", output="cd")
        ids, _ = O.sft_tokens(ex, vocab)
        for targets in (ids[2:], ids + [4]):
            with pytest.raises(ShapeError):
                O.sft_loss(params, None, [ex], vocab, target_override=targets)

    def test_overlong_example_rejected(self, vocab, params):
        ex = D.SftExample(instruction="ab" * 40, output="cd")
        with pytest.raises(DataError):
            O.sft_loss(params, None, [ex], vocab)


class TestSequenceLogprob:
    def test_empty_response_is_zero(self, params):
        lp = O.sequence_logprob(params, None, [([0, 4], [])])
        assert lp.item() == 0.0

    def test_matches_stepwise_product(self, params):
        prompt, response = [0, 4, 5], [6, 7, 1]
        lp = O.sequence_logprob(params, None, [(prompt, response)])
        manual = 0.0
        ids = prompt + response
        logits = M.forward_logits(params, None, ids[:-1]).data
        for k, tok in enumerate(response):
            row = logits[len(prompt) - 1 + k]
            p = np.exp(row - row.max())
            p /= p.sum()
            manual += math.log(p[tok])
        assert abs(lp.item() - manual) < 1e-10

    def test_batch_matches_single_sequences(self, params):
        seqs = [([0, 4, 5], [6, 7, 1]), ([0, 9], [4, 1]), ([0, 5, 6, 7, 8], [9, 1])]
        joint = O.sequence_logprob(params, None, seqs).data
        single = [O.sequence_logprob(params, None, [s]).item() for s in seqs]
        assert np.allclose(joint, single, rtol=0.0, atol=1e-12)
        paired = O.sequence_logprob(params, None, seqs[:2], paired=True).item()
        assert abs(paired - (single[0] - single[1])) < 1e-12

    def test_always_nonpositive(self, params):
        lp = O.sequence_logprob(params, None, [([0, 4], [5, 6])])
        assert lp.item() <= 0.0

    def test_empty_prompt_rejected(self, params):
        with pytest.raises(DataError, match="empty prompt"):
            O.sequence_logprob(params, None, [([0, 4], [5]), ([], [5, 6])])


class TestDpo:
    def _reference(self, params, vocab):
        return O.preference_margins(params, None, self._pairs(), vocab)

    def _pairs(self):
        return [D.PreferencePair(prompt="ab？", preferred="cd。", rejected="ef。")]

    def test_loss_is_ln2_when_policy_equals_reference(self, params, vocab):
        """Identical policy and reference give margin 0 -> -log sigmoid(0)."""
        loss, _ = O.dpo_loss(params, None, 0.1, self._pairs(), vocab,
                             self._reference(params, vocab))
        assert abs(loss.item() - math.log(2)) < 1e-9

    def test_beta_scales_margin_linearly(self, params, vocab):
        # perturb the policy so the margin is nonzero, then check that the
        # implicit reward difference is linear in beta
        policy = params.copy()
        policy["head"].data += 0.01 * np.random.default_rng(2).standard_normal(
            policy["head"].data.shape
        )
        reference = self._reference(params, vocab)

        def margin(beta):
            return O.dpo_implicit_reward(policy, None, beta, self._pairs(), vocab,
                                         reference).item()

        m1, m2 = margin(0.1), margin(0.4)
        assert m1 != 0.0
        assert abs(m2 / m1 - 4.0) < 1e-6

    def test_reference_receives_no_gradient(self, params, vocab):
        reference = self._reference(params, vocab)
        policy = params.copy()
        policy.set_requires_grad(True)
        loss, _ = O.dpo_loss(policy, None, 0.1, self._pairs(), vocab, reference)
        backward(loss)
        # the reference enters as precomputed numbers, not as a graph
        assert isinstance(reference, np.ndarray)
        assert not params.grad.any() and policy.grad.any()

    def test_gradient_step_increases_margin(self, params, vocab):
        policy = params.copy()
        policy.set_requires_grad(True)
        pairs = self._pairs()
        before = O.preference_margins(policy, None, pairs, vocab)[0]
        loss, _ = O.dpo_loss(policy, None, 0.1, pairs, vocab, self._reference(params, vocab))
        backward(loss)
        for _, t in policy.named():
            t.data -= 1e-3 * t.grad
        after = O.preference_margins(policy, None, pairs, vocab)[0]
        assert after > before

    def test_margins_do_not_depend_on_chunking(self, params, vocab):
        pairs = self._pairs() + [
            D.PreferencePair(prompt="abc？", preferred="d药。", rejected="efgh。"),
            D.PreferencePair(prompt="h？", preferred="gf。", rejected="a。")]
        joint = O.preference_margins(params, None, pairs, vocab)
        alone = O.preference_margins(params, None, pairs, vocab, batch_size=1)
        assert joint.shape == (3,) and np.allclose(joint, alone, rtol=0.0, atol=1e-12)

    def test_empty_batch_rejected(self, params, vocab):
        with pytest.raises(DataError):
            O.dpo_loss(params, None, 0.1, [], vocab, np.zeros(0))

    def test_beta_must_be_positive(self, params):
        with pytest.raises(ConfigError):
            TR.StageConfig(stage="dpo", learning_rate=0.1, beta=0.0)


@pytest.fixture
def adapter(params):
    rng = np.random.default_rng(8)
    adapter = M.attach_lora(params, M.LoraConfig(dropout=0.0, targets=("wq", "wv", "wo")), rng)
    adapter.data[...] = 0.05 * rng.standard_normal(adapter.data.shape)
    return adapter


class TestScoredRows:
    """The scorer keeps only the rows with a nonzero coefficient; the
    full-row scorer it replaced (tests/oracles.py) must agree with it."""

    BATCH = [D.SftExample(instruction="ab", output="cd"),
             D.SftExample(instruction="abcdef", output="g"),
             D.SftExample(instruction="h", output="abcdefgh")]
    SEQS = [([0, 4, 5], [6, 7, 1]), ([0, 9], [4, 1]), ([0, 5, 6, 7, 8], [9, 1]),
            ([0, 4], [5])]

    def _value_and_grads(self, params, adapter, loss_fn):
        params.set_requires_grad(True)
        adapter.set_requires_grad(True)
        loss = T.tsum(loss_fn())
        backward(loss)
        return loss.item(), params.grad.copy(), adapter.grad.copy()

    @pytest.mark.parametrize("objective", ["cpt", "sft", "sequence", "paired"])
    def test_matches_full_row_scorer(self, params, adapter, vocab, monkeypatch, objective):
        blocks = [[0, 4, 5, 6, 7], [0, 8, 9], [0, 4, 4, 5, 5, 6]]
        loss_fn = {
            "cpt": lambda: O.cpt_loss(params, adapter, blocks),
            "sft": lambda: O.sft_loss(params, adapter, self.BATCH, vocab),
            "sequence": lambda: O.sequence_logprob(params, adapter, self.SEQS),
            "paired": lambda: O.sequence_logprob(params, adapter, self.SEQS, paired=True),
        }[objective]
        trimmed = self._value_and_grads(params, adapter, loss_fn)
        monkeypatch.setattr(O, "_score", oracles.score_full_ref)
        full = self._value_and_grads(params, adapter, loss_fn)
        assert abs(trimmed[0] - full[0]) < 1e-12
        for a, b in zip(trimmed[1:], full[1:]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_forward_returns_only_scored_rows(self, params, vocab, monkeypatch):
        shapes = []
        forward = M.forward_logits

        def spy(*args, **kwargs):
            out = forward(*args, **kwargs)
            shapes.append(out.data.shape[0])
            return out

        monkeypatch.setattr(M, "forward_logits", spy)
        O.sft_loss(params, None, self.BATCH, vocab)
        n_response = sum(len(ex.output) + 1 for ex in self.BATCH)  # + EOS
        assert shapes == [n_response]

    def test_grad_check_on_ragged_sft_batch(self, params, adapter, vocab):
        params.set_requires_grad(False)
        result = grad_check(lambda: O.sft_loss(params, adapter, self.BATCH, vocab),
                            [t for _, t in adapter.named()], n_samples=100)
        assert not result["failures"], result

    def test_no_scored_rows_give_zeros(self, params):
        params.set_requires_grad(True)
        lp = O.sequence_logprob(params, None, [([0, 4], []), ([0, 5, 6], [])])
        assert np.array_equal(lp.data, [0.0, 0.0])
        backward(T.tsum(lp))
        assert not params.grad.any()


class TestShapeOrder:
    """The scorer orders each batch by (length, scored length) before the
    forward, so a batch in any order scores as the batch in shape order."""

    # each list is in shape order, and holds repeated and interleavable shapes
    BLOCKS = [[0, 8, 9], [0, 9, 8], [0, 4, 6], [0, 4, 5, 6, 7], [0, 4, 4, 5, 5],
              [0, 5, 6, 7, 8]]
    BATCH = [D.SftExample(instruction="abc", output="d"),      # 10 positions, 2 scored
             D.SftExample(instruction="ab", output="cd"),      # 10, 3
             D.SftExample(instruction="ba", output="dc"),      # 10, 3
             D.SftExample(instruction="abcdef", output="g"),   # 13, 2
             D.SftExample(instruction="fedcba", output="h"),   # 13, 2
             D.SftExample(instruction="h", output="abcdefgh")]  # 15, 9
    SEQS = [([0, 9], [4, 1]), ([0, 8], [5, 1]), ([0, 4, 5], [6, 7, 1]),
            ([0, 5, 4], [7, 6, 1]), ([0, 4, 5, 6, 7], [9, 1]), ([0, 5, 6, 7, 8], [9, 1])]
    SHUFFLE = [3, 0, 5, 1, 4, 2]
    PAIR_SHUFFLE = [2, 0, 1]  # paired: the pairs move, each keeps (chosen, rejected)

    def _objective(self, objective, params, adapter, vocab, order):
        """The objective's result on the batch taken in ``order``."""
        if objective == "cpt":
            return O.cpt_loss(params, adapter, [self.BLOCKS[i] for i in order])
        if objective == "sft":
            return O.sft_loss(params, adapter, [self.BATCH[i] for i in order], vocab)
        if objective == "sequence":
            return O.sequence_logprob(params, adapter, [self.SEQS[i] for i in order])
        seqs = [self.SEQS[2 * i + j] for i in order for j in (0, 1)]
        return O.sequence_logprob(params, adapter, seqs, paired=True)

    @pytest.mark.parametrize("objective", ["cpt", "sft", "sequence", "paired"])
    def test_any_order_matches_shape_order(self, params, adapter, vocab, objective):
        shuffle = self.PAIR_SHUFFLE if objective == "paired" else self.SHUFFLE
        results = []
        for order in (sorted(shuffle), shuffle):
            params.set_requires_grad(True)  # fresh zero grads
            adapter.set_requires_grad(True)
            out = self._objective(objective, params, adapter, vocab, order)
            backward(T.tsum(out))
            value = out.data if out.data.ndim == 0 else out.data[np.argsort(order)]  # by item
            results.append((value, params.grad.copy(), adapter.grad.copy()))
        for a, b in zip(*results):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_one_attention_product_per_shape(self, params, vocab, monkeypatch):
        calls = []
        probs = T._attention_probs

        def spy(qg, kg):
            calls.append((qg.shape[0], qg.shape[-2], kg.shape[-2]))  # (segments, Lq, Lk)
            return probs(qg, kg)

        monkeypatch.setattr(T, "_attention_probs", spy)
        O.sft_loss(params, None, [self.BATCH[i] for i in self.SHUFFLE], vocab)
        assert calls == [(3, 10, 10), (2, 13, 13), (1, 15, 15),  # layer 0: every position
                         (1, 2, 10), (2, 3, 10), (2, 2, 13), (1, 9, 15)]  # layer 1: scored


class TestDtypeContract:
    """A step on a float32 table computes every op output and every gradient
    in float32; a float64 table keeps all of them float64."""

    @staticmethod
    def _graph(loss):
        nodes, seen, stack = [], set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        return nodes

    @staticmethod
    def _params(vocab, dtype):
        cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2,
                            max_seq_len=64)
        params = M.init_params(cfg, np.random.default_rng(5))
        return params if dtype == np.float32 else oracles.float64_table(params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stage", ["cpt", "sft", "dpo"])
    def test_step_runs_in_the_table_dtype(self, vocab, stage, dtype, monkeypatch):
        params = self._params(vocab, dtype)
        train_rng = np.random.default_rng(1)
        if stage == "cpt":
            trainable = params
            loss = O.cpt_loss(params, None, [[0, 4, 5, 6, 7], [0, 8, 9]])
        else:
            params.set_requires_grad(False)
            trainable = M.attach_lora(params, M.LoraConfig(dropout=0.1),
                                      np.random.default_rng(2))
            if stage == "sft":
                batch = [D.SftExample(instruction="ab？", output="cd。"),
                         D.SftExample(instruction="efgh？", output="药。")]
                loss = O.sft_loss(params, trainable, batch, vocab, train_rng=train_rng)
            else:
                pairs = [D.PreferencePair(prompt="ab？", preferred="cd。", rejected="ef。"),
                         D.PreferencePair(prompt="g？", preferred="a药。", rejected="bcd。")]
                reference = O.preference_margins(params, None, pairs, vocab)
                assert reference.dtype == dtype
                loss, rewards = O.dpo_loss(params, trainable, 0.1, pairs, vocab, reference,
                                           train_rng=train_rng)
                assert rewards.dtype == dtype
        assert {node.data.dtype for node in self._graph(loss)} == {np.dtype(dtype)}

        grads = []
        accumulate = T._accumulate

        def record(t, g):
            grads.append(g.dtype)
            accumulate(t, g)

        monkeypatch.setattr(T, "_accumulate", record)
        backward(loss)
        assert grads and set(grads) == {np.dtype(dtype)}
        TR.clip_gradients(trainable)
        opt = TR.OptimState(trainable)
        TR.optim_step(trainable, opt, 0.01, 0.01)
        for a in (trainable.data, trainable.grad, opt.m, opt.v):
            assert a.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_runs_in_the_table_dtype(self, vocab, dtype):
        params = self._params(vocab, dtype)
        adapter = M.attach_lora(params, M.LoraConfig(), np.random.default_rng(2))
        adapter.data[...] = 0.1
        plan = M.decode_plan(params, adapter)
        arrays = [plan.embed, plan.pos, plan.head, plan.head_bias, *sum(plan.layers, ())]
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        cache = []
        prefill = M.decode_logits(params.config, plan, cache, [0, 4, 5])
        step = M.decode_logits(params.config, plan, cache, [6])
        assert prefill.dtype == step.dtype == dtype
        assert all(kv.dtype == dtype for kv in cache)

    def test_float32_cpt_step_matches_float64(self, vocab):
        # Both tables hold the same values. Each float32 op rounds its result
        # at relative eps32 = 2**-23, and the errors of the ~40 ops between a
        # weight and the loss add up: measured, at most 0.5 eps32 on the loss
        # and 23 eps32 on the gradient (norm-wise) over five seeds at this
        # init. The bounds are 16 eps32 and 256 eps32, a tenfold margin.
        eps = float(np.finfo(np.float32).eps)
        cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2,
                            max_seq_len=64)
        p32 = M.init_params(cfg, np.random.default_rng(1), init_scale=0.5)
        p64 = oracles.float64_table(p32)
        blocks = [list(b) for b in np.random.default_rng(2).integers(0, len(vocab),
                                                                     size=(4, 33))]
        results = []
        for params in (p32, p64):
            loss = O.cpt_loss(params, None, blocks)
            backward(loss)
            results.append((loss.item(), params.grad.astype(np.float64)))
        (l32, g32), (l64, g64) = results
        assert abs(l32 - l64) <= 16 * eps * abs(l64)
        assert np.linalg.norm(g32 - g64) <= 256 * eps * np.linalg.norm(g64)
