import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medlm import tensor as T
from medlm.errors import ContractError, ShapeError
from medlm.tensor import Tensor, backward
from oracles import grad_check, zero_grad


def test_float32_and_float64_arrays_are_kept_others_converted():
    for dtype in (np.float64, np.float32):
        a = np.arange(6.0, dtype=dtype).reshape(2, 3)
        assert Tensor(a).data is a
    scalar = Tensor(np.float32(2.5))  # what a float32 sum returns
    assert scalar.data.dtype == np.float32 and scalar.item() == 2.5
    for x in (np.arange(3), [0, 1, 2], np.arange(3, dtype=np.float16)):
        t = Tensor(x)
        assert t.data.dtype == np.float64 and np.array_equal(t.data, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_constants_take_the_tensor_dtype(dtype):
    # under numpy 2 a float64 array, even 0-d, would promote float32
    x = Tensor(np.arange(3, dtype=dtype), requires_grad=True)
    s = T.tsum(x)
    for out in (x + np.ones(3), [1.0, 2.0, 3.0] + x, x - np.full(3, 0.5), x * 3.0,
                s + 1.0, 1.0 + s, s - np.float64(0.5), s + np.array(2.0)):
        assert out.data.dtype == dtype
    loss = T.tsum(x - np.ones(3))
    assert loss.data.dtype == dtype
    backward(loss)
    assert x.grad.dtype == dtype


def test_add_takes_equal_shapes():
    x = Tensor(np.zeros((2, 3)))
    for other in (1.0, np.zeros(3), np.zeros((1, 3)), np.zeros((3, 2))):
        with pytest.raises(ShapeError, match=r"add: shapes \(2, 3\) and"):
            x + other


class TestMatmul:
    def test_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]) @ Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_dot(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    @pytest.mark.parametrize("sa, sb", [((3, 1, 1), (3, 1, 1)), ((2, 3), (1, 3, 2)),
                                         ((3,), (3, 2)), ((2, 3), (3,))])
    def test_operands_must_be_2d(self, sa, sb):
        with pytest.raises(ShapeError, match="matmul"):
            Tensor(np.zeros(sa)) @ Tensor(np.zeros(sb))

    def test_gradient_vs_finite_differences(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

        def fn():
            return T.tsum(T.log_sigmoid(a @ b))

        report = grad_check(fn, [a, b], tolerance=1e-6, n_samples=20)
        assert report["max_rel_err"] < 1e-6
        assert not report["failures"]


def _grads(op, inputs):
    """op(*inputs), the upstream gradient tsum(log_sigmoid(.)) gives it, which
    is uneven and exactly 1 / (1 + exp(out)), and the gradient of each input."""
    out = op(*inputs)
    backward(T.tsum(T.log_sigmoid(out)))
    return out.data, 1.0 / (1.0 + np.exp(out.data)), [t.grad for t in inputs]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFeedForward:
    @staticmethod
    def _inputs(rng, dtype, edge):
        """x, w1, b1, w2, b2 whose hidden pre-activations x @ w1 + b1 hold
        exact zeros in columns 0 and 1 and ``edge`` in column 2. A BLAS
        product is +0.0 where its terms are zero and +0.0 + -0.0 is +0.0, so
        no pre-activation is -0.0: -0.0 enters as b1[1] and as row 0 of x."""
        x = rng.standard_normal((37, 8)).astype(dtype)
        w1 = rng.standard_normal((8, 32)).astype(dtype)
        b1 = rng.standard_normal(32).astype(dtype)
        w1[:, :3] = 0.0
        b1[:3] = 0.0, -0.0, edge
        x[0] = -0.0
        return x, w1, b1, rng.standard_normal((32, 8)).astype(dtype), \
            rng.standard_normal(8).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trainable", [True, False])
    @pytest.mark.parametrize("edge", [0.5, np.nan])
    def test_matches_reference_bits(self, rng, dtype, trainable, edge):
        arrays = self._inputs(rng, dtype, edge)
        x, *weights = (Tensor(a, requires_grad=trainable or i == 0)
                       for i, a in enumerate(arrays))
        out = T.feed_forward(x, *weights)
        # a loss whose gradient on out, g[r, j] = count of r in ids * c[j],
        # varies over rows and columns and is finite where out is nan
        ids = np.repeat(np.arange(37), rng.integers(1, 4, 37))
        c = rng.standard_normal((8, 1)).astype(dtype)
        backward(T.tsum(T.gather_rows(out @ Tensor(c), ids)))
        g = np.bincount(ids).astype(dtype)[:, None] @ c.T
        ref_out, *ref_grads = oracles.feed_forward_ref(*arrays, g)
        assert _same_bits(out.data, ref_out)
        for t, ref in zip((x, *weights), ref_grads):
            if t.requires_grad:  # a leaf's grad is added into zeros, so -0.0 reads +0.0
                assert _same_bits(t.grad, np.zeros_like(ref) + ref)
            else:
                assert t.grad is None
        assert np.isnan(out.data).all() == np.isnan(edge)
        if trainable:  # the relu passes no gradient at a pre-activation of 0 or nan
            dead = 3 if np.isnan(edge) else 2
            assert weights[1].grad[:dead].tolist() == [0.0] * dead

    @pytest.mark.parametrize("shapes", [
        [(5, 7), (8, 32), (32,), (32, 8), (8,)],
        [(5, 8), (8, 32), (31,), (32, 8), (8,)], [(5, 8), (8, 32), (32,), (31, 8), (8,)],
        [(5, 8), (8, 32), (32,), (32, 8), (7,)], [(8,), (8, 32), (32,), (32, 8), (8,)],
        [(5, 8), (8, 32), (1, 32), (32, 8), (8,)]])
    def test_shapes_must_chain(self, shapes):
        with pytest.raises(ShapeError, match="feed_forward"):
            T.feed_forward(*(Tensor(np.zeros(s)) for s in shapes))


class TestGatherRows:
    @pytest.mark.parametrize("ids_shape", [(40,), (5, 8)])
    def test_grad_matches_add_at_bits(self, rng, ids_shape):
        table = rng.standard_normal((7, 6))
        ids = rng.integers(0, 7, size=ids_shape)  # many repeats
        out, g, (gt,) = _grads(lambda t: T.gather_rows(t, ids),
                               [Tensor(table, requires_grad=True)])
        assert np.array_equal(out, table[ids])
        assert np.array_equal(gt, oracles.gather_rows_grad_ref(table.shape, ids, g))


class TestSoftmaxRows:
    """Row softmax, as exp of the log-probs logprob_sums picks, one column
    per call."""

    def _softmax(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        n, v = rows.shape
        return np.exp(np.stack([
            T.logprob_sums(Tensor(rows), [c] * n, np.ones(n), np.arange(n), n).data
            for c in range(v)], axis=1))

    def test_uniform_row(self):
        out = self._softmax([[0.0, 0.0, 0.0]])
        assert np.allclose(out, 1 / 3, atol=1e-15)

    def test_large_logit_no_overflow(self):
        out = self._softmax([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1 - 1e-12

    def test_known_values(self):
        out = self._softmax([[1.0, 2.0, 3.0]])
        expected = [0.09003057, 0.24472847, 0.66524096]
        assert np.allclose(out[0], expected, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
    def test_rows_sum_to_one_property(self, row):
        out = self._softmax([row])
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0) and np.all(out <= 1)


def _attention_inputs(rng, n, d=8, requires_grad=False):
    return [Tensor(rng.standard_normal((n, d)), requires_grad=requires_grad)
            for _ in range(3)]


def _suffix_lengths(lengths):
    """(q_lengths, k_lengths): a ragged suffix as a (queries, keys) pair, or
    self-attention for one list of lengths."""
    return lengths if isinstance(lengths, tuple) else (lengths, lengths)


# segment s's queries are the last q[s] of its k[s] positions
RAGGED_SUFFIX = ([2, 1, 3], [4, 1, 5])


class TestCausalAttention:
    def test_future_key_leaves_earlier_rows_bit_identical(self, rng):
        # segments [3, 2]: the last key of each set to 1e9 is masked for
        # every earlier row of its segment and for the whole other segment
        q, k, v = _attention_inputs(rng, 5)
        a = T.causal_attention(q, k, v, [3, 2], [3, 2], n_heads=2).data
        k.data[[2, 4]] = 1e9
        v.data[[2, 4]] = 1e9
        b = T.causal_attention(q, k, v, [3, 2], [3, 2], n_heads=2).data
        assert np.array_equal(a[[0, 1, 3]], b[[0, 1, 3]])
        assert np.all(np.isfinite(b))

    def test_segments_match_separate_calls(self, rng):
        q, k, v = _attention_inputs(rng, 9)
        lengths = [4, 2, 3]
        joint = T.causal_attention(q, k, v, lengths, lengths, n_heads=2).data
        start = 0
        for n in lengths:
            rows = slice(start, start + n)
            alone = T.causal_attention(Tensor(q.data[rows]), Tensor(k.data[rows]),
                                       Tensor(v.data[rows]), [n], [n], n_heads=2).data
            assert np.allclose(joint[rows], alone, rtol=0.0, atol=1e-15)
            start += n

    def test_first_row_copies_its_value(self, rng):
        q, k, v = _attention_inputs(rng, 3)
        out = T.causal_attention(q, k, v, [1, 2], [1, 2], n_heads=2).data
        assert np.array_equal(out[[0, 1]], v.data[[0, 1]])

    @pytest.mark.parametrize("lengths", [[5], [2, 2, 2], [3, 1, 3, 2], RAGGED_SUFFIX])
    def test_gradients(self, rng, lengths):
        q_lengths, k_lengths = _suffix_lengths(lengths)
        q = _attention_inputs(rng, sum(q_lengths), requires_grad=True)[0]
        k, v = _attention_inputs(rng, sum(k_lengths), requires_grad=True)[1:]

        def fn():
            out = T.causal_attention(q, k, v, q_lengths, k_lengths, n_heads=2)
            return T.tsum(T.log_sigmoid(out))

        report = grad_check(fn, [q, k, v], tolerance=1e-6, n_samples=60)
        assert not report["failures"]

    def test_cached_keys_match_full_call(self, rng):
        q, k, v = _attention_inputs(rng, 6)
        full = T.causal_attention(q, k, v, [6], [6], n_heads=2).data
        last = T.causal_attention(Tensor(q.data[4:]), k, v, [2], [6], n_heads=2).data
        assert np.allclose(last, full[4:], rtol=0.0, atol=1e-15)

    def test_suffix_queries_match_full_rows(self, rng):
        # the full op's queried rows, gathered: every unqueried row gets an
        # upstream gradient of 0
        q_lengths, k_lengths = RAGGED_SUFFIX
        n = sum(k_lengths)
        q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
        suffix = np.flatnonzero(np.arange(n) >= np.repeat(np.cumsum(k_lengths) - q_lengths,
                                                          k_lengths))
        full, _, (gq, gk, gv) = _grads(
            lambda *qkv: T.gather_rows(
                T.causal_attention(*qkv, k_lengths, k_lengths, n_heads=2), suffix),
            [Tensor(x, requires_grad=True) for x in (q, k, v)])
        out, _, (sq, sk, sv) = _grads(
            lambda *qkv: T.causal_attention(*qkv, q_lengths, k_lengths, n_heads=2),
            [Tensor(x, requires_grad=True) for x in (q[suffix], k, v)])
        for got, want in ((out, full), (sq, gq[suffix]), (sk, gk), (sv, gv)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lengths", [[7], [4, 4], [3, 1, 3, 2, 5, 2], RAGGED_SUFFIX])
    def test_matches_reference_bits(self, rng, lengths):
        # head width 6: the scale 1/sqrt(6) rounds, so the order it is applied in shows
        q_lengths, k_lengths = _suffix_lengths(lengths)
        q = rng.standard_normal((sum(q_lengths), 12))
        k, v = (rng.standard_normal((sum(k_lengths), 12)) for _ in range(2))
        out, g, grads = _grads(
            lambda *qkv: T.causal_attention(*qkv, q_lengths, k_lengths, n_heads=2),
            [Tensor(x, requires_grad=True) for x in (q, k, v)])
        ref = oracles.causal_attention_ref(q, k, v, q_lengths, k_lengths, 2, g)
        for got, want in zip([out] + grads, ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_queries", [1, 3, RAGGED_SUFFIX[0]])
    def test_cached_keys_match_reference_bits(self, rng, n_queries):
        # decoding: 1 or 3 queries follow 9 cached keys and values; the
        # ragged suffix's segments follow 2, 0 and 2 earlier keys
        q_lengths, k_lengths = (RAGGED_SUFFIX if isinstance(n_queries, list)
                                else ([n_queries], [9 + n_queries]))
        q = rng.standard_normal((sum(q_lengths), 12))
        k, v = (rng.standard_normal((sum(k_lengths), 12)) for _ in range(2))
        with T.no_grad():
            out = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), q_lengths, k_lengths,
                                     n_heads=2)
        ref = oracles.causal_attention_ref(q, k, v, q_lengths, k_lengths, 2,
                                           np.zeros(q.shape))
        assert np.array_equal(out.data, ref[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_seg, lq, lk", [(1, 1, 9), (3, 1, 9), (1, 4, 9), (3, 4, 9),
                                               (1, 9, 9), (3, 9, 9)])
    def test_probs_match_masked_kernel_bits(self, rng, dtype, n_seg, lq, lk):
        # head width 6, so the scale rounds; several segments form one group
        qg = rng.standard_normal((n_seg, 2, lq, 6)).astype(dtype)
        kg = rng.standard_normal((n_seg, 2, lk, 6)).astype(dtype)
        p = T._attention_probs(qg, kg)
        assert p.dtype == dtype
        assert np.array_equal(p, oracles.attention_probs_masked_ref(qg, kg))

    def test_masks_are_views_of_one_cached_mask(self, monkeypatch):
        monkeypatch.setattr(T, "_MASKS", {})
        dtypes = [np.dtype(np.float32), np.dtype(np.float64)]
        for lq, lk in ((2, 2), (1, 5), (3, 5), (5, 5), (4, 9), (9, 9), (2, 3)):
            for dtype in dtypes:
                m = T._causal_mask(lq, lk, dtype)
                assert m.dtype == dtype
                assert np.array_equal(m, np.triu(np.full((lq, lk), -np.inf, dtype),
                                                 lk - lq + 1))
                with pytest.raises(ValueError, match="read-only"):
                    m[...] = 0.0
                assert m.base is T._MASKS[dtype]
        # grown to the longest key length, one [9, 9] base per dtype
        assert list(T._MASKS) == dtypes
        assert all(T._MASKS[dtype].shape == (9, 9) for dtype in dtypes)

    def test_threads_share_the_mask_cache(self, monkeypatch):
        # more threads than cores, switching often, growing the mask as they go
        monkeypatch.setattr(T, "_MASKS", {})
        dtype, wrong = np.dtype(np.float32), []

        def work(seed):
            for lk in np.random.default_rng(seed).integers(1, 64, 300):
                lq = int(lk) // 2 + 1
                m = T._causal_mask(lq, int(lk), dtype)
                if not np.array_equal(m, np.triu(np.full((lq, lk), -np.inf, dtype),
                                                 lk - lq + 1)):
                    wrong.append((lq, lk))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong

    def test_lengths_must_cover_rows(self, rng):
        q, k, v = _attention_inputs(rng, 4)
        for q_lengths, k_lengths in (([2, 1], [2, 1]), ([4], [3]), ([2, 2], [3, 1]),
                                     ([4, 0], [3, 1]), ([4], [2, 2]), ([2, 2], [4]),
                                     ([2.9, 2.2], [2.9, 2.2])):
            with pytest.raises(ShapeError, match="q_lengths"):
                T.causal_attention(q, k, v, q_lengths, k_lengths, n_heads=2)
        # one segment: keys not covered, more queries than keys, no query
        for n_q, n_k, k_length in ((3, 4, 3), (4, 3, 3), (0, 4, 4)):
            with pytest.raises(ShapeError, match="q_lengths"):
                T.causal_attention(Tensor(q.data[:n_q]), Tensor(k.data[:n_k]),
                                   Tensor(v.data[:n_k]), [n_q], [k_length], n_heads=2)


def _mean_nll(logits, targets):
    """Token-mean NLL as the objectives take it: coefficient -1/N on every row."""
    n = len(targets)
    return T.logprob_sums(logits, targets, np.full(n, -1.0 / n), np.zeros(n, dtype=int), 1)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((4, 16)))
        loss = _mean_nll(logits, [0, 5, 9, 15])
        assert abs(loss.item() - np.log(16)) < 1e-12

    def test_confident_correct(self):
        logits = np.full((3, 8), -50.0)
        for t, tgt in enumerate([1, 2, 3]):
            logits[t, tgt] = 50.0
        loss = _mean_nll(Tensor(logits), [1, 2, 3])
        assert loss.item() < 1e-12

    def test_matches_manual_computation(self):
        logits = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]])
        targets = [2, 0]
        manual = 0.0
        for t in range(2):
            p = np.exp(logits[t]) / np.exp(logits[t]).sum()
            manual += -np.log(p[targets[t]])
        manual /= 2
        loss = _mean_nll(Tensor(logits), targets)
        assert abs(loss.item() - manual) < 1e-12

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            _mean_nll(Tensor(np.zeros((2, 4))), [0, 4])


class TestBackward:
    # a [1, 1] matrix w: w @ w is w squared, with w as both inputs of one op

    def test_square(self):
        w = Tensor([[3.0]], requires_grad=True)
        backward(w @ w)
        assert w.grad == 6.0

    def test_constant_has_zero_grad(self):
        w = Tensor(3.0, requires_grad=True)
        backward(T.tsum(Tensor([1.0, 2.0]) + Tensor([1.0, 1.0])))
        assert w.grad == 0.0

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(w + w)

    def test_grad_accumulates_across_backwards(self):
        w = Tensor([[2.0]], requires_grad=True)
        backward(w @ w)
        backward(w @ w)
        assert w.grad == 8.0

    def test_branching_graph(self):
        # f = (w @ w) + (w*3) -> df/dw = 2w + 3
        w = Tensor([[4.0]], requires_grad=True)
        backward(w @ w + 3.0 * w)
        assert w.grad == 11.0

    def test_shared_first_gradient_stays_intact(self):
        # add hands one gradient array to both inputs; a later contribution
        # to one of them must not change what the other receives
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a, b = 2.0 * w, 3.0 * w
        backward(T.tsum((a + b) + a) + T.tsum(b * 5.0))
        assert np.array_equal(w.grad, [22.0, 22.0])

    def test_second_backward_is_a_contract_error(self):
        w = Tensor([[2.0]], requires_grad=True)
        h = w @ w
        loss = h @ w
        backward(loss)
        assert loss._backward_fn is None and loss._parents == ()
        # the same loss, and a new one over a part already differentiated
        for again in (loss, h @ h):
            with pytest.raises(ContractError, match="already differentiated"):
                backward(again)
        assert w.grad == 12.0  # the refused calls added nothing

    def test_deterministic_repeat(self, rng):
        a_data = rng.standard_normal((5, 5))

        def run():
            a = Tensor(a_data.copy(), requires_grad=True)
            loss = T.tsum(T.logprob_sums(a @ Tensor(a_data), np.arange(5), np.ones(5),
                                         np.arange(5), 5))
            backward(loss)
            return loss.data.copy(), a.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


class TestLayerNorm:
    def test_normalizes_rows(self, rng):
        x = Tensor(rng.standard_normal((4, 8)))
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = T.layer_norm(x, g, b)
        assert np.allclose(out.data.mean(axis=-1), 0, atol=1e-12)
        assert np.allclose(out.data.std(axis=-1), 1, atol=1e-3)

    @pytest.mark.parametrize("shape", [(1, 8), (37, 64), (3, 5, 16)])
    def test_matches_reference_bits(self, rng, shape):
        x = 3.0 * rng.standard_normal(shape) + 1.0
        gain, bias = rng.standard_normal((2, shape[-1]))
        out, g, grads = _grads(T.layer_norm, [Tensor(a, requires_grad=True)
                                              for a in (x, gain, bias)])
        ref = oracles.layer_norm_ref(x, gain, bias, g)
        for got, want in zip([out] + grads, ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 8), (37, 64), (3, 5, 16)])
    def test_normalize_and_affine_match_kernel_bits(self, rng, dtype, shape):
        x = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
        gain, bias = rng.standard_normal((2, shape[-1])).astype(dtype)
        out, xhat, inv = oracles.layer_norm_kernel_ref(x, gain, bias)
        inputs = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        got = T.layer_norm(*inputs)
        backward(T.tsum(got))
        # under upstream gradient 1 the gain's gradient sums xhat, and x's is
        # built from xhat and inv, so they hold the kernel's xhat and inv bits
        n = shape[-1]
        gy = np.ones_like(x) * gain
        m1 = gy.sum(axis=-1, keepdims=True) / n
        m2 = (gy * xhat).sum(axis=-1, keepdims=True) / n
        want = (out, (gy - m1 - xhat * m2) * inv, xhat.sum(axis=tuple(range(x.ndim - 1))))
        for a, b in zip((got.data, inputs[0].grad, inputs[1].grad), want):
            assert a.dtype == dtype and np.array_equal(a, b)

    def test_gradients(self, rng):
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        g = Tensor(rng.standard_normal(6), requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)

        def fn():
            return T.tsum(T.log_sigmoid(T.layer_norm(x, g, b)))

        report = grad_check(fn, [x, g, b], tolerance=1e-6, n_samples=30)
        assert not report["failures"]


class TestGradCheck:
    def test_quadratic_bowl(self):
        # w @ w: one tensor is both operands, so both gradient terms land in it
        w = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)

        def fn():
            return T.tsum(w @ w)

        report = grad_check(fn, [w], n_samples=8)
        assert report["max_rel_err"] < 1e-8

    def test_sin_of_sum_matches_cosine(self):
        # d/dx sin(sum(x)) = cos(sum(x)); exercised via exp/log-free ops
        w = Tensor(np.array([0.3, 0.4]), requires_grad=True)

        class _Sin:
            def __call__(self):
                s = T.tsum(w)
                out = T._make(np.sin(s.data), (s,),
                              lambda g, s=s: T._accumulate(s, g * np.cos(s.data)))
                return out

        report = grad_check(_Sin(), [w], n_samples=2)
        assert not report["failures"]
        zero_grad(w)
        backward(_Sin()())
        assert np.allclose(w.grad, np.cos(0.7), atol=1e-12)

    def test_corrupted_gradient_reported(self):
        # negative control: a rule claiming df/dw = w instead of 2w must fail
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def bad_fn():
            out = Tensor(float((w.data**2).sum()))
            out.requires_grad = True
            out._parents = (w,)
            out._backward_fn = lambda g: w.grad.__iadd__(g * w.data)
            return out

        report = grad_check(bad_fn, [w], n_samples=2)
        assert report["failures"]


class TestLogSigmoid:
    def test_at_zero(self):
        assert abs(T.log_sigmoid(Tensor(0.0)).item() + np.log(2)) < 1e-15

    def test_stable_extremes(self):
        assert np.isfinite(T.log_sigmoid(Tensor(-1000.0)).data)
        assert abs(T.log_sigmoid(Tensor(1000.0)).item()) < 1e-12

    def test_gradient(self):
        x = Tensor(0.7, requires_grad=True)
        backward(T.log_sigmoid(x))
        assert abs(x.grad - 1 / (1 + np.exp(0.7))) < 1e-12


def _log_softmax_reference(x):
    """Plain numpy log-softmax, one row at a time."""
    out = np.empty_like(x)
    for i, row in enumerate(x):
        shifted = row - row.max()
        out[i] = shifted - np.log(np.exp(shifted).sum())
    return out


class TestLogprobSums:
    # four segments of 3, 1, 2 and 2 rows; coefficients zero, positive and negative
    TARGETS = [2, 0, 4, 1, 3, 3, 0, 2]
    COEF = [0.5, -1.0, 0.0, 2.0, -0.25, 0.0, 1.0, -1.5]
    SEGMENTS = [0, 0, 0, 1, 2, 2, 3, 3]

    def _sums(self, logits, targets=TARGETS):
        return T.logprob_sums(logits, targets, self.COEF, self.SEGMENTS, 4)

    def test_gradient_vs_finite_differences(self, rng):
        logits = Tensor(rng.standard_normal((8, 5)), requires_grad=True)

        report = grad_check(lambda: T.tsum(T.log_sigmoid(self._sums(logits))), [logits],
                            tolerance=1e-6, n_samples=40)
        assert report["n_checked"] == 40 and not report["failures"]

    def test_matches_numpy_reference(self, rng):
        x = 10.0 * rng.standard_normal((8, 5))
        ls = _log_softmax_reference(x)
        expected = np.zeros(4)
        for j, (t, c, s) in enumerate(zip(self.TARGETS, self.COEF, self.SEGMENTS)):
            expected[s] += c * ls[j, t]
        assert np.allclose(self._sums(Tensor(x)).data, expected, rtol=0.0, atol=1e-12)

    def test_zero_coefficient_rows_are_inert(self, rng):
        x = rng.standard_normal((8, 5))
        scrambled = [t if c else (t + 1 + j) % 5
                     for j, (t, c) in enumerate(zip(self.TARGETS, self.COEF))]
        assert scrambled != self.TARGETS
        runs = []
        for targets in (self.TARGETS, scrambled):
            logits = Tensor(x.copy(), requires_grad=True)
            out = self._sums(logits, targets)
            backward(T.tsum(T.log_sigmoid(out)))
            runs.append((out.data, logits.grad))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
