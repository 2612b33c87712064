"""Independent brute-force implementations used as oracles.

Deliberately written with different machinery than the package code
(list.count, recursion with memo, sorted scans) so agreement is
meaningful. The reference formulas of the engine kernels at the end are
the exception: they are the plain numpy expressions the in-place kernels
must reproduce bit for bit, and the full-row scorer the trimmed one must
agree with. ``grad_check`` compares the engine's gradients with central
finite differences, and ``float64_table`` gives the tests that hold
float64 arithmetic to such oracles a float64 table to run on.
"""

import math
from functools import lru_cache

import numpy as np

from medlm import data as D
from medlm import model as M
from medlm import tensor as T


def ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bleu_bf(cand, ref, n, eps=1e-9):
    cand, ref = list(cand), list(ref)
    if not cand:
        return 0.0
    logs = []
    for k in range(1, n + 1):
        cg = ngrams(cand, k)
        rg = ngrams(ref, k)
        hit = 0
        for g in set(cg):
            hit += min(cg.count(g), rg.count(g))
        if len(cg) == 0:
            p = eps
        else:
            p = hit / len(cg) if hit > 0 else eps
        logs.append(math.log(p))
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return bp * math.exp(sum(logs) / n)


def rouge_n_bf(cand, ref, n):
    cg = ngrams(list(cand), n)
    rg = ngrams(list(ref), n)
    hit = 0
    for g in set(cg):
        hit += min(cg.count(g), rg.count(g))
    if hit == 0 or not cg or not rg:
        return 0.0
    p = hit / len(cg)
    r = hit / len(rg)
    return 2 * p * r / (p + r)


def lcs_bf(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def rouge_l_bf(cand, ref):
    if not cand:
        return 0.0
    m = lcs_bf(cand, ref)
    if m == 0:
        return 0.0
    p = m / len(cand)
    r = m / len(ref)
    return 2 * p * r / (p + r)


def accuracy_bf(gold_sets, pred_sets):
    return sum(g == p for g, p in zip(gold_sets, pred_sets)) / len(gold_sets)


def weighted_f1_bf(gold_sets, pred_sets):
    score = 0.0
    for label in set(gold_sets):
        tp = fp = fn = 0
        for g, p in zip(gold_sets, pred_sets):
            if p == label and g == label:
                tp += 1
            elif p == label:
                fp += 1
            elif g == label:
                fn += 1
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        score += f1 * sum(1 for g in gold_sets if g == label)
    return score / len(gold_sets)


def duplicate_spans_exist(docs, min_span):
    """Sorted-scan check: does any span of min_span tokens occur at two
    distinct in-document positions of the corpus?"""
    grams = []
    for di, doc in enumerate(docs):
        toks = list(doc)
        for i in range(len(toks) - min_span + 1):
            grams.append(tuple(toks[i : i + min_span]))
    grams.sort()
    return any(grams[i] == grams[i + 1] for i in range(len(grams) - 1))


def duplicate_spans_exist_allpairs(docs, min_span):
    """Literal all-pairs comparison; only for very small corpora."""
    positions = []
    for di, doc in enumerate(docs):
        toks = list(doc)
        for i in range(len(toks) - min_span + 1):
            positions.append(tuple(toks[i : i + min_span]))
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if positions[i] == positions[j]:
                return True
    return False


def dedup_corpus_ref(docs, min_span):
    """The tuple-window dedup that ``data.dedup_corpus`` replaced: each
    window is a tuple of tokens in a dict, each mark a list of bools, and
    the kept text a filtered token list. Same fixpoint, earliest-wins rule
    and report, so the two must agree exactly."""
    docs_tokens = [list(doc) for doc in docs]
    alive = list(range(len(docs)))
    report = []
    while True:
        seen = {}
        marks = []
        found = False
        for tokens in docs_tokens:
            mark = [False] * len(tokens)
            for i in range(len(tokens) - min_span + 1):
                key = tuple(tokens[i : i + min_span])
                if key in seen:
                    for j in range(i, i + min_span):
                        mark[j] = True
                    found = True
                else:
                    seen[key] = True
            marks.append(mark)
        if not found:
            break
        next_tokens = []
        next_alive = []
        for doc_i, tokens, mark in zip(alive, docs_tokens, marks):
            kept = [t for t, m in zip(tokens, mark) if not m]
            start = None
            for j, m in enumerate(mark + [False]):
                if m and start is None:
                    start = j
                elif not m and start is not None:
                    report.append((doc_i, start, j))
                    start = None
            if len(kept) >= D.MIN_RESIDUAL_TOKENS:
                next_tokens.append(kept)
                next_alive.append(doc_i)
            elif len(kept) < len(tokens):
                report.append((doc_i, -1, -1))
        docs_tokens = next_tokens
        alive = next_alive
    return ["".join(t) for t in docs_tokens], report


# -- reference formulas of the engine kernels ---------------------------
# The engine's kernels run in place on buffers they own; these are the
# plain formulas they replaced, kept so tests can require the same bits.

def feed_forward_ref(x, w1, b1, w2, b2, g):
    """``relu(x @ w1 + b1) @ w2 + b2`` and the gradients of x, w1, b1, w2
    and b2 for upstream g, as the separate matmul, add and relu ops gave them."""
    pre = x @ w1 + b1
    mask = pre > 0
    hid = np.maximum(pre, 0.0)
    gh = (g @ w2.T) * mask
    return hid @ w2 + b2, gh @ w1.T, x.T @ gh, gh.sum(axis=0), hid.T @ g, g.sum(axis=0)


def layer_norm_ref(x, gain, bias, g, eps=1e-5):
    """Forward and the gradients of x, gain and bias for upstream g."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    axes = tuple(range(g.ndim - 1))
    gy = g * gain
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = (gy * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gain + bias, inv * (gy - m1 - xhat * m2),
            (g * xhat).sum(axis=axes), g.sum(axis=axes))


def layer_norm_kernel_ref(x, gain, bias, eps=1e-5):
    """The array layer norm as the op computes it: (out, xhat, inv),
    reducing with the ``.sum`` method."""
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = np.square(xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def attention_probs_masked_ref(qg, kg):
    """Causal attention probabilities as computed before the additive -inf
    mask: the max and the exp skip masked lanes (``where=``), which are
    then set to 0."""
    lq, lk = qg.shape[-2], kg.shape[-2]
    p = qg @ kg.swapaxes(-1, -2)
    p *= 1.0 / math.sqrt(qg.shape[-1])
    seen = np.arange(lk) <= np.arange(lk - lq, lk)[:, None] if lq > 1 else True
    p -= p.max(axis=-1, keepdims=True, where=seen, initial=-np.inf)
    np.exp(p, out=p, where=seen)
    if lq > 1:
        np.copyto(p, 0.0, where=~seen)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def gather_rows_grad_ref(table_shape, ids, g):
    full = np.zeros(table_shape)
    np.add.at(full, np.asarray(ids), g)
    return full


def causal_attention_ref(q, k, v, q_lengths, k_lengths, n_heads, g):
    """Forward and the gradients of q, k and v for upstream g, with an
    explicit ``np.where`` mask; segments of equal (query, key) lengths run
    as one group, in increasing order of the pair."""
    (nq, d), nk = q.shape, k.shape[0]
    dh = d // n_heads
    q_lengths, k_lengths = (np.asarray(x, dtype=np.int64) for x in (q_lengths, k_lengths))
    c = 1.0 / np.sqrt(dh)
    q_starts, k_starts = (np.cumsum(x) - x for x in (q_lengths, k_lengths))

    def split(x, rows, n_seg):
        x = x.reshape(n_seg, -1, d) if rows is None else x[rows]
        return x.reshape(x.shape[:2] + (n_heads, dh)).transpose(0, 2, 1, 3)

    def merge(dst, rows, y):
        y = y.transpose(0, 2, 1, 3).reshape(-1, d)
        if rows is None:
            return y
        dst[rows.ravel()] = y
        return dst

    out, gq = np.empty((nq, d)), np.empty((nq, d))
    gk, gv = np.empty((nk, d)), np.empty((nk, d))
    for lq, lk in sorted(set(zip(q_lengths.tolist(), k_lengths.tolist()))):
        group = (q_lengths == lq) & (k_lengths == lk)
        n_seg = int(group.sum())
        q_rows = k_rows = None
        if n_seg < len(q_lengths):
            q_rows = q_starts[group][:, None] + np.arange(lq)
            k_rows = k_starts[group][:, None] + np.arange(lk)
        qg = split(q, q_rows, n_seg)
        kg, vg = split(k, k_rows, n_seg), split(v, k_rows, n_seg)
        mask = np.tril(np.ones((lq, lk), dtype=bool), k=lk - lq)
        s = np.where(mask, c * (qg @ kg.swapaxes(-1, -2)), -np.inf)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out = merge(out, q_rows, p @ vg)
        go = split(g, q_rows, n_seg)
        gv = merge(gv, k_rows, p.swapaxes(-1, -2) @ go)
        gp = go @ vg.swapaxes(-1, -2)
        gs = c * (p * (gp - (gp * p).sum(axis=-1, keepdims=True)))
        gq = merge(gq, q_rows, gs @ kg)
        gk = merge(gk, k_rows, gs.swapaxes(-1, -2) @ qg)
    return out, gq, gk, gv


def adamw_ref(w, g, m, v, step, lr, weight_decay, beta1, beta2, eps):
    """One in-place AdamW step on flat arrays."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    w -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * w)


def score_full_ref(params, adapter, inputs, targets, coef, groups):
    """``objectives._score`` as it was before it trimmed rows: logits and
    log-probs for every position, zero-coefficient rows multiplied by 0."""
    lengths = [len(x) for x in inputs]
    logits = M.forward_logits(params, adapter, np.concatenate(inputs), lengths=lengths)
    return T.logprob_sums(logits, np.concatenate(targets), np.concatenate(coef),
                          np.repeat(groups, lengths), max(groups) + 1)


def forward_logits_ref(params, adapter, tokens):
    """``forward_logits`` of one segment written out in plain numpy and
    computed in long double: a reference for float64 tables on platforms
    where long double is wider than float64."""
    ld, c, n = np.longdouble, params.config, len(tokens)
    t = {name: x.data.astype(ld) for name, x in params.named()}
    dh = c.d_model // c.n_heads

    def norm(x, name):
        xhat = x - x.mean(axis=-1, keepdims=True)
        inv = 1 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + ld(T.NORM_EPS))
        return xhat * inv * t[name + ".g"] + t[name + ".b"]

    def project(x, name):
        y = x @ t[name]
        pair = None if adapter is None else adapter.pair(name)
        if pair is not None:
            a, b = (m.data.astype(ld) for m in pair)
            y = y + ld(adapter.scaling()) * ((x @ a) @ b)
        return y

    def heads(x):
        return x.reshape(n, c.n_heads, dh).transpose(1, 0, 2)

    causal = np.tril(np.ones((n, n), dtype=bool))
    x = t["embed"][np.asarray(tokens)] + t["pos"][:n]
    for i in range(c.n_layers):
        p = f"layer{i}."
        h = norm(x, p + "ln1")
        q, k, v = (heads(project(h, p + w)) for w in ("wq", "wk", "wv"))
        logit = np.where(causal, q @ k.transpose(0, 2, 1) / np.sqrt(ld(dh)), -np.inf)
        e = np.exp(logit - logit.max(axis=-1, keepdims=True))
        att = (e / e.sum(axis=-1, keepdims=True)) @ v
        x = x + project(att.transpose(1, 0, 2).reshape(n, -1), p + "wo")
        h = norm(x, p + "ln2")
        hid = np.maximum(h @ t[p + "ffn.w1"] + t[p + "ffn.b1"], 0)
        x = x + hid @ t[p + "ffn.w2"] + t[p + "ffn.b2"]
    return norm(x, "ln_f") @ t["head"]


# -- gradient checking -------------------------------------------------

def float64_table(table):
    """A float64 copy of a parameter table or adapter (``model.init_params``
    gives float32), grads on if the table's are. The engine follows the
    table's dtype, so everything computed from the copy is float64, and
    float64 oracles, finite differences and tolerances apply."""
    return type(table)(table.config, table.shapes, table.data.astype(np.float64),
                       requires_grad=table.grad is not None)


def zero_grad(t):
    if t.requires_grad:
        t.grad[...] = 0.0  # in place: a parameter's grad is a buffer view


def grad_check(fn, params, step=1e-6, tolerance=1e-5, n_samples=200, rng=None):
    """Compare backward gradients of fn() to central finite differences.

    fn must rebuild its graph from the current parameter values on each
    call. Samples n_samples coordinates uniformly across all params.
    Returns a dict with max_rel_err, n_checked and the failure list.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    params = list(params)
    for p in params:
        zero_grad(p)
    loss = fn()
    assert np.isfinite(loss.data), "grad_check: non-finite function value"
    T.backward(loss)
    analytic = [p.grad.copy() for p in params]

    sizes = [p.data.size for p in params]
    total = sum(sizes)
    n = min(n_samples, total)
    coords = rng.choice(total, size=n, replace=False)

    failures = []
    max_rel = 0.0
    with T.no_grad():
        for c in sorted(coords):
            pi = 0
            while c >= sizes[pi]:
                c -= sizes[pi]
                pi += 1
            flat = params[pi].data.reshape(-1)
            orig = flat[c]
            flat[c] = orig + step
            f_plus = float(fn().data)
            flat[c] = orig - step
            f_minus = float(fn().data)
            flat[c] = orig
            assert np.isfinite(f_plus) and np.isfinite(f_minus), \
                "grad_check: non-finite function value"
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[pi].reshape(-1)[c]
            denom = max(abs(a), abs(numeric), 1e-10)
            rel = abs(a - numeric) / denom
            max_rel = max(max_rel, rel)
            if rel > tolerance and abs(a - numeric) > 1e-8:
                failures.append((pi, int(c), float(a), float(numeric), float(rel)))
    return {"max_rel_err": max_rel, "n_checked": n, "failures": failures}
