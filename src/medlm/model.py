"""Character-level vocab, compact decoder-only transformer, LoRA, greedy decoding."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DataError, VocabError
from .tensor import Tensor

SPECIAL_SYMBOLS = ("<BOS>", "<EOS>", "<PAD>", "<SEP>")
BOS, EOS, PAD, SEP = 0, 1, 2, 3

_ESCAPES = {"\n": "\\n", "\r": "\\r", "\\": "\\\\"}
_UNESCAPES = {"\\n": "\n", "\\r": "\r", "\\\\": "\\"}


@dataclass(frozen=True)
class Vocab:
    symbols: tuple
    id_of: dict = field(repr=False)

    def __len__(self):
        return len(self.symbols)


def build_vocab(corpus):
    """Specials at ids 0-3, then all distinct characters sorted by code point."""
    if not corpus:
        raise DataError("build_vocab: empty corpus")
    chars = sorted(set().union(*(set(doc) for doc in corpus)))
    symbols = SPECIAL_SYMBOLS + tuple(chars)
    return Vocab(symbols=symbols, id_of={s: i for i, s in enumerate(symbols)})


def encode(vocab, text):
    ids = []
    for off, ch in enumerate(text):
        try:
            ids.append(vocab.id_of[ch])
        except KeyError:
            raise VocabError(f"unknown character {ch!r} at offset {off}") from None
    return ids


def decode(vocab, ids):
    try:
        return "".join(vocab.symbols[i] for i in ids)
    except IndexError:
        raise VocabError(f"token id out of range [0, {len(vocab)})") from None


def decode_text(vocab, ids):
    """Decode, dropping special tokens (for human-facing generation output)."""
    return "".join(vocab.symbols[i] for i in ids if i >= len(SPECIAL_SYMBOLS))


def save_vocab(vocab, path):
    """One symbol per line, line number = id; \\n, \\r, \\ escaped."""
    with open(path, "w", encoding="utf-8") as fh:
        for sym in vocab.symbols:
            fh.write("".join(_ESCAPES.get(ch, ch) for ch in sym) + "\n")


def load_vocab(path):
    symbols = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().split("\n")[:-1]:
            out = []
            i = 0
            while i < len(line):
                if line[i] == "\\" and line[i : i + 2] in _UNESCAPES:
                    out.append(_UNESCAPES[line[i : i + 2]])
                    i += 2
                else:
                    out.append(line[i])
                    i += 1
            symbols.append("".join(out))
    if tuple(symbols[: len(SPECIAL_SYMBOLS)]) != SPECIAL_SYMBOLS:
        raise VocabError(f"vocab file {path} missing special symbols")
    return Vocab(symbols=tuple(symbols), id_of={s: i for i, s in enumerate(symbols)})


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    max_seq_len: int = 256  # paper-scale profile uses 1024
    d_ff: int = 0  # 0 -> 4 * d_model
    dropout: float = 0.0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.max_seq_len < 2:
            raise ConfigError("max_seq_len must be >= 2")
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 32.0
    dropout: float = 0.05
    targets: tuple = ("wq", "wv")


class ModelParams:
    """Named parameter table for one transformer."""

    def __init__(self, config, tensors):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name):
        return self.tensors[name]

    def named(self):
        return self.tensors.items()

    def n_params(self):
        return sum(t.data.size for t in self.tensors.values())

    def set_requires_grad(self, flag):
        for t in self.tensors.values():
            t.requires_grad = flag
            t.grad = np.zeros_like(t.data) if flag else None

    def copy(self):
        out = {}
        for name, t in self.tensors.items():
            c = Tensor(t.data.copy(), requires_grad=t.requires_grad)
            out[name] = c
        return ModelParams(self.config, out)


class LoraAdapter:
    """Low-rank residuals on selected projections: W + (alpha/r) * A @ B."""

    def __init__(self, config, tensors):
        self.config = config
        self.tensors = tensors

    def named(self):
        return self.tensors.items()

    def scaling(self):
        return self.config.alpha / self.config.rank

    def pair(self, target_name):
        """(A, B) for e.g. 'layer0.wq', or None if not adapted."""
        a = self.tensors.get(target_name + ".A")
        return (a, self.tensors[target_name + ".B"]) if a is not None else None

    def copy(self):
        out = {}
        for name, t in self.tensors.items():
            out[name] = Tensor(t.data.copy(), requires_grad=t.requires_grad)
        return LoraAdapter(self.config, out)


def init_params(config, rng, init_scale=0.02):
    def w(*shape):
        return Tensor(init_scale * rng.standard_normal(shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    c = config
    t = {"embed": w(c.vocab_size, c.d_model), "pos": w(c.max_seq_len, c.d_model)}
    for i in range(c.n_layers):
        p = f"layer{i}."
        for proj in ("wq", "wk", "wv", "wo"):
            t[p + proj] = w(c.d_model, c.d_model)
        t[p + "ln1.g"] = ones(c.d_model)
        t[p + "ln1.b"] = zeros(c.d_model)
        t[p + "ffn.w1"] = w(c.d_model, c.d_ff)
        t[p + "ffn.b1"] = zeros(c.d_ff)
        t[p + "ffn.w2"] = w(c.d_ff, c.d_model)
        t[p + "ffn.b2"] = zeros(c.d_model)
        t[p + "ln2.g"] = ones(c.d_model)
        t[p + "ln2.b"] = zeros(c.d_model)
    t["ln_f.g"] = ones(c.d_model)
    t["ln_f.b"] = zeros(c.d_model)
    t["head"] = w(c.d_model, c.vocab_size)
    return ModelParams(c, t)


def attach_lora(params, lora_config, rng, init_scale=0.02):
    """Fresh adapter with gaussian A and zero B: logits unchanged until trained."""
    c = params.config
    r = lora_config.rank
    tensors = {}
    for i in range(c.n_layers):
        for proj in lora_config.targets:
            name = f"layer{i}.{proj}"
            if name not in params.tensors:
                raise ConfigError(f"attach_lora: unknown target {name}")
            tensors[name + ".A"] = Tensor(
                init_scale * rng.standard_normal((c.d_model, r)), requires_grad=True
            )
            tensors[name + ".B"] = Tensor(np.zeros((r, c.d_model)), requires_grad=True)
    return LoraAdapter(lora_config, tensors)


def merge_lora(params, adapter):
    """Fold (alpha/r) * A @ B into each adapted weight; returns new params."""
    merged = params.copy()
    s = adapter.scaling()
    for name, t in merged.tensors.items():
        pair = adapter.pair(name)
        if pair is not None:
            a, b = pair
            t.data = t.data + s * (a.data @ b.data)
    return merged


def _project(x, params, adapter, name, rng):
    y = x @ params[name]
    if adapter is not None:
        pair = adapter.pair(name)
        if pair is not None:
            a, b = pair
            xd = T.dropout(x, adapter.config.dropout, rng)
            y = y + adapter.scaling() * ((xd @ a) @ b)
    return y


def forward_logits(params, adapter, tokens, train_rng=None, cache=None):
    """Logits [T, V]; position t sees only tokens <= t (causal mask).

    ``cache`` is an optional per-request KV cache for decoding: a list
    holding one ``(K, V)`` pair of ``[S, d_model]`` arrays per layer, or
    empty before the first call. ``tokens`` then continue the ``S`` cached
    positions: they take position ids ``S, S+1, ...``, attend to the cached
    keys and values, and their own K/V are appended to the list in place.
    A cache is only legal under ``no_grad``, and ``S + len(tokens)`` must
    not exceed ``max_seq_len``.
    """
    c = params.config
    n = len(tokens)
    if n == 0:
        raise DataError("forward_logits: empty token sequence")
    if cache is not None and T._GRAD_ENABLED:
        raise ContractError("forward_logits: a KV cache needs no_grad")
    start = len(cache[0][0]) if cache else 0
    if start + n > c.max_seq_len:
        raise DataError(f"sequence length {start + n} exceeds max_seq_len {c.max_seq_len}")
    dh = c.d_model // c.n_heads
    causal = np.tril(np.ones((n, start + n)), k=start)

    x = T.gather_rows(params["embed"], tokens) + T.gather_rows(params["pos"],
                                                               range(start, start + n))
    x = T.dropout(x, c.dropout, train_rng)
    for i in range(c.n_layers):
        p = f"layer{i}."
        h = T.layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        q = _project(h, params, adapter, p + "wq", train_rng)
        k = _project(h, params, adapter, p + "wk", train_rng)
        v = _project(h, params, adapter, p + "wv", train_rng)
        if cache is not None:
            if start:
                k = Tensor(np.concatenate([cache[i][0], k.data]))
                v = Tensor(np.concatenate([cache[i][1], v.data]))
            cache[i:i + 1] = [(k.data, v.data)]  # replace, or append on prefill
        heads = []
        for hd in range(c.n_heads):
            j0, j1 = hd * dh, (hd + 1) * dh
            qh = T.slice_cols(q, j0, j1)
            kh = T.slice_cols(k, j0, j1)
            vh = T.slice_cols(v, j0, j1)
            scores = (1.0 / np.sqrt(dh)) * (qh @ T.transpose(kh))
            att = T.softmax_rows(scores, mask=causal)
            att = T.dropout(att, c.dropout, train_rng)
            heads.append(att @ vh)
        attn_out = _project(T.concat_cols(heads), params, adapter, p + "wo", train_rng)
        x = x + T.dropout(attn_out, c.dropout, train_rng)
        h2 = T.layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        ff = T.relu(h2 @ params[p + "ffn.w1"] + params[p + "ffn.b1"])
        ff = ff @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        x = x + T.dropout(ff, c.dropout, train_rng)
    x = T.layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    return x @ params["head"]


def generate_greedy(params, adapter, prompt_ids, max_new, stop_id=EOS):
    """Argmax decoding; ties break toward the lowest token id (np.argmax).

    The prompt is encoded once into a KV cache and each step feeds only the
    new token. Past ``max_seq_len`` the window slides, which moves every
    absolute position, so the cache is dropped and the last window re-encoded.
    """
    if not prompt_ids:
        raise DataError("generate_greedy: empty prompt")
    window = params.config.max_seq_len
    ids = list(prompt_ids)
    out = []
    cache, feed = [], ids[-window:]
    with T.no_grad():
        for _ in range(max_new):
            logits = forward_logits(params, adapter, feed, cache=cache)
            nxt = int(np.argmax(logits.data[-1]))
            out.append(nxt)
            if nxt == stop_id:
                break
            ids.append(nxt)
            if len(ids) > window:
                cache, feed = [], ids[-window:]
            else:
                feed = [nxt]
    return out
