"""Character-level vocab, compact decoder-only transformer, LoRA, greedy decoding."""

from __future__ import annotations

import itertools
import math
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
    from .trainer import atomic_write_text  # trainer imports this module

    atomic_write_text("".join("".join(_ESCAPES.get(ch, ch) for ch in sym) + "\n"
                              for sym in vocab.symbols), path)


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


class ParamTable:
    """Named tensors backed by one flat float64 buffer.

    Each tensor's ``.data`` is a reshaped view into ``self.data`` and, while
    grads are on, its ``.grad`` a view into ``self.grad``, in the order of
    ``shapes``. Whole-table work (zeroing grads, clipping, AdamW, copy,
    checkpoint I/O) is one array operation on the buffer. Update tensors in
    place: rebinding a tensor's ``.data`` or ``.grad`` detaches it from the
    buffer.
    """

    def __init__(self, config, shapes, data=None, requires_grad=True):
        self.config = config
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        size = sum(math.prod(shape) for shape in self.shapes.values())
        self.data = np.zeros(size) if data is None else data
        self.tensors = {name: Tensor(view) for name, view
                        in zip(self.shapes, self._views(self.data))}
        self.set_requires_grad(requires_grad)

    def _views(self, buf):
        offset = 0
        for shape in self.shapes.values():
            n = math.prod(shape)
            yield buf[offset:offset + n].reshape(shape)
            offset += n

    def __getitem__(self, name):
        return self.tensors[name]

    def named(self):
        return self.tensors.items()

    def n_params(self):
        return self.data.size

    def set_requires_grad(self, flag):
        self.grad = np.zeros_like(self.data) if flag else None
        grads = self._views(self.grad) if flag else itertools.repeat(None)
        for t, g in zip(self.tensors.values(), grads):
            t.requires_grad = flag
            t.grad = g

    def copy(self):
        return type(self)(self.config, self.shapes, self.data.copy(),
                          requires_grad=self.grad is not None)


class ModelParams(ParamTable):
    """Named parameter table for one transformer."""


class LoraAdapter(ParamTable):
    """Low-rank residuals on selected projections: W + (alpha/r) * A @ B."""

    def scaling(self):
        return self.config.alpha / self.config.rank

    def pair(self, target_name):
        """(A, B) for e.g. 'layer0.wq', or None if not adapted."""
        a = self.tensors.get(target_name + ".A")
        return (a, self.tensors[target_name + ".B"]) if a is not None else None


def init_params(config, rng, init_scale=0.02):
    """Weights drawn from init_scale * N(0, 1), layer-norm gains 1, biases 0."""
    c = config
    d = c.d_model
    w = None  # fill value of a gaussian weight
    spec = [("embed", (c.vocab_size, d), w), ("pos", (c.max_seq_len, d), w)]
    for i in range(c.n_layers):
        p = f"layer{i}."
        spec += [(p + proj, (d, d), w) for proj in ("wq", "wk", "wv", "wo")]
        spec += [(p + "ln1.g", (d,), 1.0), (p + "ln1.b", (d,), 0.0),
                 (p + "ffn.w1", (d, c.d_ff), w), (p + "ffn.b1", (c.d_ff,), 0.0),
                 (p + "ffn.w2", (c.d_ff, d), w), (p + "ffn.b2", (d,), 0.0),
                 (p + "ln2.g", (d,), 1.0), (p + "ln2.b", (d,), 0.0)]
    spec += [("ln_f.g", (d,), 1.0), ("ln_f.b", (d,), 0.0),
             ("head", (d, c.vocab_size), w)]
    params = ModelParams(c, {name: shape for name, shape, _ in spec})
    for name, shape, fill in spec:
        if fill is w:
            fill = init_scale * rng.standard_normal(shape)
        params[name].data[...] = fill
    return params


def attach_lora(params, lora_config, rng, init_scale=0.02):
    """Fresh adapter with gaussian A and zero B: logits unchanged until trained."""
    c = params.config
    r = lora_config.rank
    shapes = {}
    for i in range(c.n_layers):
        for proj in lora_config.targets:
            name = f"layer{i}.{proj}"
            if name not in params.tensors:
                raise ConfigError(f"attach_lora: unknown target {name}")
            shapes[name + ".A"] = (c.d_model, r)
            shapes[name + ".B"] = (r, c.d_model)
    adapter = LoraAdapter(lora_config, shapes)
    for name, shape in shapes.items():
        if name.endswith(".A"):
            adapter[name].data[...] = init_scale * rng.standard_normal(shape)
    return adapter


def merge_lora(params, adapter):
    """Fold (alpha/r) * A @ B into each adapted weight; returns new params."""
    merged = params.copy()
    s = adapter.scaling()
    for name, t in merged.named():
        pair = adapter.pair(name)
        if pair is not None:
            a, b = pair
            t.data += s * (a.data @ b.data)
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
