"""Character-level vocab, compact decoder-only transformer, LoRA, greedy decoding."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .atomic import atomic_write
from .errors import ConfigError, DataError, VocabError, check_fields, field_errors
from .tensor import Tensor

SPECIAL_SYMBOLS = ("<BOS>", "<EOS>", "<PAD>", "<SEP>")
BOS, EOS, PAD, SEP = 0, 1, 2, 3

_ESCAPES = {"\n": "\\n", "\r": "\\r", "\\": "\\\\"}
_UNESCAPES = {"\\n": "\n", "\\r": "\r", "\\\\": "\\"}
_ESCAPED = re.compile(r"\\[nr\\]")


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
    chars = sorted(set("".join(corpus)))
    symbols = SPECIAL_SYMBOLS + tuple(chars)
    return Vocab(symbols=symbols, id_of={s: i for i, s in enumerate(symbols)})


def encode(vocab, text):
    """One id per character of text; VocabError names the first unknown one."""
    try:
        return [vocab.id_of[ch] for ch in text]
    except KeyError:
        off = next(i for i, ch in enumerate(text) if ch not in vocab.id_of)
        raise VocabError(f"unknown character {text[off]!r} at offset {off}") from None


def decode(vocab, ids):
    """The symbols of ``ids``; VocabError for an id outside ``[0, len(vocab))``,
    checked before indexing, which would wrap a negative id to the end."""
    if not all(0 <= i < len(vocab) for i in ids):
        raise VocabError(f"token id out of range [0, {len(vocab)})")
    return "".join(vocab.symbols[i] for i in ids)


def decode_text(vocab, ids):
    """Decode, dropping special tokens (for human-facing generation output)."""
    return "".join(vocab.symbols[i] for i in ids if i >= len(SPECIAL_SYMBOLS))


def save_vocab(vocab, path):
    """One symbol per line, line number = id; \\n, \\r, \\ escaped."""
    atomic_write("".join("".join(_ESCAPES.get(ch, ch) for ch in sym) + "\n"
                         for sym in vocab.symbols), path)


def load_vocab(path):
    """The vocabulary ``save_vocab`` wrote. Every line, the last one too,
    ends in a newline and holds one symbol that no other line holds;
    VocabError names the file and the line that breaks this."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise VocabError(f"vocab file {path} is not UTF-8") from None
    if lines[-1]:
        raise VocabError(f"vocab file {path} line {len(lines)}: no newline at the end")
    id_of = {}
    for n, line in enumerate(lines[:-1], 1):
        sym = _ESCAPED.sub(lambda m: _UNESCAPES[m[0]], line)
        if not sym:
            raise VocabError(f"vocab file {path} line {n}: blank line")
        if sym in id_of:
            raise VocabError(f"vocab file {path} line {n}: symbol {sym!r} repeats "
                             f"line {id_of[sym] + 1}")
        id_of[sym] = len(id_of)
    symbols = tuple(id_of)
    if symbols[: len(SPECIAL_SYMBOLS)] != SPECIAL_SYMBOLS:
        raise VocabError(f"vocab file {path} missing special symbols")
    return Vocab(symbols=symbols, id_of=id_of)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    max_seq_len: int = 256  # paper-scale profile uses 1024
    d_ff: int = 0  # 0 -> 4 * d_model

    def __post_init__(self):
        errors = field_errors(self, vocab_size="[1, inf)", d_model="[1, inf)",
                              n_layers="[1, inf)", n_heads="[1, inf)",
                              max_seq_len="[2, inf)", d_ff="[0, inf)")
        if not errors.keys() & {"d_model", "n_heads"} and self.d_model % self.n_heads:
            errors["d_model"] = "d_model must be divisible by n_heads"
        if errors:
            raise ConfigError("; ".join(errors.values()))
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 32.0
    dropout: float = 0.05
    targets: tuple = ("wq", "wv")

    def __post_init__(self):
        check_fields(self, rank="[1, inf)", alpha="(0, inf)", dropout="[0, 1)")


class ParamTable:
    """Named tensors backed by one flat buffer, float32 unless ``data`` or
    ``dtype`` says otherwise; its dtype is the dtype every op, gradient and
    optimizer buffer of the table runs in (see ``tensor``).

    Each tensor's ``.data`` is a reshaped view into ``self.data`` and, while
    grads are on, its ``.grad`` a view into ``self.grad``, in the order of
    ``shapes``. Whole-table work (zeroing grads, clipping, AdamW, copy,
    checkpoint I/O) is one array operation on the buffer. Update tensors in
    place: rebinding a tensor's ``.data`` or ``.grad`` detaches it from the
    buffer.
    """

    def __init__(self, config, shapes, data=None, requires_grad=True, dtype=np.float32):
        self.config = config
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        size = sum(math.prod(shape) for shape in self.shapes.values())
        self.data = np.zeros(size, dtype) if data is None else data
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
        """A deep copy of the values, without grads; ``set_requires_grad(True)``
        gives it a fresh gradient buffer."""
        return type(self)(self.config, self.shapes, self.data.copy(), requires_grad=False)


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


def param_spec(config):
    """(name, shape, fill) of every base tensor, in buffer order; fill None
    marks a gaussian weight."""
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
    return spec


def lora_shapes(config, lora_config):
    """Shapes of the adapter tensors, in buffer order."""
    base = {name for name, _, _ in param_spec(config)}
    r = lora_config.rank
    shapes = {}
    for i in range(config.n_layers):
        for proj in lora_config.targets:
            name = f"layer{i}.{proj}"
            if name not in base:
                raise ConfigError(f"unknown LoRA target {name}")
            shapes[name + ".A"] = (config.d_model, r)
            shapes[name + ".B"] = (r, config.d_model)
    return shapes


def init_params(config, rng, init_scale=0.02):
    """A float32 table: weights drawn from init_scale * N(0, 1) in float64
    and rounded, layer-norm gains 1, biases 0."""
    spec = param_spec(config)
    params = ModelParams(config, {name: shape for name, shape, _ in spec})
    for name, shape, fill in spec:
        if fill is None:
            fill = init_scale * rng.standard_normal(shape)
        params[name].data[...] = fill
    return params


def attach_lora(params, lora_config, rng, init_scale=0.02):
    """Fresh adapter with gaussian A and zero B, in the dtype of params:
    logits unchanged until trained."""
    shapes = lora_shapes(params.config, lora_config)
    adapter = LoraAdapter(lora_config, shapes, dtype=params.data.dtype)
    for name, shape in shapes.items():
        if name.endswith(".A"):
            adapter[name].data[...] = init_scale * rng.standard_normal(shape)
    return adapter


def folded_weights(params, adapter):
    """name -> ``W + (alpha/r) * A @ B`` as a new array, for each weight W
    the adapter adapts; the one merge formula."""
    s = adapter.scaling()
    t = adapter.tensors
    return {name: params[name].data + s * (t[name + ".A"].data @ t[name + ".B"].data)
            for name in (a.removesuffix(".A") for a in t if a.endswith(".A"))}


def merge_lora(params, adapter):
    """Fold the adapter into a copy of params (``folded_weights``); returns new params."""
    merged = params.copy()
    for name, w in folded_weights(params, adapter).items():
        merged[name].data[...] = w
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


def forward_logits(params, adapter, tokens, train_rng=None, lengths=None, scored=None):
    """Logits for token-flat tokens [N]: one sequence, or several back to
    back with segment ``lengths`` (default: one segment). Position ids
    restart at 0 in each segment, and a position sees only the tokens <= it
    of its own segment (causal mask).

    ``scored`` holds, per segment, how many of its last positions get
    logits (default: all of them); the result is ``[sum(scored), V]``,
    segment by segment. Every position runs through the layers below the
    last and gives the last layer its key and value, since later positions
    read them; only the scored positions run the last layer's ``wq``,
    attention, ``wo`` and feed-forward block, the final norm and the head.
    """
    c = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    n = tokens.size
    if tokens.ndim != 1 or n == 0:
        raise DataError(f"forward_logits: need non-empty [N] tokens, got {tokens.shape}")
    lengths = [n] if lengths is None else list(lengths)
    scored = lengths if scored is None else list(scored)
    if not (all(isinstance(x, (int, np.integer)) for x in lengths)
            and sum(lengths) == n and min(lengths) >= 1):
        raise DataError(f"forward_logits: lengths {lengths} for {n} tokens")
    if not (len(scored) == len(lengths)
            and all(isinstance(s, (int, np.integer)) and 1 <= s <= x
                    for s, x in zip(scored, lengths))):
        raise DataError(f"forward_logits: scored {scored} for lengths {lengths}")
    if max(lengths) > c.max_seq_len:
        raise DataError(f"sequence length {max(lengths)} > max_seq_len {c.max_seq_len}")
    positions = np.concatenate([np.arange(x) for x in lengths])
    # the scored positions; None when every position is scored
    rows = None if scored == lengths else np.flatnonzero(
        np.arange(n) >= np.repeat(np.cumsum(lengths) - scored, lengths))

    x = T.gather_rows(params["embed"], tokens) + T.gather_rows(params["pos"], positions)
    for i in range(c.n_layers):
        p = f"layer{i}."
        h = T.layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        hq, q_lengths = h, lengths
        if rows is not None and i == c.n_layers - 1:  # from here on, the scored rows only
            hq, x, q_lengths = T.gather_rows(h, rows), T.gather_rows(x, rows), scored
        q, k, v = (_project(t, params, adapter, p + w, train_rng)
                   for t, w in ((hq, "wq"), (h, "wk"), (h, "wv")))
        att = T.causal_attention(q, k, v, q_lengths, lengths, c.n_heads)
        x = x + _project(att, params, adapter, p + "wo", train_rng)
        h2 = T.layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        x = x + T.feed_forward(h2, *(params[p + "ffn." + w] for w in ("w1", "b1", "w2", "b2")))
    x = T.layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    return x @ params["head"]


class DecodePlan(NamedTuple):
    """The arrays one decode request runs on (``decode_plan``)."""
    embed: np.ndarray
    pos: np.ndarray
    layers: tuple  # per layer: (wqkv, bqkv, wo, w1, b1, w2, b2)
    head: np.ndarray
    head_bias: np.ndarray
    mean: np.ndarray  # [d, 1], each entry 1/d: x @ mean is the mean of x's rows


def decode_plan(params, adapter):
    """The weights of ``params`` and ``adapter`` as ``decode_logits`` runs
    them. Folded weights are new arrays; ``embed`` and ``pos`` are the
    tables' own, only read. ``generate_greedy`` builds it from copies of the
    tables and keeps it while they hold the same bits (``_cached_plan``).

    The adapter is folded into the weights it adapts (``folded_weights``).
    Each layer norm's gain g and bias b is folded into the projection W that
    reads it, as ``(xhat * g + b) @ W = xhat @ (g[:, None] * W) + b @ W``:
    ``ln1`` into one ``[d, 3d]`` matrix ``wq|wk|wv`` and its bias, ``ln2``
    into ``ffn.w1`` and ``ffn.b1``, and ``ln_f`` into ``head`` and a bias.
    The attention scale ``1 / sqrt(d / n_heads)`` is folded into the ``wq``
    columns and bias. Every array that writes into the residual stream,
    ``wo``, ``ffn.w2`` and ``ffn.b2``, has its rows centered, ``m - m @ mean``,
    so that each of its writes has mean 0 and a stream that starts centered
    stays so.
    """
    c = params.config
    d = c.d_model
    w = {name: t.data for name, t in params.named()}
    if adapter is not None:
        w.update(folded_weights(params, adapter))
    mean = np.full((d, 1), 1.0 / d, w["embed"].dtype)

    def fold(norm, proj):
        return w[norm + ".g"][:, None] * proj, w[norm + ".b"] @ proj

    def center(m):
        return m - m @ mean

    scale = 1.0 / math.sqrt(d // c.n_heads)
    layers = []
    for i in range(c.n_layers):
        p = f"layer{i}."
        wq = w[p + "wq"] * scale
        wqkv, bqkv = fold(p + "ln1", np.concatenate([wq, w[p + "wk"], w[p + "wv"]], axis=1))
        w1, b1 = fold(p + "ln2", w[p + "ffn.w1"])
        layers.append((wqkv, bqkv, center(w[p + "wo"]), w1, b1 + w[p + "ffn.b1"],
                       center(w[p + "ffn.w2"]), center(w[p + "ffn.b2"])))
    return DecodePlan(w["embed"], w["pos"], tuple(layers), *fold("ln_f", w["head"]), mean)


def _rms_normalize(x, mean):
    """Layer norm's normalization of rows x whose mean is 0, where the
    variance is the mean square: ``x / sqrt(x**2 @ mean + eps)``."""
    return x / np.sqrt(np.square(x) @ mean + T.NORM_EPS)


def decode_logits(config, plan, cache, tokens):
    """Logits ``[V]`` of the last of ``tokens``, the transformer run on the
    plain arrays of a ``decode_plan``, with no graph or dropout. On an empty
    cache it is ``forward_logits`` of one segment with ``scored=[1]``, up to
    rounding: the folded layer norms and attention scale, the centered
    stream and the one ``wq|wk|wv`` product round differently from the
    graph forward.

    The prefill, and any call of several tokens, runs on rows: ``[L, d]``
    matrices. One token on a non-empty cache, each step of greedy
    decoding, runs the same math on 1-D vectors (``_decode_step``); the
    choice depends only on that input shape.

    The residual stream is centered: ``embed[tokens] + pos`` has each row's
    mean subtracted on entry, and every write into it has mean 0
    (``decode_plan``), so layer norm's mean subtraction has nothing to
    remove and each norm is the RMS form ``x / sqrt(mean(x**2) + eps)``.

    ``cache`` is the request's KV cache: a list holding one ``[S, 2 * d_model]``
    array per layer, keys in its first ``d_model`` columns and values in the
    rest, or empty before the first call. ``tokens`` continue the ``S``
    cached positions: they take position ids ``S, S+1, ...``, attend to the
    cached keys and values, and their own are written after them in place.
    The first call allocates each layer's ``[max_seq_len, 2 * d_model]``
    buffer and the cache holds views of its first ``S`` rows, so a call
    copies only its own rows. ``S + len(tokens)`` must not exceed
    ``max_seq_len``, and every id must be in ``[0, vocab_size)``: an array
    index does not check its sign.
    """
    c = config
    d = c.d_model
    start = len(cache[0]) if cache else 0
    end = start + len(tokens)
    if not start < end <= c.max_seq_len:
        raise DataError(f"decode_logits: positions [{start}, {end}) "
                        f"for max_seq_len {c.max_seq_len}")
    if start and end - start == 1:
        return _decode_step(c, plan, cache, tokens[0], start)
    mean = plan.mean
    x = plan.embed[tokens] + plan.pos[start:end]
    x -= x @ mean
    for i, (wqkv, bqkv, wo, w1, b1, w2, b2) in enumerate(plan.layers):
        qkv = _rms_normalize(x, mean) @ wqkv
        qkv += bqkv
        kv = cache[i].base if start else np.empty((c.max_seq_len, 2 * d), x.dtype)
        kv[start:end] = qkv[:, d:]
        cache[i:i + 1] = [kv[:end]]  # replace, or append on prefill
        if i == c.n_layers - 1:  # from here on, the last position only
            x, qkv = x[-1:], qkv[-1:]
        kvg = T._heads(kv[None, :end], 2 * c.n_heads)  # key heads, then value heads
        qg = T._heads(qkv[None, :, :d], c.n_heads)  # pre-scaled queries
        p = T._masked_softmax(qg @ kvg[:, :c.n_heads].swapaxes(-1, -2))
        att = (p @ kvg[:, c.n_heads:]).transpose(0, 2, 1, 3).reshape(-1, d)
        x = x + att @ wo
        ff = np.maximum(_rms_normalize(x, mean) @ w1 + b1, 0.0)
        x = x + (ff @ w2 + b2)
    return (_rms_normalize(x, mean) @ plan.head + plan.head_bias)[0]


def _rms_normalize_vector(x):
    """``_rms_normalize`` of one position's stream ``x`` [d], from one dot product."""
    return x * (1.0 / math.sqrt(x @ x / len(x) + T.NORM_EPS))


def _decode_step(config, plan, cache, token, start):
    """``decode_logits`` of one token at position ``start`` of a non-empty
    cache, on 1-D vectors. Each layer's keys and values are read as
    ``[2H, start + 1, dh]`` views of the cache buffer, unmasked, since the
    last query sees every key; the softmax sums divide the ``[H, dh]`` head
    outputs instead of the probabilities."""
    h = config.n_heads
    d = config.d_model
    end = start + 1
    x = plan.embed[token] + plan.pos[start]
    x -= x @ plan.mean
    for i, (wqkv, bqkv, wo, w1, b1, w2, b2) in enumerate(plan.layers):
        qkv = _rms_normalize_vector(x) @ wqkv
        qkv += bqkv
        kv = cache[i].base
        kv[start] = qkv[d:]
        cache[i] = kv[:end]
        heads = kv[:end].reshape(end, 2 * h, -1).transpose(1, 0, 2)  # keys, then values
        p = qkv[:d].reshape(h, 1, -1) @ heads[:h].swapaxes(1, 2)  # [H, 1, end]
        p -= np.maximum.reduce(p, axis=2, keepdims=True)
        np.exp(p, out=p)
        att = p @ heads[h:]
        att /= np.add.reduce(p, axis=2, keepdims=True)
        x += att.reshape(d) @ wo
        ff = _rms_normalize_vector(x) @ w1
        ff += b1
        np.maximum(ff, 0.0, out=ff)
        ff = ff @ w2
        ff += b2
        x += ff
    out = _rms_normalize_vector(x) @ plan.head
    out += plan.head_bias
    return out


def _bits(buf):
    """The bytes of flat buffer ``buf`` as integers, 64-bit where they
    divide evenly, so that ``==`` compares bits: a NaN equals itself and
    -0.0 differs from 0.0."""
    return buf.view(np.int64 if buf.nbytes % 8 == 0 else f"i{buf.itemsize}")


def _same_table(table, copy):
    """Whether ``table`` has ``copy``'s config, shapes, dtype and bits; two
    Nones are the same."""
    if table is None or copy is None:
        return table is copy
    return (table.config == copy.config and table.shapes == copy.shapes
            and table.data.dtype == copy.data.dtype
            and np.array_equal(_bits(table.data), _bits(copy.data)))


# (params copy, adapter copy or None, their decode_plan): the last plan
# generate_greedy built, replaced whole by one assignment
_plan_slot = None


def _cached_plan(params, adapter):
    """``decode_plan(params, adapter)``, built again only when a table's
    bits differ from the last build's. The plan is built from copies, so it
    does not change when the caller's tables do, and a table with equal
    bits may reuse it."""
    global _plan_slot
    slot = _plan_slot
    if slot is None or not (_same_table(params, slot[0]) and _same_table(adapter, slot[1])):
        copies = params.copy(), None if adapter is None else adapter.copy()
        slot = _plan_slot = (*copies, decode_plan(*copies))
    return slot[2]


def _prompt_ids(prompt_ids, vocab_size):
    """The prompt as a list of ints, each in ``[0, vocab_size)``, else DataError."""
    ids = np.asarray(prompt_ids)
    if ids.size == 0:
        raise DataError("generate_greedy: empty prompt")
    if ids.ndim != 1:
        raise DataError(f"generate_greedy: prompt of shape {ids.shape}, not a list of ids")
    if ids.dtype.kind not in "iu":
        k = next(k for k, t in enumerate(prompt_ids) if np.asarray(t).dtype.kind not in "iu")
        raise DataError(f"generate_greedy: prompt id {prompt_ids[k]!r} at offset {k} "
                        "is not an integer")
    if ids.min() < 0 or ids.max() >= vocab_size:
        k = int(np.flatnonzero((ids < 0) | (ids >= vocab_size))[0])
        raise DataError(f"generate_greedy: prompt id {ids[k]} at offset {k} "
                        f"out of range [0, {vocab_size})")
    return ids.tolist()


def generate_greedy(params, adapter, prompt_ids, max_new, stop_id=EOS):
    """Argmax decoding; ties break toward the lowest token id (np.argmax).

    Each step runs ``decode_logits`` on a ``decode_plan`` of ``params`` and
    ``adapter``. The plan is kept from the last call while both tables hold
    the same config, shapes, dtype and bits, compared exactly on every call;
    training changes the bits in place, and the next call builds it again
    (``_cached_plan``). ``params`` and ``adapter`` are only read. The plan's
    folded weights and centered residual stream round differently from the
    graph forward, so the logits agree with ``forward_logits`` within
    rounding, not bit for bit, and an argmax within rounding of a tie may
    pick another token. Prompt ids must be integers in ``[0, vocab_size)``
    and ``max_new`` an integer >= 0, else DataError. The prompt is encoded
    once into a KV cache, on rows, with logits for its last position only,
    and each step feeds only the new token, which runs on vectors. Past
    ``max_seq_len`` the window slides,
    which moves every absolute position, so the cache is dropped and the
    last window re-encoded.
    """
    c = params.config
    if isinstance(max_new, bool) or not isinstance(max_new, (int, np.integer)) or max_new < 0:
        raise DataError(f"generate_greedy: max_new must be an integer >= 0, got {max_new!r}")
    ids = _prompt_ids(prompt_ids, c.vocab_size)
    plan = _cached_plan(params, adapter)
    window = c.max_seq_len
    out = []
    cache, feed = [], ids[-window:]
    for _ in range(max_new):
        nxt = int(decode_logits(c, plan, cache, feed).argmax())
        out.append(nxt)
        if nxt == stop_id:
            break
        ids.append(nxt)
        if len(ids) > window:
            cache, feed = [], ids[-window:]
        else:
            feed = [nxt]
    return out
