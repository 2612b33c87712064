"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Ops record their inputs and a backward
closure; calling ``backward(loss)`` on a scalar walks the recorded graph
in reverse topological order and accumulates gradients into every leaf
with requires_grad=True.

Graph lifetime: a graph is built eagerly per step and holds what its
backward reads, each op's inputs and the arrays its closure saves. The
walk releases it as it goes: once a node's closure has run, the node drops
the closure and its inputs, so the arrays of the layers above are freed
before the layers below allocate their gradients, and once ``backward``
returns the loss holds nothing. So a graph is differentiated once; a
second ``backward`` that reaches a released node is a ContractError.

The model runs a batch of sequences token-flat, as ``[N, D]`` rows back to
back; ``causal_attention`` is the one op that knows where each sequence
starts, and it holds the batched products. ``feed_forward`` is a
transformer block's whole feed-forward sublayer, saving only its hidden
activation. ``matmul`` takes 2-D operands only, ``[N, K] @ [K, M]``,
``add`` takes operands of one shape, and the row-wise ops work on the last
axis. A leaf's grad is a preallocated array (for a parameter, a view of its
table's buffer) that backward adds into in place. An interior node's grad
exists only during backward: its first contribution is assigned, and may
be an array shared with another node, later ones are added out of place,
and it is dropped once the node's own backward has run.

Kernels may work in place on temporaries they own (a fresh product, a
difference, a reduction), never on an input, an incoming gradient (it may
be shared) or an array once it is saved for backward. Each in-place form
applies the same operations in the same order as the plain expression it
replaces, so the results are bit-identical to it.

The dtype follows the data: a Tensor keeps a float32 or float64 array as
given (anything else becomes float64), and every op computes, and
allocates its output and gradients, in the dtype of its inputs. A run's
dtype is its parameter table's: float32 from ``model.init_params``, and a
float64 table runs every op in float64, with the bits it always had.
Constants an op mixes in (a number, a mask, a coefficient array) take the
tensor's dtype, since under numpy 2 a float64 array promotes float32.

Numerical guards: softmax variants subtract the row max, and log_sigmoid
never takes the log of 0, so any forward pass on finite inputs stays
finite.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

from .errors import ContractError, ShapeError

_GRAD_ENABLED = True
NORM_EPS = 1e-5  # layer norm's variance floor, in the graph op and the decoder
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / generation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)  # an op's output passes as is; a float32 scalar stays float32
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    def __radd__(self, other):
        return add(_as_tensor(other, self), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other, self), -1.0))

    def __mul__(self, other):  # by a number; no op multiplies two tensors
        return scale(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __matmul__(self, other):
        return matmul(self, other)

    def item(self):
        return self.data.item()  # a scalar, or the one entry of a size-1 array


def _as_tensor(x, like):
    """x as a Tensor; a constant takes the dtype of the tensor it meets."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data, parents, backward_fn):
    """Build an op output; record the graph only if some input needs grad."""
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data)
    if needs:
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


# -- primitive ops -----------------------------------------------------

def _accumulate(t, g):
    """Add gradient g (shaped like t) into t.grad; see the module docstring."""
    if t._backward_fn is None:
        t.grad += g
    elif t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def add(a, b):
    """a + b of one shape; a broadcast is a ShapeError."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _make(a.data + b.data, (a, b), bwd)


def scale(a, c):
    c = float(c)

    def bwd(g, a=a):
        if a.requires_grad:
            _accumulate(a, c * g)

    return _make(c * a.data, (a,), bwd)


def matmul(a, b):
    """``[N, K] @ [K, M]``; any other rank is a ShapeError."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
        raise ShapeError(f"matmul: incompatible shapes {sa} x {sb}")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bwd)


def feed_forward(x, w1, b1, w2, b2):
    """``relu(x @ w1 + b1) @ w2 + b2`` for rows x ``[N, D]``, as one op.

    The bias adds and the relu run in place on the fresh products, and the
    hidden activation ``hid = relu(x @ w1 + b1)`` is the one array saved for
    backward. The relu's gradient mask is ``hid > 0``, false where the
    pre-activation is <= 0 or nan, as it is for the pre-activation itself;
    nan stays nan (``np.maximum``). Forward and backward are the numpy
    expressions of the composed matmul, add and relu ops, in their order,
    so the bits are theirs.
    """
    sx, s1, sb1, s2, sb2 = (t.data.shape for t in (x, w1, b1, w2, b2))
    if not (len(sx) == 2 and len(sb1) == len(sb2) == 1
            and s1 == sx[1:] + sb1 and s2 == sb1 + sb2):
        raise ShapeError(f"feed_forward: incompatible shapes x {sx}, w1 {s1}, b1 {sb1}, "
                         f"w2 {s2}, b2 {sb2}")
    hid = x.data @ w1.data
    hid += b1.data
    np.maximum(hid, 0.0, out=hid)
    out = hid @ w2.data
    out += b2.data

    def bwd(g, x=x, w1=w1, b1=b1, w2=w2, b2=b2, hid=hid):
        if b2.requires_grad:
            _accumulate(b2, g.sum(axis=0))
        if w2.requires_grad:
            _accumulate(w2, hid.T @ g)
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = g @ w2.data.T
            gh *= hid > 0
            if b1.requires_grad:
                _accumulate(b1, gh.sum(axis=0))
            if x.requires_grad:
                _accumulate(x, gh @ w1.data.T)
            if w1.requires_grad:
                _accumulate(w1, x.data.T @ gh)

    return _make(out, (x, w1, b1, w2, b2), bwd)


def tsum(a):
    def bwd(g, a=a):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(a.data.sum(), (a,), bwd)


def gather_rows(table, ids):
    """table[ids] for an id array of any shape: rows [*ids.shape, D]."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"gather_rows: id out of range [0, {table.data.shape[0]})"
        )

    def bwd(g, table=table, ids=ids):
        if table.requires_grad:
            # one bincount adds in input order, as np.add.at(full, ids, g) would
            rows, d = table.data.shape
            flat = (ids.reshape(-1, 1) * d + np.arange(d)).ravel()
            full = np.bincount(flat, weights=g.ravel(), minlength=rows * d)  # sums in float64
            _accumulate(table, full.reshape(rows, d).astype(table.data.dtype, copy=False))

    return _make(table.data[ids], (table,), bwd)


def dropout(a, rate, rng):
    """Inverted dropout, multipliers 0 or 1 / (1 - rate) in a's dtype;
    identity when rate == 0 or rng is None."""
    if rate <= 0.0 or rng is None:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype)
    keep /= 1.0 - rate

    def bwd(g, a=a, keep=keep):
        if a.requires_grad:
            _accumulate(a, g * keep)

    return _make(a.data * keep, (a,), bwd)


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then scale and shift."""
    n = x.data.shape[-1]
    # sum / n is how np.mean and np.var reduce, so the bits are theirs
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(xhat), axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bwd(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=tuple(range(g.ndim - 1))))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=tuple(range(g.ndim - 1))))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.sum(axis=-1, keepdims=True) / n
            m2 = (gy * xhat).sum(axis=-1, keepdims=True) / n
            gy -= m1
            gy -= xhat * m2
            gy *= inv
            _accumulate(x, gy)

    return _make(out, (x, gain, bias), bwd)


def _heads(x, n_heads):
    """Rows [G, L, D] -> [G, H, L, D / H], head h taking columns h*D/H onward."""
    return x.reshape(x.shape[:2] + (n_heads, -1)).transpose(0, 2, 1, 3)


_MASKS = {}  # dtype -> the published [S, S] causal mask, read-only


def _causal_mask(lq, lk, dtype):
    """``np.triu(np.full((lq, lk), -inf), lk - lq + 1)`` as a read-only view
    of one cached mask per dtype, grown to the longest Lk seen. A longer mask
    is built whole before it is published, so threads may share it."""
    m = _MASKS.get(dtype)
    if m is None or len(m) < lk:
        m = np.triu(np.full((lk, lk), -np.inf, dtype), 1)
        m.flags.writeable = False
        _MASKS[dtype] = m
    return m[lk - lq:lk, :lk]


def _masked_softmax(p):
    """Causal attention probabilities from scores p [G, H, Lq, Lk], in place,
    the queries being the last Lq of the Lk positions: softmax over the keys
    at and before each query's position, masked entries exactly 0."""
    lq, lk = p.shape[-2:]
    if lq > 1:  # a lone query is its segment's last position: it sees every key
        p += _causal_mask(lq, lk, p.dtype)
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)  # exp(-inf) is exactly 0
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p


def _attention_probs(qg, kg):
    """Causal attention probabilities [G, H, Lq, Lk] of queries qg
    [G, H, Lq, dh] over keys kg [G, H, Lk, dh]: ``_masked_softmax`` of the
    scores scaled by 1 / sqrt(dh)."""
    p = qg @ kg.swapaxes(-1, -2)
    p *= 1.0 / math.sqrt(qg.shape[-1])
    return _masked_softmax(p)


def causal_attention(q, k, v, q_lengths, k_lengths, n_heads):
    """Multi-head causal attention of token-flat queries ``[Nq, D]`` over
    token-flat keys and values ``[Nk, D]``.

    Segment s has ``k_lengths[s]`` key rows, the segments back to back, and
    its queries are its last ``q_lengths[s]`` positions, with
    ``1 <= q_lengths[s] <= k_lengths[s]``: self-attention or a scored
    suffix. A query attends to the keys at and before its own position in
    its own segment only, and masked entries contribute exactly 0.

    A run of adjacent segments of equal ``(q_lengths, k_lengths)`` is one
    ``[G, H, L, dh]`` batched product on reshaped views of a slice of rows.
    Any order of segments gives the same bits; an unordered one makes more runs.
    """
    (nq, d), nk = q.data.shape, k.data.shape[0]
    if not (len(q_lengths) == len(k_lengths)
            and all(isinstance(lq, (int, np.integer)) and isinstance(lk, (int, np.integer))
                    and 1 <= lq <= lk for lq, lk in zip(q_lengths, k_lengths))
            and sum(q_lengths) == nq and sum(k_lengths) == nk):
        raise ShapeError(f"causal_attention: q_lengths {np.asarray(q_lengths).tolist()} and "
                         f"k_lengths {np.asarray(k_lengths).tolist()} for {nq} queries and "
                         f"{nk} keys; need 1 <= q_lengths <= k_lengths")
    c = 1.0 / math.sqrt(d // n_heads)  # the scale _attention_probs applies
    runs, qs, ks = [], 0, 0  # (query rows, key rows, segments) of each run
    for (lq, lk), segs in itertools.groupby(zip(q_lengths, k_lengths)):
        n = len(list(segs))
        runs.append((slice(qs, qs := qs + n * lq), slice(ks, ks := ks + n * lk), n))

    def heads(x, rows, n):  # a view to write through if x is C-contiguous, as buffers here are
        return _heads(x[rows].reshape(n, -1, d), n_heads)

    saved = []
    out = np.empty(q.data.shape, q.data.dtype)
    for q_rows, k_rows, n in runs:
        qg, kg, vg = heads(q.data, q_rows, n), heads(k.data, k_rows, n), heads(v.data, k_rows, n)
        p = _attention_probs(qg, kg)
        heads(out, q_rows, n)[...] = p @ vg
        saved.append((qg, kg, vg, p))

    def bwd(g, q=q, k=k, v=v, saved=saved):
        gq, gk, gv = (np.empty(t.data.shape, t.data.dtype) if t.requires_grad else None
                      for t in (q, k, v))
        for (q_rows, k_rows, n), (qg, kg, vg, p) in zip(runs, saved):
            go = heads(g, q_rows, n)
            if gv is not None:
                heads(gv, k_rows, n)[...] = p.swapaxes(-1, -2) @ go
            gs = go @ vg.swapaxes(-1, -2)  # d/dp, then d/dscores in place
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= c
            if gq is not None:
                heads(gq, q_rows, n)[...] = gs @ kg
            if gk is not None:
                heads(gk, k_rows, n)[...] = gs.swapaxes(-1, -2) @ qg
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            if grad is not None:
                _accumulate(t, grad)

    return _make(out, (q, k, v), bwd)


def logprob_sums(logits, targets, coef, segments, n_segments):
    """Per-segment sums of coef[j] * log softmax(logits[j])[targets[j]] over
    the rows j of ``[N, V]`` logits: output ``[n_segments]``, entry s summing
    the rows with segments[j] == s.

    Every objective is one call: a token-mean NLL has coefficient -1/N on
    each row, a response mask coefficient 0 on prompt rows, a preference pair
    +1 and -1 on its two responses. The backward is
    coef[j] * g[segments[j]] * (onehot(targets[j]) - softmax(logits[j])), so a
    row with coefficient 0 contributes exactly 0 whatever its target.
    """
    n, V = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    coef = np.asarray(coef, dtype=logits.data.dtype)
    segments = np.asarray(segments, dtype=np.int64)
    if not targets.shape == coef.shape == segments.shape == (n,):
        raise ShapeError(f"logprob_sums: targets {targets.shape}, coef {coef.shape} and "
                         f"segments {segments.shape} for {n} rows")
    if n and (targets.min() < 0 or targets.max() >= V):
        raise IndexError(f"logprob_sums: target id out of range [0, {V})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(n)
    value = np.bincount(segments, weights=coef * ls[rows, targets],  # sums in float64
                        minlength=n_segments).astype(ls.dtype, copy=False)

    def bwd(g, logits=logits):
        if logits.requires_grad:
            gc = coef * g[segments]
            grad = np.exp(ls)
            grad *= gc[:, None]
            np.subtract(0.0, grad, out=grad)  # 0 - x, not -x: no negative zeros
            grad[rows, targets] += gc
            _accumulate(logits, grad)

    return _make(value, (logits,), bwd)


def log_sigmoid(x):
    """Numerically stable log(sigmoid(x)) for scalars or arrays."""
    d = x.data
    out = np.minimum(d, 0.0) - np.log1p(np.exp(-np.abs(d)))

    def bwd(g, x=x):
        if x.requires_grad:
            _accumulate(x, g / (1.0 + np.exp(x.data)))  # sigmoid(-x)

    return _make(out, (x,), bwd)


# -- backward pass -----------------------------------------------------

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from loss, and
    release the graph as it goes: each interior node drops its backward
    closure and its inputs once it has run. A graph is differentiated
    once; a second call on it is a ContractError."""
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.grad is None and node._backward_fn is None:  # an interior node, released
            raise ContractError("backward: the graph was already differentiated; "
                                "build it again for another backward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # frozen inputs get no grad array (a frozen parameter has none)
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    _accumulate(loss, np.ones_like(loss.data))
    while topo:
        node = topo.pop()
        if node._backward_fn is not None:
            g, node.grad = node.grad, None
            node._backward_fn(g)
            node._backward_fn, node._parents = None, ()
