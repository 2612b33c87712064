"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Ops record their inputs and a backward
closure; calling ``backward(loss)`` on a scalar walks the recorded graph
in reverse topological order exactly once and accumulates gradients into
every leaf with requires_grad=True. Graphs are built eagerly per step
and garbage-collected with their outputs.

Numerical guards: softmax variants subtract the row max, and log clamps
its argument at 1e-300, so any forward pass on finite inputs stays
finite.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError

_GRAD_ENABLED = True

LOG_FLOOR = 1e-300


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
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.requires_grad:
            self.grad[...] = 0.0  # in place: a parameter's grad is a buffer view

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __matmul__(self, other):
        return matmul(self, other)

    def item(self):
        return float(self.data)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data, parents, backward_fn):
    """Build an op output; record the graph only if some input needs grad."""
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data)
    if needs:
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g, shape):
    """Reduce gradient g back to the given (possibly broadcast) shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- primitive ops -----------------------------------------------------

def add(a, b):
    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return _make(a.data + b.data, (a, b), bwd)


def mul(a, b):
    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return _make(a.data * b.data, (a, b), bwd)


def scale(a, c):
    c = float(c)

    def bwd(g, a=a):
        if a.requires_grad:
            a.grad += c * g

    return _make(c * a.data, (a,), bwd)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}"
        )

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return _make(a.data @ b.data, (a, b), bwd)


def transpose(a):
    def bwd(g, a=a):
        if a.requires_grad:
            a.grad += g.T

    return _make(a.data.T, (a,), bwd)


def relu(a):
    mask = a.data > 0

    def bwd(g, a=a, mask=mask):
        if a.requires_grad:
            a.grad += g * mask

    return _make(np.where(mask, a.data, 0.0), (a,), bwd)


def log(a):
    clamped = np.maximum(a.data, LOG_FLOOR)

    def bwd(g, a=a, clamped=clamped):
        if a.requires_grad:
            a.grad += g / clamped

    return _make(np.log(clamped), (a,), bwd)


def tsum(a):
    def bwd(g, a=a):
        if a.requires_grad:
            a.grad += g  # scalar broadcast

    return _make(a.data.sum(), (a,), bwd)


def tmean(a):
    n = a.data.size

    def bwd(g, a=a, n=n):
        if a.requires_grad:
            a.grad += g / n

    return _make(a.data.mean(), (a,), bwd)


def slice_cols(a, j0, j1):
    def bwd(g, a=a, j0=j0, j1=j1):
        if a.requires_grad:
            a.grad[:, j0:j1] += g

    return _make(a.data[:, j0:j1], (a,), bwd)


def slice_rows(a, i0, i1):
    def bwd(g, a=a, i0=i0, i1=i1):
        if a.requires_grad:
            a.grad[i0:i1] += g

    return _make(a.data[i0:i1], (a,), bwd)


def concat_cols(tensors):
    offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])

    def bwd(g, tensors=tensors, offsets=offsets):
        for t, j0, j1 in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.grad += g[:, j0:j1]

    return _make(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), bwd)


def gather_rows(table, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"gather_rows: id out of range [0, {table.data.shape[0]})"
        )

    def bwd(g, table=table, ids=ids):
        if table.requires_grad:
            np.add.at(table.grad, ids, g)

    return _make(table.data[ids], (table,), bwd)


def dropout(a, rate, rng):
    """Inverted dropout; identity when rate == 0 or rng is None."""
    if rate <= 0.0 or rng is None:
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

    def bwd(g, a=a, keep=keep):
        if a.requires_grad:
            a.grad += g * keep

    return _make(a.data * keep, (a,), bwd)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bwd(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
        if bias.requires_grad:
            bias.grad += g.sum(axis=tuple(range(g.ndim - 1)))
        if gain.requires_grad:
            gain.grad += (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            x.grad += inv * (gy - m1 - xhat * m2)

    return _make(xhat * gain.data + bias.data, (x, gain, bias), bwd)


def softmax_rows(x, mask=None):
    """Row softmax with max-shift; optional 0/1 mask zeroes excluded entries.

    Masked entries contribute exactly 0.0 to the row, so the output at
    unmasked positions is bit-independent of masked inputs.
    """
    if mask is None:
        shifted = x.data - x.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
    else:
        rowmax = np.where(mask, x.data, -np.inf).max(axis=-1, keepdims=True)
        # clamp masked entries to the row max before exp to avoid inf*0
        e = np.exp(np.where(mask, x.data, rowmax) - rowmax) * mask
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g, x=x, p=p):
        if x.requires_grad:
            x.grad += p * (g - (g * p).sum(axis=-1, keepdims=True))

    return _make(p, (x,), bwd)


def log_softmax_rows(x):
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bwd(g, x=x, ls=ls):
        if x.requires_grad:
            x.grad += g - np.exp(ls) * g.sum(axis=-1, keepdims=True)

    return _make(ls, (x,), bwd)


def pick_nll(log_probs, targets, weights=None):
    """Weighted mean of -log_probs[t, targets[t]]; scalar output.

    Zero-weight positions contribute exactly 0 regardless of their
    target id (response-only masking relies on this).
    """
    T, V = log_probs.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (T,):
        raise ShapeError(f"pick_nll: {len(targets)} targets for {T} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= V):
        raise IndexError(f"pick_nll: target id out of range [0, {V})")
    if weights is None:
        w = np.ones(T)
    else:
        w = np.asarray(weights, dtype=np.float64)
    wsum = w.sum()
    if wsum <= 0:
        raise ContractError("pick_nll: weights sum to zero")
    picked = log_probs.data[np.arange(T), targets]
    value = -(w * picked).sum() / wsum

    def bwd(g, log_probs=log_probs, targets=targets, w=w, wsum=wsum, T=T):
        if log_probs.requires_grad:
            gbuf = np.zeros_like(log_probs.data)
            gbuf[np.arange(T), targets] = -w / wsum * g
            log_probs.grad += gbuf

    return _make(value, (log_probs,), bwd)


def pick_logprob_sum(log_probs, targets):
    """Sum of log_probs[t, targets[t]] over all rows; scalar output."""
    T, V = log_probs.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= V):
        raise IndexError(f"pick_logprob_sum: target id out of range [0, {V})")
    value = log_probs.data[np.arange(T), targets].sum()

    def bwd(g, log_probs=log_probs, targets=targets, T=T):
        if log_probs.requires_grad:
            gbuf = np.zeros_like(log_probs.data)
            gbuf[np.arange(T), targets] = g
            log_probs.grad += gbuf

    return _make(value, (log_probs,), bwd)


def log_sigmoid(x):
    """Numerically stable log(sigmoid(x)) for scalars or arrays."""
    d = x.data
    out = np.minimum(d, 0.0) - np.log1p(np.exp(-np.abs(d)))

    def bwd(g, x=x):
        if x.requires_grad:
            x.grad += g / (1.0 + np.exp(x.data))  # sigmoid(-x)

    return _make(out, (x,), bwd)


def cross_entropy_next_token(logits, targets):
    """Mean over positions of -log softmax(logits[t])[targets[t]]."""
    return pick_nll(log_softmax_rows(logits), targets)


# -- backward pass -----------------------------------------------------

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from loss."""
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # frozen inputs get no grad array (a frozen parameter has none)
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    for node in topo:
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


# -- gradient checking -------------------------------------------------

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
        p.zero_grad()
    loss = fn()
    if not np.isfinite(loss.data):
        raise EvaluationError("grad_check: non-finite function value")
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    sizes = [p.data.size for p in params]
    total = sum(sizes)
    n = min(n_samples, total)
    coords = rng.choice(total, size=n, replace=False)

    failures = []
    max_rel = 0.0
    with no_grad():
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
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError("grad_check: non-finite function value")
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[pi].reshape(-1)[c]
            denom = max(abs(a), abs(numeric), 1e-10)
            rel = abs(a - numeric) / denom
            max_rel = max(max_rel, rel)
            if rel > tolerance and abs(a - numeric) > 1e-8:
                failures.append((pi, int(c), float(a), float(numeric), float(rel)))
    return {"max_rel_err": max_rel, "n_checked": n, "failures": failures}
