"""Numeric kernels: the AdamW update and longest-common-subsequence length."""

import numpy as np

# There is no compiled path. perfbench/run.py's environment block still
# reads this flag; the next change to the benchmark drops the field.
USE_NUMBA = False


def lcs_length(a, b):
    """Longest-common-subsequence length of two strings.

    Bit-parallel over the characters of ``a`` (Allison & Dix 1986; Hyyrö
    2004): bit i of ``v`` is 0 where the LCS grows at a[i], so after all of
    ``b`` the LCS length is the number of zero bits among the low len(a).
    """
    match = {}
    for i, ch in enumerate(a):
        match[ch] = match.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    v = mask
    for ch in b:
        u = v & match.get(ch, 0)
        v = ((v + u) | (v - u)) & mask
    return len(a) - v.bit_count()


def adamw_update(w, g, m, v, step, lr, weight_decay, beta1, beta2, eps):
    """In-place decoupled-weight-decay adaptive-moment update on flat arrays.

    w <- w - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * w)
    with bias-corrected first/second moments at the (1-based) step count.
    """
    # two buffers, each reused: no m_hat, v_hat, sqrt or sum temporaries
    upd = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += upd
    np.multiply(g, g, out=upd)
    upd *= 1.0 - beta2
    v *= beta2
    v += upd
    den = np.divide(v, 1.0 - beta2**step)  # v_hat, then sqrt(v_hat) + eps in place
    np.sqrt(den, out=den)
    den += eps
    np.divide(m, 1.0 - beta1**step, out=upd)
    upd /= den
    np.multiply(w, weight_decay, out=den)
    upd += den
    upd *= lr
    w -= upd
