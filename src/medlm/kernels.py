"""Hot numeric kernels with numba-compiled and pure-numpy variants.

The compiled path is the default; set MEDLM_NO_NUMBA=1 to force the
pure-numpy fallback (useful for debugging). Both variants compute
identical results: the compiled loops apply the same per-element
operation sequence as the vectorized numpy code, so seeded runs stay
bit-reproducible on either path.
"""

import os

import numpy as np

_FORCE_FALLBACK = os.environ.get("MEDLM_NO_NUMBA", "0") == "1"

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False

USE_NUMBA = _HAVE_NUMBA and not _FORCE_FALLBACK


def lcs_length_py(a, b):
    """Longest-common-subsequence length of two int64 arrays (two-row DP)."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    prev = np.zeros(m + 1, dtype=np.int64)
    for i in range(n):
        cur = np.zeros(m + 1, dtype=np.int64)
        match = prev[:-1] + 1
        for j in range(m):
            # cur[j] needed before cur[j+1]; keep the scan explicit
            cur[j + 1] = match[j] if a[i] == b[j] else max(prev[j + 1], cur[j])
        prev = cur
    return int(prev[m])


def _lcs_length_jit(a, b):
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    prev = np.zeros(m + 1, dtype=np.int64)
    cur = np.zeros(m + 1, dtype=np.int64)
    for i in range(n):
        ai = a[i]
        for j in range(m):
            if ai == b[j]:
                cur[j + 1] = prev[j] + 1
            else:
                cur[j + 1] = max(prev[j + 1], cur[j])
        prev, cur = cur, prev
        cur[:] = 0
    return int(prev[m])


def _pow_int(base, n):
    """base**n by repeated multiplication. Both kernel variants use this
    exact operation sequence so their bias corrections agree bit-for-bit
    (native pow implementations differ between compilers)."""
    r = 1.0
    for _ in range(n):
        r *= base
    return r


def adamw_update_py(w, g, m, v, step, lr, weight_decay, beta1, beta2, eps):
    """In-place decoupled-weight-decay adaptive-moment update on flat arrays.

    w <- w - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * w)
    with bias-corrected first/second moments at the (1-based) step count.
    """
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - _pow_int(beta1, step))
    v_hat = v / (1.0 - _pow_int(beta2, step))
    w -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * w)


def _adamw_update_jit(w, g, m, v, step, lr, weight_decay, beta1, beta2, eps):
    p1 = 1.0
    p2 = 1.0
    for _ in range(step):
        p1 *= beta1
        p2 *= beta2
    bc1 = 1.0 - p1
    bc2 = 1.0 - p2
    for i in range(w.shape[0]):
        m[i] = m[i] * beta1 + (1.0 - beta1) * g[i]
        v[i] = v[i] * beta2 + (1.0 - beta2) * (g[i] * g[i])
        m_hat = m[i] / bc1
        v_hat = v[i] / bc2
        w[i] = w[i] - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * w[i])


if USE_NUMBA:
    lcs_length = njit(cache=True)(_lcs_length_jit)
    adamw_update = njit(cache=True)(_adamw_update_jit)
else:
    lcs_length = lcs_length_py
    adamw_update = adamw_update_py
