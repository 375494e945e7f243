"""Numerical helpers used throughout the library.

All functions operate on numpy arrays and are written to be numerically
stable (softmax/log-softmax subtract the maximum, norms are clamped away
from zero).
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def l2_normalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return ``x`` scaled to unit L2 norm along ``axis``.

    Zero vectors are returned unchanged (instead of producing NaNs).
    """
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x, axis=axis, keepdims=True)
    return x / np.maximum(norm, _EPS)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two 1-D vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(a) * np.linalg.norm(b)), _EPS)
    return float(np.dot(a, b) / denom)


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``.

    If ``b`` is omitted, similarities among rows of ``a`` are returned.
    """
    a = l2_normalize(np.asarray(a, dtype=np.float64), axis=1)
    if b is None:
        return a @ a.T
    b = l2_normalize(np.asarray(b, dtype=np.float64), axis=1)
    return a @ b.T


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    return softmax_inplace(np.array(x, dtype=np.float64), axis=axis)


def softmax_inplace(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`softmax` written over the float64 array ``x``, which it returns:
    the same operations on the same operands, without the temporaries."""
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Numerically stable log-sum-exp reduction."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)
