"""Loss functions used by the encoder and the contrastive head.

Both losses return ``(loss_value, gradient_wrt_logits_or_similarities)`` so
that the calling model can back-propagate through its own layers without a
generic autograd engine.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.utils.mathx import softmax


def label_smoothed_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, smoothing: float = 0.1
) -> tuple[float, np.ndarray]:
    """Label-smoothed cross-entropy over a batch (Eq. 4 of the paper).

    Parameters
    ----------
    logits:
        ``(batch, num_classes)`` unnormalised scores.
    targets:
        ``(batch,)`` integer class indices.
    smoothing:
        Smoothing factor ``eta``; the target distribution places
        ``1 - eta`` on the gold class and spreads ``eta`` uniformly over the
        remaining classes, which softens the penalty on entities semantically
        close to the gold entity.

    Returns
    -------
    (loss, grad):
        Mean loss over the batch and the gradient with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ModelError("logits must be 2-D (batch, num_classes)")
    if targets.shape[0] != logits.shape[0]:
        raise ModelError("targets batch size does not match logits")
    if not 0.0 <= smoothing < 1.0:
        raise ModelError("smoothing must be in [0, 1)")

    batch, num_classes = logits.shape
    probs = softmax(logits, axis=1)
    smooth_target = np.full(
        (batch, num_classes), smoothing / max(num_classes - 1, 1), dtype=np.float64
    )
    smooth_target[np.arange(batch), targets] = 1.0 - smoothing

    log_probs = np.log(np.clip(probs, 1e-12, 1.0))
    loss = float(-np.sum(smooth_target * log_probs) / batch)
    return loss, label_smoothed_gradient(probs, targets, smoothing)


def label_smoothed_gradient(
    probs: np.ndarray, targets: np.ndarray, smoothing: float
) -> np.ndarray:
    """The gradient of :func:`label_smoothed_cross_entropy` with respect to
    the logits, ``(probs - smooth_target) / batch``, written over ``probs``
    (the softmax of the logits), which it returns.

    The gold column subtracts ``1 - smoothing`` and every other column
    ``smoothing / (num_classes - 1)``, as the smoothed target holds them, so
    no target matrix is built.  A training step that does not read the loss
    calls this alone.
    """
    batch, num_classes = probs.shape
    rows = np.arange(batch)
    gold = probs[rows, targets] - (1.0 - smoothing)
    probs -= smoothing / max(num_classes - 1, 1)
    probs[rows, targets] = gold
    probs /= batch
    return probs


def info_nce_loss(
    anchors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    temperature: float = 0.1,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """InfoNCE contrastive loss (Oord et al., 2018).

    Parameters
    ----------
    anchors, positives:
        ``(batch, dim)`` L2-normalised embeddings; row ``i`` of ``positives``
        is the positive for row ``i`` of ``anchors``.
    negatives:
        ``(batch, num_negatives, dim)`` L2-normalised negative embeddings per
        anchor.
    temperature:
        Softmax temperature.

    Returns
    -------
    (loss, grad_anchors, grad_positives, grad_negatives)
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    positives = np.asarray(positives, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    if anchors.shape != positives.shape:
        raise ModelError("anchors and positives must have the same shape")
    if negatives.ndim != 3 or negatives.shape[0] != anchors.shape[0]:
        raise ModelError("negatives must be (batch, num_negatives, dim)")
    if temperature <= 0:
        raise ModelError("temperature must be positive")

    batch, dim = anchors.shape
    num_neg = negatives.shape[1]

    pos_sim = np.sum(anchors * positives, axis=1) / temperature  # (batch,)
    neg_sim = np.einsum("bd,bnd->bn", anchors, negatives) / temperature  # (batch, n)

    logits = np.concatenate([pos_sim[:, None], neg_sim], axis=1)  # (batch, 1+n)
    probs = softmax(logits, axis=1)
    loss = float(np.mean(-np.log(np.clip(probs[:, 0], 1e-12, 1.0))))

    # d loss / d logits
    grad_logits = probs.copy()
    grad_logits[:, 0] -= 1.0
    grad_logits /= batch * temperature

    grad_anchors = (
        grad_logits[:, :1] * positives
        + np.einsum("bn,bnd->bd", grad_logits[:, 1:], negatives)
    )
    grad_positives = grad_logits[:, :1] * anchors
    grad_negatives = grad_logits[:, 1:, None] * anchors[:, None, :]
    return loss, grad_anchors, grad_positives, grad_negatives
