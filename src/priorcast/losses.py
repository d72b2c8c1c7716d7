"""Objective terms with values and hand-derived gradients.

The label-side terms use a generalized cross-entropy form
(1 - p^q)/q averaged over the batch, where p is the probability mass the
softmax over logits f W puts on the (possibly soft) target. As q -> 0 this
approaches -ln p; at q = 1 it is the bounded 1 - p. All losses are computed
per mini-batch, with the batch size standing in for the modality size.

One label term serves both stages: label_loss learns each modality's
candidate w in stage one and applies the frozen prior w in stage two. It
returns the logits' gradient too, so that stage one can form w's gradient
f^T d_logits in place.

Every loss also takes a (K, B, .) stack of K batches, f, y and the recast
targets t stacked and the other matrices shared (label_loss: one shared w,
or one w per slice). Each slice's gradient then equals the one-batch result
bit for bit, and each value becomes a (K,) array of the one-batch values.
A one-batch value is a numpy scalar or a 0-d array.

Arguments are not checked here: RunConfig.validate guarantees q > 0 and
alpha, beta >= 0, and the training loops pass matching shapes and
nonnegative soft labels.
"""

import numpy as np

from .numerics import softmax, unit_rows


def q_at(q_start: float, epochs: int, epoch: int) -> float:
    """q for one epoch of a stage: linear from q_start to 1 over its epochs."""
    if epochs == 1:
        return 1.0
    return q_start + (1.0 - q_start) * (epoch / (epochs - 1))


def gce_from_logits(logits: np.ndarray, y: np.ndarray, q: float):
    """label_loss's core, generalized cross-entropy on raw logits.

    Returns (value, d_logits).
    """
    b = logits.shape[-2]
    s = softmax(logits)
    p = np.maximum(np.add.reduce(y * s, axis=-1), 1e-300)
    loss = np.add.reduce(1.0 - p**q, axis=-1) / (q * b)
    # dJ/dp_i = -p^(q-1)/B; dp_i/dl_ij = s_ij (y_ij - p_i)
    coef = -(p ** (q - 1.0)) / b
    return loss, coef[..., None] * s * (y - p[..., None])


def label_loss(f: np.ndarray, y: np.ndarray, w: np.ndarray, q: float):
    """The label term of both stages: GCE of softmax(f w) against soft targets y.

    Returns (value, d_f, d_logits); the gradient with respect to w is
    f^T d_logits, which only stage one, where w is learned, forms.
    """
    loss, d_logits = gce_from_logits(f @ w, y, q)
    return loss, d_logits @ w.swapaxes(-1, -2), d_logits


def quality_score(f: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Mean target-class softmax mass; higher means better label alignment."""
    s = softmax(f @ w)
    return float(np.mean(np.sum(y * s, axis=1)))


def mse_loss(f: np.ndarray, t: np.ndarray):
    """Mean squared distance between embeddings and recast targets t = y L.

    Returns (value, d_f).
    """
    diff = f - t
    b = f.shape[-2]
    loss = np.add.reduce(diff * diff, axis=(-2, -1)) / b
    return loss, (2.0 / b) * diff


def disc_loss(f: np.ndarray, t: np.ndarray):
    """Pairwise cosine-structure loss between embeddings and recast targets.

    Matches the Gram structure of t = y L within the batch (intra-class
    compactness, inter-class separation) plus a cross term penalizing
    asymmetry between target-to-embedding and embedding-to-target
    similarities. Returns (value, d_f).

    With fn, tn the unit rows, the loss is (|tn tn^T - fn fn^T|^2 +
    |tn fn^T - fn tn^T|^2) / B^2 in Frobenius norms. It is computed in d x d
    form, without any B x B matrix: with D = fn - tn and P = fn + tn it
    equals <D^T D, P^T P> / B^2, and its gradient in fn is
    2 (P D^T D + D P^T P) / B^2. The two moment matrices cost O(B d^2), so
    this is slower than forming the B x B cosines only when d is several
    times B. The value is the inner product of two positive semidefinite
    matrices of the differences and the sums, so it is exactly 0.0 at f = t
    and keeps its relative accuracy near f = t, where expanding the squares
    would leave an absolute error of ~1e-16.
    """
    b = f.shape[-2]
    fn, f_safe, f_deg = unit_rows(f)
    tn, _, _ = unit_rows(t)
    diff, both = fn - tn, fn + tn
    m_diff = diff.swapaxes(-1, -2) @ diff
    m_both = both.swapaxes(-1, -2) @ both
    loss = np.add.reduce((m_diff * m_both).reshape(*f.shape[:-2], -1), axis=-1) / (b * b)
    d_fn = (2.0 / (b * b)) * (both @ m_diff + diff @ m_both)
    # through row normalization; degenerate rows use the constant-zero convention
    proj = np.add.reduce(d_fn * fn, axis=-1, keepdims=True)
    d_f = (d_fn - proj * fn) / f_safe[..., None]
    d_f[f_deg] = 0.0
    return loss, d_f


def total_loss(f: np.ndarray, y: np.ndarray, w: np.ndarray, t: np.ndarray,
               q: float, alpha: float, beta: float, *,
               drop_label: bool = False, drop_disc: bool = False,
               drop_mse: bool = False):
    """Weighted sum J_label + alpha * J_disc + beta * J_mse over one batch.

    t holds the recast targets y L. The drop flags are the ablation
    switches; defaults give the full objective. Returns (value, d_f, parts)
    where parts maps each term name to its unweighted value (0.0 when
    dropped).
    """
    d_f = np.zeros_like(f)
    parts = {"label": 0.0, "disc": 0.0, "mse": 0.0}
    value = 0.0
    if not drop_label:
        parts["label"], g, _ = label_loss(f, y, w, q)
        value += parts["label"]
        d_f += g
    if not drop_disc:
        parts["disc"], g = disc_loss(f, t)
        value += alpha * parts["disc"]
        d_f += alpha * g
    if not drop_mse:
        parts["mse"], g = mse_loss(f, t)
        value += beta * parts["mse"]
        d_f += beta * g
    return value, d_f, parts
