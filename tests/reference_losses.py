"""Frozen numpy-only copies of the objective terms, and a B x B reference
for the pairwise cosine-structure loss.

softmax, label_loss, quality_score, mse_loss, disc_loss and total_loss are
copies of priorcast.losses as its one-batch form computed them: (B, .)
batches, a numpy scalar per value. reference_training builds on them, and
test_frozen_kernels.py checks each slice of priorcast's stacked losses
against them bit for bit, so neither leans on the kernel it checks.

gram_disc_loss is disc_loss as it was computed before its d x d form: the
batch's three cosine matrices, fn fn^T, tn tn^T and tn fn^T, are formed
explicitly and differenced. test_disc_reference.py compares it with
priorcast's d x d form. It costs O(B^2 d) time and five (K, B, B) arrays
of memory.
"""

import numpy as np

# priorcast.numerics.NORM_EPS: rows with a norm at or below it count as zero
NORM_EPS = 1e-12


def unit_rows(x):
    """(unit rows, safe norms, degenerate mask); degenerate rows are zero."""
    norms = np.sqrt(np.sum(x * x, axis=-1))
    degenerate = norms <= NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    unit = x / safe[..., None]
    unit[degenerate] = 0.0
    return unit, safe, degenerate


def gram_disc_loss(f, t):
    """(value, d_f) of the loss (|ct - cf|^2 + |cx - cx^T|^2) / B^2.

    cf = fn fn^T, ct = tn tn^T and cx = tn fn^T are the within-batch cosines
    of the unit rows; f and t are (B, d) or (K, B, d). The gradient of a
    degenerate row of f is zero.
    """
    b = f.shape[-2]
    fn, f_safe, f_deg = unit_rows(f)
    tn, _, _ = unit_rows(t)
    cf = fn @ fn.swapaxes(-1, -2)
    ct = tn @ tn.swapaxes(-1, -2)
    cx = tn @ fn.swapaxes(-1, -2)  # cx[i, j] = cos(t_i, f_j)
    diff_gram = ct - cf
    diff_cross = cx - cx.swapaxes(-1, -2)
    loss = (np.sum(diff_gram**2, axis=(-2, -1))
            + np.sum(diff_cross**2, axis=(-2, -1))) / (b * b)
    # d/d cf of |ct - cf|^2 is 2 (cf - ct), and cf is symmetric in fn
    gram_part = 2.0 * (2.0 / (b * b)) * (cf - ct) @ fn
    # diff_cross is antisymmetric; f_j enters column j of cx and row j of cx^T
    cross_part = (4.0 / (b * b)) * diff_cross.swapaxes(-1, -2) @ tn
    d_fn = gram_part + cross_part
    proj = np.sum(d_fn * fn, axis=-1, keepdims=True)
    d_f = (d_fn - proj * fn) / f_safe[..., None]
    d_f[f_deg] = 0.0
    return loss, d_f


def softmax(logits):
    """Softmax over the last axis, computed with max-subtraction."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def label_loss(f, y, w, q):
    """GCE (1 - p^q)/q of softmax(f w) against soft targets y, averaged over
    the batch; returns (value, d_f, d_logits)."""
    b = f.shape[-2]
    s = softmax(f @ w)
    p = np.maximum(np.add.reduce(y * s, axis=-1), 1e-300)
    loss = np.add.reduce(1.0 - p**q, axis=-1) / (q * b)
    coef = -(p ** (q - 1.0)) / b
    d_logits = coef[..., None] * s * (y - p[..., None])
    return loss, d_logits @ w.swapaxes(-1, -2), d_logits


def quality_score(f, y, w):
    """Mean target-class softmax mass."""
    s = softmax(f @ w)
    return float(np.mean(np.sum(y * s, axis=1)))


def mse_loss(f, t):
    """(value, d_f) of the mean squared distance |f - t|^2 / B."""
    diff = f - t
    b = f.shape[-2]
    loss = np.add.reduce(diff * diff, axis=(-2, -1)) / b
    return loss, (2.0 / b) * diff


def disc_loss(f, t):
    """(value, d_f) of gram_disc_loss's loss in d x d form.

    With D = fn - tn and P = fn + tn the value is <D^T D, P^T P> / B^2 and
    the gradient in fn is 2 (P D^T D + D P^T P) / B^2.
    """
    b = f.shape[-2]
    fn, f_safe, f_deg = unit_rows(f)
    tn, _, _ = unit_rows(t)
    diff, both = fn - tn, fn + tn
    m_diff = diff.swapaxes(-1, -2) @ diff
    m_both = both.swapaxes(-1, -2) @ both
    loss = np.add.reduce((m_diff * m_both).reshape(*f.shape[:-2], -1), axis=-1) / (b * b)
    d_fn = (2.0 / (b * b)) * (both @ m_diff + diff @ m_both)
    proj = np.add.reduce(d_fn * fn, axis=-1, keepdims=True)
    d_f = (d_fn - proj * fn) / f_safe[..., None]
    d_f[f_deg] = 0.0
    return loss, d_f


def total_loss(f, y, w, t, q, alpha, beta, *, drop_label=False, drop_disc=False,
               drop_mse=False):
    """(value, d_f, parts) of J_label + alpha * J_disc + beta * J_mse."""
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
