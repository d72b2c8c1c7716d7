"""Objective terms with values and hand-derived gradients.

The label-side terms use a generalized cross-entropy form
(1 - p^q)/q averaged over the batch, where p is the probability mass the
softmax over logits f W puts on the (possibly soft) target. As q -> 0 this
approaches -ln p; at q = 1 it is the bounded 1 - p. All losses are computed
per mini-batch, with the batch size standing in for the modality size.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import softmax, unit_rows


@dataclass
class QSchedule:
    """Linear ramp of the hardness factor q across training epochs."""

    q_start: float = 0.01
    q_end: float = 1.0
    total_epochs: int = 100

    def validate(self) -> None:
        if not 0 < self.q_start <= self.q_end <= 1:
            raise ValueError(f"need 0 < q_start <= q_end <= 1, got {self.q_start}, {self.q_end}")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")


def q_at(schedule: QSchedule, epoch: int) -> float:
    """q for one epoch: linear from q_start to q_end over the schedule."""
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {schedule.total_epochs})")
    if schedule.total_epochs == 1:
        return schedule.q_end
    frac = epoch / (schedule.total_epochs - 1)
    return schedule.q_start + (schedule.q_end - schedule.q_start) * frac


def _check_q(q: float) -> None:
    if not q > 0:
        raise ValueError(f"q must be > 0, got {q}")


def gce_from_logits(logits: np.ndarray, y: np.ndarray, q: float):
    """Core generalized cross-entropy on raw logits.

    Returns (loss, d_logits, p) where p is the per-sample target mass.
    """
    _check_q(q)
    if logits.shape != y.shape:
        raise ValueError(f"logits {logits.shape} vs targets {y.shape}")
    b = logits.shape[0]
    s = softmax(logits)
    p = np.maximum(np.sum(y * s, axis=1), 1e-300)
    loss = float(np.sum(1.0 - p**q) / (q * b))
    # dJ/dp_i = -p^(q-1)/B; dp_i/dl_ij = s_ij (y_ij - p_i)
    coef = -(p ** (q - 1.0)) / b
    d_logits = coef[:, None] * s * (y - p[:, None])
    return loss, d_logits, p


def prior_loss(f: np.ndarray, y: np.ndarray, w: np.ndarray, q: float):
    """Classification-style loss steering both embeddings and the weight matrix.

    Returns (value, d_f, d_w).
    """
    logits = f @ w
    loss, d_logits, _ = gce_from_logits(logits, y, q)
    return loss, d_logits @ w.T, f.T @ d_logits


def quality_score(f: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Mean target-class softmax mass; higher means better label alignment."""
    s = softmax(f @ w)
    return float(np.mean(np.sum(y * s, axis=1)))


def label_loss(f: np.ndarray, y: np.ndarray, w: np.ndarray, q: float):
    """Same form as prior_loss with soft targets; w is held fixed.

    Returns (value, d_f).
    """
    if np.any(y < 0):
        raise ValueError("soft labels must be nonnegative")
    loss, d_logits, _ = gce_from_logits(f @ w, y, q)
    return loss, d_logits @ w.T


def mse_loss(f: np.ndarray, y: np.ndarray, l: np.ndarray):
    """Mean squared distance between embeddings and recast targets y L.

    Returns (value, d_f).
    """
    t = y @ l
    if t.shape != f.shape:
        raise ValueError(f"targets {t.shape} vs embeddings {f.shape}")
    diff = f - t
    b = f.shape[0]
    loss = float(np.sum(diff * diff) / b)
    return loss, (2.0 / b) * diff


def disc_loss(f: np.ndarray, y: np.ndarray, l: np.ndarray):
    """Pairwise cosine-structure loss between embeddings and recast targets.

    Matches the target Gram structure within the batch (intra-class
    compactness, inter-class separation) plus a cross term penalizing
    asymmetry between target-to-embedding and embedding-to-target
    similarities. Returns (value, d_f).
    """
    t = y @ l
    if t.shape != f.shape:
        raise ValueError(f"targets {t.shape} vs embeddings {f.shape}")
    b = f.shape[0]
    fn, f_safe, f_deg = unit_rows(f)
    tn, _, _ = unit_rows(t)
    cf = fn @ fn.T
    ct = tn @ tn.T
    cx = tn @ fn.T  # cx[i, j] = cos(t_i, f_j)
    diff_gram = ct - cf
    diff_cross = cx - cx.T
    loss = float((np.sum(diff_gram**2) + np.sum(diff_cross**2)) / (b * b))

    g_cf = (2.0 / (b * b)) * (cf - ct)
    g_cx = (4.0 / (b * b)) * diff_cross
    d_fn = 2.0 * g_cf @ fn + g_cx.T @ tn
    # through row normalization; degenerate rows use the constant-zero convention
    proj = np.sum(d_fn * fn, axis=1, keepdims=True)
    d_f = (d_fn - proj * fn) / f_safe[:, None]
    d_f[f_deg] = 0.0
    return loss, d_f


def total_loss(f: np.ndarray, y: np.ndarray, w: np.ndarray, l: np.ndarray,
               q: float, alpha: float, beta: float, *,
               drop_label: bool = False, drop_disc: bool = False,
               drop_mse: bool = False):
    """Weighted sum J_label + alpha * J_disc + beta * J_mse over one batch.

    The drop flags are the ablation switches; defaults give the full
    objective. Returns (value, d_f, parts) where parts maps each term name
    to its unweighted value (0.0 when dropped).
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    d_f = np.zeros_like(f)
    parts = {"label": 0.0, "disc": 0.0, "mse": 0.0}
    value = 0.0
    if not drop_label:
        j, g = label_loss(f, y, w, q)
        parts["label"] = j
        value += j
        d_f += g
    if not drop_disc:
        j, g = disc_loss(f, y, l)
        parts["disc"] = j
        value += alpha * j
        d_f += alpha * g
    if not drop_mse:
        j, g = mse_loss(f, y, l)
        parts["mse"] = j
        value += beta * j
        d_f += beta * g
    return value, d_f, parts
