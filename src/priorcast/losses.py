"""Objective terms with values and hand-derived gradients.

The label-side terms use a generalized cross-entropy form
(1 - p^q)/q averaged over the batch, where p is the probability mass the
softmax over logits f W puts on the (possibly soft) target. As q -> 0 this
approaches -ln p; at q = 1 it is the bounded 1 - p. All losses are computed
per mini-batch, with the batch size standing in for the modality size.

One label term serves both stages: label_loss learns each modality's
candidate w in stage one and applies the frozen prior w in stage two. It
returns the logits' gradient too, so that stage one can form w's gradient
f^T d_logits in place, and the logits f w, so that stage two reads its
recast gap f w - y from them.

The training loops pass (K, B, .) stacks of K batches: f, y and the
recast targets t stacked and the other matrices shared (label_loss: one
shared w, or one w per slice). Each value is a (K,) array, and each
slice's value and gradient depend on that slice alone, bit for bit.

Every batch-sized array a loss forms goes into ws, the Workspace the
caller passes (in training, the stack's), so the gradients returned are
overwritten by the next call with that workspace. Only label_loss still
builds a one-shot workspace when called without one.

Arguments are not checked here: RunConfig.validate guarantees q > 0 and
alpha, beta >= 0, and the training loops pass matching shapes and
nonnegative soft labels.
"""

import numpy as np

from .numerics import Workspace, softmax, unit_rows, unit_rows_grad


def q_at(q_start: float, epochs: int, epoch: int) -> float:
    """q for one epoch of a stage: linear from q_start to 1 over its epochs."""
    if epochs == 1:
        return 1.0
    return q_start + (1.0 - q_start) * (epoch / (epochs - 1))


def gce_from_logits(logits: np.ndarray, y: np.ndarray, q: float, ws):
    """label_loss's core, generalized cross-entropy on raw logits.

    Returns (value, d_logits).
    """
    b, c = y.shape[-2:]
    s = softmax(logits, out=ws.get("softmax", b, c))
    scratch = np.multiply(y, s, out=ws.get("gce_scratch", b, c))
    p = np.maximum(np.add.reduce(scratch, axis=-1), 1e-300)
    loss = np.add.reduce(1.0 - p**q, axis=-1) / (q * b)
    # dJ/dp_i = -p^(q-1)/B; dp_i/dl_ij = s_ij (y_ij - p_i); -(x)/b == x/(-b)
    coef = p ** (q - 1.0)
    coef /= -b
    d_logits = np.multiply(s, coef[..., None], out=ws.get("d_logits", b, c))
    d_logits *= np.subtract(y, p[..., None], out=scratch)
    return loss, d_logits


def label_loss(f: np.ndarray, y: np.ndarray, w: np.ndarray, q: float, ws=None):
    """The label term of both stages: GCE of softmax(f w) against soft targets y.

    Returns (value, d_f, d_logits, logits); the gradient with respect to w
    is f^T d_logits, which only stage one, where w is learned, forms.
    """
    if ws is None:
        # bench/test_bench.py::test_self_time_excludes_child_spans calls
        # label_loss without a workspace; this default goes with that test
        ws = Workspace(y.shape[:-2], y.shape[-2])
    b, c = y.shape[-2:]
    logits = np.matmul(f, w, out=ws.get("logits", b, c))
    loss, d_logits = gce_from_logits(logits, y, q, ws)
    d_f = np.matmul(d_logits, w.swapaxes(-1, -2), out=ws.get("label_d_f", b, f.shape[-1]))
    return loss, d_f, d_logits, logits


def quality_score(blocks, labels: np.ndarray, w: np.ndarray) -> float:
    """Mean softmax mass on each row's own class (labels holds class
    indices); higher means better label alignment.

    blocks yields (start, stop, f), the embeddings f of rows start:stop, in
    any order that covers every row once, as encoder.embed_blocks does.
    Each block's own-class probabilities go into one (N,) array, whose mean
    is the score, so no (N, d) or (N, C) array is formed."""
    own = np.empty(labels.shape[0])
    for start, stop, f in blocks:
        s = softmax(f @ w)
        own[start:stop] = s[np.arange(stop - start), labels[start:stop]]
    return float(np.mean(own))


def mse_loss(f: np.ndarray, t: np.ndarray, ws):
    """Mean squared distance between embeddings and recast targets t = y L.

    Returns (value, d_f).
    """
    b, d = f.shape[-2:]
    diff = np.subtract(f, t, out=ws.get("mse_diff", b, d))
    square = np.multiply(diff, diff, out=ws.get("mse_square", b, d))
    loss = np.add.reduce(square, axis=(-2, -1)) / b
    diff *= 2.0 / b
    return loss, diff


def disc_loss(f: np.ndarray, t: np.ndarray, ws):
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
    b, d = f.shape[-2:]
    pair = (2, *f.shape[:-2])  # f's rows and t's, or D and P, side by side
    rows = np.concatenate((f[None], t[None]), out=ws.get("disc_rows", b, d, lead=pair))
    (fn, tn), (f_safe, _), (f_deg, _) = unit_rows(rows, (
        ws.get("disc_units", b, d, lead=pair), ws.get("disc_safe", b, lead=pair),
        ws.get("disc_degenerate", b, lead=pair, dtype=bool)))
    dp = ws.get("disc_dp", b, d, lead=pair)
    diff, both = np.subtract(fn, tn, out=dp[0]), np.add(fn, tn, out=dp[1])
    moments = dp.swapaxes(-1, -2) @ dp  # D^T D and P^T P
    loss = np.add.reduce((moments[0] * moments[1]).reshape(*f.shape[:-2], -1), axis=-1) / (b * b)
    # P D^T D and D P^T P, summed
    terms = np.matmul(dp[::-1], moments, out=rows)
    d_fn = np.add(terms[0], terms[1], out=terms[0])
    d_fn *= 2.0 / (b * b)
    # through row normalization; degenerate rows use the constant-zero convention
    d_f = unit_rows_grad(d_fn, fn, f_safe, out=diff)
    if np.count_nonzero(f_deg):
        d_f[f_deg] = 0.0
    return loss, d_f


def total_loss(f: np.ndarray, y: np.ndarray, w: np.ndarray, t: np.ndarray,
               q: float, alpha: float, beta: float, *, drop_label: bool = False, ws):
    """Weighted sum J_label + alpha * J_disc + beta * J_mse over one batch.

    t holds the recast targets y L. drop_label drops the label term, which
    has no weight, and a zero alpha or beta drops its term: a dropped term
    is not computed. Returns (terms, d_f, logits): terms is a (4, *lead)
    array of the unweighted label, disc and mse values (0.0 where dropped)
    and their weighted sum, and logits is f w, from the label term or, when
    it is dropped, formed here.
    """
    terms = np.zeros((4, *f.shape[:-2]))
    # the gradient sum runs from +0.0: adding 0.0 turns a -0.0 of the first term into +0.0
    d_f = ws.get("total_d_f", *f.shape[-2:])
    if drop_label:
        logits = np.matmul(f, w, out=ws.get("total_logits", f.shape[-2], w.shape[-1]))
        d_f.fill(0.0)
    else:
        terms[0], g, _, logits = label_loss(f, y, w, q, ws)
        np.add(g, 0.0, out=d_f)
    if alpha:
        terms[1], g = disc_loss(f, t, ws)
        d_f += np.multiply(g, alpha, out=g)
    if beta:
        terms[2], g = mse_loss(f, t, ws)
        d_f += np.multiply(g, beta, out=g)
    # left to right; a dropped term adds its zero weight times 0.0, which
    # changes no bit, since no partial sum is -0.0: the first term never is
    terms[3] = terms[0] + alpha * terms[1] + beta * terms[2]
    return terms, d_f, logits
