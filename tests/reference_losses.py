"""B x B reference for the pairwise cosine-structure loss.

This is disc_loss as it was computed before its d x d form: the batch's
three cosine matrices, fn fn^T, tn tn^T and tn fn^T, are formed
explicitly and differenced. It imports only numpy, so the comparison in
test_disc_reference.py does not lean on any priorcast kernel. It costs
O(B^2 d) time and five (K, B, B) arrays of memory.
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


def disc_loss(f, t):
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
