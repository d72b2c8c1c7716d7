import tracemalloc

import numpy as np
import pytest

import reference_losses as ref_losses
from conftest import check_grad, cosine, workspace_for
from priorcast.losses import (
    disc_loss,
    label_loss,
    mse_loss,
    q_at,
    quality_score,
    total_loss,
)
from priorcast.encoder import embed_blocks, init_params
from priorcast.numerics import BLOCK_BYTES, make_rng, random_orthogonal


def _instance(seed, b=6, d=5, c=4):
    rng = make_rng(seed)
    f = rng.standard_normal((b, d))
    y = np.eye(c)[rng.integers(0, c, b)]
    w = rng.standard_normal((d, c))
    l = np.linalg.pinv(w)
    return f, y, w, l, rng


# --- q schedule ---

def test_q_schedule_endpoints():
    assert q_at(0.01, 100, 0) == pytest.approx(0.01)
    assert q_at(0.01, 100, 99) == pytest.approx(1.0)
    # strictly increasing across the ramp
    qs = [q_at(0.01, 100, e) for e in range(100)]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_q_schedule_single_epoch():
    assert q_at(0.01, 1, 0) == 1.0


# --- generalized cross-entropy core, through label_loss with w = I ---
# f @ np.eye(C) gives f's bits, so f serves as the logits

def test_gce_small_q_approaches_log_loss():
    # (1 - p^q)/q -> -ln p as q -> 0
    for p in (0.1, 0.5, 0.9):
        logits = np.log(np.array([[p, 1.0 - p]]))
        y = np.array([[1.0, 0.0]])
        loss, _, _, _ = label_loss(logits, y, np.eye(2), 1e-6)
        assert quality_score([(0, 1, logits)], np.array([0]),
                             np.eye(2)) == pytest.approx(p, abs=1e-12)
        assert abs(loss - (-np.log(p))) <= 1e-5


def test_gce_q1_is_one_minus_p():
    logits = np.log(np.array([[0.3, 0.7]]))
    y = np.array([[1.0, 0.0]])
    loss, _, _, _ = label_loss(logits, y, np.eye(2), 1.0)
    assert loss == pytest.approx(0.7, abs=1e-12)


def test_gce_uniform_logits():
    c = 5
    logits = np.zeros((1, c))
    y = np.eye(c)[[2]]
    q = 0.3
    loss, _, _, _ = label_loss(logits, y, np.eye(c), q)
    assert loss == pytest.approx((1.0 - (1.0 / c) ** q) / q)


def test_gce_shift_invariant():
    f, y, w, _, _ = _instance(0)
    logits = f @ w
    eye = np.eye(w.shape[1])
    l0, _, g0, _ = label_loss(logits, y, eye, 0.4)
    l1, _, g1, _ = label_loss(logits + 57.0, y, eye, 0.4)
    assert l0 == pytest.approx(l1, abs=1e-10)
    assert np.allclose(g0, g1, atol=1e-12)


# --- label loss ---

def test_label_loss_gradients():
    # d_f, and f^T d_logits as w's gradient: with one shared w and with one
    # w per slice of a stack
    for seed in range(3):
        f, y, w, _, rng = _instance(seed)
        q = float(rng.uniform(0.05, 1.0))
        _, d_f, d_logits, _ = label_loss(f, y, w, q)
        check_grad(lambda: label_loss(f, y, w, q)[0], f, d_f)
        check_grad(lambda: label_loss(f, y, w, q)[0], w, f.T @ d_logits)
        fs, ys = np.stack([f, f[::-1]]), np.stack([y, y[::-1]])
        ws = np.stack([w, rng.standard_normal(w.shape)])
        _, d_fs, d_logits, _ = label_loss(fs, ys, ws, q)
        check_grad(lambda: label_loss(fs, ys, ws, q)[0].sum(), fs, d_fs)
        check_grad(lambda: label_loss(fs, ys, ws, q)[0].sum(), ws,
                   fs.swapaxes(-1, -2) @ d_logits)


def test_label_loss_accepts_soft_labels():
    f, y, w, _, rng = _instance(3)
    soft = 0.7 * y + 0.3 * y[rng.permutation(len(y))]
    value, _, _, _ = label_loss(f, soft, w, 0.5)
    assert 0.0 < value < 1.0 / 0.5  # (1 - p^q) / q lies in [0, 1/q)


def test_quality_score_range_and_ceiling():
    f, y, w, _, _ = _instance(4)
    s = quality_score([(0, len(f), f)], y.argmax(axis=1), w)
    assert 0.0 < s < 1.0
    # logits hugely aligned with the labels push the score to 1
    s_hot = quality_score([(0, len(y), y @ np.linalg.pinv(w) * 50.0)], y.argmax(axis=1), w)
    assert s_hot > 0.99


def test_quality_score_is_mean_target_class_probability():
    # logits ln 4 on the diagonal: each row's softmax is 2/3 on its own
    # class and 1/6 elsewhere; the second row's target is not its top class
    f = np.eye(3)
    w = np.log(4.0) * np.eye(3)
    labels = np.array([0, 0, 2])
    assert quality_score([(0, 3, f)], labels, w) == pytest.approx((2 / 3 + 1 / 6 + 2 / 3) / 3,
                                                                  abs=1e-15)


@pytest.mark.parametrize("n", [4000, 16000])
def test_quality_score_of_embed_blocks_holds_one_row_array_and_a_few_blocks(n):
    """Scoring a candidate on embed_blocks at gallery_2k's training shape
    (float32 features 28 wide, hidden 64, embedding 16, 10 classes) holds at
    its traced peak the (N,) own-class array and about four block budgets
    (one block's widened input and workspace, the stack's parameter and
    gradient vectors, a block's logits), whatever N: no (N, embed_dim) or
    (N, C) array. Collecting embed's (N, 16) result and scoring it whole
    peaks at 1.5 MB at N = 4000 and 4.8 MB at N = 16000, over this bound."""
    rng = make_rng(n)
    x = rng.standard_normal((n, 28)).astype(np.float32)
    labels = rng.integers(0, 10, n)
    params = init_params(28, 64, 16, rng)
    w = random_orthogonal(16, 10, rng)
    tracemalloc.start()
    try:
        score = quality_score(embed_blocks(params, x), labels, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < score < 1.0
    assert peak <= 8 * n + 5 * BLOCK_BYTES


# --- mse ---

def test_mse_hand_case():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.eye(2)
    l = np.zeros((2, 2))  # targets are the origin
    loss, grad = mse_loss(f, y @ l, workspace_for(f))
    assert loss == pytest.approx(1.0)  # (1 + 1) / 2
    assert np.allclose(grad, f)  # (2/B)(f - 0) = f


def test_mse_zero_at_fixed_point():
    _, y, w, l, _ = _instance(5)
    loss, grad = mse_loss(y @ l, y @ l, workspace_for(y))
    assert loss == pytest.approx(0.0, abs=1e-28)
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_mse_gradients():
    f, y, _, l, _ = _instance(6)
    _, grad = mse_loss(f, y @ l, workspace_for(f))
    check_grad(lambda: mse_loss(f, y @ l, workspace_for(f))[0], f, grad)


# --- pairwise-structure loss ---

def _disc_brute(f, y, l):
    # independent loop implementation over cosine pairs
    t = y @ l
    b = f.shape[0]
    j1 = 0.0
    j2 = 0.0
    for i in range(b):
        for j in range(b):
            j1 += (cosine(t[i], t[j]) - cosine(f[i], f[j])) ** 2
            j2 += (cosine(t[i], f[j]) - cosine(t[j], f[i])) ** 2
    return (j1 + j2) / (b * b)


def test_disc_matches_brute_force():
    for seed in range(5):
        f, y, _, l, _ = _instance(seed, b=5)
        loss, _ = disc_loss(f, y @ l, workspace_for(f))
        assert loss == pytest.approx(_disc_brute(f, y, l), abs=1e-12)


def test_disc_zero_row_convention():
    f, y, _, l, _ = _instance(7)
    f[2] = 0.0
    loss, grad = disc_loss(f, y @ l, workspace_for(f))
    assert np.isfinite(loss)
    assert loss == pytest.approx(_disc_brute(f, y, l), abs=1e-12)
    assert np.array_equal(grad[2], np.zeros(f.shape[1]))


def test_disc_zero_when_structures_match():
    # embeddings equal to the recast targets give a symmetric cross term
    # and identical gram matrices
    _, y, _, l, _ = _instance(8)
    loss, _ = disc_loss(y @ l, y @ l, workspace_for(y))
    assert loss == pytest.approx(0.0, abs=1e-24)


def test_disc_gradients():
    for seed in range(3):
        f, y, _, l, _ = _instance(seed + 10)
        _, grad = disc_loss(f, y @ l, workspace_for(f))
        check_grad(lambda: disc_loss(f, y @ l, workspace_for(f))[0], f, grad)


# --- combined objective ---

def test_total_loss_combination():
    f, y, w, l, _ = _instance(11)
    q, alpha, beta = 0.6, 0.3, 0.2
    terms, grad, logits = total_loss(f, y, w, y @ l, q, alpha, beta, ws=workspace_for(f))
    jl, gl, _, _ = label_loss(f, y, w, q)
    jd, gd = disc_loss(f, y @ l, workspace_for(f))
    jm, gm = mse_loss(f, y @ l, workspace_for(f))
    assert terms[3] == pytest.approx(jl + alpha * jd + beta * jm, abs=1e-14)
    assert list(terms[:3]) == [jl, jd, jm]
    assert np.array_equal(logits, f @ w)
    assert np.allclose(grad, gl + alpha * gd + beta * gm, atol=1e-14)


@pytest.mark.parametrize("flag", ["drop_label", "drop_disc", "drop_mse"])
def test_total_loss_drop_flags(flag):
    # the label term drops by its flag, the disc and mse terms by a zero weight
    f, y, w, l, _ = _instance(12)
    weights = {"drop_disc": (0.0, 0.1), "drop_mse": (0.1, 0.0)}.get(flag, (0.1, 0.1))
    terms, grad, logits = total_loss(f, y, w, y @ l, 0.5, *weights,
                                     drop_label=flag == "drop_label", ws=workspace_for(f))
    assert terms[["drop_label", "drop_disc", "drop_mse"].index(flag)] == 0.0
    # the frozen copy's gradient with the term dropped by its flag, bit for bit
    assert np.array_equal(grad, ref_losses.total_loss(f, y, w, y @ l, 0.5, *weights,
                                                      **{flag: True})[1])
    # the logits f w come back whether or not the label term forms them
    assert np.array_equal(logits, f @ w)
    full, _, _ = total_loss(f, y, w, y @ l, 0.5, 0.1, 0.1, ws=workspace_for(f))
    assert terms[3] < full[3]


def test_total_loss_gradients():
    f, y, w, l, rng = _instance(14)
    q = float(rng.uniform(0.05, 1.0))
    _, grad, _ = total_loss(f, y, w, y @ l, q, 0.25, 0.15, ws=workspace_for(f))
    check_grad(lambda: total_loss(f, y, w, y @ l, q, 0.25, 0.15, ws=workspace_for(f))[0][3], f,
               grad)


@pytest.mark.parametrize("b", [6, 7, 150])
def test_stacked_losses_match_each_slice(b):
    # 7: a merged tail batch of B + 1; 150: disc_loss's d x d moment
    # matrices then sum over a long batch axis, which BLAS may split into
    # blocks, and each slice must still get its own one-batch bits
    rng = make_rng(12)
    k, d, c, q = 3, 5, 4, 0.7
    f = rng.standard_normal((k, b, d))
    f[1, 2] = 0.0  # a degenerate row
    y = np.eye(c)[rng.integers(0, c, (k, b))]
    w = rng.standard_normal((d, c))
    l = np.linalg.pinv(w)
    ws = rng.standard_normal((k, d, c))

    def same(stacked, per_slice):
        for i, one in enumerate(per_slice):
            for a, e in zip(stacked, one):
                assert np.array_equal(np.asarray(a)[i], e)

    same(mse_loss(f, y @ l, workspace_for(f)),
         [mse_loss(f[i], y[i] @ l, workspace_for(f[i])) for i in range(k)])
    same(disc_loss(f, y @ l, workspace_for(f)),
         [disc_loss(f[i], y[i] @ l, workspace_for(f[i])) for i in range(k)])
    same(label_loss(f, y, w, q), [label_loss(f[i], y[i], w, q) for i in range(k)])
    same(label_loss(f, y, ws, q), [label_loss(f[i], y[i], ws[i], q) for i in range(k)])
    terms, grad, logits = total_loss(f, y, w, y @ l, q, 0.25, 0.15, ws=workspace_for(f))
    for i in range(k):
        terms_i, grad_i, logits_i = total_loss(f[i], y[i], w, y[i] @ l, q, 0.25, 0.15,
                                               ws=workspace_for(f[i]))
        assert np.array_equal(terms[:, i], terms_i)
        assert np.array_equal(grad[i], grad_i)
        assert np.array_equal(logits[i], logits_i)
