"""Per-modality reference loops for both training stages.

One modality at a time, one batch at a time, with a new EncoderParams every
step and the mixup gradient routed by np.add.at. The kernels are frozen
numpy-only copies of priorcast's one-encoder form: forward, backward,
feature_augment, minibatch_iter, q_at and sgd_step here, the losses in
reference_losses. From priorcast this module takes only containers, seeding,
initialisers, pseudo_inverse and select_prior (test_surface.py holds the
list). The lockstep stacks in priorcast.prior and priorcast.training must
reproduce these results bit for bit. Features may be held as float32;
both loops widen them (exactly) to float64 first, as priorcast does.
"""

import dataclasses
import math
from collections import namedtuple

import numpy as np

from priorcast.encoder import EncoderParams, init_params
from priorcast.numerics import make_rng, pseudo_inverse, random_orthogonal, split_seed
from priorcast.prior import PriorMatrix, select_prior
from reference_losses import label_loss, quality_score, total_loss, unit_rows

ForwardCache = namedtuple("ForwardCache", "x a1 a2 unit safe degenerate")


def one_hot(labels, num_classes):
    """Labels as a dense (N, C) one-hot float matrix."""
    y = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    y[np.arange(labels.shape[0]), labels] = 1.0
    return y


def forward(params, x):
    """Embed a (B, D) batch; returns (F, cache) with F row-normalized and
    rows of pre-normalization norm <= NORM_EPS passed through unchanged."""
    a1 = x @ params.w1
    a1 += params.b1
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ params.w2
    a2 += params.b2
    np.maximum(a2, 0.0, out=a2)
    z3 = a2 @ params.w3
    z3 += params.b3
    unit, safe, degenerate = unit_rows(z3)
    f = np.where(degenerate[..., None], z3, unit)
    return f, ForwardCache(x, a1, a2, unit, safe, degenerate)


def backward(params, cache, d_f):
    """Gradients of a scalar loss wrt every parameter, given dJ/dF; a new
    EncoderParams."""
    grads = EncoderParams(*map(np.empty_like, params.tensors()))
    unit, safe = cache.unit, cache.safe
    proj = np.add.reduce(d_f * unit, axis=-1, keepdims=True)
    d_z3 = (d_f - proj * unit) / safe[..., None]
    np.copyto(d_z3, d_f, where=cache.degenerate[..., None])
    np.matmul(cache.a2.T, d_z3, out=grads.w3)
    np.add.reduce(d_z3, axis=0, out=grads.b3)
    d_z2 = np.matmul(d_z3, params.w3.T)
    d_z2 *= cache.a2 > 0
    np.matmul(cache.a1.T, d_z2, out=grads.w2)
    np.add.reduce(d_z2, axis=0, out=grads.b2)
    d_z1 = np.matmul(d_z2, params.w2.T)
    d_z1 *= cache.a1 > 0
    np.matmul(cache.x.T, d_z1, out=grads.w1)
    np.add.reduce(d_z1, axis=0, out=grads.b1)
    return grads


def sgd_step(params, grads, lr):
    """Plain gradient descent on one encoder: theta <- theta - lr * g."""
    return EncoderParams(
        *[p - lr * g for p, g in zip(params.tensors(), grads.tensors())]
    )


def feature_augment(f, y, lam, rng):
    """(lam f + (1 - lam) f[perm], the same for y, perm) for a (B, .) batch."""
    perm = rng.permutation(f.shape[0])
    return lam * f + (1.0 - lam) * f[perm], lam * y + (1.0 - lam) * y[perm], perm


def minibatch_iter(mod, batch_size, rng):
    """One epoch of index batches; a final batch of one row joins the one before."""
    n = mod.num_samples
    perm = rng.permutation(n)
    batches = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and batches[-1].shape[0] < 2:
        tail = batches.pop()
        batches[-1] = np.concatenate([batches[-1], tail])
    return batches


def q_at(q_start, epochs, epoch):
    """Linear from q_start to 1 over a stage's epochs."""
    if epochs == 1:
        return 1.0
    return q_start + (1.0 - q_start) * (epoch / (epochs - 1))


def train_prior_for_modality(mod, w0, cfg, rng):
    """Returns (w, params, score) for one modality."""
    x = mod.features.astype(np.float64)
    y = one_hot(mod.labels, w0.shape[1])
    params = init_params(x.shape[1], cfg.hidden_dim, cfg.embed_dim, rng)
    w = w0.copy()
    for epoch in range(cfg.spl_epochs):
        q = q_at(cfg.q_start, cfg.spl_epochs, epoch)
        for idx in minibatch_iter(mod, cfg.batch_size, rng):
            f, cache = forward(params, x[idx])
            _, d_f, d_logits = label_loss(f, y[idx], w, q)
            grads = backward(params, cache, d_f)
            params = sgd_step(params, grads, cfg.lr)
            w = w - cfg.lr * (f.T @ d_logits)
    f_all, _ = forward(params, x)
    return w, params, quality_score(f_all, y, w)


def run_spl(dataset, cfg, seed):
    """Returns (PriorMatrix, scores, stage-one encoders by modality name)."""
    w0 = random_orthogonal(cfg.embed_dim, dataset.num_classes,
                           make_rng(split_seed(seed, "spl", "shared-w")))
    if cfg.skip_spl:
        return PriorMatrix(w=w0, l=pseudo_inverse(w0)), {}, {}
    candidates, scores, encoders = {}, {}, {}
    for mod in dataset.splits["train"]:
        rng = make_rng(split_seed(seed, "spl", mod.name))
        candidates[mod.name], encoders[mod.name], scores[mod.name] = \
            train_prior_for_modality(mod, w0, cfg, rng)
    best = select_prior(candidates, scores)
    prior = PriorMatrix(w=candidates[best], l=pseudo_inverse(candidates[best]),
                        score=scores[best], source_modality=best)
    return prior, scores, encoders


def train_rsc_for_modality(mod, prior, cfg, rng):
    """Returns (params, epochs) for one modality; epochs omit wall_seconds."""
    if cfg.use_transpose:
        prior = dataclasses.replace(prior, l=prior.w.T.copy())
    x = mod.features.astype(np.float64)
    y = one_hot(mod.labels, prior.num_classes)
    params = init_params(x.shape[1], cfg.hidden_dim, cfg.embed_dim, rng)
    epochs = []
    for epoch in range(cfg.rsc_epochs):
        q = cfg.fixed_q if cfg.fixed_q is not None else q_at(cfg.q_start, cfg.rsc_epochs, epoch)
        sums = {"label": 0.0, "disc": 0.0, "mse": 0.0, "total": 0.0, "gap": 0.0}
        n_seen = 0
        for idx in minibatch_iter(mod, cfg.batch_size, rng):
            x_b, y_b = x[idx], y[idx]
            if cfg.mixup == "off":
                f_t, cache = forward(params, x_b)
                y_t = y_b
            elif cfg.mixup == "input":
                f_mix, y_t, _ = feature_augment(x_b, y_b, cfg.mix_lambda, rng)
                f_t, cache = forward(params, f_mix)
            else:
                f, cache = forward(params, x_b)
                f_t, y_t, perm = feature_augment(f, y_b, cfg.mix_lambda, rng)
            value, d_ft, parts = total_loss(
                f_t, y_t, prior.w, y_t @ prior.l, q, cfg.alpha, cfg.beta,
                drop_label=cfg.drop_label, drop_disc=cfg.alpha == 0.0,
                drop_mse=cfg.beta == 0.0)
            if cfg.mixup != "embedding":
                d_f = d_ft
            else:
                d_f = cfg.mix_lambda * d_ft
                np.add.at(d_f, perm, (1.0 - cfg.mix_lambda) * d_ft)
            grads = backward(params, cache, d_f)
            params = sgd_step(params, grads, cfg.lr)
            b = len(idx)
            n_seen += b
            for key in ("label", "disc", "mse"):
                sums[key] += parts[key] * b
            sums["total"] += value * b
            gap = (f_t @ prior.w - y_t).ravel()
            sums["gap"] += float(gap.dot(gap))
        epochs.append({
            "epoch": epoch,
            "q": q,
            "label": sums["label"] / n_seen,
            "disc": sums["disc"] / n_seen,
            "mse": sums["mse"] / n_seen,
            "total": sums["total"] / n_seen,
            "recast_gap": math.sqrt(sums["gap"] / n_seen),
        })
    return params, epochs


def train_rsc_all(dataset, prior, cfg, seed):
    """Returns (encoders, epochs) keyed by modality name."""
    encoders, epochs = {}, {}
    for mod in dataset.splits["train"]:
        rng = make_rng(split_seed(seed, "rsc", mod.name))
        encoders[mod.name], epochs[mod.name] = train_rsc_for_modality(mod, prior, cfg, rng)
    return encoders, epochs
