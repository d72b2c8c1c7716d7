"""Stage two: per-modality encoder training against recast label targets.

Each modality trains a fresh encoder while the selected prior stays frozen.
Batches are mixed (embedding-space mixup by default), soft labels are recast
into the embedding space through the prior's recasting matrix, and the
encoders follow the combined objective from the losses module with plain
SGD. train_rsc_all hands its per-batch step to encoder.train_stack, the
training driver of both stages, which trains each modality from its own seed
(in lockstep with those of equal training-split size) with the result it
would get alone.
"""

import dataclasses
import math

import numpy as np

from .config import RunConfig
from .data import MultimodalDataset
from .encoder import backward, forward, train_stack
from .losses import q_at, total_loss
from .prior import PriorMatrix


def feature_augment(f, y: np.ndarray, lam: float, rng, ws):
    """Mix each row with a random partner row: lam*x_i + (1-lam)*x_pi(i).

    y is a (K, B, C) stack, f a (K, B, d) stack or a list of K (B, D_k)
    inputs, and rng a sequence of K generators: slice k mixes within itself
    by a permutation drawn from rng[k]. Returns (f_mix, y_mix, perm), f_mix
    a stack or a list as f is, where perm indexes the rows of y flattened
    to (K * B, .). The same permutation and factor apply to features and
    labels, so mixed label rows stay nonnegative and sum to 1. lam=1 is the
    identity up to the sign of zero (-0.0 may come back as +0.0). The
    results go into the Workspace ws. The caller guarantees B >= 2
    (numerics.row_spans on a split of at least two samples) and
    0 < lam <= 1 (RunConfig.validate).
    """
    b = y.shape[-2]
    # shuffling row k of the index grid draws what g.permutation(b) + k * b
    # draws, from the same stream
    perm = ws.get("mix_perm", b, dtype=np.intp)
    np.copyto(perm, np.arange(perm.size).reshape(perm.shape))
    for row, g in zip(perm, rng):
        g.shuffle(row)
    if isinstance(f, list):
        # row k of perm indexes input k's B rows modulo B
        f_mix = [_mix(x, row, lam, ws, ("x_mix", k)) for k, (x, row) in enumerate(zip(f, perm))]
    else:
        f_mix = _mix(f, perm, lam, ws, "f_mix")
    return f_mix, _mix(y, perm, lam, ws, "y_mix"), perm


def _mix(a, perm, lam, ws, name):
    """lam * a + (1 - lam) * a's rows at perm modulo its row count, in ws's `name`."""
    *lead, b, width = a.shape
    partner = a.reshape(-1, width).take(perm, axis=0, mode="wrap",
                                        out=ws.get(("partner", name), b, width, lead=lead))
    partner *= 1.0 - lam
    out = np.multiply(a, lam, out=ws.get(name, b, width, lead=lead))
    out += partner
    return out


def recast_invariant(y_mix: np.ndarray, prior: PriorMatrix, out=None) -> np.ndarray:
    """Soft labels recast into the embedding space: T = Y L. Not normalized."""
    return np.matmul(y_mix, prior.l, out=out)


def train_rsc_all(dataset: MultimodalDataset, prior: PriorMatrix,
                  cfg: RunConfig, seed: int):
    """Stage two: train one encoder per modality against the frozen prior,
    each from its own derived seed (encoder.train_stack).

    Returns (encoders, report). Each modality's report entry holds per-epoch
    records: loss components, q, the label-recast gap diagnostic (the root
    mean square over the epoch's samples of the row norm of f W - Y), and
    its stack's wall-clock for the epoch.
    """
    if cfg.use_transpose:
        # the transpose ablation swaps the recaster, not the classifier matrix
        prior = dataclasses.replace(prior, l=prior.w.T.copy())

    def rsc_step(stack, x_b, y_b, q, rngs, out):
        # out: label, disc, mse and total (each * b), gap^2
        ws = stack.workspace
        b = y_b.shape[1]
        if cfg.mixup == "input":
            x_b, y_b, _ = feature_augment(x_b, y_b, cfg.mix_lambda, rngs, ws)
        f_t, cache = forward(stack, x_b)
        y_t = y_b
        if cfg.mixup == "embedding":
            f_t, y_t, perm = feature_augment(f_t, y_b, cfg.mix_lambda, rngs, ws)
        t = recast_invariant(y_t, prior, out=ws.get("recast", b, cfg.embed_dim))
        terms, d_ft, logits = total_loss(
            f_t, y_t, prior.w, t, q, cfg.alpha, cfg.beta, drop_label=cfg.drop_label, ws=ws)
        if cfg.mixup == "embedding":
            # route the mixed-embedding gradient back to both branches;
            # perm is a permutation, so each row receives one addition
            d_f = np.multiply(d_ft, cfg.mix_lambda, out=ws.get("routed", b, cfg.embed_dim))
            d_ft *= 1.0 - cfg.mix_lambda
            d_f.reshape(-1, cfg.embed_dim)[perm] += d_ft
        else:
            d_f = d_ft
        backward(stack, cache, d_f)
        np.multiply(terms, b, out=out[:4])
        # the sum of squared row norms of each (B, C) slice of f W - Y
        gap = np.subtract(logits, y_t, out=logits)
        out[4] = [r.dot(r) for r in gap.reshape(out.shape[1], -1)]

    mods = dataset.splits["train"]
    qs = ([cfg.fixed_q] * cfg.rsc_epochs if cfg.fixed_q is not None else
          [q_at(cfg.q_start, cfg.rsc_epochs, epoch) for epoch in range(cfg.rsc_epochs)])
    results = train_stack("two", mods, cfg, seed, "rsc", prior.num_classes, qs,
                          ("label", "disc", "mse", "total", "recast_gap"), rsc_step)
    for _, _, records in results:
        for record in records:
            # the epoch's mean squared row norm, to the root mean square
            record["recast_gap"] = math.sqrt(record["recast_gap"])
    return ({mod.name: params for mod, (params, _, _) in zip(mods, results)},
            {"seed": seed, "modalities": [{"name": mod.name, "epochs": records}
                                          for mod, (_, _, records) in zip(mods, results)]})
