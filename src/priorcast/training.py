"""Stage two: per-modality encoder training against recast label targets.

Each modality trains a fresh encoder while the selected prior stays frozen.
Batches are mixed (embedding-space mixup by default), soft labels are recast
into the embedding space through the prior's recasting matrix, and the
encoders follow the combined objective from the losses module with plain
SGD. Modalities of equal training-split size train in lockstep as one
EncoderStack, and a modality whose size no other shares as a stack of one;
each gets the result it would get alone. The epoch loop is
encoder.train_stack, shared with stage one.
"""

import dataclasses
import math

import numpy as np

from .config import RunConfig
from .data import MultimodalDataset, lockstep_map, max_batch_rows
from .encoder import backward, forward, train_stack
from .losses import q_at, total_loss
from .numerics import Workspace, make_rng, split_seed
from .prior import PriorMatrix


def feature_augment(f: np.ndarray, y: np.ndarray, lam: float, rng, ws):
    """Mix each row with a random partner row: lam*x_i + (1-lam)*x_pi(i).

    f and y are (K, B, .) stacks and rng is a sequence of K generators:
    slice k mixes within itself by a permutation drawn from rng[k]. Returns
    (f_mix, y_mix, perm), where perm indexes the rows of f flattened to
    (K * B, .). The same permutation and factor apply to features and
    labels, so mixed label rows stay nonnegative and sum to 1. lam=1 is the
    exact identity. The results go into the Workspace ws. The caller
    guarantees B >= 2 (minibatch_iter on a split of at least two samples)
    and 0 < lam <= 1 (RunConfig.validate).
    """
    b = f.shape[-2]
    # shuffling row k of the index grid draws what g.permutation(b) + k * b
    # draws, from the same stream
    perm = ws.get("mix_perm", b, dtype=np.intp)
    np.copyto(perm, np.arange(perm.size).reshape(perm.shape))
    for row, g in zip(perm, rng):
        g.shuffle(row)
    return _mix(f, perm, lam, ws, "f"), _mix(y, perm, lam, ws, "y"), perm


def _mix(a, perm, lam, ws, name):
    """lam * a + (1 - lam) * a's rows at perm, in ws's `name`_mix buffer."""
    b, width = a.shape[-2:]
    partner = a.reshape(-1, width).take(perm, axis=0, mode="clip",
                                        out=ws.get(name + "_partner", b, width))
    partner *= 1.0 - lam
    out = np.multiply(a, lam, out=ws.get(name + "_mix", b, width))
    out += partner
    return out


def recast_invariant(y_mix: np.ndarray, prior: PriorMatrix, out=None) -> np.ndarray:
    """Soft labels recast into the embedding space: T = Y L. Not normalized."""
    return np.matmul(y_mix, prior.l, out=out)


def train_rsc_stack(mods, prior: PriorMatrix, cfg: RunConfig, rngs):
    """Train one encoder per modality against the frozen prior.

    The modalities must have equal training-split sizes; they train in
    lockstep as one EncoderStack, each from its own generator, and each
    result equals that of training the modality alone. Returns one
    (params, epochs) per modality, where epochs is a list of per-epoch
    records: loss components, q, the label-recast gap diagnostic (the root
    mean square over the epoch's samples of the row norm of f W - Y), and
    the stack's wall-clock for the epoch.
    """
    if cfg.use_transpose:
        # the transpose ablation swaps the recaster, not the classifier matrix
        prior = dataclasses.replace(prior, l=prior.w.T.copy())
    mix_embeddings = not (cfg.fa_off or cfg.fa_input_space)
    if cfg.fa_input_space:
        # input widths differ within a stack: each modality mixes as a stack of one
        input_ws = [Workspace((1,), max_batch_rows(mods[0], cfg.batch_size)) for _ in mods]
    step_sums = np.empty((5, len(mods)))  # label, disc, mse and total (each * b), gap^2

    def rsc_step(stack, x_b, y_b, q):
        ws = stack.workspace
        b = y_b.shape[1]
        if cfg.fa_input_space:
            x_mix, y_mix, _ = zip(*(feature_augment(x[None], y[None], cfg.mix_lambda, [rng], ws_k)
                                    for x, y, rng, ws_k in zip(x_b, y_b, rngs, input_ws)))
            x_b = [x[0] for x in x_mix]
            y_b = np.concatenate(y_mix, out=ws.get("input_y_mix", b, prior.num_classes))
        f_t, cache = forward(stack, x_b)
        y_t = y_b
        if mix_embeddings:
            f_t, y_t, perm = feature_augment(f_t, y_b, cfg.mix_lambda, rngs, ws)
        t = recast_invariant(y_t, prior, out=ws.get("recast", b, cfg.embed_dim))
        terms, d_ft, logits = total_loss(
            f_t, y_t, prior.w, t, q, cfg.alpha, cfg.beta, drop_label=cfg.drop_label,
            drop_disc=cfg.drop_disc, drop_mse=cfg.drop_mse, ws=ws)
        if mix_embeddings:
            # route the mixed-embedding gradient back to both branches;
            # perm is a permutation, so each row receives one addition
            d_f = np.multiply(d_ft, cfg.mix_lambda, out=ws.get("routed", b, cfg.embed_dim))
            d_ft *= 1.0 - cfg.mix_lambda
            d_f.reshape(-1, cfg.embed_dim)[perm] += d_ft
        else:
            d_f = d_ft
        backward(stack, cache, d_f)
        np.multiply(terms, b, out=step_sums[:4])
        # the sum of squared row norms of each (B, C) slice of f W - Y
        gap = np.subtract(logits, y_t, out=logits)
        step_sums[4] = [r.dot(r) for r in gap.reshape(len(mods), -1)]
        return step_sums

    qs = ([cfg.fixed_q] * cfg.rsc_epochs if cfg.fixed_q is not None else
          [q_at(cfg.q_start, cfg.rsc_epochs, epoch) for epoch in range(cfg.rsc_epochs)])
    stack, epochs = train_stack("two", mods, cfg, rngs, prior.num_classes, qs,
                                ("label", "disc", "mse", "total", "recast_gap"), rsc_step)
    for records in epochs:
        for record in records:
            # the epoch's mean squared row norm, to the root mean square
            record["recast_gap"] = math.sqrt(record["recast_gap"])
    return list(zip(stack.members, epochs))


def train_rsc_all(dataset: MultimodalDataset, prior: PriorMatrix,
                  cfg: RunConfig, seed: int):
    """Stage two only, for all modalities, each from its own derived seed;
    modalities of equal training-split size train in lockstep.

    Returns (encoders, report).
    """
    mods = dataset.splits["train"]
    results = lockstep_map(mods, [make_rng(split_seed(seed, "rsc", mod.name)) for mod in mods],
                           lambda members, rngs: train_rsc_stack(members, prior, cfg, rngs))
    return ({mod.name: params for mod, (params, _) in zip(mods, results)},
            {"seed": seed, "modalities": [{"name": mod.name, "epochs": epochs}
                                          for mod, (_, epochs) in zip(mods, results)]})
