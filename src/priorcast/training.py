"""Stage two: per-modality encoder training against recast label targets.

Each modality trains a fresh encoder while the selected prior stays frozen.
Batches are mixed (embedding-space mixup by default), soft labels are recast
into the embedding space through the prior's recasting matrix, and the
encoder follows the combined objective from the losses module with plain SGD.
"""

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .config import RunConfig
from .data import ModalityData, MultimodalDataset, minibatch_iter
from .encoder import EncoderParams, backward, forward, init_params, sgd_step
from .losses import QSchedule, q_at, total_loss
from .numerics import make_rng, split_seed
from .prior import PriorMatrix, run_spl


@dataclass
class AugmentedBatch:
    f_mix: np.ndarray
    y_mix: np.ndarray
    perm: np.ndarray
    lam: float


def feature_augment(f: np.ndarray, y: np.ndarray, lam: float,
                    rng: np.random.Generator) -> AugmentedBatch:
    """Mix each row with a random partner row: lam*x_i + (1-lam)*x_pi(i).

    The same permutation and factor apply to features and labels, so mixed
    label rows stay nonnegative and sum to 1. lam=1 is the exact identity.
    """
    b = f.shape[0]
    if b < 2:
        raise ValueError(f"need at least 2 rows to mix, got {b}")
    if not 0 < lam <= 1:
        raise ValueError(f"mixing factor must be in (0, 1], got {lam}")
    if y.shape[0] != b:
        raise ValueError(f"feature rows {b} vs label rows {y.shape[0]}")
    perm = rng.permutation(b)
    f_mix = lam * f + (1.0 - lam) * f[perm]
    y_mix = lam * y + (1.0 - lam) * y[perm]
    return AugmentedBatch(f_mix=f_mix, y_mix=y_mix, perm=perm, lam=lam)


def recast_invariant(y_mix: np.ndarray, prior: PriorMatrix) -> np.ndarray:
    """Soft labels recast into the embedding space: T = Y L. Not normalized."""
    if y_mix.shape[1] != prior.num_classes:
        raise ValueError(f"labels have {y_mix.shape[1]} classes, "
                         f"prior has {prior.num_classes}")
    return y_mix @ prior.l


def _effective_prior(prior: PriorMatrix, cfg: RunConfig) -> PriorMatrix:
    # the transpose ablation swaps the recaster, not the classifier matrix
    if cfg.use_transpose:
        return dataclasses.replace(prior, l=prior.w.T.copy())
    return prior


def train_rsc_for_modality(mod: ModalityData, prior: PriorMatrix,
                           cfg: RunConfig, rng: np.random.Generator):
    """Train one encoder against the frozen prior.

    Returns (params, epochs) where epochs is a list of per-epoch records:
    loss components, q, the label-recast gap diagnostic, and wall-clock.
    """
    prior = _effective_prior(prior, cfg)
    x = mod.features
    y = mod.one_hot(prior.num_classes)
    params = init_params(x.shape[1], cfg.hidden_dim, cfg.embed_dim, rng)
    sched = None
    if cfg.fixed_q is None:
        sched = QSchedule(cfg.q_start, 1.0, cfg.rsc_epochs)
        sched.validate()
    epochs: List[dict] = []
    for epoch in range(cfg.rsc_epochs):
        t0 = time.perf_counter()
        q = cfg.fixed_q if sched is None else q_at(sched, epoch)
        sums = {"label": 0.0, "disc": 0.0, "mse": 0.0, "total": 0.0, "gap": 0.0}
        n_seen = 0
        for idx in minibatch_iter(mod, cfg.batch_size, rng):
            x_b, y_b = x[idx], y[idx]
            if cfg.fa_off:
                f_t, cache = forward(params, x_b)
                y_t = y_b
                aug = None
            elif cfg.fa_input_space:
                aug = feature_augment(x_b, y_b, cfg.mix_lambda, rng)
                f_t, cache = forward(params, aug.f_mix)
                y_t = aug.y_mix
            else:
                f, cache = forward(params, x_b)
                aug = feature_augment(f, y_b, cfg.mix_lambda, rng)
                f_t, y_t = aug.f_mix, aug.y_mix
            value, d_ft, parts = total_loss(
                f_t, y_t, prior.w, prior.l, q, cfg.alpha, cfg.beta,
                drop_label=cfg.drop_label, drop_disc=cfg.drop_disc,
                drop_mse=cfg.drop_mse)
            if cfg.fa_off or cfg.fa_input_space:
                d_f = d_ft
            else:
                # route the mixed-embedding gradient back to both branches
                d_f = aug.lam * d_ft
                np.add.at(d_f, aug.perm, (1.0 - aug.lam) * d_ft)
            grads = backward(params, cache, d_f)
            params = sgd_step(params, grads, cfg.lr)
            b = len(idx)
            n_seen += b
            for key in ("label", "disc", "mse"):
                sums[key] += parts[key] * b
            sums["total"] += value * b
            sums["gap"] += float(np.linalg.norm(f_t @ prior.w - y_t))
        rec = {
            "epoch": epoch,
            "q": q,
            "label": sums["label"] / n_seen,
            "disc": sums["disc"] / n_seen,
            "mse": sums["mse"] / n_seen,
            "total": sums["total"] / n_seen,
            "recast_gap": sums["gap"] / n_seen,
            "wall_seconds": time.perf_counter() - t0,
        }
        epochs.append(rec)
    return params, epochs


def train_all(dataset: MultimodalDataset, cfg: RunConfig, seed: int):
    """Full training: learn/select the prior, then one encoder per modality.

    Returns (prior, encoders, report).
    """
    prior, spl_report = run_spl(dataset, cfg, seed)
    encoders, report = train_rsc_all(dataset, prior, cfg, seed)
    report["spl"] = {
        "scores": spl_report.scores,
        "selected": spl_report.selected,
        "skipped": spl_report.skipped,
        "wall_seconds": spl_report.wall_seconds,
    }
    return prior, encoders, report


def train_rsc_all(dataset: MultimodalDataset, prior: PriorMatrix,
                  cfg: RunConfig, seed: int):
    """Stage two only, for all modalities, each from its own derived seed.

    Returns (encoders, report).
    """
    encoders: Dict[str, EncoderParams] = {}
    report = {"seed": seed, "modalities": []}
    for mod in dataset.splits["train"]:
        rng = make_rng(split_seed(seed, "rsc", mod.name))
        params, epochs = train_rsc_for_modality(mod, prior, cfg, rng)
        encoders[mod.name] = params
        report["modalities"].append({"name": mod.name, "epochs": epochs})
    return encoders, report
