"""Frozen numpy-only copy of the synthetic dataset generator.

synth_generate here is priorcast.data.synth_generate as it generated each
modality one class at a time: a tiled class center plus a fresh noise
block per class, the classes concatenated, the whole modality rounded
through float32, then each split gathered class by class and concatenated.
It does not validate the config, and it raises OverflowError where
priorcast refuses the config. test_data.py compares priorcast's generator
with it bit for bit. From priorcast it takes only the seeding helpers
(test_surface.py holds the list).
"""

import numpy as np

from priorcast.numerics import make_rng, split_seed

SPLIT_NAMES = ("train", "val", "test")


def _split_counts(n):
    n_val = max(1, n // 10)
    n_test = max(1, n // 10)
    return n - n_val - n_test, n_val, n_test


@np.errstate(over="ignore", invalid="ignore")
def synth_generate(cfg):
    """{split: [(features, labels) per modality]} for a valid SynthConfig."""
    latent_dim = max(cfg.feature_dims)
    rng_centers = make_rng(split_seed(cfg.seed, "centers"))
    centers = rng_centers.standard_normal((cfg.num_classes, latent_dim))
    dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    min_dist = dists[~np.eye(cfg.num_classes, dtype=bool)].min()
    if min_dist < cfg.separation:
        centers *= cfg.separation / min_dist

    n = cfg.samples_per_class
    n_train, n_val, n_test = _split_counts(n)
    splits = {name: [] for name in SPLIT_NAMES}
    for k in range(cfg.num_modalities):
        dim = cfg.feature_dims[k]
        rng_map = make_rng(split_seed(cfg.seed, "map", k))
        lin_map = rng_map.standard_normal((latent_dim, dim)) / np.sqrt(latent_dim)
        rng_noise = make_rng(split_seed(cfg.seed, "noise", k))
        feats = []
        labels = []
        for c in range(cfg.num_classes):
            base = centers[c] @ lin_map
            block = np.tile(base, (n, 1))
            if cfg.noise[k] > 0:
                block = block + cfg.noise[k] * rng_noise.standard_normal((n, dim))
            feats.append(block)
            labels.append(np.full(n, c, dtype=np.int64))
        feats = np.concatenate(feats)
        labels = np.concatenate(labels)
        if not np.abs(feats).max() <= np.finfo(np.float32).max:
            raise OverflowError(f"modality {k} features overflow float32")
        feats = feats.astype(np.float32).astype(np.float64)

        parts = {name: ([], []) for name in SPLIT_NAMES}
        for c in range(cfg.num_classes):
            idx = np.flatnonzero(labels == c)
            cuts = {
                "train": idx[:n_train],
                "val": idx[n_train : n_train + n_val],
                "test": idx[n_train + n_val :],
            }
            for name, rows in cuts.items():
                parts[name][0].append(feats[rows])
                parts[name][1].append(labels[rows])
        for name in SPLIT_NAMES:
            splits[name].append((np.concatenate(parts[name][0]),
                                 np.concatenate(parts[name][1])))
    return splits
