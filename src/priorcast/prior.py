"""Stage one: learn candidate label-space transformations, keep the best.

Every modality trains its own encoder jointly with a transformation matrix
that starts from one shared random orthogonal initialization. After training,
each candidate gets a quality score on its training split; the highest-scoring
transformation becomes the shared prior for stage two, and its pseudo-inverse
is the recasting matrix. The stage-one encoders are throwaway. Modalities of
equal training-split size train in lockstep as one EncoderStack, each with
the result it would get alone; the epoch loop is encoder.train_stack, shared
with stage two, and its per-epoch records go into the report.
"""

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .config import RunConfig
from .data import (ModalityData, MultimodalDataset, lockstep_map, read_tensor_file,
                   write_tensor_file)
from .encoder import backward, embed, forward, train_stack
from .errors import FormatError
from .losses import label_loss, q_at, quality_score
from .numerics import make_rng, pseudo_inverse, random_orthogonal, split_seed


@dataclass
class PriorMatrix:
    """Selected transformation w (embed_dim x classes) and its recaster l."""

    w: np.ndarray
    l: np.ndarray
    score: Optional[float] = None
    source_modality: Optional[str] = None

    @property
    def embed_dim(self) -> int:
        return self.w.shape[0]

    @property
    def num_classes(self) -> int:
        return self.w.shape[1]


def train_prior_stack(mods, w0: np.ndarray, cfg: RunConfig, rngs):
    """Joint SGD over each modality's encoder and candidate transformation.

    The modalities must have equal training-split sizes; they train in
    lockstep as one EncoderStack, each from its own generator, and each
    result equals that of training the modality alone. Returns one
    (w, params, epochs) per modality, with train_stack's label-loss records.
    """
    def label_step(stack, x, y, q):
        f, cache = forward(stack, x)
        loss, d_f, d_logits, _ = label_loss(f, y, stack.extra, q, stack.workspace)
        np.matmul(f.swapaxes(-1, -2), d_logits, out=stack.extra_grad)
        backward(stack, cache, d_f)
        return loss[None] * y.shape[1]

    qs = [q_at(cfg.q_start, cfg.spl_epochs, epoch) for epoch in range(cfg.spl_epochs)]
    stack, epochs = train_stack("one", mods, cfg, rngs, w0.shape[1], qs, ("label",),
                                label_step, extra=np.stack([w0] * len(mods)))
    return list(zip(stack.extra, stack.members, epochs))


def _candidate_score(mod: ModalityData, w: np.ndarray, params) -> float:
    """quality_score of a trained candidate on the modality's full split."""
    # only the embeddings outlive embed's hidden activations, so
    # quality_score's temporaries can reuse their memory: on a large split
    # embed's two (N, H) arrays are the peak of the stage
    return quality_score(embed(params, mod.features), mod.labels, w)


def select_prior(candidates: Dict[str, np.ndarray], scores: Dict[str, float]) -> str:
    """Name of the best-scoring candidate; first-listed wins ties."""
    return max(candidates, key=scores.__getitem__)


def run_spl(dataset: MultimodalDataset, cfg: RunConfig, seed: int):
    """Learn and select the shared prior from the training split.

    With cfg.skip_spl the shared random orthogonal initialization is used
    directly (unscored). Each modality trains its own encoder from its own
    derived seed; modalities of equal training-split size train in lockstep.
    Returns (PriorMatrix, report): the report holds each candidate's score,
    the selected one, the runner_up (best of the others), the selected
    one's lead over it, and per modality train_stack's epoch records.
    """
    w0 = random_orthogonal(cfg.embed_dim, dataset.num_classes,
                           make_rng(split_seed(seed, "spl", "shared-w")))
    if cfg.skip_spl:
        return (PriorMatrix(w=w0, l=pseudo_inverse(w0)),
                {"scores": {}, "selected": None, "runner_up": None, "lead": None,
                 "epochs": 0, "seed": seed, "skipped": True, "modalities": []})

    mods = dataset.splits["train"]
    results = lockstep_map(mods, [make_rng(split_seed(seed, "spl", mod.name)) for mod in mods],
                           lambda members, rngs: train_prior_stack(members, w0, cfg, rngs))
    candidates, scores = {}, {}
    for mod, (w, params, _) in zip(mods, results):
        candidates[mod.name] = w
        scores[mod.name] = _candidate_score(mod, w, params)
    best = select_prior(candidates, scores)
    runner_up = select_prior({n: w for n, w in candidates.items() if n != best}, scores)
    prior = PriorMatrix(w=candidates[best], l=pseudo_inverse(candidates[best]),
                        score=scores[best], source_modality=best)
    return prior, {"scores": scores, "selected": best, "runner_up": runner_up,
                   "lead": scores[best] - scores[runner_up], "epochs": cfg.spl_epochs,
                   "seed": seed, "skipped": False,
                   "modalities": [{"name": m.name, "epochs": r[2]} for m, r in zip(mods, results)]}


def save_prior(path, prior: PriorMatrix) -> None:
    """One JSON header line, then the w and l tensors as feature blocks."""
    header = {
        "format": "PRIOR1",
        "embed_dim": prior.embed_dim,
        "num_classes": prior.num_classes,
        "score": prior.score,
        "source_modality": prior.source_modality,
    }
    write_tensor_file(path, header, (prior.w, prior.l))


def load_prior(path) -> PriorMatrix:
    header, (w, l) = read_tensor_file(path, 2)
    if header.get("format") != "PRIOR1":
        raise FormatError(f"{path} is not a prior file")
    d, c = header.get("embed_dim"), header.get("num_classes")
    if w.shape != (d, c) or l.shape != (c, d):
        raise FormatError(f"prior tensor shapes {w.shape}/{l.shape} do not match "
                          f"header ({d}, {c})")
    return PriorMatrix(w=w, l=l, score=header.get("score"),
                       source_modality=header.get("source_modality"))
