"""Retrieval evaluation: ranking, average precision, MAP tables, PR curves.

Relevance is class equality. Ranking is by cosine similarity with a
deterministic tie-break (ascending gallery index), so results are
bit-reproducible across runs and platforms.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .data import MultimodalDataset
from .encoder import EncoderParams, forward
from .numerics import unit_rows


@dataclass
class RetrievalResult:
    aps: np.ndarray  # per-query average precision, index order
    n_rank: int
    map: float


@dataclass
class PrCurve:
    rank: np.ndarray
    recall: np.ndarray
    precision: np.ndarray


def average_precision(relevance, n_rank: int) -> float:
    """AP over the top n_rank of an ordered 0/1 relevance list.

    Each relevant position k contributes (relevant-in-top-k)/k; the sum is
    divided by the number of relevant items in the window. No relevant items
    means AP = 0 by convention.
    """
    window = np.asarray(relevance[:n_rank], dtype=np.float64)
    cum = np.cumsum(window)
    total = cum[-1]
    if total == 0:
        return 0.0
    k = np.arange(1, n_rank + 1, dtype=np.float64)
    return float(np.sum((cum / k) * window) / total)


def rank_pair(queries: np.ndarray, query_labels: np.ndarray,
              gallery: np.ndarray, gallery_labels: np.ndarray,
              n_rank="all", curve: bool = False):
    """Rank the gallery once per query and score each ranking.

    Similarity is the cosine over unit rows; a stable argsort of its
    negation breaks ties by ascending gallery index. Returns (result, pr):
    result holds each query's AP over the top n_rank ("all", or a depth
    clamped to the gallery size) in query order, and their mean, the MAP.
    pr is None unless curve is set; then it is precision and recall at each
    rank cutoff k, averaged over queries: recall = retrieved-relevant /
    total-relevant, precision = retrieved-relevant / k. Queries with no
    relevant gallery item have no defined recall and are left out, so with
    curve set some query must have one: MultimodalDataset.validate makes
    every two test splits share a class.
    """
    n_g = gallery.shape[0]
    depth = n_g if n_rank == "all" else min(n_rank, n_g)
    sims = unit_rows(queries)[0] @ unit_rows(gallery)[0].T
    g_labels = np.asarray(gallery_labels)
    aps = np.empty(len(queries))
    k = np.arange(1, n_g + 1, dtype=np.float64)
    recall_sum = np.zeros(n_g)
    precision_sum = np.zeros(n_g)
    count = 0
    for i in range(len(queries)):
        order = np.argsort(-sims[i], kind="stable")
        rel = (g_labels[order] == query_labels[i]).astype(np.float64)
        aps[i] = average_precision(rel, depth)
        total = rel.sum()
        if not curve or total == 0:
            continue
        cum = np.cumsum(rel)
        recall_sum += cum / total
        precision_sum += cum / k
        count += 1
    result = RetrievalResult(aps=aps, n_rank=depth, map=float(np.mean(aps)))
    if not curve:
        return result, None
    return result, PrCurve(rank=np.arange(1, n_g + 1),
                           recall=recall_sum / count,
                           precision=precision_sum / count)


def embed_split(encoders: Dict[str, EncoderParams], dataset: MultimodalDataset,
                split: str = "test"):
    """Per-modality (unit-row embeddings, labels) for one split, in modality order."""
    out = {}
    for mod in dataset.splits[split]:
        out[mod.name] = (forward(encoders[mod.name], mod.features)[0], mod.labels)
    return out


def table_from_embeddings(embedded: dict, n_rank="all", curves: bool = False):
    """MAP for every ordered modality pair, plus the grand average.

    Returns (table, pr): with curves set, pr maps each (query, gallery)
    pair to its PR curve from the same ranking pass; otherwise it is empty.
    """
    names = list(embedded)
    pairs = []
    pr = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            qe, ql = embedded[a]
            ge, gl = embedded[b]
            result, curve = rank_pair(qe, ql, ge, gl, n_rank, curves)
            pairs.append({"query": a, "gallery": b, "map": result.map})
            if curves:
                pr[(a, b)] = curve
    avg = float(np.mean([p["map"] for p in pairs]))
    label = "all" if n_rank == "all" else int(n_rank)
    return {"pairs": pairs, "avg": avg, "n_rank": label}, pr


def write_pr_csv(path, curve: PrCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,recall,precision\n")
        for r, rec, prec in zip(curve.rank, curve.recall, curve.precision):
            fh.write(f"{int(r)},{float(rec)!r},{float(prec)!r}\n")
