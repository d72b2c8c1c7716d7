"""Retrieval evaluation: ranking, average precision, MAP tables, PR curves.

Relevance is class equality. Ranking is by cosine similarity with a
deterministic tie-break (ascending gallery index), so results are
bit-reproducible across runs.

Scoring needs only the relevance of each rank position, not which gallery
item holds it. So each block of query rows is ordered by one value sort of
the negated cosines with each item's relevance in the lowest mantissa bit
(_ranked_relevance); only rows whose sorted values come within a few units
in the last place of each other (ties, +0.0 beside -0.0, near-equal
cosines) take the exact argsort path (_ranking).
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .data import MultimodalDataset, atomic_open
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


# Sets the height of a query block: each of its (rows, gallery) float64
# temporaries stays near this many bytes whatever the gallery size.
_BLOCK_BYTES = 1 << 18


def _ranking(neg: np.ndarray) -> np.ndarray:
    """Per-row argsort of neg with ties broken by ascending column index, the
    order a stable argsort gives, for finite values.

    This is the exact path of _ranked_relevance: it sees only the rows whose
    value sort came within _NEAR units of a tie. One default (SIMD,
    unstable) argsort orders them; it differs from the stable order only
    within runs of equal values. Rows that have such a run get one integer
    sort of (run number, index) keys, which puts each run's indices in
    ascending order.
    """
    rows, n = neg.shape
    order = np.argsort(neg, axis=1)
    ranked = neg.take(order + np.arange(0, rows * n, n)[:, None])
    steps = ranked[:, 1:] != ranked[:, :-1]
    tied = ~steps.all(axis=1)
    if tied.any():
        run = np.zeros((np.count_nonzero(tied), n), dtype=np.intp)
        np.cumsum(steps[tied], axis=1, out=run[:, 1:])
        keys = run * n + order[tied]
        keys.sort(axis=1)
        order[tied] = keys % n
    return order


# Maps a float64 bit pattern b to an int64 that orders as the float does
# (b ^ ((b >> 63) & _MAGNITUDE)); -0.0 and +0.0 land one unit apart.
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
# Sorted neighbours closer than this many units may be tied, or out of
# order, once each value's lowest bit holds a relevance flag.
_NEAR = 5


def _ranked_relevance(sims: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """Per row, relevant taken in the order of descending sims with ties by
    ascending column index; an int array of 0 and 1.

    The lowest bit of each negated similarity is replaced by its item's
    relevance, and one value sort orders each row. The bit moves a value by
    at most one unit of its order-preserving integer, so a row whose sorted
    neighbours are all at least _NEAR units apart has no ties, its order is
    exactly that of the unmodified similarities, and the low bits are its
    relevance in ranked order. The other rows (ties, +0.0 beside -0.0,
    values a few ulps apart) take the exact path, _ranking. Similarities
    must be finite and of magnitude below 2, as cosines of unit rows are, so
    the differences of their integers cannot overflow.
    """
    ranked = np.negative(sims)
    bits = ranked.view(np.int64)
    bits &= -2
    bits |= relevant
    ranked.sort(axis=1)
    key = bits >> 63
    key &= _MAGNITUDE
    key ^= bits
    near = np.min(key[:, 1:] - key[:, :-1], axis=1, initial=_NEAR) < _NEAR
    rel = bits & 1
    if near.any():
        exact = np.flatnonzero(near)
        rel[exact] = np.take_along_axis(relevant[exact], _ranking(-sims[exact]), axis=1)
    return rel


def rank_pair(queries: np.ndarray, query_labels: np.ndarray,
              gallery: np.ndarray, gallery_labels: np.ndarray,
              n_rank="all"):
    """Rank the gallery for every query and score each ranking.

    Similarity is the cosine over unit rows; ties are broken by ascending
    gallery index. Returns (result, pr): result holds each query's AP over
    the top n_rank ("all", or a depth clamped to the gallery size) in query
    order, and their mean, the MAP. A query's AP sums (relevant-in-top-k)/k
    over the relevant positions k of the window and divides by the number of
    relevant items there; with none it is 0. pr holds precision and recall
    at each rank cutoff k, averaged over queries: recall = retrieved-relevant
    / total-relevant, precision = retrieved-relevant / k. Queries with no
    relevant gallery item have no defined recall and are left out, so some
    query must have one: MultimodalDataset.validate makes every two test
    splits share a class.

    Queries are ranked in blocks of rows with the bits of one stable argsort
    and one AP per query. Each block gets one value sort that carries each
    item's relevance in the lowest bit, and only rows with near-tied
    similarities take the exact argsort path (see _ranked_relevance). Both
    paths compare similarities, so they must be finite: load_manifest and
    read_tensor_file refuse non-finite features and tensors, and their
    float32 range keeps the float64 forward pass finite.
    """
    n_g = gallery.shape[0]
    depth = n_g if n_rank == "all" else min(n_rank, n_g)
    sims = unit_rows(queries)[0] @ unit_rows(gallery)[0].T
    g_labels = np.asarray(gallery_labels)
    q_labels = np.asarray(query_labels)
    aps = np.zeros(len(queries))
    k = np.arange(1, n_g + 1, dtype=np.float64)
    recall_sum = np.zeros(n_g)
    precision_sum = np.zeros(n_g)
    count = 0
    height = max(1, _BLOCK_BYTES // (8 * n_g))
    for start in range(0, len(queries), height):
        rows = slice(start, start + height)
        rel = _ranked_relevance(sims[rows], g_labels == q_labels[rows, None])
        # integer counts add faster than float64 ones and convert exactly
        cum = np.cumsum(rel, axis=1).astype(np.float64)
        precision = cum / k
        hits = cum[:, depth - 1]
        ap_sum = np.add.reduce(precision[:, :depth] * rel[:, :depth], axis=1)
        np.divide(ap_sum, hits, out=aps[rows], where=hits > 0)
        found = np.flatnonzero(cum[:, -1])
        recall = cum[found] / cum[found, -1:]
        # row by row, in query order, so the sums round as a per-query loop's
        for r, i in enumerate(found):
            recall_sum += recall[r]
            precision_sum += precision[i]
        count += len(found)
    result = RetrievalResult(aps=aps, n_rank=depth, map=float(np.mean(aps)))
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


def table_from_embeddings(embedded: dict, n_rank="all"):
    """MAP for every ordered modality pair, plus the grand average.

    Returns (table, pr): pr maps each (query, gallery) pair to its PR curve
    from the same ranking pass.
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
            result, pr[(a, b)] = rank_pair(qe, ql, ge, gl, n_rank)
            pairs.append({"query": a, "gallery": b, "map": result.map})
    avg = float(np.mean([p["map"] for p in pairs]))
    label = "all" if n_rank == "all" else int(n_rank)
    return {"pairs": pairs, "avg": avg, "n_rank": label}, pr


def write_pr_csv(path, curve: PrCurve) -> None:
    rows = zip(curve.rank.tolist(), curve.recall.tolist(), curve.precision.tolist())
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,recall,precision\n"
                 + "".join(f"{r},{rec!r},{prec!r}\n" for r, rec, prec in rows))
