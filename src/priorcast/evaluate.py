"""Retrieval evaluation: ranking, average precision, MAP tables, PR curves.

Relevance is class equality. Ranking is by cosine similarity with a
deterministic tie-break (ascending gallery index), so results are
bit-reproducible across runs.

Scoring needs only the relevance of each rank position, not which gallery
item holds it. So each block of query rows forms its own cosines and is
ordered by one value sort of the negated cosines with each item's relevance
in the lowest mantissa bit (_ranked_relevance). Only rows with two sorted
values less than _gap(d) apart (ties, +0.0 beside -0.0, near-equal cosines)
take the exact path, a stable argsort (_ranking) of the full product's
rows, formed at most once per pair (_full_cosines).
"""

from typing import Dict

import numpy as np

from .data import MultimodalDataset, atomic_open
from .encoder import EncoderParams, embed
from .errors import FormatError
from .numerics import block_rows, row_spans, unit_rows


def _ranking(neg: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """Per row, relevant in the order of a stable argsort of neg (ties by
    ascending column index): the exact path."""
    return np.take_along_axis(relevant, np.argsort(neg, axis=1, kind="stable"), axis=1)


def _gap(d: int) -> float:
    """Sorted neighbours closer than this may be tied, or out of order, in
    the full product once each value's lowest bit holds a relevance flag;
    d is the embedding width.

    A float64 dot product of two stored unit rows of width d, in any
    summation order and with or without FMA, lies within gamma_d, about
    d * 2 ** -53, of the exact one, so a block's cosine and the full
    product's differ by at most 2 * gamma_d; the relevance bit moves a value
    below magnitude 2 by at most 2 ** -52. Tagged block values at least
    4 * gamma_d + 2 ** -51, about (d + 1) * 2 ** -51, apart thus come from
    full-product values in the same order and untied. The gap is twice
    that, plus 2 ** -50 for second-order terms (the rows' norms are 1 only
    to within O(d * 2 ** -53)); at d = 0 it is 2 ** -49.
    """
    return (d + 2) * 2.0 ** -50


def _ranked_relevance(sims: np.ndarray, relevant: np.ndarray, gap: float):
    """Per row, relevant taken in the order of descending sims, as an int
    array of 0 and 1, and the indices of the rows it does not hold (near).
    Overwrites sims.

    The lowest bit of each negated similarity is replaced by its item's
    relevance, and one value sort orders each row. A row whose sorted
    neighbours are all at least gap apart has no ties, is ordered as the
    full product orders it (see _gap), and its low bits are its relevance
    in ranked order. The other rows are near, for the exact path.
    Similarities must be finite and of magnitude below 2, as cosines of
    unit rows are, so that gap spans several units in the last place.
    """
    ranked = np.negative(sims, out=sims)
    bits = ranked.view(np.int64)
    bits &= -2
    bits |= relevant
    ranked.sort(axis=1)
    near = np.min(ranked[:, 1:] - ranked[:, :-1], axis=1, initial=gap) < gap
    return bits & 1, np.flatnonzero(near)


def _full_cosines(uq: np.ndarray, ug: np.ndarray) -> np.ndarray:
    """The full product of the unit rows, whose bits the exact path ranks."""
    return uq @ ug.T


def rank_pair(queries: np.ndarray, query_labels: np.ndarray,
              gallery: np.ndarray, gallery_labels: np.ndarray,
              n_rank="all"):
    """Rank the gallery for every query and score each ranking.

    Similarity is the cosine over unit rows; ties are broken by ascending
    gallery index. Returns (aps, recall, precision). aps holds each query's
    AP over the top n_rank ("all", or a depth clamped to the gallery size) in
    query order; their mean is the MAP. A query's AP sums
    (relevant-in-top-k)/k over the relevant positions k of the window and
    divides by the number of relevant items there; with none it is 0. recall
    and precision hold the PR curve, one value per rank cutoff k = 1..n_g,
    averaged over queries: recall = retrieved-relevant / total-relevant,
    precision = retrieved-relevant / k. Queries with no relevant gallery
    item have no defined recall and are left out; FormatError if no query
    has one (MultimodalDataset.validate makes every two test splits share a
    class).

    Queries are ranked in blocks of rows with the bits of one stable argsort
    of the full cosine product and one AP per query. Each block forms its
    own cosines and gets one value sort that carries each item's relevance
    in the lowest bit, and only rows with near-tied similarities take the
    stable argsort (see _ranked_relevance). A block's PR rows join the sums
    in one axis-0 reduction. Both paths compare similarities, so they must
    be finite: load_manifest and read_tensor_file refuse non-finite
    features and tensors, and their float32 range keeps the float64 forward
    pass finite.
    """
    n_g = gallery.shape[0]
    depth = n_g if n_rank == "all" else min(n_rank, n_g)
    uq, ug = unit_rows(queries)[0], unit_rows(gallery)[0]
    # a block's gemm runs ~2x as fast on a C-ordered (d, n_g) operand as on
    # the transposed view, and its bits need only stay within _gap's bound
    ug_t = np.ascontiguousarray(ug.T)
    gap = _gap(uq.shape[1])
    full = None
    g_labels = np.asarray(gallery_labels)
    q_labels = np.asarray(query_labels)
    aps = np.zeros(len(queries))
    k = np.arange(1, n_g + 1, dtype=np.float64)
    recall_sum = np.zeros(n_g)
    precision_sum = np.zeros(n_g)
    count = 0
    # a query block's cosines and each other (rows, n_g) temporary stay
    # within the block budget
    spans = row_spans(len(queries), block_rows(n_g))
    block = np.empty((max(stop - start for start, stop in spans), n_g))
    for start, stop in spans:
        rows = slice(start, stop)
        relevant = g_labels == q_labels[rows, None]
        sims = np.matmul(uq[rows], ug_t, out=block[:len(relevant)])
        rel, near = _ranked_relevance(sims, relevant, gap)
        if near.size:
            if full is None:
                full = _full_cosines(uq, ug)
            rel[near] = _ranking(-full[start + near], relevant[near])
        # integer counts add faster than float64 ones and convert exactly
        cum = np.cumsum(rel, axis=1).astype(np.float64)
        precision = cum / k
        hits = cum[:, depth - 1]
        ap_sum = np.add.reduce(precision[:, :depth] * rel[:, :depth], axis=1)
        np.divide(ap_sum, hits, out=aps[rows], where=hits > 0)
        found = cum[:, -1] > 0
        # an axis-0 reduce adds the running sum and then each row in query
        # order, so the sums round as a per-query loop's
        recall = cum[found] / cum[found, -1:]
        recall_sum = np.add.reduce(np.concatenate((recall_sum[None], recall)), axis=0)
        precision_sum = np.add.reduce(np.concatenate((precision_sum[None], precision[found])),
                                      axis=0)
        count += len(recall)
    if not count:
        raise FormatError("no query has a relevant gallery item: the PR curve is undefined")
    return aps, recall_sum / count, precision_sum / count


def embed_split(encoders: Dict[str, EncoderParams], dataset: MultimodalDataset,
                split: str = "test"):
    """Per-modality (unit-row embeddings, labels) for one split, in modality order."""
    return {mod.name: (embed(encoders[mod.name], mod.features), mod.labels)
            for mod in dataset.splits[split]}


def table_from_embeddings(embedded: dict, n_rank="all"):
    """MAP for every ordered modality pair, plus the grand average.

    Returns (table, pr): pr maps each (query, gallery) pair to its
    (recall, precision) curve from the same ranking pass.
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
            aps, recall, precision = rank_pair(qe, ql, ge, gl, n_rank)
            pr[(a, b)] = recall, precision
            pairs.append({"query": a, "gallery": b, "map": float(np.mean(aps))})
    avg = float(np.mean([p["map"] for p in pairs]))
    label = "all" if n_rank == "all" else int(n_rank)
    return {"pairs": pairs, "avg": avg, "n_rank": label}, pr


def write_pr_csv(path, recall: np.ndarray, precision: np.ndarray) -> None:
    """One row per rank cutoff, numbered from 1."""
    rows = enumerate(zip(recall.tolist(), precision.tolist()), 1)
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,recall,precision\n"
                 + "".join(f"{r},{rec!r},{prec!r}\n" for r, (rec, prec) in rows))
