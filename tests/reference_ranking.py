"""Per-query reference for retrieval ranking.

One stable argsort of the negated cosines per query (ties by ascending
gallery index), one average_precision call per query and the PR sums added
query by query. priorcast.evaluate.rank_pair ranks blocks of queries at once
and must reproduce these results bit for bit. The unit rows come from the
frozen copy in reference_losses, not from priorcast.
"""

import numpy as np

from reference_losses import unit_rows


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


def rank_pair(queries, query_labels, gallery, gallery_labels, n_rank="all", curve=False):
    """Same contract as priorcast.evaluate.rank_pair, one query at a time:
    returns (aps, recall, precision); recall and precision are None unless
    curve is set."""
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
    if not curve:
        return aps, None, None
    return aps, recall_sum / count, precision_sum / count
