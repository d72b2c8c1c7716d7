"""Block ranking against the per-query reference, bit for bit.

rank_pair ranks a block of queries with one unstable argsort and re-sorts
only the rows with tied similarities; reference_ranking ranks one query at a
time with a stable argsort. APs, MAP, recall and precision must agree in
every bit: on query counts around the block height, on tie-heavy and
all-zero rows, with ties across the n_rank cutoff and with queries that have
no relevant gallery item.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ranking as ref
from priorcast import evaluate
from priorcast.numerics import make_rng, unit_rows


def _assert_same_bits(args, n_rank, curve):
    """curve: compare the PR curves too, which needs a query with a relevant item."""
    got, got_pr = evaluate.rank_pair(*args, n_rank=n_rank)
    want, want_pr = ref.rank_pair(*args, n_rank=n_rank, curve=curve)
    assert got.n_rank == want.n_rank
    assert got.aps.tobytes() == want.aps.tobytes()
    assert np.float64(got.map).tobytes() == np.float64(want.map).tobytes()
    if curve:
        assert np.array_equal(got_pr.rank, want_pr.rank)
        assert got_pr.recall.tobytes() == want_pr.recall.tobytes()
        assert got_pr.precision.tobytes() == want_pr.precision.tobytes()


def _embeddings(kind, n, rng):
    if kind == "gaussian":
        return rng.standard_normal((n, 4))
    if kind == "rounded":  # few distinct directions: most rows tie somewhere
        return np.round(rng.standard_normal((n, 2)), 1)
    x = rng.standard_normal((n, 3))  # "zero-rows": their cosine with all is 0
    x[::3] = 0.0
    return x


def _case(kind, n_q, n_g, seed):
    rng = make_rng(seed)
    queries, gallery = _embeddings(kind, n_q, rng), _embeddings(kind, n_g, rng)
    # class 3 is in no gallery: those queries have no relevant item; query 0
    # has one, so the PR curve is defined
    q_labels = rng.integers(0, 4, n_q)
    q_labels[0] = 0
    g_labels = rng.integers(0, 3, n_g)
    g_labels[0] = 0
    return queries, q_labels, gallery, g_labels


def _height(n_g):
    return max(1, evaluate._BLOCK_BYTES // (8 * n_g))


COUNTS = {"one": lambda h: 1, "block-1": lambda h: h - 1, "block": lambda h: h,
          "block+1": lambda h: h + 1}


@pytest.mark.parametrize("n_rank", ["all", 1, 5])
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("kind", ["gaussian", "rounded", "zero-rows"])
@pytest.mark.parametrize("n_g", [40, 700])
def test_blocks_match_per_query_reference(n_g, kind, count, n_rank):
    n_q = max(1, COUNTS[count](_height(n_g)))
    args = _case(kind, n_q, n_g, seed=n_g + n_q)
    _assert_same_bits(args, n_rank, curve=True)


@pytest.mark.parametrize("n_rank", [3, 4, 6, 10])
def test_ties_across_the_cutoff(n_rank):
    # every query sees runs of 4 gallery items with equal cosine, so the
    # cutoff at n_rank falls inside a run unless n_rank is a multiple of 4
    queries = make_rng(5).standard_normal((9, 2))
    directions = make_rng(6).standard_normal((5, 2))
    # scaling by a power of two leaves the unit row's bits as they were
    gallery = np.repeat(directions, 4, axis=0) * np.tile([1.0, 2.0, 0.5, 4.0], 5)[:, None]
    g_labels = np.tile([0, 1, 1, 0], 5)
    q_labels = np.arange(9) % 3  # class 2: no relevant item
    sims = np.sort(-(unit_rows(queries)[0] @ unit_rows(gallery)[0].T), axis=1)
    assert (n_rank % 4 == 0) or np.all(sims[:, n_rank - 1] == sims[:, n_rank])
    _assert_same_bits((queries, q_labels, gallery, g_labels), n_rank, curve=True)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_small_blocks_match_per_query_reference(data):
    """Integer-valued embeddings (many ties and zero rows), any block height."""
    n_q = data.draw(st.integers(1, 30))
    n_g = data.draw(st.integers(1, 40))
    dim = data.draw(st.integers(1, 3))
    values = st.integers(-2, 2)
    queries = np.array(data.draw(st.lists(values, min_size=n_q * dim, max_size=n_q * dim)),
                       dtype=np.float64).reshape(n_q, dim)
    gallery = np.array(data.draw(st.lists(values, min_size=n_g * dim, max_size=n_g * dim)),
                       dtype=np.float64).reshape(n_g, dim)
    q_labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_q, max_size=n_q)))
    g_labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n_g, max_size=n_g)))
    n_rank = data.draw(st.one_of(st.just("all"), st.integers(1, 50)))
    height = data.draw(st.integers(1, 8))
    curve = bool(np.isin(q_labels, g_labels).any())
    with mock.patch.object(evaluate, "_BLOCK_BYTES", 8 * n_g * height):
        _assert_same_bits((queries, q_labels, gallery, g_labels), n_rank, curve)
