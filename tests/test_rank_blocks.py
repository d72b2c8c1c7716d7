"""Block ranking against the per-query reference, bit for bit.

rank_pair forms each block's cosines with its own matmul and orders the
block with one value sort of the negated cosines, each carrying its item's
relevance in the lowest mantissa bit. Only the rows with two sorted values
less than _gap(d) = (d + 2) * 2 ** -50 apart go to the exact path, _ranking
(one stable argsort of those rows of the full product, which rank_pair
forms at most once per pair, with _full_cosines). reference_ranking ranks
one query at a time with a stable argsort of the full product. APs, recall
and precision must agree in every bit: on query counts around the block
height, on tie-heavy, mostly identical and all-zero rows, with ties across
the n_rank cutoff, with queries that have no relevant gallery item, at the
near-tie boundary (galleries of a few directions nudged by 0-5 ulps per
coordinate, +0.0 and -0.0 cosines, cosines a few subnormal steps either
side of 0, and pairs 0-20 units in the last place apart on either side of
_gap(0) = 2 ** -49), and where the block cosines' bits differ from the
full product's. Spies on _ranking and _full_cosines check that untied rows
stay on the value-sort path and form no full product, and that tied blocks
share one.
"""

import tracemalloc
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
    got = evaluate.rank_pair(*args, n_rank=n_rank)
    want = ref.rank_pair(*args, n_rank=n_rank, curve=curve)
    for got_part, want_part in zip(got, want if curve else want[:1]):
        assert got_part.tobytes() == want_part.tobytes()


def _nudged(x, rng):
    """x with each coordinate moved 0 to 5 ulps away from zero (+0.0 and -0.0
    become subnormals of their sign)."""
    return (x.view(np.int64) + rng.integers(0, 6, x.shape)).view(np.float64)


def _embeddings(kind, n, rng):
    if kind == "gaussian":
        return rng.standard_normal((n, 4))
    if kind == "rounded":  # few distinct directions: most rows tie somewhere
        return np.round(rng.standard_normal((n, 2)), 1)
    if kind == "nudged":  # three directions, a few ulps off: equal and near cosines
        return _nudged(make_rng(9).standard_normal((3, 3))[rng.integers(0, 3, n)], rng)
    if kind == "collapsed":  # mostly one row: long runs of equal cosines
        x = np.repeat(rng.standard_normal((1, 3)), n, axis=0)
        x[::5] = rng.standard_normal((len(x[::5]), 3))
        return x
    if kind == "straddle":
        # rows (s, 1), s a few subnormal steps either side of 0: their cosine
        # with the rows (1, 0) and (-1, 0) is s or -s
        x = np.ones((n, 2))
        x[:, 0] = np.arange(-5, 6)[rng.integers(0, 11, n)] * 5e-324
        x[::4] = [1.0, 0.0]
        x[2::4] = [-1.0, 0.0]
        return x
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
@pytest.mark.parametrize("kind", ["gaussian", "rounded", "collapsed", "zero-rows", "nudged",
                                  "straddle"])
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


@settings(max_examples=200)
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


@settings(max_examples=200)
@given(st.data())
def test_ulp_perturbed_galleries_match_per_query_reference(data):
    """Rows drawn from a few directions whose coordinates include +-0.0, +-1
    and subnormals, each coordinate nudged by 0-5 ulps; any block height."""
    dim = data.draw(st.integers(1, 3))
    n_dirs = data.draw(st.integers(1, 3))
    coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                       st.floats(-2.0, 2.0, allow_subnormal=False))
    directions = np.array(data.draw(st.lists(coords, min_size=n_dirs * dim,
                                             max_size=n_dirs * dim))).reshape(n_dirs, dim)
    rng = make_rng(data.draw(st.integers(0, 2**16)))
    n_q = data.draw(st.integers(1, 12))
    n_g = data.draw(st.integers(1, 40))
    queries = _nudged(directions[rng.integers(0, n_dirs, n_q)], rng)
    gallery = _nudged(directions[rng.integers(0, n_dirs, n_g)], rng)
    q_labels = rng.integers(0, 3, n_q)
    g_labels = rng.integers(0, 2, n_g)
    q_labels[0] = g_labels[0] = 0
    n_rank = data.draw(st.one_of(st.just("all"), st.integers(1, 50)))
    height = data.draw(st.integers(1, 8))
    with mock.patch.object(evaluate, "_BLOCK_BYTES", 8 * n_g * height):
        _assert_same_bits((queries, q_labels, gallery, g_labels), n_rank, curve=True)


def _pairs_k_units_apart(rng):
    """Rows of 30 well-separated values but for one pair k = 0..20 units in
    the last place apart, in [1, 2) and in [0.5, 1), with the pair's
    relevance bits set both ways and its larger value in either column.
    _gap(0) = 2 ** -49 is 8 units of [1, 2) and 16 of [0.5, 1), so the rows
    fall on both sides of it."""
    rows, relevance = [], []
    for base in (1.5, 0.75):
        for k in range(21):
            pair = (np.array([base, base]).view(np.int64) + [0, k]).view(np.float64)
            for flags in ((True, False), (False, True)):
                for order in (pair, pair[::-1]):
                    row = rng.permutation(np.linspace(-1.0, 1.0, 30))
                    row[[2, 5]] = order
                    rows.append(row)
                    relevance.append(rng.random(30) < 0.5)
                    relevance[-1][[2, 5]] = flags
    return np.array(rows), np.array(relevance)


@pytest.mark.parametrize("seed", range(5))
def test_signed_zero_similarities_rank_stably(seed):
    """+0.0 and -0.0 are equal, and with relevance bits their negations
    become subnormals of either sign; a matmul with another BLAS may give
    either zero, so they are fed in directly, among subnormals either side
    of 0, rows of well-separated values and rows with one pair a few units
    in the last place apart (_pairs_k_units_apart). A row whose values are
    all at least 2 ** -48 apart stays off the exact path."""
    rng = make_rng(seed)
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 0.5, -0.5])
    sims = values[rng.integers(0, len(values), (8, 30))]
    sims[:3] = rng.permutation(np.linspace(-1.0, 1.0, 30))  # no ties
    sims[2, ::2], sims[2, 1::2] = 0.0, -0.0
    relevant = rng.random(sims.shape) < 0.5
    # the one near pair of row 1: the relevant -0.0 ranks first, although
    # with their relevance bits the negated values sort the other way
    sims[1, [5, 9]] = -0.0, 0.0
    relevant[1, [5, 9]] = True, False
    pairs, pair_relevant = _pairs_k_units_apart(rng)
    sims, relevant = np.concatenate((sims, pairs)), np.concatenate((relevant, pair_relevant))
    with mock.patch.object(evaluate, "_ranking", wraps=evaluate._ranking) as spy:
        # given similarities are their own full product: the gap of d = 0,
        # 2 ** -49
        got, near = evaluate._ranked_relevance(sims.copy(), relevant, evaluate._gap(0))
        got[near] = evaluate._ranking(-sims[near], relevant[near])
    want = np.take_along_axis(relevant, np.argsort(-sims, axis=1, kind="stable"), axis=1)
    assert np.array_equal(got, want)
    sent = {row.tobytes() for call in spy.call_args_list for row in call.args[0]}
    apart = np.diff(np.sort(sims, axis=1), axis=1).min(axis=1) >= 2.0 ** -48
    assert not [row for row in -sims[apart] if row.tobytes() in sent]


def _exact_path(args):
    """The rows rank_pair sends to _ranking, as the bytes of each negated
    row, and the number of times it formed the full product."""
    with mock.patch.object(evaluate, "_ranking", wraps=evaluate._ranking) as ranking, \
            mock.patch.object(evaluate, "_full_cosines", wraps=evaluate._full_cosines) as full:
        evaluate.rank_pair(*args)
    return [row.tobytes() for call in ranking.call_args_list for row in call.args[0]], \
        full.call_count


@pytest.mark.parametrize("n_g", [700, 2000])
def test_untied_rows_skip_the_exact_path(n_g):
    n_q = 2 * _height(n_g) + 1
    assert _exact_path(_case("gaussian", n_q, n_g, seed=n_g)) == ([], 0)


def test_tied_rows_take_the_exact_path():
    args = _case("rounded", 40, 700, seed=3)  # every row ties somewhere
    ranked = np.sort(-(unit_rows(args[0])[0] @ unit_rows(args[2])[0].T), axis=1)
    assert (ranked[:, 1:] == ranked[:, :-1]).any(axis=1).all()
    sent, formed = _exact_path(args)
    assert (len(sent), formed) == (40, 1)
    queries, q_labels, gallery, g_labels = _case("gaussian", 40, 700, seed=4)
    queries[::4] = 0.0  # only the zero queries tie: all their cosines are 0
    assert _exact_path((queries, q_labels, gallery, g_labels)) == (
        [np.full(700, -0.0).tobytes()] * 10, 1)


def test_tied_blocks_form_the_full_product_once():
    """Every gallery item appears twice, so every row ties, and query 7 is
    degenerate (cosine 0 with all): each of the four blocks has near rows,
    and they share one full product."""
    rng = make_rng(11)
    gallery = np.repeat(rng.standard_normal((200, 4)), 2, axis=0)
    queries = rng.standard_normal((3 * _height(400) + 1, 4))
    queries[7] = 0.0
    q_labels, g_labels = rng.integers(0, 3, len(queries)), rng.integers(0, 3, 400)
    with mock.patch.object(evaluate, "_full_cosines", wraps=evaluate._full_cosines) as full:
        _assert_same_bits((queries, q_labels, gallery, g_labels), "all", curve=True)
    assert full.call_count == 1


@pytest.mark.parametrize("kind", ["gaussian", "nudged"])
def test_block_cosines_that_differ_from_the_full_product_rank_alike(kind):
    """2000 queries and 1500 items at d = 16 make blocks of 21 rows, and
    some of their cosines differ from the full product's in the last bits
    (5121 of the gaussian pair's with numpy 2.4's OpenBLAS on x86-64). The
    ranking must follow the full product's bits where they order a row
    differently: "nudged" draws both sides from 40 directions moved 0-5 ulps
    per coordinate, so most rows hold near-equal cosines."""
    rng = make_rng(12)
    if kind == "gaussian":
        queries, gallery = rng.standard_normal((2000, 16)), rng.standard_normal((1500, 16))
    else:
        directions = rng.standard_normal((40, 16))
        queries, gallery = (_nudged(directions[rng.integers(0, 40, n)], rng)
                            for n in (2000, 1500))
    q_labels, g_labels = rng.integers(0, 10, 2000), rng.integers(0, 10, 1500)
    blocks, ranked_relevance = [], evaluate._ranked_relevance

    def record(sims, *rest):
        blocks.append(sims.copy())
        return ranked_relevance(sims, *rest)

    with mock.patch.object(evaluate, "_ranked_relevance", record):
        _assert_same_bits((queries, q_labels, gallery, g_labels), "all", curve=True)
    assert _height(1500) == 21 and len(blocks) == -(-2000 // 21)
    full = unit_rows(queries)[0] @ unit_rows(gallery)[0].T
    assert np.count_nonzero(np.concatenate(blocks) != full) > 0, \
        "this BLAS forms every block with the full product's bits"


def test_untied_pair_holds_no_full_product():
    """A 2000 x 2000 pair of random embeddings ranks without the full
    (2000, 2000) float64 product: its traced peak stays below a quarter of
    one."""
    rng = make_rng(13)
    queries, gallery = rng.standard_normal((2000, 16)), rng.standard_normal((2000, 16))
    q_labels, g_labels = rng.integers(0, 10, 2000), rng.integers(0, 10, 2000)
    tracemalloc.start()
    try:
        evaluate.rank_pair(queries, q_labels, gallery, g_labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 8 / 4
