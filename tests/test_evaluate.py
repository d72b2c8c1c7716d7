import json
import warnings

import numpy as np
import pytest

from priorcast.config import RunConfig
from priorcast.data import SynthConfig, synth_generate, write_json
from priorcast.errors import FormatError
from priorcast.evaluate import embed_split, rank_pair, table_from_embeddings, write_pr_csv
from priorcast.numerics import make_rng
from priorcast.prior import run_spl
from priorcast.training import train_rsc_all
from reference_ranking import average_precision


def test_ap_hand_cases():
    assert average_precision([1, 1, 1], 3) == 1.0
    assert average_precision([1, 0, 1], 3) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert average_precision([0, 0, 0], 3) == 0.0
    assert average_precision([0, 1], 2) == pytest.approx(0.5)


def test_ap_window():
    # relevant item outside the window does not count
    assert average_precision([0, 0, 1], 2) == 0.0
    assert average_precision([1, 0, 1], 1) == 1.0


def test_ap_range_and_perfect_ordering():
    rng = make_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        rel = (rng.random(n) < 0.4).astype(int)
        ap = average_precision(rel, n)
        assert 0.0 <= ap <= 1.0
        sorted_rel = np.sort(rel)[::-1]
        if rel.sum():
            assert average_precision(sorted_rel, n) == 1.0
            # AP is 1 only for the front-loaded arrangement
            if not np.array_equal(rel, sorted_rel):
                assert ap < 1.0


def test_rank_gallery_orders_by_cosine():
    # three copies of one query, each of the class of exactly one gallery
    # item: its AP is 1 / (rank of that item), so the APs pin the order
    # (cosines 1, 0.995..., 0: gallery 2, then 1, then 0)
    queries = np.tile([1.0, 0.0], (3, 1))
    gallery = np.array([[0.0, 1.0], [1.0, 0.1], [1.0, 0.0]])
    q_labels, g_labels = np.array([0, 1, 2]), np.array([2, 1, 0])
    aps, recall, precision = rank_pair(queries, q_labels, gallery, g_labels)
    assert np.array_equal(aps, [1.0, 1.0 / 2.0, 1.0 / 3.0])
    assert np.mean(aps) == pytest.approx(11.0 / 18.0, abs=1e-15)
    assert np.allclose(recall, [1 / 3, 2 / 3, 1.0], rtol=0, atol=1e-15)
    assert np.allclose(precision, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_rank_gallery_tie_break_ascending():
    # two groups of 10 exactly tied items, interleaved: even items have
    # cosine 1 with the query, odd items cosine 0 (numpy's default unstable
    # argsort reorders ties here). Each group ranks by ascending index, and
    # the copy of the query that only item j matches has AP 1 / (rank of j)
    n = 20
    queries = np.tile([1.0, 0.0], (n, 1))
    gallery = np.where(np.arange(n)[:, None] % 2 == 0, [2.0, 0.0], [0.0, 3.0])
    labels = np.arange(n)
    rank = np.empty(n)
    rank[0::2] = np.arange(1, 11)
    rank[1::2] = np.arange(11, 21)
    aps, recall, precision = rank_pair(queries, labels, gallery, labels)
    assert np.array_equal(aps, 1.0 / rank)
    top2 = np.zeros(n)
    top2[[0, 2]] = [1.0, 0.5]
    assert np.array_equal(rank_pair(queries, labels, gallery, labels, n_rank=2)[0], top2)
    assert np.allclose(recall, np.arange(1, n + 1) / n, rtol=0, atol=1e-15)
    assert np.allclose(precision, 1.0 / n, rtol=0, atol=1e-15)


def test_rank_gallery_scale_invariant():
    rng = make_rng(1)
    queries = np.tile(rng.standard_normal(5), (8, 1))
    gallery = rng.standard_normal((8, 5))
    labels = np.arange(8)  # as above: the APs give each item's rank
    base = rank_pair(queries, labels, gallery, labels)[0]
    assert sorted(np.rint(1.0 / base)) == list(range(1, 9))
    scaled = gallery.copy()
    scaled[3] *= 77.0
    assert np.array_equal(rank_pair(queries, labels, scaled, labels)[0], base)
    assert np.array_equal(rank_pair(queries * 0.01, labels, gallery, labels)[0], base)


def _brute_map(queries, q_labels, gallery, g_labels, n_rank):
    # independent reimplementation: explicit sort + formula loops
    import math

    aps = []
    for i in range(len(queries)):
        sims = []
        for j in range(len(gallery)):
            na = math.sqrt(sum(v * v for v in queries[i]))
            nb = math.sqrt(sum(v * v for v in gallery[j]))
            dot = sum(a * b for a, b in zip(queries[i], gallery[j]))
            sims.append(dot / (na * nb) if na > 0 and nb > 0 else 0.0)
        order = sorted(range(len(gallery)), key=lambda j: (-sims[j], j))
        rel = [1 if g_labels[j] == q_labels[i] else 0 for j in order]
        depth = min(n_rank, len(rel))
        r_i = sum(rel[:depth])
        if r_i == 0:
            aps.append(0.0)
            continue
        total = 0.0
        hits = 0
        for k in range(1, depth + 1):
            hits += rel[k - 1]
            if rel[k - 1]:
                total += hits / k
        aps.append(total / r_i)
    return sum(aps) / len(aps)


def test_map_matches_brute_force():
    rng = make_rng(2)
    for _ in range(30):
        n_q = int(rng.integers(1, 8))
        n_g = int(rng.integers(1, 15))
        d = int(rng.integers(2, 5))
        queries = rng.standard_normal((n_q, d))
        gallery = rng.standard_normal((n_g, d))
        q_labels = rng.integers(0, 3, n_q)
        g_labels = rng.integers(0, 3, n_g)
        depth = int(rng.integers(1, n_g + 1))
        if not np.isin(q_labels, g_labels).any():
            # no relevant item anywhere: no PR curve, and rank_pair refuses the pair
            with pytest.raises(FormatError, match="no query has a relevant gallery item"):
                rank_pair(queries, q_labels, gallery, g_labels, depth)
            continue
        aps = rank_pair(queries, q_labels, gallery, g_labels, depth)[0]
        assert np.mean(aps) == pytest.approx(
            _brute_map(queries, q_labels, gallery, g_labels, depth), abs=1e-12)


def test_map_all_and_clamp():
    rng = make_rng(3)
    queries = rng.standard_normal((4, 3))
    gallery = rng.standard_normal((10, 3))
    ql = rng.integers(0, 2, 4)
    gl = rng.integers(0, 2, 10)
    full = rank_pair(queries, ql, gallery, gl, "all")[0]
    # a depth past the gallery's 10 items ranks those 10
    for depth in (10, 50):
        assert np.array_equal(rank_pair(queries, ql, gallery, gl, depth)[0], full)


def test_map_self_retrieval_distinct_classes():
    emb = np.eye(4)
    labels = np.arange(4)
    aps = rank_pair(emb, labels, emb, labels, "all")[0]
    assert np.all(aps == 1.0)
    assert np.mean(aps) == 1.0


def test_pr_curve_hand_case():
    queries = np.array([[1.0, 0.0]])
    gallery = np.array([[1.0, 0.0], [0.0, 1.0]])
    _, recall, precision = rank_pair(queries, [0], gallery, [0, 1])
    assert np.allclose(recall, [1.0, 1.0])
    assert np.allclose(precision, [1.0, 0.5])


def test_pr_curve_recall_monotone():
    rng = make_rng(4)
    for _ in range(10):
        queries = rng.standard_normal((5, 3))
        gallery = rng.standard_normal((12, 3))
        ql = rng.integers(0, 2, 5)
        gl = np.concatenate([[0, 1], rng.integers(0, 2, 10)])  # both classes present
        _, recall, precision = rank_pair(queries, ql, gallery, gl)
        assert np.all(np.diff(recall) >= -1e-15)
        assert np.all((precision >= 0) & (precision <= 1))


def test_pr_curve_without_a_relevant_query_is_a_format_error():
    # class 2 is in no gallery, so no query has a relevant item and the PR
    # curve (recall over the relevant items) is undefined
    queries = make_rng(5).standard_normal((6, 3))
    gallery = make_rng(6).standard_normal((9, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="no query has a relevant gallery item"):
            rank_pair(queries, np.full(6, 2), gallery, np.arange(9) % 2)


def _trained(seed=0):
    ds = synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                    feature_dims=[12, 10], samples_per_class=12,
                                    noise=[0.1, 0.1], seed=seed))
    cfg = RunConfig(spl_epochs=6, rsc_epochs=10, batch_size=8)
    prior, _ = run_spl(ds, cfg, seed)
    encoders, _ = train_rsc_all(ds, prior, cfg, seed)
    return ds, encoders


def test_embed_unit_rows():
    ds, encoders = _trained()
    mod = ds.splits["test"][0]
    emb, _ = embed_split(encoders, ds, "test")[mod.name]
    assert emb.shape == (mod.num_samples, 16)
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


def test_cross_modal_eval_table_shape():
    ds, encoders = _trained()
    table, _ = table_from_embeddings(embed_split(encoders, ds, "test"))
    assert table["n_rank"] == "all"
    assert len(table["pairs"]) == 2
    names = {(p["query"], p["gallery"]) for p in table["pairs"]}
    assert names == {("mod0", "mod1"), ("mod1", "mod0")}
    maps = [p["map"] for p in table["pairs"]]
    assert table["avg"] == pytest.approx(float(np.mean(maps)))


def test_table_and_csv_writers(tmp_path):
    ds, encoders = _trained()
    table, _ = table_from_embeddings(embed_split(encoders, ds, "test"), n_rank=5)
    path = tmp_path / "map.json"
    write_json(path, table)
    back = json.loads(path.read_text())
    assert back == table
    assert back["n_rank"] == 5

    (qe, ql), (ge, gl) = embed_split(encoders, ds, "test").values()
    _, recall, precision = rank_pair(qe, ql, ge, gl)
    csv_path = tmp_path / "pr.csv"
    write_pr_csv(csv_path, recall, precision)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "rank,recall,precision"
    assert len(lines) == 1 + len(ge)
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]); float(first[2])  # parseable numbers
    # one line per rank, each float at its shortest round-trip repr
    assert csv_path.read_text() == lines[0] + "\n" + "".join(
        f"{r},{float(rec)!r},{float(prec)!r}\n"
        for r, rec, prec in zip(range(1, len(ge) + 1), recall, precision))

