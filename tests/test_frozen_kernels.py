"""priorcast's stacked kernels against the frozen one-batch copies, bit for bit.

reference_losses and reference_training hold numpy-only copies of the
losses, forward, backward, feature_augment, minibatch_iter and q_at as they
computed one batch of one modality. Each slice of a (K, B, .) stack must
give exactly their bits, at batch sizes of the training loops (2, a merged
tail of B + 1, 32, 256) and at the row counts eval and candidate scoring
embed (60, 2000 and 16000).
"""

import numpy as np
import pytest

import reference_losses as ref_losses
import reference_training as ref
from conftest import workspace_for
from priorcast import prior
from priorcast.config import RunConfig
from priorcast.data import ModalityData, MultimodalDataset
from priorcast.encoder import init_params
from priorcast.evaluate import embed_split
from priorcast.losses import disc_loss, label_loss, mse_loss, q_at, quality_score, total_loss
from priorcast.numerics import make_rng, row_spans, softmax, unit_rows
from priorcast.training import feature_augment


def _stack(seed, k, b, d=16, c=10):
    rng = make_rng(seed)
    f = rng.standard_normal((k, b, d))
    f[0, 1] = 0.0  # a degenerate row
    y = np.eye(c)[rng.integers(0, c, (k, b))]
    y = 0.8 * y + 0.2 * y[:, ::-1]  # soft labels, as after mixup
    w = rng.standard_normal((d, c))
    return f, y, w, np.linalg.pinv(w), rng.standard_normal((k, d, c))


def _same(stacked, per_slice):
    for i, one in enumerate(per_slice):
        assert len(stacked) == len(one)
        for a, e in zip(stacked, one):
            assert np.array_equal(np.asarray(a)[i], e)


@pytest.mark.parametrize("k, b", [(1, 2), (3, 7), (3, 32), (1, 33), (3, 256)])
def test_losses_match_frozen_copies(k, b):
    f, y, w, l, ws = _stack(k * 1000 + b, k, b)
    t = y @ l
    _same(mse_loss(f, t, workspace_for(f)), [ref_losses.mse_loss(f[i], t[i]) for i in range(k)])
    _same(disc_loss(f, t, workspace_for(f)), [ref_losses.disc_loss(f[i], t[i]) for i in range(k)])
    for q in (0.01, 0.7, 1.0):
        _same(label_loss(f, y, w, q)[:3],
              [ref_losses.label_loss(f[i], y[i], w, q) for i in range(k)])
        _same(label_loss(f, y, ws, q)[:3],
              [ref_losses.label_loss(f[i], y[i], ws[i], q) for i in range(k)])
    # a zero alpha or beta drops its term as the frozen copy's drop flag does
    for alpha, beta, drop in ((0.25, 0.15, None), (0.25, 0.15, "drop_label"),
                              (0.0, 0.15, "drop_disc"), (0.25, 0.0, "drop_mse")):
        terms, grad, _ = total_loss(f, y, w, t, 0.3, alpha, beta,
                                    drop_label=drop == "drop_label", ws=workspace_for(f))
        for i in range(k):
            value_i, grad_i, parts_i = ref_losses.total_loss(f[i], y[i], w, t[i], 0.3, alpha,
                                                             beta, **({drop: True} if drop else {}))
            assert list(terms[:, i]) == [*parts_i.values(), value_i]
            assert np.array_equal(grad[i], grad_i)


def test_softmax_quality_score_and_unit_rows_match_frozen_copies():
    f, y, w, _, _ = _stack(5, 3, 40)
    f[1, 3] = 1e-13  # below NORM_EPS, not zero
    assert np.array_equal(softmax(f @ w), ref_losses.softmax(f @ w))
    for got, want in zip(unit_rows(f), ref_losses.unit_rows(f)):
        assert np.array_equal(got, want)
    labels = y[0].argmax(axis=1)
    assert quality_score([(0, 40, f[0])], labels, w) == ref_losses.quality_score(
        f[0], ref.one_hot(labels, w.shape[1]), w)


@pytest.mark.parametrize("k, b, widths", [(1, 2, None), (3, 9, None), (3, 256, None),
                                         (3, 32, (20, 24, 28))],
                         ids=["1-2", "3-9", "3-256", "inputs-3-32"])
def test_feature_augment_slices_match_frozen_copy(k, b, widths):
    f, y, _, _, _ = _stack(k + b, k, b)
    if widths:
        # input-space mixing: a list of K input matrices of different widths
        rng = make_rng(k * b)
        f = [rng.standard_normal((b, width)) for width in widths]
    f_mix, y_mix, perm = feature_augment(f, y, 0.7, [make_rng(40 + i) for i in range(k)],
                                         workspace_for(y))
    for i in range(k):
        want_f, want_y, want_perm = ref.feature_augment(f[i], y[i], 0.7, make_rng(40 + i))
        assert np.array_equal(f_mix[i], want_f)
        assert np.array_equal(y_mix[i], want_y)
        assert np.array_equal(perm[i] - i * b, want_perm)


@pytest.mark.parametrize("n, batch", [(2, 8), (9, 8), (33, 8), (480, 32), (480, 256)])
def test_minibatch_iter_and_q_at_match_frozen_copies(n, batch):
    """The training batches, one permutation cut at its row_spans as
    data.lockstep_batches cuts it, are the frozen minibatch_iter's."""
    mod = ModalityData("m", np.zeros((n, 1)), np.zeros(n, dtype=np.int64))
    perm = make_rng(n).permutation(n)
    got = [perm[start:stop] for start, stop in row_spans(n, batch)]
    want = ref.minibatch_iter(mod, batch, make_rng(n))
    assert len(got) == len(want)
    assert all(np.array_equal(a, e) for a, e in zip(got, want))
    for epochs in (1, 2, 7):
        assert [q_at(0.01, epochs, e) for e in range(epochs)] == \
            [ref.q_at(0.01, epochs, e) for e in range(epochs)]


def _dataset(rows, widths=(20, 28), num_classes=10):
    rng = make_rng(rows)
    mods = [ModalityData(f"mod{i}", rng.standard_normal((rows, width)),
                         rng.integers(0, num_classes, rows))
            for i, width in enumerate(widths)]
    return MultimodalDataset(num_classes, {"train": mods, "val": mods, "test": mods})


@pytest.mark.parametrize("rows", [60, 2000, 16000])
def test_embeddings_match_frozen_forward(rows, monkeypatch):
    ds = _dataset(rows)
    rng = make_rng(rows + 1)
    encoders = {mod.name: init_params(mod.feature_dim, 64, 16, rng)
                for mod in ds.splits["test"]}
    embedded = embed_split(encoders, ds, "test")
    for mod in ds.splits["test"]:
        assert np.array_equal(embedded[mod.name][0], ref.forward(encoders[mod.name],
                                                                  mod.features)[0])

    # stage one scores each candidate on its whole split's embeddings, block
    # by block: the blocks tile the split in order and hold the frozen
    # forward's rows (the 16000-row split spans many blocks)
    mods = ds.splits["train"]
    candidates = [(encoders[mod.name], rng.standard_normal((16, ds.num_classes)), [])
                  for mod in mods]
    monkeypatch.setattr(prior, "train_stack", lambda *args, **kwargs: candidates)
    scored = []
    original = prior.quality_score

    def capture(blocks, labels, w):
        seen = []
        scored.append(seen)

        def tee():
            for start, stop, f in blocks:
                seen.append((start, stop, f.copy()))
                yield start, stop, f
        return original(tee(), labels, w)

    monkeypatch.setattr(prior, "quality_score", capture)
    _, report = prior.run_spl(ds, RunConfig(), seed=rows)
    assert len(scored) == len(mods)
    for mod, (params, w, _), blocks in zip(mods, candidates, scored):
        want = ref.forward(params, mod.features)[0]
        assert [start for start, _, _ in blocks] == [0] + [stop for _, stop, _ in blocks[:-1]]
        assert blocks[-1][1] == rows
        for start, stop, f in blocks:
            assert np.array_equal(f, want[start:stop])
        y = ref.one_hot(mod.labels, ds.num_classes)
        assert report["scores"][mod.name] == ref_losses.quality_score(want, y, w)
