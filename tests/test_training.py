import dataclasses

import numpy as np
import pytest

from conftest import check_grad, workspace_for
from priorcast.config import RunConfig, apply_ablation
from priorcast.data import ModalityData, MultimodalDataset, SynthConfig, synth_generate
from priorcast.encoder import EncoderStack, backward, embed, forward, init_params
from priorcast.losses import label_loss, total_loss
from priorcast.numerics import make_rng
from priorcast.prior import PriorMatrix, run_spl
from priorcast.training import feature_augment, recast_invariant, train_rsc_all


def _dataset(seed=0, noise=0.2):
    return synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                      feature_dims=[12, 10],
                                      samples_per_class=12,
                                      noise=[noise, noise], seed=seed))


def _cfg(**kw):
    base = dict(spl_epochs=6, rsc_epochs=8, batch_size=8)
    base.update(kw)
    return RunConfig(**base)


def _prior(d=4, c=3, seed=0):
    rng = make_rng(seed)
    w = rng.standard_normal((d, c))
    return PriorMatrix(w=w, l=np.linalg.pinv(w))


# --- mixing ---

def test_augment_identity_at_lambda_one():
    rng = make_rng(0)
    f = rng.standard_normal((2, 5, 4))
    y = np.eye(3)[rng.integers(0, 3, (2, 5))]
    f_mix, y_mix, _ = feature_augment(f, y, 1.0, [rng, make_rng(1)], workspace_for(f))
    assert np.array_equal(f_mix, f)
    assert np.array_equal(y_mix, y)
    # up to the sign of zero: -0.0 * 1.0 plus a partner's +0.0 * 0.0 is +0.0
    f = np.array([[[-0.0, 1.0], [0.5, 0.0], [2.0, -3.0]]])
    f_mix, _, perm = feature_augment(f, np.eye(3)[None], 1.0, [make_rng(0)], workspace_for(f))
    assert perm[0, 0] != 0
    assert np.array_equal(f_mix, f)
    assert np.signbit(f[0, 0, 0]) and not np.signbit(f_mix[0, 0, 0])


def test_augment_hand_case():
    # slice 1 mixes within itself: perm indexes the flattened (K * B) rows
    f = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]])
    y = np.stack([np.eye(2)] * 2)
    f_mix, y_mix, p = feature_augment(f, y, 0.9, [make_rng(1), make_rng(2)], workspace_for(f))
    rows, labels = f.reshape(4, 2), y.reshape(4, 2)
    assert sorted(p[1]) == [2, 3]
    assert np.allclose(f_mix[0, 0], 0.9 * f[0, 0] + 0.1 * rows[p[0, 0]])
    assert np.allclose(f_mix[1, 0], 0.9 * f[1, 0] + 0.1 * rows[p[1, 0]])
    assert np.allclose(y_mix[1, 1], 0.9 * y[1, 1] + 0.1 * labels[p[1, 1]])


def test_augment_label_rows_stay_distributions():
    rng = make_rng(2)
    f = rng.standard_normal((3, 16, 4))
    y = np.eye(5)[rng.integers(0, 5, (3, 16))]
    _, y_mix, _ = feature_augment(f, y, 0.7, [make_rng(k) for k in range(3)], workspace_for(f))
    assert np.all(y_mix >= 0)
    assert np.allclose(y_mix.sum(axis=-1), 1.0, atol=1e-14)


def test_augment_deterministic():
    f = make_rng(4).standard_normal((2, 6, 3))
    y = np.stack([np.eye(3)[[0, 1, 2, 0, 1, 2]]] * 2)
    f_a, _, perm_a = feature_augment(f, y, 0.9, [make_rng(9), make_rng(10)], workspace_for(f))
    f_b, _, perm_b = feature_augment(f, y, 0.9, [make_rng(9), make_rng(10)], workspace_for(f))
    assert np.array_equal(perm_a, perm_b)
    assert np.array_equal(f_a, f_b)


# --- recasting ---

def test_recast_selects_rows_of_l():
    prior = _prior()
    y = np.eye(3)
    t = recast_invariant(y, prior)
    assert np.array_equal(t, prior.l)


def test_recast_linear():
    prior = _prior(seed=1)
    rng = make_rng(5)
    y1 = rng.random((4, 3))
    y2 = rng.random((4, 3))
    lhs = recast_invariant(0.3 * y1 + 0.7 * y2, prior)
    rhs = 0.3 * recast_invariant(y1, prior) + 0.7 * recast_invariant(y2, prior)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_recast_dimension_mismatch():
    with pytest.raises(ValueError):
        recast_invariant(np.zeros((2, 5)), _prior())


# --- the mixing gradient route used by the training loop ---

def test_mixed_batch_gradient():
    rng = make_rng(6)
    b, d, c = 6, 4, 3
    f = rng.standard_normal((b, d))
    y = np.eye(c)[rng.integers(0, c, b)]
    prior = _prior(d, c, seed=2)
    lam = 0.9
    perm = rng.permutation(b)

    def loss_of_f():
        fm = lam * f + (1 - lam) * f[perm]
        ym = lam * y + (1 - lam) * y[perm]
        return total_loss(fm, ym, prior.w, ym @ prior.l, 0.5, 0.1, 0.1, ws=workspace_for(fm))[0][3]

    fm = lam * f + (1 - lam) * f[perm]
    ym = lam * y + (1 - lam) * y[perm]
    _, d_fm, _ = total_loss(fm, ym, prior.w, ym @ prior.l, 0.5, 0.1, 0.1, ws=workspace_for(fm))
    d_f = lam * d_fm
    np.add.at(d_f, perm, (1 - lam) * d_fm)
    check_grad(loss_of_f, f, d_f)


# --- training loop ---

def test_rsc_deterministic():
    ds = _dataset()
    prior, _ = run_spl(ds, _cfg(), seed=0)
    a, _ = train_rsc_all(ds, prior, _cfg(), seed=1)
    b, _ = train_rsc_all(ds, prior, _cfg(), seed=1)
    for name in a:
        for ta, tb in zip(a[name].tensors(), b[name].tensors()):
            assert np.array_equal(ta, tb)


def test_rsc_modality_independence():
    # a modality's outcome does not depend on which other modalities train
    # beside it: mod0 and mod2 share a training-split size and train as one
    # stack, mod1 (3 rows fewer) trains alone
    ds = synth_generate(SynthConfig(num_modalities=3, num_classes=3,
                                    feature_dims=[12, 10, 7], samples_per_class=12,
                                    noise=[0.2, 0.2, 0.2], seed=0))
    mod1 = ds.splits["train"][1]
    ds.splits["train"][1] = ModalityData(mod1.name, mod1.features[:-3], mod1.labels[:-3])
    prior, _ = run_spl(ds, _cfg(), seed=0)
    together, report = train_rsc_all(ds, prior, _cfg(), seed=2)
    for mod, entry in zip(ds.splits["train"], report["modalities"]):
        solo, solo_report = train_rsc_all(MultimodalDataset(ds.num_classes, {"train": [mod]}),
                                          prior, _cfg(), seed=2)
        for ta, tb in zip(together[mod.name].tensors(), solo[mod.name].tensors()):
            assert np.array_equal(ta, tb)
        [solo_entry] = solo_report["modalities"]
        for a, b in zip(entry["epochs"], solo_entry["epochs"]):
            assert {**a, "wall_seconds": 0} == {**b, "wall_seconds": 0}


def test_prior_frozen_during_rsc():
    ds = _dataset()
    prior, _ = run_spl(ds, _cfg(), seed=0)
    w_before, l_before = prior.w.copy(), prior.l.copy()
    train_rsc_all(ds, prior, _cfg(), seed=3)
    assert np.array_equal(prior.w, w_before)
    assert np.array_equal(prior.l, l_before)


def test_training_reduces_loss_on_clean_data():
    ds = _dataset(noise=0.0)
    cfg = _cfg(rsc_epochs=20)
    prior, _ = run_spl(ds, cfg, seed=0)
    _, report = train_rsc_all(ds, prior, cfg, seed=0)
    for entry in report["modalities"]:
        first, last = entry["epochs"][0], entry["epochs"][-1]
        assert last["total"] < first["total"]
        assert last["mse"] < first["mse"]


def test_report_shape():
    ds = _dataset()
    cfg = _cfg()
    prior, _ = run_spl(ds, cfg, seed=0)
    _, report = train_rsc_all(ds, prior, cfg, seed=4)
    assert report["seed"] == 4
    assert [m["name"] for m in report["modalities"]] == ["mod0", "mod1"]
    for entry in report["modalities"]:
        assert len(entry["epochs"]) == cfg.rsc_epochs
        rec = entry["epochs"][0]
        for key in ("q", "label", "disc", "mse", "total", "recast_gap",
                    "wall_seconds"):
            assert key in rec
        # q ramps from q_start to 1
        assert rec["q"] == pytest.approx(cfg.q_start)
        assert entry["epochs"][-1]["q"] == pytest.approx(1.0)


def test_recast_gap_is_the_rms_row_norm_at_any_batch_size():
    # at lr 1e-300 without mixup the encoders stay at their initial weights
    # (the same draws at every batch size), so one epoch's recast_gap is the
    # root mean square over the split of each row's norm of f W - y
    ds = _dataset()
    prior, _ = run_spl(ds, _cfg(), seed=0)
    for batch_size in (2, 7, 30):
        cfg = apply_ablation(_cfg(rsc_epochs=1, lr=1e-300, batch_size=batch_size), "no-mixup")
        encoders, report = train_rsc_all(ds, prior, cfg, seed=0)
        for mod, entry in zip(ds.splits["train"], report["modalities"]):
            rows = embed(encoders[mod.name], mod.features) @ prior.w
            rows[np.arange(mod.num_samples), mod.labels] -= 1.0
            want = np.sqrt(np.mean(np.sum(rows * rows, axis=1)))
            assert entry["epochs"][0]["recast_gap"] == pytest.approx(want, rel=1e-12)


def test_fixed_q_overrides_schedule():
    ds = _dataset()
    cfg = apply_ablation(_cfg(), "fixed-q-0.5")
    prior, _ = run_spl(ds, cfg, seed=0)
    _, report = train_rsc_all(ds, prior, cfg, seed=0)
    qs = {rec["q"] for m in report["modalities"] for rec in m["epochs"]}
    assert qs == {0.5}


def test_transpose_matches_inverse_for_orthonormal_prior():
    # with an orthonormal-column prior the pseudo-inverse IS the transpose,
    # so the substitution ablation must reproduce the same training run
    ds = _dataset()
    cfg = _cfg()
    cfg.skip_spl = True
    prior, _ = run_spl(ds, cfg, seed=5)
    a, _ = train_rsc_all(ds, prior, cfg, seed=6)
    cfg_t = apply_ablation(cfg, "transpose-prior")
    b, _ = train_rsc_all(ds, prior, cfg_t, seed=6)
    for name in a:
        for ta, tb in zip(a[name].tensors(), b[name].tensors()):
            assert np.allclose(ta, tb, atol=1e-9)


def test_mixing_off_and_input_space_variants_run():
    ds = _dataset()
    base = _cfg()
    prior, _ = run_spl(ds, base, seed=0)
    results = {}
    for name in ("no-mixup", "input-mixup"):
        cfg = apply_ablation(base, name)
        encoders, _ = train_rsc_all(ds, prior, cfg, seed=7)
        results[name] = encoders
    # the variants genuinely differ from the default path
    default, _ = train_rsc_all(ds, prior, base, seed=7)
    for name, encoders in results.items():
        assert not np.array_equal(encoders["mod0"].w1, default["mod0"].w1)


@pytest.mark.parametrize("stage", ["one", "two", "no-mixup", "input-mixup"])
def test_stage_steps_allocate_no_batch_arrays(monkeypatch, stage):
    # every batch-sized array of a step lives in a workspace built once per
    # stack: after a warm-up epoch has made its buffers, a whole epoch of
    # K = 3, B = 256 steps (a batch of 256 and a short tail of 224) peaks
    # below half a (K, B, hidden_dim) float64 activation, which stage one
    # exceeds (~370 KB) when its label term gets no workspace
    import tracemalloc

    from priorcast import encoder

    rng = make_rng(3)
    mods = [ModalityData(f"mod{i}", rng.standard_normal((480, width)),
                         rng.integers(0, 10, 480)) for i, width in enumerate((20, 24, 28))]
    cfg = RunConfig(batch_size=256, spl_epochs=2, rsc_epochs=2)
    if stage not in ("one", "two"):
        cfg = apply_ablation(cfg, stage)
    original = encoder.lockstep_batches
    peaks = []

    def second_epoch_traced(*args):
        traced = len(peaks) == 1
        if traced:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        yield from original(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start if traced else None)

    monkeypatch.setattr(encoder, "lockstep_batches", second_epoch_traced)
    dataset = MultimodalDataset(10, {"train": mods})
    tracemalloc.start()
    try:
        if stage == "one":
            run_spl(dataset, cfg, seed=4)
        else:
            train_rsc_all(dataset, _prior(cfg.embed_dim, 10), cfg, seed=4)
    finally:
        tracemalloc.stop()
    half_activation = 3 * 256 * cfg.hidden_dim * 8 // 2
    assert len(peaks) == 2 and peaks[1] < half_activation


def test_stage_two_workspace_at_batch_256_holds_under_2_5_mib(monkeypatch):
    """Stage two's step holds more batch-sized arrays than any other step.
    After one epoch at K = 3, B = 256 with default widths, its stack's
    workspace holds named buffers for the values that cross a kernel
    boundary and one scratch region for the kernels' own temporaries:
    2.32 MiB. A named buffer per temporary holds 2.97 MiB."""
    from priorcast import encoder

    rng = make_rng(3)
    mods = [ModalityData(f"mod{i}", rng.standard_normal((480, width)),
                         rng.integers(0, 10, 480)) for i, width in enumerate((20, 24, 28))]
    workspaces = []
    original = encoder.lockstep_batches

    def capture(*args):
        workspaces.append(args[-1])
        yield from original(*args)

    monkeypatch.setattr(encoder, "lockstep_batches", capture)
    train_rsc_all(MultimodalDataset(10, {"train": mods}), _prior(16, 10),
                  RunConfig(batch_size=256, rsc_epochs=1), seed=4)
    assert len(workspaces) == 1 and workspaces[0].nbytes < 2.5 * 2**20


@pytest.mark.parametrize("mixup", ["embedding", "input"])
def test_scratch_holds_no_value_that_outlives_its_kernel(mixup):
    """A scratch view is valid only until the next scratch request, so
    nothing that a later kernel or the caller reads may lie in the scratch
    region: not the batch, the forward cache, the mixed labels, the recast
    targets, the logits, d_logits, label_loss's or total_loss's gradient or
    the stack's gradients. Every scratch view handed out over two stage-two
    steps on one workspace (the first grows the region) is checked against
    them."""
    rng = make_rng(5)
    b, widths = 32, (20, 24)
    stack = EncoderStack([init_params(width, 64, 16, rng) for width in widths], b)
    ws, prior, scratch = stack.workspace, _prior(16, 10), []
    request = ws.scratch

    def recorded(*args, **kwargs):
        views = request(*args, **kwargs)
        scratch.extend(views)
        return views

    ws.scratch = recorded
    for _ in range(2):
        rngs = [make_rng(k) for k in range(len(widths))]
        x = [ws.get(("x", k), b, width, lead=()) for k, width in enumerate(widths)]
        for x_k in x:
            x_k[...] = rng.standard_normal(x_k.shape)
        y = np.eye(10)[rng.integers(0, 10, (len(widths), b))]
        if mixup == "input":
            x, y, _ = feature_augment(x, y, 0.7, rngs, ws)
        f, cache = forward(stack, x)
        if mixup == "embedding":
            f, y, _ = feature_augment(f, y, 0.7, rngs, ws)
        t = recast_invariant(y, prior, out=ws.get("recast", b, 16))
        _, d_f, logits = total_loss(f, y, prior.w, t, 0.5, 0.1, 0.1, ws=ws)
        backward(stack, cache, d_f)
        kept = [*x, cache.a1, cache.a2, cache.unit, cache.safe, cache.degenerate, f, y, t,
                logits, d_f, stack.grad]
        kept += label_loss(f, y, prior.w, 0.5, ws)[1:]  # stage one reads d_f and d_logits
        assert scratch and not any(np.shares_memory(a, v) for a in kept for v in scratch)

