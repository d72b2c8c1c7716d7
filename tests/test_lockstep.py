"""Lockstep stacks against the per-modality reference, bit for bit."""

import numpy as np
import pytest

import reference_training as ref
from priorcast.config import ABLATION_PRESETS, RunConfig, apply_ablation
from priorcast.data import ModalityData, SynthConfig, lockstep_map, synth_generate
from priorcast.encoder import EncoderParams
from priorcast.numerics import make_rng, random_orthogonal, split_seed
from priorcast.prior import run_spl, train_prior_stack
from priorcast.training import train_rsc_all


def _dataset():
    """Three modalities of widths 12/10/7; mod1 has 3 fewer training rows, so
    mod0 and mod2 train as one stack and mod1 alone. 33 training rows at
    batch 8 end in a merged tail batch of 9."""
    ds = synth_generate(SynthConfig(num_modalities=3, num_classes=3,
                                    feature_dims=[12, 10, 7], samples_per_class=13,
                                    noise=[0.2, 0.3, 0.4], seed=11))
    mod1 = ds.splits["train"][1]
    ds.splits["train"][1] = ModalityData(mod1.name, mod1.features[:-3], mod1.labels[:-3])
    ds.validate()
    return ds


def _cfg(**kw):
    base = dict(spl_epochs=4, rsc_epochs=5, batch_size=8)
    base.update(kw)
    return RunConfig(**base)


def _assert_params_equal(a, b):
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert ta.shape == tb.shape
        assert np.array_equal(ta, tb)


def _without_wall_seconds(epochs):
    return [{k: v for k, v in rec.items() if k != "wall_seconds"} for rec in epochs]


def _short_tail_dataset():
    """Three modalities of 30 training rows each, one stack: batch 8 gives
    8, 8, 8 and a short tail batch of 6."""
    ds = _dataset()
    ds.splits["train"] = [ModalityData(m.name, m.features[:30], m.labels[:30])
                          for m in ds.splits["train"]]
    ds.validate()
    return ds


@pytest.mark.parametrize("preset", [None] + sorted(ABLATION_PRESETS))
def test_stages_match_per_modality_reference(preset):
    ds = _dataset()
    cfg = _cfg() if preset is None else apply_ablation(_cfg(), preset)
    prior, report = run_spl(ds, cfg, seed=3)
    ref_prior, ref_scores, _ = ref.run_spl(ds, cfg, seed=3)
    assert np.array_equal(prior.w, ref_prior.w)
    assert np.array_equal(prior.l, ref_prior.l)
    assert prior.score == ref_prior.score
    assert prior.source_modality == ref_prior.source_modality
    assert report["scores"] == ref_scores

    encoders, rsc_report = train_rsc_all(ds, prior, cfg, seed=4)
    ref_encoders, ref_epochs = ref.train_rsc_all(ds, ref_prior, cfg, seed=4)
    assert list(encoders) == list(ref_encoders)
    for name in encoders:
        _assert_params_equal(encoders[name], ref_encoders[name])
    assert [m["name"] for m in rsc_report["modalities"]] == list(ref_epochs)
    for entry in rsc_report["modalities"]:
        got = [{k: v for k, v in rec.items() if k != "wall_seconds"}
               for rec in entry["epochs"]]
        assert got == ref_epochs[entry["name"]]
        assert all(type(v) in (int, float) for rec in got for v in rec.values())


def test_stage_one_encoders_match_reference():
    ds = _dataset()
    cfg = _cfg()
    _, _, ref_encoders = ref.run_spl(ds, cfg, seed=3)
    w0 = random_orthogonal(cfg.embed_dim, ds.num_classes,
                           make_rng(split_seed(3, "spl", "shared-w")))
    mods = ds.splits["train"]
    results = lockstep_map(mods, [make_rng(split_seed(3, "spl", m.name)) for m in mods],
                           lambda members, rngs: train_prior_stack(members, w0, cfg, rngs))
    for mod, (_, params, _) in zip(mods, results):
        _assert_params_equal(params, ref_encoders[mod.name])


def test_spl_modality_independence():
    # a candidate does not depend on which other modalities train beside it
    ds = _dataset()
    cfg = _cfg()
    w0 = random_orthogonal(cfg.embed_dim, ds.num_classes, make_rng(0))
    mods = ds.splits["train"]
    together = lockstep_map(mods, [make_rng(split_seed(5, "spl", m.name)) for m in mods],
                            lambda members, rngs: train_prior_stack(members, w0, cfg, rngs))
    for mod, (w, params, epochs) in zip(mods, together):
        rng = make_rng(split_seed(5, "spl", mod.name))
        [(w_solo, params_solo, epochs_solo)] = train_prior_stack([mod], w0, cfg, [rng])
        assert np.array_equal(w, w_solo)
        _assert_params_equal(params, params_solo)
        assert _without_wall_seconds(epochs) == _without_wall_seconds(epochs_solo)


def test_encoder_params_built_per_modality_not_per_step(monkeypatch):
    built = []
    original = EncoderParams.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(EncoderParams, "__init__", counted)
    ds = _dataset()
    counts = []
    for epochs in (2, 6):
        built.clear()
        cfg = _cfg(spl_epochs=epochs, rsc_epochs=epochs)
        prior, _ = run_spl(ds, cfg, seed=1)
        train_rsc_all(ds, prior, cfg, seed=2)
        counts.append(len(built))
    # per stage: one init per modality, one view per modality, and the
    # stacked params and grads of each of the two stacks; stage one's
    # candidate scoring embeds each split through its member view and
    # builds none
    assert counts == [2 * (2 * 3 + 2 * 2)] * 2


@pytest.mark.parametrize("preset", [None, "no-mixup", "input-mixup"])
def test_short_tail_batch_matches_reference(preset):
    # the tail batch views only part of each workspace buffer
    ds = _short_tail_dataset()
    cfg = _cfg() if preset is None else apply_ablation(_cfg(), preset)
    prior, report = run_spl(ds, cfg, seed=5)
    ref_prior, ref_scores, _ = ref.run_spl(ds, cfg, seed=5)
    assert np.array_equal(prior.w, ref_prior.w)
    assert report["scores"] == ref_scores
    encoders, rsc_report = train_rsc_all(ds, prior, cfg, seed=6)
    ref_encoders, ref_epochs = ref.train_rsc_all(ds, ref_prior, cfg, seed=6)
    for name in encoders:
        _assert_params_equal(encoders[name], ref_encoders[name])
    for entry in rsc_report["modalities"]:
        got = [{k: v for k, v in rec.items() if k != "wall_seconds"}
               for rec in entry["epochs"]]
        assert got == ref_epochs[entry["name"]]
