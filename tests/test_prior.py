import numpy as np
import pytest

from priorcast.config import RunConfig
from priorcast.data import SynthConfig, synth_generate
from priorcast.errors import FormatError
from priorcast.numerics import make_rng, random_orthogonal, split_seed
from priorcast.prior import (
    PriorMatrix,
    load_prior,
    run_spl,
    save_prior,
    select_prior,
)


def _dataset(seed=0, noise=(0.2, 0.2)):
    return synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                      feature_dims=[12, 10],
                                      samples_per_class=12,
                                      noise=list(noise), seed=seed))


def _cfg():
    return RunConfig(spl_epochs=8, rsc_epochs=5, batch_size=8)


def test_run_spl_scores_every_modality():
    prior, report = run_spl(_dataset(), _cfg(), seed=1)
    assert set(report["scores"]) == {"mod0", "mod1"}
    assert report["selected"] in report["scores"]
    assert prior.score == max(report["scores"].values())
    assert prior.source_modality == report["selected"]
    assert 0.0 < prior.score <= 1.0


def test_run_spl_deterministic():
    a, _ = run_spl(_dataset(), _cfg(), seed=5)
    b, _ = run_spl(_dataset(), _cfg(), seed=5)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.l, b.l)


def test_run_spl_skip_uses_shared_random_matrix():
    cfg = _cfg()
    cfg.skip_spl = True
    ds = _dataset()
    prior, report = run_spl(ds, cfg, seed=7)
    assert report["skipped"]
    assert prior.score is None and prior.source_modality is None
    w0 = random_orthogonal(cfg.embed_dim, ds.num_classes,
                           make_rng(split_seed(7, "spl", "shared-w")))
    assert np.array_equal(prior.w, w0)
    # orthonormal columns: the recaster is the transpose
    assert np.allclose(prior.l, w0.T, atol=1e-12)


def test_recaster_left_inverse():
    prior, _ = run_spl(_dataset(), _cfg(), seed=3)
    # W has full column rank, so L W = I
    assert np.allclose(prior.l @ prior.w, np.eye(prior.num_classes), atol=1e-8)


def test_select_prior_tie_break():
    cands = {"a": np.zeros((2, 2)), "b": np.zeros((2, 2)), "c": np.zeros((2, 2))}
    scores = {"a": 0.5, "b": 0.9, "c": 0.9}
    assert select_prior(cands, scores) == "b"  # first of the tied maxima


def test_prior_file_round_trip(tmp_path):
    prior, _ = run_spl(_dataset(), _cfg(), seed=4)
    path = tmp_path / "prior.bin"
    save_prior(path, prior)
    back = load_prior(path)
    assert back.score == prior.score
    assert back.source_modality == prior.source_modality
    # tensors are stored in float32
    assert np.array_equal(back.w, prior.w.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.l, prior.l.astype(np.float32).astype(np.float64))


def test_prior_file_rejects_corrupt_header(tmp_path):
    path = tmp_path / "p.bin"
    save_prior(path, PriorMatrix(w=np.zeros((4, 2)), l=np.zeros((2, 4))))
    tensors = path.read_bytes().split(b"\n", 1)[1]
    for data in (b'{"format": "WRONG"}\n', b"[1, 2]\n" + tensors):
        path.write_bytes(data)
        with pytest.raises(FormatError):
            load_prior(path)


def test_prior_file_rejects_shape_mismatch(tmp_path):
    prior = PriorMatrix(w=np.zeros((4, 2)), l=np.zeros((2, 4)))
    path = tmp_path / "p.bin"
    save_prior(path, prior)
    data = path.read_bytes()
    # corrupt the header's embed_dim
    path.write_bytes(data.replace(b'"embed_dim": 4', b'"embed_dim": 9', 1))
    with pytest.raises(FormatError):
        load_prior(path)
