"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Numeric tolerances and time budgets are asserted inside the tests.
"""

import time

import numpy as np
import pytest

from conftest import max_rel_err, numeric_grad, stack_slice, workspace_for
from priorcast.cli import main
from priorcast.config import RunConfig, apply_ablation
from priorcast.data import SynthConfig, synth_generate
from priorcast.encoder import EncoderStack, backward, forward, init_params
from priorcast.errors import FormatError
from priorcast.evaluate import embed_split, rank_pair, table_from_embeddings
from priorcast.losses import disc_loss, label_loss, mse_loss, total_loss
from priorcast.numerics import make_rng, pseudo_inverse, random_orthogonal
from priorcast.prior import run_spl
from priorcast.training import train_rsc_all
from selection_sweep import CLEAN_NOISE, selection_case


def _verdict(num, desc, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _test_map_table(ds, cfg, seed):
    """Both training stages, then the MAP table of the test split."""
    prior, _ = run_spl(ds, cfg, seed)
    encoders, _ = train_rsc_all(ds, prior, cfg, seed)
    return table_from_embeddings(embed_split(encoders, ds, "test"))[0]


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_c1_pseudo_inverse():
    t0 = time.perf_counter()
    rng = make_rng(100)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(3, 17))
        c = int(rng.integers(2, 9))
        w = rng.standard_normal((d, c))
        l = pseudo_inverse(w)
        wl, lw = w @ l, l @ w
        worst = max(worst,
                    _rel(w @ l @ w, w),
                    _rel(l @ w @ l, l),
                    np.linalg.norm(wl - wl.T) / max(np.linalg.norm(wl), 1e-300),
                    np.linalg.norm(lw - lw.T) / max(np.linalg.norm(lw), 1e-300))
    ortho_worst = 0.0
    for seed in range(5):
        w = random_orthogonal(10, 6, make_rng(seed))
        ortho_worst = max(ortho_worst, _rel(pseudo_inverse(w), w.T))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and ortho_worst <= 1e-10 and elapsed < 1.0
    _verdict(1, f"pseudo-inverse Penrose rel err {worst:.2e} (<=1e-8), "
                f"orthonormal-transpose rel err {ortho_worst:.2e} (<=1e-10), "
                f"{elapsed:.2f}s (<1s)", ok)


def test_c2_gradient_oracle():
    t0 = time.perf_counter()
    worst = {}
    for i in range(20):
        rng = make_rng(200 + i)
        b, d, c = 5, 4, 3
        f = rng.standard_normal((b, d))
        y = np.eye(c)[rng.integers(0, c, b)]
        soft = 0.8 * y + 0.2 * y[rng.permutation(b)]
        w = rng.standard_normal((d, c))
        l = np.linalg.pinv(w)
        q = float(rng.uniform(0.05, 1.0))

        for target in (y, soft):
            _, g, d_logits, _ = label_loss(f, target, w, q)
            worst["label_loss"] = max(
                worst.get("label_loss", 0.0),
                max_rel_err(g, numeric_grad(lambda: label_loss(f, target, w, q)[0], f)),
                max_rel_err(f.T @ d_logits,
                            numeric_grad(lambda: label_loss(f, target, w, q)[0], w)))

        _, g = mse_loss(f, y @ l, workspace_for(f))
        worst["mse_loss"] = max(
            worst.get("mse_loss", 0.0),
            max_rel_err(g, numeric_grad(lambda: mse_loss(f, y @ l, workspace_for(f))[0], f)))

        _, g = disc_loss(f, y @ l, workspace_for(f))
        worst["disc_loss"] = max(
            worst.get("disc_loss", 0.0),
            max_rel_err(g, numeric_grad(lambda: disc_loss(f, y @ l, workspace_for(f))[0], f)))

        _, g, _ = total_loss(f, soft, w, soft @ l, q, 0.1, 0.1, ws=workspace_for(f))
        worst["total_loss"] = max(
            worst.get("total_loss", 0.0),
            max_rel_err(g, numeric_grad(
                lambda: total_loss(f, soft, w, soft @ l, q, 0.1, 0.1,
                                   ws=workspace_for(f))[0][3], f)))

        # one encoder, as a stack of one; params views its parameters
        stack = EncoderStack([init_params(4, 6, 3, rng)], 4)
        params = stack.members[0]
        # finite differences need a generic point: keep every ReLU
        # preactivation off its kink and every output row away from the
        # normalization discontinuity at the zero vector
        while True:
            x = rng.standard_normal((4, 4))
            _, cache = forward(stack, [x])
            z1 = x @ params.w1 + params.b1
            z2 = np.maximum(z1, 0.0) @ params.w2 + params.b2
            if (np.abs(z1).min() > 1e-4
                    and np.abs(z2).min() > 1e-4
                    and not cache.degenerate.any()
                    and cache.safe.min() > 1e-2):
                break
        r = rng.standard_normal((4, 3))
        backward(stack, cache, r[None])
        grads = stack_slice(stack.grads, 0)

        def enc_loss():
            return float(np.sum(forward(stack, [x])[0] * r))

        enc_worst = 0.0
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            enc_worst = max(enc_worst, max_rel_err(
                getattr(grads, name), numeric_grad(enc_loss, getattr(params, name))))
        worst["encoder"] = max(worst.get("encoder", 0.0), enc_worst)

    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    ok = peak <= 1e-5 and elapsed < 30.0
    _verdict(2, f"gradients vs central differences: {detail} "
                f"(all <=1e-5), {elapsed:.1f}s (<30s)", ok)


def _brute_map(queries, q_labels, gallery, g_labels, n_rank):
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
        hits = 0
        acc = 0.0
        for k in range(1, depth + 1):
            hits += rel[k - 1]
            if rel[k - 1]:
                acc += hits / k
        aps.append(acc / r_i)
    return sum(aps) / len(aps)


def test_c3_map_oracle():
    t0 = time.perf_counter()
    rng = make_rng(300)
    worst = 0.0
    for _ in range(100):
        n_q = int(rng.integers(1, 10))
        n_g = int(rng.integers(1, 21))
        d = int(rng.integers(2, 6))
        queries = rng.standard_normal((n_q, d))
        gallery = rng.standard_normal((n_g, d))
        ql = rng.integers(0, 4, n_q)
        gl = rng.integers(0, 4, n_g)
        depth = int(rng.integers(1, n_g + 1))
        if not np.isin(ql, gl).any():
            # no relevant item anywhere: no PR curve, and rank_pair refuses the pair
            with pytest.raises(FormatError, match="no query has a relevant gallery item"):
                rank_pair(queries, ql, gallery, gl, depth)
            continue
        got = float(np.mean(rank_pair(queries, ql, gallery, gl, depth)[0]))
        ref = _brute_map(queries, ql, gallery, gl, depth)
        worst = max(worst, abs(got - ref))
    # one query, gallery cosines 1, 1/sqrt(2), 0: relevance [1, 0, 1], then [1, 1, 1]
    query, gallery = np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    hand = abs(rank_pair(query, [0], gallery, [0, 1, 0])[0][0] - 5.0 / 6.0)
    all_rel = rank_pair(query, [0], gallery, [0, 0, 0])[0][0]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and hand < 1e-15 and all_rel == 1.0 and elapsed < 5.0
    _verdict(3, f"map vs brute force on 100 instances: max diff {worst:.1e} "
                f"(<=1e-12), [1,0,1]->0.8333 and all-relevant->1.0 exact, "
                f"{elapsed:.1f}s (<5s)", ok)


def test_c4_gce_limit():
    q = 1e-6
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        direct = (1.0 - p**q) / q
        worst = max(worst, abs(direct - (-np.log(p))))
        # same limit through the loss implementation
        logits = np.log(np.array([[p, 1.0 - p]]))
        y = np.array([[1.0, 0.0]])
        loss, _, _, _ = label_loss(logits, y, np.eye(2), q)
        worst = max(worst, abs(loss - (-np.log(p))))
    ok = worst <= 1e-5
    _verdict(4, f"generalized CE at q=1e-6 vs -ln p: max diff {worst:.1e} "
                f"(<=1e-5)", ok)


def test_c5_end_to_end_retrieval():
    t0 = time.perf_counter()
    ds = synth_generate(SynthConfig(seed=11))  # K=3, C=5, 40/class, noise 0.1
    cfg = RunConfig()  # d=16 and desk defaults
    table = _test_map_table(ds, cfg, seed=0)
    elapsed = time.perf_counter() - t0
    cells = {f"{p['query']}->{p['gallery']}": p["map"] for p in table["pairs"]}
    lowest = min(cells.values())
    ok = len(cells) == 6 and lowest >= 0.95 and elapsed <= 60.0
    _verdict(5, f"end-to-end MAP@all per pair {cells} "
                f"(all >=0.95), {elapsed:.1f}s (<=60s)", ok)


def test_c6_prior_selectivity():
    wins = 0
    for seed in range(10):
        ds = synth_generate(SynthConfig(num_modalities=2,
                                        feature_dims=[32, 24],
                                        noise=[0.05, 1.0], seed=20 + seed))
        prior, _ = run_spl(ds, RunConfig(), seed)
        if prior.source_modality == "mod0":
            wins += 1
    ok = wins >= 9
    _verdict(6, f"low-noise modality selected in {wins}/10 seeds (>=9)", ok)


# the clean modality at noise CLEAN_NOISE and the two others at NOISE_GAP
# times that, at train_b32 sizes; tests/selection_sweep.py prints the whole
# curve. At this gap the clean one was selected in 9 of 9 cases, by leads
# of 0.032 to 0.065 over the best other candidate.
NOISE_GAP = 2.0
LEAD_MARGIN = 0.02


def test_c6_prior_selectivity_clean_at_each_position():
    leads = []
    for case in range(3):  # the clean modality at position 0, 1 and 2
        report, clean = selection_case(CLEAN_NOISE * NOISE_GAP, case)
        others = [score for name, score in report["scores"].items() if name != clean]
        leads.append(report["scores"][clean] - max(others))
    ok = min(leads) >= LEAD_MARGIN
    _verdict(6, f"clean modality (noise {CLEAN_NOISE}, others x{NOISE_GAP}) selected at "
                f"each position, leads {[round(x, 4) for x in leads]} (>={LEAD_MARGIN})", ok)


def test_c7_prior_beats_random():
    # a shortened second stage keeps both runs below the performance
    # ceiling; at full length both saturate at MAP ~1.0 and only tie
    spl_maps, rand_maps = [], []
    for seed in range(3):
        ds = synth_generate(SynthConfig(noise=[0.5] * 3, seed=40 + seed))
        for skip, bucket in ((False, spl_maps), (True, rand_maps)):
            cfg = RunConfig(rsc_epochs=25)
            if skip:
                cfg = apply_ablation(cfg, "no-spl")
            bucket.append(_test_map_table(ds, cfg, seed)["avg"])
    mean_spl = float(np.mean(spl_maps))
    mean_rand = float(np.mean(rand_maps))
    ok = mean_spl >= mean_rand
    _verdict(7, f"mean MAP@all with learned prior {mean_spl:.4f} >= "
                f"random prior {mean_rand:.4f} over 3 seeds (sigma=0.5)", ok)


def test_c8_ablation_harness():
    # the easy fixture saturates every variant at MAP 1.0, so the harness
    # runs on the noisier sigma=0.5 fixture where differences are visible
    ds = synth_generate(SynthConfig(noise=[0.5] * 3, seed=11))
    presets = ["no-spl", "no-label-loss", "no-disc-loss", "no-mse-loss",
               "fixed-q-0.01", "fixed-q-0.5", "fixed-q-1.0", "fixed-q-2.0",
               "transpose-prior", "no-mixup", "input-mixup"]
    avgs = {}
    for name in [None] + presets:
        cfg = RunConfig()
        if name:
            cfg = apply_ablation(cfg, name)
        table = _test_map_table(ds, cfg, seed=0)
        assert len(table["pairs"]) == 6 and np.isfinite(table["avg"])
        avgs[name or "full"] = table["avg"]
    listing = ", ".join(f"{k} {v:.3f}" for k, v in avgs.items())
    ok = len(avgs) == 12 and avgs["no-label-loss"] < avgs["full"]
    _verdict(8, f"all 11 ablations produce MAP tables ({listing}); "
                f"drop-label {avgs['no-label-loss']:.3f} < "
                f"full {avgs['full']:.3f}", ok)


def test_c9_determinism(tmp_path):
    import json

    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "synth": {"num_modalities": 2, "num_classes": 3,
                  "feature_dims": [12, 10], "samples_per_class": 12,
                  "noise": [0.2, 0.2], "seed": 3}}))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "manifest": str(data / "manifest.json"), "seed": 5,
        "spl_epochs": 8, "rsc_epochs": 10, "batch_size": 8}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(run_cfg), "--out", str(out_a)]) == 0
    assert main(["pipeline", "--config", str(run_cfg), "--out", str(out_b)]) == 0
    compared = []
    same = True
    for name in ("map_table.json", "prior.bin", "encoder_mod0.bin",
                 "encoder_mod1.bin"):
        match = (out_a / name).read_bytes() == (out_b / name).read_bytes()
        compared.append(f"{name} {'ok' if match else 'DIFFERS'}")
        same = same and match
    _verdict(9, f"repeat pipeline byte-identity: {', '.join(compared)}", same)
