"""Microseconds per lockstep SGD step of each training stage, and
milliseconds per ranked modality pair.

    PYTHONPATH=src python tests/step_cost.py [REV] [--rounds N]

Trains stage one (run_spl) and stage two (train_rsc_all) with the default
config on a synthetic training split of 480 rows per modality (that of the
train_b32 and train_b256 benchmark workloads), its features held as the
package's own DFM1 reader returns them, at batch sizes 32 and 256, a
few epochs per round, and prints each stage's process (CPU) time per step,
the median over the rounds. All K modalities share a split size, so they
train as one stack and a step serves all of them at once. Stage two runs at
K = 1 and K = 3; stage one needs a runner-up and runs at K = 3 only, and its
time includes the scoring of the K candidates, a cost that is the same on
both sides of a comparison. Stage two also runs under the input-mixup
ablation (apply_ablation) at K = 3, which no benchmark workload runs. It also
times evaluate.rank_pair on one pair at the gallery_2k workload's test
shape: 2000 random 16-wide queries against 2000 gallery items, 10 classes,
and prints the traced (tracemalloc) peak of one such call in MB, outside
the timed rounds. The score case does the same for stage one's scoring of
one candidate at the gallery_2k workload's training shape: 16000 rows of 28
features, held the same way, hidden width 64, embedding width 16, 10
classes. Each side scores as its run_spl does: losses.quality_score over
encoder.embed_blocks' row blocks, or, in a REV without embed_blocks,
losses.quality_score on encoder.embed's whole (N, 16) result.

With a git revision REV it also exports REV's src/priorcast (git archive)
and times both in this one process, alternating round by round so that a
busy host slows both alike, and prints the median of the per-round ratios
of this checkout's time to REV's. Pin it to one CPU (taskset -c 0). It
reads only the signatures of run_spl, train_rsc_all, apply_ablation,
rank_pair, embed_blocks (or embed), quality_score, init_params,
random_orthogonal and the DFM1 stream writer and reader, not what they
return, so REV may be any revision with them. It needs git for REV, and no network.

The file name keeps pytest from collecting it.
"""

import argparse
import importlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = 480
NUM_CLASSES = 10
WIDTHS = (20, 24, 28)
EPOCHS = 4
RANK_ITEMS, RANK_DIM = 2000, 16
SCORE_ROWS, SCORE_WIDTH = 16000, 28
CASES = ([(batch, k, stage, None) for batch in (32, 256) for k in (1, 3) for stage in (1, 2)
          if (stage, k) != (1, 1)]
         + [(batch, 3, 2, "input-mixup") for batch in (32, 256)] + ["rank", "score"])


def export(rev, dest):
    """REV's src/priorcast as the package priorcast_base under dest."""
    tar_path = os.path.join(dest, "src.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", tar_path, rev,
                    "src/priorcast"], check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest)
    os.rename(os.path.join(dest, "src", "priorcast"), os.path.join(dest, "priorcast_base"))
    sys.path.insert(0, dest)
    return "priorcast_base"


def runner(package, case):
    """A function that runs one case, and the count its time is divided by:
    the steps of a training case from fresh generators, one ranked pair or
    one scored candidate."""
    config, data, encoder, evaluate, losses, numerics, prior, training = (
        importlib.import_module(f"{package}.{name}")
        for name in ("config", "data", "encoder", "evaluate", "losses", "numerics", "prior",
                     "training"))
    rng = numerics.make_rng(0)

    def as_read(shape):
        """Random features as the package's own DFM1 reader returns them
        (float32 or float64, by revision), as a loaded dataset holds them."""
        buf = io.BytesIO()
        data.write_features_to(buf, rng.standard_normal(shape))
        buf.seek(0)
        return data.read_features_from(buf)

    if case == "rank":
        queries, gallery = (rng.standard_normal((RANK_ITEMS, RANK_DIM)) for _ in range(2))
        q_labels, g_labels = (rng.integers(0, NUM_CLASSES, RANK_ITEMS) for _ in range(2))
        return lambda: evaluate.rank_pair(queries, q_labels, gallery, g_labels), 1

    if case == "score":
        cfg = config.RunConfig()
        features = as_read((SCORE_ROWS, SCORE_WIDTH))
        labels = rng.integers(0, NUM_CLASSES, SCORE_ROWS)
        params = encoder.init_params(SCORE_WIDTH, cfg.hidden_dim, cfg.embed_dim, rng)
        w = numerics.random_orthogonal(cfg.embed_dim, NUM_CLASSES, rng)
        if hasattr(encoder, "embed_blocks"):
            return lambda: losses.quality_score(encoder.embed_blocks(params, features),
                                                labels, w), 1
        return lambda: losses.quality_score(encoder.embed(params, features), labels, w), 1
    batch, k, stage, ablation = case
    mods = [data.ModalityData(f"mod{i}", as_read((ROWS, WIDTHS[i])),
                              rng.integers(0, NUM_CLASSES, ROWS)) for i in range(k)]
    cfg = config.RunConfig(batch_size=batch, spl_epochs=EPOCHS, rsc_epochs=EPOCHS)
    if ablation:
        cfg = config.apply_ablation(cfg, ablation)
    dataset = data.MultimodalDataset(NUM_CLASSES, {"train": mods})
    w0 = numerics.random_orthogonal(cfg.embed_dim, NUM_CLASSES, numerics.make_rng(1))
    selected = prior.PriorMatrix(w=w0, l=numerics.pseudo_inverse(w0))

    def run():
        if stage == 1:
            prior.run_spl(dataset, cfg, 10)
        else:
            training.train_rsc_all(dataset, selected, cfg, 10)

    # ceil(ROWS / batch) batches, less one when a one-row tail joins the one before it
    return run, EPOCHS * (-(-ROWS // batch) - (ROWS > 1 and ROWS % batch == 1))


def traced_peak_mb(run):
    """The tracemalloc peak of one call of run, in MB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="step-cost-") as tmp:
        packages = ([export(args.rev, tmp)] if args.rev else []) + ["priorcast"]
        runners = {(p, case): runner(p, case) for p in packages for case in CASES}
        times = {key: [] for key in runners}
        for r in range(args.rounds + 1):  # round 0 warms up and is not counted
            for p in packages if r % 2 else packages[::-1]:
                for case in CASES:
                    run, steps = runners[p, case]
                    start = time.process_time()
                    run()
                    if r:
                        times[p, case].append((time.process_time() - start) / steps)
        peaks = {case: [traced_peak_mb(runners[p, case][0]) for p in packages]
                 for case in ("rank", "score")}
    print(f"median of {args.rounds} rounds"
          + (f"; {args.rev} -> this checkout" if args.rev else ""))
    for case in CASES:
        if case == "rank":
            line, scale = f"rank {RANK_ITEMS} x {RANK_ITEMS}, ms per pair: ", 1e3
        elif case == "score":
            line, scale = f"score {SCORE_ROWS} x {SCORE_WIDTH}, ms per candidate: ", 1e3
        else:
            batch, k, stage, ablation = case
            line = (f"B={batch:3d} K={k} stage {'one' if stage == 1 else 'two'}"
                    f"{' ' + ablation if ablation else ''}, us per step: ")
            scale = 1e6
        own = [scale * t for t in times["priorcast", case]]
        if args.rev:
            base = [scale * t for t in times[packages[0], case]]
            ratio = statistics.median(o / b for o, b in zip(own, base))
            line += f"{statistics.median(base):7.1f} -> {statistics.median(own):7.1f} (x{ratio:.3f})"
        else:
            line += f"{statistics.median(own):7.1f}"
        if case in peaks:
            line += "; traced peak MB: " + " -> ".join(f"{mb:.2f}" for mb in peaks[case])
        print(line)


if __name__ == "__main__":
    main()
