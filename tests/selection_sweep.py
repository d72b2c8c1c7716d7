"""How often stage one selects the cleanest modality, by noise gap.

    PYTHONPATH=src python tests/selection_sweep.py [--seeds N]

PAPER.md says self-paced prior learning avoids priors learned from
low-quality modalities. The synthetic generator sets each modality's noise,
so the claim can be checked directly. For each noise in NOISES this
generates datasets of the train_b32 benchmark sizes (3 modalities, 10
classes, feature widths 20, 24 and 28, 60 samples per class) in which one
clean modality has noise 1.0 and the other two that noise. Case i
(0 <= i < N, default 9) generates at synth seed i + 1 with the clean
modality at position i % 3, so it visits every position, and runs stage one
(prior.run_spl) in-process with the default config at the same seed. One
line per noise gives how often the clean modality was selected (chance is
one in three) and the median `lead` of the selected candidate's score over
the runner-up's.

The file name keeps pytest from collecting it; tests/test_acceptance.py
pins one row of the table.
"""

import argparse
import statistics

from priorcast.config import RunConfig
from priorcast.data import SynthConfig, synth_generate
from priorcast.prior import run_spl

CLEAN_NOISE = 1.0
NOISES = (1.1, 1.3, 1.6, 2.0, 3.0)


def selection_case(noise: float, case: int):
    """run_spl's report on case `case`: the clean modality at position
    case % 3 and the others at `noise`, at seed case + 1. Also returns the
    clean modality's name."""
    clean, seed = case % 3, case + 1
    ds = synth_generate(SynthConfig(
        num_modalities=3, num_classes=10, feature_dims=[20, 24, 28], samples_per_class=60,
        separation=6.0, noise=[CLEAN_NOISE if k == clean else noise for k in range(3)],
        seed=seed))
    _, report = run_spl(ds, RunConfig(), seed)
    return report, f"mod{clean}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=9)
    args = parser.parse_args()
    print(f"clean modality at noise {CLEAN_NOISE}, {args.seeds} seeds")
    print("other noise | clean one selected | median lead")
    for noise in NOISES:
        cases = [selection_case(noise, case) for case in range(args.seeds)]
        hits = sum(report["selected"] == clean for report, clean in cases)
        lead = statistics.median(report["lead"] for report, _ in cases)
        print(f"{noise:11.1f} | {hits:>10d} / {args.seeds:<5d} | {lead:.4f}", flush=True)


if __name__ == "__main__":
    main()
