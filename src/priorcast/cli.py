"""Command-line driver for the full pipeline.

Subcommands share one JSON config file. Artifacts land in the --out
directory under fixed names (prior.bin, encoder_<modality>.bin,
map_table.json, pr_<query>_<gallery>.csv, reports, run_manifest.json),
which is how later stages find the outputs of earlier ones.

Exit codes: 0 success, 2 config error, 3 I/O or format error, 4 numeric
failure. Input is checked where it enters: the config and the dataset
before any stage runs, a prior or checkpoint when a stage reads it. Any
other exception is a bug and ends the run with a traceback (exit 1).
"""

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import os
import sys
import time

from . import __version__
from .config import RunConfig, apply_ablation, load_config
from .data import MultimodalDataset, load_manifest, synth_generate, write_dataset, write_json
from .encoder import load_checkpoint, save_checkpoint
from .errors import ConfigError, FormatError, NumericError
from .evaluate import embed_split, table_from_embeddings, write_pr_csv
from .prior import load_prior, run_spl, save_prior
from .training import train_rsc_all

PRIOR_FILE = "prior.bin"
MAP_FILE = "map_table.json"
RUN_MANIFEST = "run_manifest.json"


def checkpoint_file(modality: str) -> str:
    return f"encoder_{modality}.bin"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_manifest(out_dir, command, cfg, inputs, base, stages, t0) -> None:
    """Record what ran: inputs by hash, keyed by their paths relative to base,
    and each stage's outputs and wall time."""
    write_json(os.path.join(out_dir, RUN_MANIFEST), {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "inputs": {os.path.relpath(p, base): _sha256(p) for p in inputs},
        "outputs": sorted(name for stage in stages for name in stage["outputs"]),
        "stages": stages,
        "wall_seconds": time.perf_counter() - t0,
    })


def cmd_synth(cfg: RunConfig, out_dir, config_path, seed_override=None):
    if cfg.synth is None:
        raise ConfigError("config has no 'synth' section")
    t0 = time.perf_counter()
    synth_cfg = cfg.synth
    if seed_override is not None:
        synth_cfg = dataclasses.replace(synth_cfg, seed=seed_override)
    dataset = synth_generate(synth_cfg)
    manifest_path = write_dataset(dataset, out_dir)
    stage = {"stage": "synth", "outputs": sorted(os.listdir(out_dir)),
             "wall_seconds": time.perf_counter() - t0}
    _write_run_manifest(out_dir, "synth", cfg, [config_path], out_dir, [stage], t0)
    print(f"wrote dataset manifest {manifest_path}")
    return 0


# Each stage reads what earlier stages wrote from --out and returns
# (paths it read there, names it wrote there).

def cmd_spl(cfg: RunConfig, out_dir, dataset: MultimodalDataset):
    prior, report = run_spl(dataset, cfg, cfg.seed)
    save_prior(os.path.join(out_dir, PRIOR_FILE), prior)
    write_json(os.path.join(out_dir, "spl_report.json"), dataclasses.asdict(report))
    if report.skipped:
        print("prior: random orthogonal (selection skipped)")
    else:
        print(f"prior: modality {prior.source_modality!r} "
              f"(score {prior.score:.4f})")
    return [], [PRIOR_FILE, "spl_report.json"]


def cmd_train(cfg: RunConfig, out_dir, dataset: MultimodalDataset):
    t0 = time.perf_counter()
    prior_path = os.path.join(out_dir, PRIOR_FILE)
    prior = load_prior(prior_path)
    if prior.embed_dim != cfg.embed_dim or prior.num_classes != dataset.num_classes:
        raise FormatError(
            f"{prior_path}: prior is {prior.embed_dim} x {prior.num_classes}, but the run "
            f"has embed_dim {cfg.embed_dim} and {dataset.num_classes} classes")
    encoders, report = train_rsc_all(dataset, prior, cfg, cfg.seed)
    outputs = []
    for name, params in encoders.items():
        ckpt = checkpoint_file(name)
        save_checkpoint(os.path.join(out_dir, ckpt), params, name)
        outputs.append(ckpt)
    write_json(os.path.join(out_dir, "training_report.json"), report)
    outputs.append("training_report.json")
    print(f"trained {len(encoders)} encoders "
          f"({time.perf_counter() - t0:.1f}s)")
    return [prior_path], outputs


def cmd_eval(cfg: RunConfig, out_dir, dataset: MultimodalDataset):
    encoders = {}
    ckpt_paths = []
    for mod in dataset.splits["test"]:
        path = os.path.join(out_dir, checkpoint_file(mod.name))
        params, _ = load_checkpoint(path)
        if (params.input_dim, params.output_dim) != (mod.feature_dim, cfg.embed_dim):
            raise FormatError(f"{path}: encoder maps {params.input_dim} features to "
                              f"{params.output_dim}, but modality {mod.name!r} has "
                              f"{mod.feature_dim} and the run has embed_dim {cfg.embed_dim}")
        encoders[mod.name] = params
        ckpt_paths.append(path)
    n_rank = "all" if cfg.n_rank == 0 else cfg.n_rank
    table, curves = table_from_embeddings(embed_split(encoders, dataset, "test"), n_rank)
    write_json(os.path.join(out_dir, MAP_FILE), table)
    outputs = [MAP_FILE]
    for (a, b), curve in curves.items():
        name = f"pr_{a}_{b}.csv"
        write_pr_csv(os.path.join(out_dir, name), curve)
        outputs.append(name)
    print(f"MAP@{table['n_rank']} avg {table['avg']:.4f} "
          f"over {len(table['pairs'])} pairs")
    return ckpt_paths, outputs


def _run_stages(command, stages, cfg: RunConfig, out_dir, config_path) -> int:
    """Load and hash the dataset once, run the stages in order, write one manifest."""
    t0 = time.perf_counter()
    if not cfg.manifest:
        raise ConfigError("config has no 'manifest' path to a dataset")
    dataset = load_manifest(cfg.manifest)
    if cfg.embed_dim < dataset.num_classes:
        raise ConfigError(f"embed_dim {cfg.embed_dim} is below the dataset's "
                          f"{dataset.num_classes} classes")
    # a failed run must not leave an older run's manifest beside its outputs
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, RUN_MANIFEST))
    inputs = [config_path] + dataset.files
    records = []
    for name, stage in stages.items():
        start = time.perf_counter()
        try:
            read, written = stage(cfg, out_dir, dataset)
        except Exception as exc:
            if len(stages) > 1:
                print(f"{command} stage {name!r} failed: {exc}", file=sys.stderr)
            raise
        made_here = {out for rec in records for out in rec["outputs"]}
        inputs += [p for p in read if os.path.basename(p) not in made_here]
        records.append({"stage": name, "outputs": sorted(written),
                        "wall_seconds": time.perf_counter() - start})
    base = os.path.dirname(os.path.abspath(cfg.manifest))
    _write_run_manifest(out_dir, command, cfg, inputs, base, records, t0)
    return 0


def _parse_n_rank(text: str) -> int:
    if text == "all":
        return 0
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"--n-rank must be 'all' or a positive integer, got {text!r}")
    if value < 1:
        raise ConfigError(f"--n-rank must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorcast",
        description="Cross-modal retrieval via prior selection and label recasting")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("synth", "generate a synthetic multimodal dataset"),
            ("spl", "learn and select the shared prior"),
            ("train", "train per-modality encoders against a saved prior"),
            ("eval", "score cross-modal retrieval from saved checkpoints"),
            ("pipeline", "spl + train + eval in one run")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--ablation", default=None,
                       help="apply a named ablation preset")
        p.add_argument("--n-rank", default=None,
                       help="ranking depth: 'all' or a positive integer")
    return parser


def _run(args) -> int:
    cfg = load_config(args.config)
    if args.ablation:
        cfg = apply_ablation(cfg, args.ablation)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.n_rank is not None:
        cfg = dataclasses.replace(cfg, n_rank=_parse_n_rank(args.n_rank))
    os.makedirs(args.out, exist_ok=True)
    if args.command == "synth":
        return cmd_synth(cfg, args.out, args.config, seed_override=args.seed)
    stages = {"spl": cmd_spl, "train": cmd_train, "eval": cmd_eval}
    if args.command != "pipeline":
        stages = {args.command: stages[args.command]}
    return _run_stages(args.command, stages, cfg, args.out, args.config)


def _keep_freed_heap() -> None:
    """Stop glibc from handing freed heap memory back to the kernel mid-run.

    Each training step at batch 256 frees (K, B, hidden_dim) activations and
    gradients of ~384 KiB, above glibc's default 128 KiB mmap threshold, and
    eval frees a 32 MB cosine matrix per 2000-item gallery pair. Left to
    glibc, such blocks are mapped and unmapped, or trimmed off the top of the
    heap, and the next step faults the same pages back in. On one CPU of a
    2-vCPU VM a batch-256 pipeline took ~55k minor faults without this and
    ~6k with it (benchmark wall time 1.01 -> 0.92 s), and a 2000-item
    gallery pipeline ~20k and ~12k. The values set are the ones the
    adaptive mode itself reaches after freeing a 32 MiB block, so blocks up
    to 32 MiB stay on the heap. Results are unaffected. Without glibc's
    mallopt this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_heap()
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
