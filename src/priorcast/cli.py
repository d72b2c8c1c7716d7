"""Command-line driver for the full pipeline.

Subcommands share one JSON config file. Artifacts land in the --out
directory under fixed names (prior.bin, encoder_<modality>.bin,
map_table.json, pr_<query>_<gallery>.csv, reports, run_manifest.json),
which is how later stages find the outputs of earlier ones. stage_table
says once which split each stage holds and which of these files it reads
and writes; before it writes, a stage removes what later stages made from
an older run's outputs, so --out holds one generation of artifacts.

Exit codes: 0 success, 2 config error, 3 I/O or format error, 4 numeric
failure. Input is checked where it enters: the config and the dataset
before any stage runs, a prior or checkpoint when a stage reads it. Any
other exception is a bug and ends the run with a traceback (exit 1).
"""

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import os
import sys
import time

from . import __version__
from .config import RunConfig, apply_ablation, load_config
from .data import (_MAX_ELEMS, MultimodalDataset, load_manifest, pr_curve_file,
                   synth_generate, write_dataset, write_json)
from .errors import ConfigError, FormatError, NumericError

PRIOR_FILE = "prior.bin"
SPL_REPORT = "spl_report.json"
MAP_FILE = "map_table.json"
TRAINING_REPORT = "training_report.json"
RUN_MANIFEST = "run_manifest.json"


def checkpoint_file(modality: str) -> str:
    return f"encoder_{modality}.bin"


def _remove(out_dir, names) -> None:
    """Remove the named files from out_dir, where present."""
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def stage_table(names) -> dict:
    """The stages in order, each as (the split it holds, the files it reads
    from --out, the files it writes there), for the dataset's modality names."""
    checkpoints = [checkpoint_file(name) for name in names]
    return {
        "spl": ("train", [], [PRIOR_FILE, SPL_REPORT]),
        "train": ("train", [PRIOR_FILE], checkpoints + [TRAINING_REPORT]),
        "eval": ("test", checkpoints,
                 [MAP_FILE] + [pr_curve_file(a, b) for a in names for b in names if a != b]),
    }


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_manifest(out_dir, command, cfg, inputs, base, stages, t0) -> None:
    """Record what ran: inputs by hash, keyed by their paths relative to base,
    outputs by hash, keyed by name, and each stage's outputs and wall time."""
    write_json(os.path.join(out_dir, RUN_MANIFEST), {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "inputs": {os.path.relpath(p, base): _sha256(p) for p in inputs},
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for stage in stages for name in stage["outputs"]},
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
    written = write_dataset(dataset, out_dir)
    stage = {"stage": "synth", "outputs": sorted(written),
             "wall_seconds": time.perf_counter() - t0}
    _write_run_manifest(out_dir, "synth", cfg, [config_path], out_dir, [stage], t0)
    print(f"wrote dataset manifest {os.path.join(out_dir, 'manifest.json')}")
    return 0


# Each stage reads from --out and writes there the files stage_table names.
# After computing and before its first write it calls clear(), which removes
# what later stages made from the files it replaces; a stage that fails
# before that leaves --out as it was. Its stage modules are imported here,
# not at the top, so that `synth` loads none of them.

def cmd_spl(cfg: RunConfig, out_dir, dataset: MultimodalDataset, clear) -> None:
    from .prior import run_spl, save_prior

    prior, report = run_spl(dataset, cfg, cfg.seed)
    clear()
    save_prior(os.path.join(out_dir, PRIOR_FILE), prior)
    write_json(os.path.join(out_dir, SPL_REPORT), report)
    if report["skipped"]:
        print("prior: random orthogonal (selection skipped)")
    else:
        print(f"prior: modality {prior.source_modality!r} "
              f"(score {prior.score:.4f})")


def cmd_train(cfg: RunConfig, out_dir, dataset: MultimodalDataset, clear) -> None:
    from .encoder import save_checkpoint
    from .prior import load_prior
    from .training import train_rsc_all

    prior_path = os.path.join(out_dir, PRIOR_FILE)
    prior = load_prior(prior_path)
    if prior.embed_dim != cfg.embed_dim or prior.num_classes != dataset.num_classes:
        raise FormatError(
            f"{prior_path}: prior is {prior.embed_dim} x {prior.num_classes}, but the run "
            f"has embed_dim {cfg.embed_dim} and {dataset.num_classes} classes")
    encoders, report = train_rsc_all(dataset, prior, cfg, cfg.seed)
    clear()
    for name, params in encoders.items():
        save_checkpoint(os.path.join(out_dir, checkpoint_file(name)), params, name)
    write_json(os.path.join(out_dir, TRAINING_REPORT), report)
    print(f"trained {len(encoders)} encoders")


def cmd_eval(cfg: RunConfig, out_dir, dataset: MultimodalDataset, clear) -> None:
    from .encoder import load_checkpoint
    from .evaluate import embed_split, table_from_embeddings, write_pr_csv

    encoders = {}
    for mod in dataset.splits["test"]:
        path = os.path.join(out_dir, checkpoint_file(mod.name))
        params, _ = load_checkpoint(path)
        if (params.input_dim, params.output_dim) != (mod.feature_dim, cfg.embed_dim):
            raise FormatError(f"{path}: encoder maps {params.input_dim} features to "
                              f"{params.output_dim}, but modality {mod.name!r} has "
                              f"{mod.feature_dim} and the run has embed_dim {cfg.embed_dim}")
        encoders[mod.name] = params
    n_rank = "all" if cfg.n_rank == 0 else cfg.n_rank
    table, curves = table_from_embeddings(embed_split(encoders, dataset, "test"), n_rank)
    clear()
    write_json(os.path.join(out_dir, MAP_FILE), table)
    for (a, b), (recall, precision) in curves.items():
        write_pr_csv(os.path.join(out_dir, pr_curve_file(a, b)), recall, precision)
    print(f"MAP@{table['n_rank']} avg {table['avg']:.4f} "
          f"over {len(table['pairs'])} pairs")


def _run_stages(command, cfg: RunConfig, out_dir, config_path) -> int:
    """Load and hash the dataset once, run the command's stages in order, write one manifest.

    From stage_table: each stage holds only the splits it or a later stage
    of the command reads (`val` is released before the first stage, and in
    a pipeline the training split before eval); its clear() removes the
    writes of every later stage, whatever the command; the manifest's
    inputs add each file it reads from --out that no earlier stage wrote.
    """
    t0 = time.perf_counter()
    if not cfg.manifest:
        raise ConfigError("config has no 'manifest' path to a dataset")
    # before the load: imported after it, they move the heap layout and peak RSS
    from . import encoder, evaluate, prior, training  # noqa: F401
    dataset = load_manifest(cfg.manifest)
    if cfg.embed_dim < dataset.num_classes:
        raise ConfigError(f"embed_dim {cfg.embed_dim} is below the dataset's "
                          f"{dataset.num_classes} classes")
    width = max(mod.feature_dim for mod in dataset.splits["train"])
    if width * cfg.hidden_dim > _MAX_ELEMS:
        raise ConfigError(f"hidden_dim {cfg.hidden_dim} and the widest feature width {width} "
                          f"give a first-layer tensor of more than {_MAX_ELEMS} elements")
    # a failed run must not leave an older run's manifest beside its outputs
    _remove(out_dir, [RUN_MANIFEST])
    inputs = [config_path] + dataset.files
    table = stage_table(dataset.modality_names())  # before `train` is released
    order = list(table)
    names = order if command == "pipeline" else [command]
    # looked up per run, so that a wrapped cmd_* (test spies, bench/tracing.py) is the one run
    run = {"spl": cmd_spl, "train": cmd_train, "eval": cmd_eval}
    records = []
    for i, name in enumerate(names):
        _, reads, writes = table[name]
        needed = {table[later][0] for later in names[i:]}
        dataset.splits = {s: mods for s, mods in dataset.splits.items() if s in needed}
        stale = [f for later in order[order.index(name) + 1:] for f in table[later][2]]
        start = time.perf_counter()
        try:
            run[name](cfg, out_dir, dataset, functools.partial(_remove, out_dir, stale))
        except Exception as exc:
            if len(names) > 1:
                print(f"{command} stage {name!r} failed: {exc}", file=sys.stderr)
            raise
        made = {f for earlier in names[:i] for f in table[earlier][2]}
        inputs += [os.path.join(out_dir, f) for f in reads if f not in made]
        records.append({"stage": name, "outputs": sorted(writes),
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
    return _run_stages(args.command, cfg, args.out, args.config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


def run() -> None:
    """Process entry point (`python -m priorcast.cli` and the `priorcast` script).

    Runs main(), then freezes the heap, so that the interpreter's exit-time
    collections skip the objects that numpy and the imports made; teardown
    still runs atexit hooks and flushes. main() itself never freezes: tests
    call it in-process, and a frozen heap would keep each call's garbage.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
