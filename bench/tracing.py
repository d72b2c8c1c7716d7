"""Span tracing of priorcast from outside the package.

A Tracer replaces every public module-level function of the traced modules
with a timing wrapper, under each name a caller looks it up by: a function
defined in `encoder` and imported into `training`, `prior` and `evaluate` is
wrapped in all four namespaces by one shared wrapper. Spans stay in memory;
a span's self time is its duration minus the time its child spans cover.
Leaving the `with` block puts every original binding back.

Run as a script, it executes one CLI command in-process under a Tracer in a
fresh interpreter, so the traced run starts from the same process state as
the untraced ones, and writes the span summary as JSON:

    PYTHONPATH=src python3 bench/tracing.py SUMMARY.json pipeline --config ...
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "priorcast"
MODULES = ("cli", "data", "prior", "training", "encoder", "losses", "numerics", "evaluate")

# The one span that also counts bytes: a DFM1 header plus the float32
# payload of the matrix it read.
READ_FEATURES = "data.read_features_from"


class Tracer:
    """Timing wrappers around the package's public functions while active."""

    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        self.spans = []  # (name, parent name, start, end, self seconds)
        self.counts = defaultdict(int)
        self.bytes = defaultdict(int)
        self._stack = []  # open frames: [name, start, child seconds]
        self._saved = []  # (owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def install(self):
        wrappers = {}
        for module in self.modules:
            for attr, fn in list(vars(module).items()):
                if not (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__.startswith(PACKAGE + ".")):
                    continue
                if id(fn) not in wrappers:
                    short = fn.__module__[len(PACKAGE) + 1:]
                    wrappers[id(fn)] = self._wrap(f"{short}.{fn.__name__}", fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        encoder = importlib.import_module(f"{PACKAGE}.encoder")
        self._count_inits(encoder.EncoderParams, "encoder.EncoderParams")

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_inits(self, cls, name):
        original = cls.__init__
        counts = self.counts

        @functools.wraps(original)
        def counted(obj, *args, **kwargs):
            counts[name] += 1
            original(obj, *args, **kwargs)

        self._saved.append((cls, "__init__", original))
        cls.__init__ = counted

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        count_bytes = name == READ_FEATURES
        nbytes = self.bytes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append((name, parent, frame[1], end, duration - frame[2]))
            if count_bytes:
                nbytes[name] += 16 + 4 * result.size
            return result

        return wrapper

    def summary(self):
        """JSON-ready totals: per span name calls, total_s and self_s; calls per
        parent -> child edge; allocation counts; bytes moved."""
        spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        edges = defaultdict(lambda: defaultdict(int))
        for name, parent, start, end, self_s in self.spans:
            row = spans[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
            edges[parent or ""][name] += 1
        return {"spans": dict(spans), "edges": {p: dict(c) for p, c in edges.items()},
                "counts": dict(self.counts), "bytes": dict(self.bytes)}


def stage_split(summary, wall):
    """Share of the traced wall time spent as self time in each module."""
    shares = defaultdict(float)
    for name, row in summary["spans"].items():
        shares[name.split(".", 1)[0]] += row["self_s"] / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_metrics(synth, pipe, overhead_s, pairs):
    """The per-layer metrics, as {name: (value, unit)}.

    `synth` and `pipe` are the summaries of the traced `priorcast synth` and
    `priorcast pipeline`; `pairs` is the number of ordered modality pairs.
    """
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name, summary=pipe):
        return summary["spans"].get(name, zero)

    def self_s(name):
        return row(name)["self_s"]

    def steps_under(parent):
        return pipe["edges"].get(parent, {}).get("encoder.sgd_step", 0)

    def us_per_step(parent, steps):
        return row(parent)["total_s"] / steps * 1e6 if steps else 0.0

    prior_steps = steps_under("prior.train_prior_for_modality")
    rsc_steps = steps_under("training.train_rsc_for_modality")
    allocs = pipe["counts"].get("encoder.EncoderParams", 0)
    m = {
        "cli.import_s": (pipe["import_s"], "s"),
        "cli.cmd_spl.s": (row("cli.cmd_spl")["total_s"], "s"),
        "cli.cmd_train.s": (row("cli.cmd_train")["total_s"], "s"),
        "cli.cmd_eval.s": (row("cli.cmd_eval")["total_s"], "s"),
        "cli.self_s": (sum(r["self_s"] for n, r in pipe["spans"].items()
                           if n.startswith("cli.")), "s"),
        "data.load_manifest.calls": (row("data.load_manifest")["calls"], "count"),
        "data.load_manifest.self_s": (self_s("data.load_manifest"), "s"),
        "data.read_features_from.mb": (
            pipe["bytes"].get(READ_FEATURES, 0) / 1e6, "MB"),
        "data.minibatch_iter.self_s": (self_s("data.minibatch_iter"), "s"),
        "data.write_features_to.calls": (row("data.write_features_to")["calls"], "count"),
        "data.synth_generate.self_s": (row("data.synth_generate", synth)["self_s"], "s"),
        "data.write_dataset.self_s": (row("data.write_dataset", synth)["self_s"], "s"),
        "prior.run_spl.s": (row("prior.run_spl")["total_s"], "s"),
        "prior.train_prior_for_modality.self_s": (self_s("prior.train_prior_for_modality"), "s"),
        "prior.sgd_steps": (prior_steps, "count"),
        "prior.us_per_step": (us_per_step("prior.train_prior_for_modality", prior_steps), "us"),
        "prior.save_prior.self_s": (self_s("prior.save_prior"), "s"),
        "prior.load_prior.self_s": (self_s("prior.load_prior"), "s"),
        "training.train_rsc_all.s": (row("training.train_rsc_all")["total_s"], "s"),
        "training.train_rsc_for_modality.self_s": (
            self_s("training.train_rsc_for_modality"), "s"),
        "training.feature_augment.self_s": (self_s("training.feature_augment"), "s"),
        "training.sgd_steps": (rsc_steps, "count"),
        "training.us_per_step": (
            us_per_step("training.train_rsc_for_modality", rsc_steps), "us"),
        "encoder.forward.calls": (row("encoder.forward")["calls"], "count"),
        "encoder.forward.self_s": (self_s("encoder.forward"), "s"),
        "encoder.backward.self_s": (self_s("encoder.backward"), "s"),
        "encoder.sgd_step.self_s": (self_s("encoder.sgd_step"), "s"),
        "encoder.params_allocs_per_step": (
            allocs / (prior_steps + rsc_steps) if prior_steps + rsc_steps else 0.0, "count"),
        "encoder.save_checkpoint.self_s": (self_s("encoder.save_checkpoint"), "s"),
        "encoder.load_checkpoint.self_s": (self_s("encoder.load_checkpoint"), "s"),
    }
    for name in ("total_loss", "label_loss", "gce_from_logits", "mse_loss", "disc_loss",
                 "prior_loss", "quality_score"):
        m[f"losses.{name}.self_s"] = (self_s(f"losses.{name}"), "s")
    m.update({
        "numerics.softmax.calls": (row("numerics.softmax")["calls"], "count"),
        "numerics.softmax.self_s": (self_s("numerics.softmax"), "s"),
        "numerics.pseudo_inverse.self_s": (self_s("numerics.pseudo_inverse"), "s"),
        "evaluate.embed_split.self_s": (self_s("evaluate.embed_split"), "s"),
        "evaluate.map_score.self_s": (self_s("evaluate.map_score"), "s"),
        "evaluate.average_precision.calls": (row("evaluate.average_precision")["calls"], "count"),
        "evaluate.average_precision.self_s": (self_s("evaluate.average_precision"), "s"),
        "evaluate.pr_curve.self_s": (self_s("evaluate.pr_curve"), "s"),
        "evaluate.rankings_per_pair": (
            (row("evaluate.map_score")["calls"] + row("evaluate.pr_curve")["calls"]) / pairs,
            "count"),
        "evaluate.write_pr_csv.self_s": (self_s("evaluate.write_pr_csv"), "s"),
        "evaluate.write_map_table.self_s": (self_s("evaluate.write_map_table"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m


def main(argv):
    """Trace one CLI command in this process; write its summary to argv[0]."""
    summary_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - start
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        with Tracer() as tracer:
            start = time.perf_counter()
            code = cli.main(cli_argv)
            end = time.perf_counter()
    summary = tracer.summary()
    # post_s lets the caller take summarising out of this process's wall time
    summary.update(code=code, import_s=import_s, run_s=end - start,
                   post_s=time.perf_counter() - end)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
