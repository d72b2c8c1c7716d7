"""Pipeline benchmark for priorcast.

    python3 bench/run.py --workload train_b32 --seed 1 --seconds 30 --trace 0

For the chosen workload it writes a synth config and a run config, then:

1. set-up: runs the machine-speed probe (bench/probe.py) and `priorcast
   synth`, each as its own subprocess;
2. measurement: runs `priorcast pipeline` (spl + train + eval) as a
   subprocess, one at a time, until --seconds have passed (at least
   MIN_PIPELINES times), each followed by one more probe and one more
   synth. Every child's wall time, user+system CPU time and peak RSS are
   read from os.wait4 for that one child. Wall times are divided by the
   probe's wall time next to them, CPU times by its CPU time, and scaled to
   PROBE_REF_S, which cancels the host's slow and fast spells; the medians
   of the scaled pipeline times, the median peak RSS and the median scaled
   synth time (`setup_s`) are reported;
3. checks: recomputes the first run's outputs with bench/checks.py, and
   requires every repeat to be byte-identical to the first;
4. with --trace 1, runs synth and pipeline once more, each in a fresh
   interpreter that calls priorcast.cli.main under bench/tracing.py, and
   reports per-layer metrics instead of the end-to-end ones.

The run keeps itself and every child on one CPU (see pin_to_one_cpu), so
the probe and the child it scales see the same CPU. Both subcommands run
from the checkout's src/ with the CLI defaults (--threads 1, and BLAS
threads at the library default, which for one CPU is 1). The last stdout
line is one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import identity

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
TRACER = os.path.join(HERE, "tracing.py")
PROBE = os.path.join(HERE, "probe.py")

MIN_PIPELINES = 3
# Scaled times read as seconds on a host on which the probe takes this long
# (about this 2-vCPU VM in a fast spell).
PROBE_REF_S = 0.25
TIME_LIMIT_S = 170.0  # the whole run, children included, must end within this
RESERVE_S = 20.0  # of which this much is kept for the checks and the traced run

_TRAIN_DATA = {"num_modalities": 3, "num_classes": 10, "feature_dims": [20, 24, 28],
               "samples_per_class": 60, "separation": 6.0}

# Sizes are chosen so that one pipeline takes 3-7 s on a 2-core VM and a
# 30 s run repeats it 4-9 times; noise is chosen per workload so that MAP
# lies well between chance and 1.
WORKLOADS = {
    # Dispatch-bound SPL/RSC hot loop; eval is a few percent of the time.
    "train_b32": {
        "synth": dict(_TRAIN_DATA, noise=[1.0, 1.3, 1.6]),
        "run": {"batch_size": 32},
    },
    # Same sizes and epochs as train_b32, batch 256: the BxB Gram matrices in
    # disc_loss, mixup routing and BLAS threads take over.
    "train_b256": {
        "synth": dict(_TRAIN_DATA, noise=[0.3, 0.4, 0.5]),
        "run": {"batch_size": 256},
    },
    # 2000 test items per modality, 6 ordered pairs; training cut to one
    # epoch per stage, so eval (MAP and PR each re-rank every pair) dominates.
    "gallery_2k": {
        "synth": {"num_modalities": 3, "num_classes": 10, "feature_dims": [20, 24, 28],
                  "samples_per_class": 2000, "separation": 6.0, "noise": [0.5, 0.65, 0.8]},
        "run": {"batch_size": 32, "spl_epochs": 1, "rsc_epochs": 1},
    },
    # Seconds-scale smoke workload for the benchmark's own tests.
    "tiny": {
        "synth": {"num_modalities": 3, "num_classes": 3, "feature_dims": [6, 7, 8],
                  "samples_per_class": 20, "separation": 6.0, "noise": [0.3, 0.4, 0.5]},
        "run": {"batch_size": 8, "spl_epochs": 3, "rsc_epochs": 4},
    },
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Child:
    """Wall time, CPU time, peak RSS and exit code of one finished subprocess."""

    def __init__(self, wall_s, cpu_s, peak_rss_mb, code, stdout, stderr):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, work, timeout, keep_stdout=False):
    """Run `python args...` against src/ and reap it with os.wait4.

    The rusage comes from wait4 on this one pid; RUSAGE_CHILDREN would keep
    the largest peak RSS of any earlier child.
    """
    err_path = os.path.join(work, "stderr.txt")
    out_path = os.path.join(work, "stdout.txt")
    with open(err_path, "wb") as err, open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=cli_env(),
                                stdout=out if keep_stdout else subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, stdout, stderr)


def run_cli(argv, work, timeout):
    """One `priorcast` subcommand in its own interpreter."""
    return spawn(["-m", "priorcast.cli", *argv], work, timeout)


def pin_to_one_cpu():
    """Keep this process and every child on the highest-numbered allowed CPU.

    The vCPUs of a shared host differ in speed from moment to moment, and
    the scheduler puts consecutive children on either one; a probe only
    tells the speed of the CPU it ran on. Returns that CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment():
    """Interpreter, numpy and BLAS identity, and the CPUs and BLAS threads children get."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_id = "BLAS unknown"
    cpus = sorted(os.sched_getaffinity(0))
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or f"default for {len(cpus)} CPU(s)"
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, {blas_id}, "
            f"CPUs {cpus} of {os.cpu_count()}, BLAS threads {threads}")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed, seconds, work_root, min_pipelines):
        # Every path and argument a child gets has the same length in every
        # run of a checkout: a fixed-length directory name, zero-padded
        # numbers. Their lengths shift the program's heap layout, and on
        # train_b256 that alone moves a pipeline between ~100k and ~520k
        # page faults and ~3 and ~4 s (see bench/README.md).
        work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
        self.work_root = work_root
        self.workload = workload
        self.seed = seed
        self.seed_arg = f"{seed:010d}"
        self.seconds = seconds
        self.work = work
        self.min_pipelines = min_pipelines
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.probes = []  # (wall, cpu) probe seconds, one before synth #i for every i
        self.synths = []
        self.pipelines = []
        spec = WORKLOADS[workload]
        self.synth_cfg = write_json(os.path.join(work, "synth.json"), {"synth": spec["synth"]})
        self.data_dir = os.path.join(work, "data000")
        self.run_cfg = write_json(os.path.join(work, "run.json"),
                                  dict(spec["run"], manifest=os.path.join(self.data_dir,
                                                                          "manifest.json")))
        self.ref_dir = os.path.join(work, "out000")
        self.data_hashes = None
        self.artifact_hashes = None

    def _op(self, argv, what, traced_summary=None):
        """Run one subcommand, untraced or (given a summary path) under the tracer."""
        self.attempted += 1
        timeout = self.deadline - time.perf_counter()
        if traced_summary is None:
            child = run_cli(argv, self.work, timeout)
        else:
            child = spawn([TRACER, traced_summary, *argv], self.work, timeout)
        if child.code != 0:
            self.failed += 1
            self.problems.append(f"{what} exited {child.code}: {child.stderr.strip()[-300:]}")
        return child

    def _mark_failed(self, problems):
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def probe(self):
        """(wall, cpu) seconds the machine-speed probe takes now; None if it failed.

        The probe measures the host, not the program, so it is not counted
        as an operation; a failed probe still makes the run incorrect.
        """
        child = spawn([PROBE], self.work, self.deadline - time.perf_counter(), keep_stdout=True)
        try:
            wall, cpu = (float(x) for x in child.stdout.split()) if child.code == 0 else (0, 0)
        except ValueError:
            wall = cpu = 0
        if wall <= 0 or cpu <= 0:
            self.problems.append(f"probe exited {child.code}: {child.stderr.strip()[-300:]}")
            return None
        return wall, cpu

    def synth(self):
        """A probe, then one timed `priorcast synth`.

        Repeats must match the first dataset byte for byte.
        """
        probe = self.probe()
        if probe is None:
            return False
        self.probes.append(probe)
        i = len(self.synths)
        out = os.path.join(self.work, f"data{i:03d}")
        child = self._op(["synth", "--config", self.synth_cfg, "--out", out,
                          "--seed", self.seed_arg], f"synth #{i}")
        self.synths.append(child)
        if child.code == 0:
            hashes = identity.hash_files(out, identity.dataset_names(out))
            if self.data_hashes is None:
                self.data_hashes = hashes
            else:
                self._mark_failed(
                    identity.compare_hashes(self.data_hashes, hashes, f"synth #{i}"))
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)
        return child.code == 0

    def measure(self):
        """Pipelines until `seconds` have passed, each followed by a probe and a synth.

        Pipeline #i lies between probe #i (before synth #i) and probe #i+1,
        so its times are scaled by the mean of the two; synth #i by probe #i,
        which ran just before it.
        """
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            i = len(self.pipelines)
            out = os.path.join(self.work, f"out{i:03d}")
            child = self._op(["pipeline", "--config", self.run_cfg, "--out", out,
                              "--seed", self.seed_arg], f"pipeline #{i}")
            self.pipelines.append(child)
            if child.code == 0:
                hashes = identity.hash_files(out, identity.artifact_names(out))
                if self.artifact_hashes is None:
                    self.artifact_hashes = hashes
                else:
                    self._mark_failed(
                        identity.compare_hashes(self.artifact_hashes, hashes, f"pipeline #{i}"))
            if i > 0:
                shutil.rmtree(out, ignore_errors=True)
            if child.code != 0 or not self.synth():
                break
            now = time.perf_counter()
            if now + (now - cycle_start) > self.deadline - RESERVE_S:
                break
            if len(self.pipelines) >= self.min_pipelines and now - start >= self.seconds:
                break

    def check_reference(self, checks):
        """Full output checks on the first pipeline's artifacts; failures fail that run."""
        if self.artifact_hashes is None:
            return
        self._mark_failed(checks.check_run(self.ref_dir, self.data_dir))

    def _scaled_pipelines(self):
        """(pipeline, mean (wall, cpu) of the probes around it) for each that ran between two."""
        return [(c, ((self.probes[i][0] + self.probes[i + 1][0]) / 2,
                     (self.probes[i][1] + self.probes[i + 1][1]) / 2))
                for i, c in enumerate(self.pipelines)
                if c.code == 0 and i + 1 < len(self.probes)]

    def end_to_end(self):
        """Medians of the scaled times: wall by probe wall, CPU by probe CPU."""
        ok = self._scaled_pipelines()
        synths = [(c, p) for c, p in zip(self.synths, self.probes) if c.code == 0]
        if not ok or not synths:
            return {}
        return {
            "wall_s": statistics.median(c.wall_s * PROBE_REF_S / p[0] for c, p in ok),
            "cpu_s": statistics.median(c.cpu_s * PROBE_REF_S / p[1] for c, p in ok),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in ok),
            "setup_s": statistics.median(c.wall_s * PROBE_REF_S / p[0] for c, p in synths),
        }

    def samples(self):
        """Report lines with the unscaled samples behind the medians."""
        ok = self._scaled_pipelines()
        lines = [
            "probe wall s: " + " ".join(f"{p[0]:.3f}" for p in self.probes),
            "probe cpu s: " + " ".join(f"{p[1]:.3f}" for p in self.probes),
            "pipeline wall s: " + " ".join(f"{c.wall_s:.3f}" for c in self.pipelines),
            "pipeline cpu s: " + " ".join(f"{c.cpu_s:.3f}" for c in self.pipelines),
            "synth wall s: " + " ".join(f"{c.wall_s:.3f}" for c in self.synths),
        ]
        if ok:
            lines.append(f"unscaled medians: pipeline wall "
                         f"{statistics.median(c.wall_s for c, _ in ok):.3f} s, cpu "
                         f"{statistics.median(c.cpu_s for c, _ in ok):.3f} s, synth wall "
                         f"{statistics.median(c.wall_s for c in self.synths):.3f} s")
        return lines

    def traced(self):
        """Synth and pipeline once more, each traced in a fresh interpreter.

        Returns (per-layer metrics, a report line) and requires the traced
        outputs to be byte-identical to the untraced ones.
        """
        import tracing

        data = os.path.join(self.work, "traced_data")
        out = os.path.join(self.work, "traced_out")
        cfg = write_json(os.path.join(self.work, "traced_run.json"),
                         dict(WORKLOADS[self.workload]["run"],
                              manifest=os.path.join(data, "manifest.json")))
        summaries = {}
        probes = [self.probe()]
        for stage, argv in (("synth", ["synth", "--config", self.synth_cfg, "--out", data]),
                            ("pipeline", ["pipeline", "--config", cfg, "--out", out])):
            path = os.path.join(self.work, f"trace_{stage}.json")
            child = self._op(argv + ["--seed", self.seed_arg], f"traced {stage}",
                             traced_summary=path)
            if child.code != 0:
                return {}, f"traced {stage} failed"
            with open(path, encoding="utf-8") as fh:
                summaries[stage] = json.load(fh)
        probes.append(self.probe())
        if None in probes:
            return {}, "probe failed"
        self._mark_failed(
            identity.compare_hashes(self.data_hashes,
                                    identity.hash_files(data, identity.dataset_names(data)),
                                    "traced synth")
            + identity.compare_hashes(self.artifact_hashes,
                                      identity.hash_files(out, identity.artifact_names(out)),
                                      "traced pipeline"))
        pipe = summaries["pipeline"]
        write_json(os.path.join(self.work_root, f"{self.workload}-s{self.seed}-trace.json"),
                   summaries)
        traced_wall = child.wall_s - pipe["post_s"]
        scaled = traced_wall * PROBE_REF_S / statistics.mean(p[0] for p in probes)
        overhead = scaled - self.end_to_end()["wall_s"]
        n_mods = WORKLOADS[self.workload]["synth"]["num_modalities"]
        metrics = tracing.layer_metrics(summaries["synth"], pipe, overhead, n_mods * (n_mods - 1))
        line = (f"traced pipeline {traced_wall:.3f} s wall ({scaled:.3f} s scaled), "
                f"{pipe['run_s']:.3f} s in cli.main; self-time share by module: "
                + ", ".join(f"{m} {s:.1%}" for m, s in
                            tracing.stage_split(pipe, pipe["run_s"]).items()))
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}, line


def run_workload(workload, seed, seconds, trace, work_root=RUNS, min_pipelines=MIN_PIPELINES):
    """One run; returns (result dict, printable report lines)."""
    os.makedirs(work_root, exist_ok=True)
    run = Run(workload, seed, seconds, work_root, min_pipelines)
    try:
        if run.synth():
            run.measure()
        # numpy enters this process only now, after the measured children ran
        import checks

        run.check_reference(checks)
        lines = [environment(),
                 f"workload {workload} seed {seed}: {len(run.probes)} probes, "
                 f"{len(run.synths)} synth runs, {len(run.pipelines)} pipeline runs"]
        for name, digest in sorted((run.artifact_hashes or {}).items()):
            lines.append(f"sha256 {workload} seed={seed} {name} {digest}")
        if trace and run.artifact_hashes is not None:
            metrics, line = run.traced()
            lines.append(line)
        else:
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in run.end_to_end().items()}
        for name, m in metrics.items():
            lines.append(f"{name} = {m['value']!r} {m['unit']}")
        lines.extend(run.samples())
        lines.extend(f"CHECK FAILED: {p}" for p in run.problems)
        result = {"correct": not run.problems, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
        return result, lines
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "priorcast", "cli.py")):
        print(f"no priorcast sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
