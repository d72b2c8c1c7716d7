"""Byte check of priorcast's outputs: a git revision against this checkout.

    python tests/identity_sweep.py REV

Exports REV with `git archive` into a temporary directory, then runs its
src/ and this checkout's src/ side by side on the benchmark workloads
train_b32, train_b256 and gallery_2k (bench/run.py's WORKLOADS) and on
ties, a tie-heavy dataset whose ranking takes the exact path (TIES), at
seeds 1 and 7: one `priorcast synth` per workload and seed, then
`priorcast pipeline` with the default config and with each --ablation
preset.
Datasets are compared file by file (the run manifest aside: it holds a wall
time), pipeline outputs by bench/identity.py's artifact set: prior.bin,
encoder_*.bin, map_table.json and the PR CSVs, and spl_report.json and
training_report.json with every wall_seconds removed. Every differing file is
printed, a report with the keys whose values differ in it (for example
`.../training_report.json: recast_gap`), and the exit status is 1 if any
differ or a command fails, else 0.
Each child is reaped with os.wait4, and both sides' peak RSS is printed
for every command, with the largest increase of the checkout over REV at
the end; memory does not change the exit status. The children are not
pinned to one CPU, so OpenBLAS may start a thread per CPU and the peaks
read higher than bench/run.py's one-CPU runs (`gallery_2k`: ~73 MB
against ~65 MB).

The file name keeps pytest from collecting it. It needs git, and no
network.
"""

import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import identity  # noqa: E402  (bench/identity.py)
from priorcast.config import ABLATION_PRESETS  # noqa: E402
from run import WORKLOADS, write_json  # noqa: E402  (bench/run.py)

# train_b32's sizes with modality mod0 at noise 0: each of its rows repeats
# its class centre, so as a gallery it ties in every query's row and ranking
# takes the exact path, on the full cosine product
TIES = {"synth": {"num_modalities": 3, "num_classes": 10, "feature_dims": [20, 24, 28],
                  "samples_per_class": 60, "separation": 6.0, "noise": [0.0, 1.3, 1.6]},
        "run": {"batch_size": 32}}
SWEEP_WORKLOADS = {**{name: WORKLOADS[name] for name in ("train_b32", "train_b256", "gallery_2k")},
                   "ties": TIES}
SEEDS = (1, 7)
PRESETS = (None, *sorted(ABLATION_PRESETS))


def export(rev, dest):
    """REV's tracked files under dest, from git archive."""
    tar_path = dest + ".tar"
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", tar_path, rev],
                   check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest)
    os.remove(tar_path)


def run_both(trees, argvs, label, peaks):
    """Run one priorcast command per tree, the trees in parallel; prints both
    children's peak RSS (os.wait4 on each pid) under label, appends the
    increase over REV to peaks, and returns the (tree, stderr) of each that
    failed."""
    procs = []
    for tree, argv in zip(trees, argvs):
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        procs.append(subprocess.Popen([sys.executable, "-m", "priorcast.cli", *argv],
                                      env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True))
    mb, failed = [], []
    for tree, proc in zip(trees, procs):
        with proc.stderr:
            err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        mb.append(usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            failed.append((tree, f"exit {proc.returncode}: {err.strip()[-300:]}"))
    print(f"{label}: peak RSS {mb[0]:.1f} MB at REV, {mb[1]:.1f} MB here", flush=True)
    peaks.append((mb[1] - mb[0], label))
    return failed


def compare(work, names_of, what):
    """Hash the files names_of lists in each tree's run directory what;
    returns (files compared, the paths of those that differ or exist in one
    tree only)."""
    rev, head = (identity.hash_files(d, names_of(d)) for d in
                 (os.path.join(w, what) for w in work))
    names = sorted(set(rev) | set(head))
    return len(names), [f"{what}/{n}" for n in names if rev.get(n) != head.get(n)]


REPORTS = ("spl_report.json", "training_report.json")


def differing_keys(a, b, key=None):
    """The names of the keys under which the JSON values a and b differ: for
    each differing leaf, the innermost key above it (None at the top)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return set().union(*(differing_keys(a.get(k), b.get(k), k) for k in a.keys() | b.keys()))
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return set().union(*(differing_keys(x, y, key) for x, y in zip(a, b)))
    return set() if json.dumps(a) == json.dumps(b) else {key}


def compare_reports(work, what):
    """Each of the REPORTS in run directory what that differs between the
    trees once every wall_seconds is removed, as its path and the keys that
    differ in it."""
    differ = []
    for name in REPORTS:
        reports = []
        for w in work:
            with open(os.path.join(w, what, name), encoding="utf-8") as fh:
                reports.append(json.load(fh, object_hook=lambda record: {
                    k: v for k, v in record.items() if k != "wall_seconds"}))
        keys = differing_keys(*reports)
        if keys:
            differ.append(f"{what}/{name}: " + ", ".join(sorted(map(str, keys))))
    return differ


def sweep(trees, work, peaks):
    """Every workload, seed and preset; returns (files compared, problems)."""
    compared, problems = 0, []
    for name, spec in SWEEP_WORKLOADS.items():
        for seed in SEEDS:
            case = f"{name}-seed{seed}"
            data = f"{case}-data"
            synth_cfgs = [write_json(os.path.join(w, f"{case}-synth.json"),
                                     {"synth": spec["synth"]}) for w in work]
            run_cfgs = [write_json(os.path.join(w, f"{case}-run.json"),
                                   dict(spec["run"], manifest=os.path.join(w, data,
                                                                           "manifest.json")))
                        for w in work]
            failed = run_both(trees, [["synth", "--config", cfg, "--out", os.path.join(w, data),
                                       "--seed", str(seed)]
                                      for cfg, w in zip(synth_cfgs, work)], data, peaks)
            if failed:
                problems += [f"{data}: synth on {tree} {err}" for tree, err in failed]
                continue
            n, found = compare(work, identity.dataset_names, data)
            compared, problems = compared + n, problems + found
            for preset in PRESETS:
                out = f"{case}-{preset or 'default'}"
                ablation = [] if preset is None else ["--ablation", preset]
                failed = run_both(trees, [["pipeline", "--config", cfg, "--out",
                                           os.path.join(w, out), "--seed", str(seed), *ablation]
                                          for cfg, w in zip(run_cfgs, work)], out, peaks)
                if failed:
                    problems += [f"{out}: pipeline on {tree} {err}" for tree, err in failed]
                    continue
                n, found = compare(work, identity.artifact_names, out)
                compared, problems = compared + n + len(REPORTS), problems + found
                problems += compare_reports(work, out)
            print(f"{case}: done, {len(problems)} differences so far", flush=True)
    return compared, problems


def main(argv):
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="identity-sweep-") as tmp:
        rev_tree = os.path.join(tmp, "rev")
        export(rev, rev_tree)
        work = [os.path.join(tmp, "rev-runs"), os.path.join(tmp, "head-runs")]
        for w in work:
            os.mkdir(w)
        peaks = []
        compared, problems = sweep([rev_tree, ROOT], work, peaks)
    for problem in problems:
        print(problem)
    if peaks:
        increase, label = max(peaks)
        print(f"largest peak RSS increase over {rev}: {increase:+.1f} MB ({label})")
    print(f"{rev} against {ROOT}: {compared} files compared, {len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
