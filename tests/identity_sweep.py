"""Byte check of priorcast's outputs: a git revision against this checkout.

    python tests/identity_sweep.py REV

Exports REV with `git archive` into a temporary directory, then runs its
src/ and this checkout's src/ side by side on the benchmark workloads
train_b32, train_b256 and gallery_2k (bench/run.py's WORKLOADS), at seeds 1
and 7: one `priorcast synth` per workload and seed, then `priorcast
pipeline` with the default config and with each --ablation preset.
Datasets are compared file by file (the run manifest aside: it holds a wall
time), pipeline outputs by bench/identity.py's artifact set: prior.bin,
encoder_*.bin, map_table.json and the PR CSVs. Every differing file is
printed, and the exit status is 1 if any differ or a command fails, else 0.

The file name keeps pytest from collecting it. It needs git, and no
network.
"""

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

SWEEP_WORKLOADS = ("train_b32", "train_b256", "gallery_2k")
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


def run_both(trees, argvs):
    """Run one priorcast command per tree, the trees in parallel; returns the
    (tree, stderr) of each that failed."""
    procs = []
    for tree, argv in zip(trees, argvs):
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        procs.append(subprocess.Popen([sys.executable, "-m", "priorcast.cli", *argv],
                                      env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True))
    failed = []
    for tree, proc in zip(trees, procs):
        _, err = proc.communicate()
        if proc.returncode != 0:
            failed.append((tree, f"exit {proc.returncode}: {err.strip()[-300:]}"))
    return failed


def compare(work, names_of, what):
    """Hash the files names_of lists in each tree's run directory what;
    returns (files compared, the paths of those that differ or exist in one
    tree only)."""
    rev, head = (identity.hash_files(d, names_of(d)) for d in
                 (os.path.join(w, what) for w in work))
    names = sorted(set(rev) | set(head))
    return len(names), [f"{what}/{n}" for n in names if rev.get(n) != head.get(n)]


def sweep(trees, work):
    """Every workload, seed and preset; returns (files compared, problems)."""
    compared, problems = 0, []
    for name in SWEEP_WORKLOADS:
        spec = WORKLOADS[name]
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
                                      for cfg, w in zip(synth_cfgs, work)])
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
                                          for cfg, w in zip(run_cfgs, work)])
                if failed:
                    problems += [f"{out}: pipeline on {tree} {err}" for tree, err in failed]
                    continue
                n, found = compare(work, identity.artifact_names, out)
                compared, problems = compared + n, problems + found
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
        compared, problems = sweep([rev_tree, ROOT], work)
    for problem in problems:
        print(problem)
    print(f"{rev} against {ROOT}: {compared} files compared, {len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
