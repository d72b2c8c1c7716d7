"""Byte identity of run outputs: which files count, and their SHA-256.

Standard library only, so that the benchmark process stays small while it
spawns the runs it measures: a child's peak RSS as reported by wait4 starts
from the parent's own high-water mark.
"""

import hashlib
import os


def artifact_names(run_dir):
    """Names of the artifacts covered by the byte-identity guarantee."""
    names = []
    for name in sorted(os.listdir(run_dir)):
        if name == "prior.bin" or name == "map_table.json":
            names.append(name)
        elif name.startswith("encoder_") and name.endswith(".bin"):
            names.append(name)
        elif name.startswith("pr_") and name.endswith(".csv"):
            names.append(name)
    return names


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_files(directory, names):
    return {name: sha256_file(os.path.join(directory, name)) for name in names}


def dataset_names(data_dir):
    """Every file synth writes except its run manifest, which holds a wall time."""
    return sorted(n for n in os.listdir(data_dir) if n != "run_manifest.json")


def compare_hashes(reference, got, what):
    problems = []
    if sorted(reference) != sorted(got):
        problems.append(f"{what}: file set {sorted(got)} differs from {sorted(reference)}")
    for name in sorted(set(reference) & set(got)):
        if reference[name] != got[name]:
            problems.append(f"{what}: {name} differs from the first run's bytes")
    return problems
