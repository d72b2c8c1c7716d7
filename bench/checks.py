"""Output checks for one priorcast run, computed apart from the program.

Nothing here imports priorcast. The file formats are parsed from their
documented layout (README "File formats"), the encoders are re-run from the
saved checkpoint tensors, and MAP, AP and PR curves are recomputed from
their definitions. Each check returns a list of problems; an empty list
means the artifact passed.
"""

import json
import os
import struct

import numpy as np

NORM_EPS = 1e-12  # rows at or below this norm pass through unnormalised
FLOAT32_EPS = float(np.finfo(np.float32).eps)
MAP_TOL = 1e-9  # recomputed vs written MAP; both are float64 means
PR_TOL = 1e-9  # recomputed vs written PR points; sums run in another order
EXACT_TOL = 1e-12  # end points that are exact up to the final division


# --- file formats ---------------------------------------------------------

def read_matrix(fh):
    """One DFM1 block: magic, rows, cols, reserved (u32-LE), float32-LE payload."""
    magic = fh.read(4)
    if magic != b"DFM1":
        raise ValueError(f"bad matrix magic {magic!r}")
    rows, cols, _ = struct.unpack("<III", fh.read(12))
    payload = fh.read(rows * cols * 4)
    if len(payload) != rows * cols * 4:
        raise ValueError("truncated matrix payload")
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(rows, cols)


def read_labels(path):
    with open(path, "rb") as fh:
        if fh.read(4) != b"DLB1":
            raise ValueError(f"{path}: bad label magic")
        rows, _classes = struct.unpack("<II", fh.read(8))
        return np.frombuffer(fh.read(rows * 4), dtype="<u4").astype(np.int64)


def read_tensor_file(path, count):
    """A JSON header line followed by `count` DFM1 blocks."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        mats = [read_matrix(fh) for _ in range(count)]
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after {count} tensors")
    return header, mats


def read_manifest(data_dir):
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_test_split(data_dir):
    """[(name, features, labels)] of the test split, in manifest order."""
    mods = []
    for entry in read_manifest(data_dir)["splits"]["test"]:
        with open(os.path.join(data_dir, entry["features"]), "rb") as fh:
            x = read_matrix(fh)
        mods.append((entry["name"], x, read_labels(os.path.join(data_dir, entry["labels"]))))
    return mods


# --- independent recomputation ---------------------------------------------

def unit_rows(x, keep_degenerate):
    norms = np.sqrt(np.sum(x * x, axis=1))
    degenerate = norms <= NORM_EPS
    out = x / np.where(degenerate, 1.0, norms)[:, None]
    out[degenerate] = x[degenerate] if keep_degenerate else 0.0
    return out


def embed(checkpoint_path, x):
    """Two ReLU layers and a row-normalised output, from the saved tensors."""
    _, (w1, b1, w2, b2, w3, b3) = read_tensor_file(checkpoint_path, 6)
    a1 = np.maximum(x @ w1 + b1[0], 0.0)
    a2 = np.maximum(a1 @ w2 + b2[0], 0.0)
    return unit_rows(a2 @ w3 + b3[0], keep_degenerate=True)


def retrieval(queries, query_labels, gallery, gallery_labels):
    """Per-query AP, PR curves and chance AP for one ordered pair.

    Gallery items are ranked by (-cosine, index). AP averages precision@k
    over the ranks k of the relevant items. Chance is the expected AP of a
    uniformly random ranking with the same number of relevant items:
    (H_N + (R-1)/(N-1) * (N - H_N)) / N.
    """
    sims = unit_rows(queries, False) @ unit_rows(gallery, False).T
    n = gallery.shape[0]
    index = np.broadcast_to(np.arange(n), sims.shape)
    order = np.lexsort((index, -sims), axis=-1)
    rel = (gallery_labels[order] == query_labels[:, None]).astype(np.float64)
    k = np.arange(1, n + 1, dtype=np.float64)
    cum = np.cumsum(rel, axis=1)
    total = cum[:, -1]
    has = total > 0
    aps = np.zeros(len(queries))
    aps[has] = np.sum(cum[has] / k * rel[has], axis=1) / total[has]
    harmonic = np.sum(1.0 / k)
    chance = np.zeros(len(queries))
    r = total[has]
    chance[has] = (harmonic + (r - 1) / max(n - 1, 1) * (n - harmonic)) / n
    recall = np.mean(cum[has] / total[has, None], axis=0)
    precision = np.mean(cum[has] / k, axis=0)
    share = float(np.mean(total[has] / n))
    return {"aps": aps, "chance": chance, "recall": recall,
            "precision": precision, "share": share}


def recompute(run_dir, data_dir):
    """Retrieval results for every ordered modality pair, keyed (query, gallery)."""
    emb = {name: (embed(os.path.join(run_dir, f"encoder_{name}.bin"), x), y)
           for name, x, y in load_test_split(data_dir)}
    return {(a, b): retrieval(*emb[a], *emb[b])
            for a in emb for b in emb if a != b}


# --- checks -----------------------------------------------------------------

def check_map_table(run_dir, results):
    """map_table.json against the recomputed MAP, and every pair above chance."""
    with open(os.path.join(run_dir, "map_table.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    problems = []
    written = {(p["query"], p["gallery"]): p["map"] for p in table["pairs"]}
    if sorted(written) != sorted(results):
        return [f"map_table.json pairs {sorted(written)} != {sorted(results)}"]
    if table.get("n_rank") != "all":
        problems.append(f"map_table.json n_rank {table.get('n_rank')!r} != 'all'")
    maps = []
    for pair, res in results.items():
        want = float(np.mean(res["aps"]))
        maps.append(want)
        if abs(written[pair] - want) > MAP_TOL:
            problems.append(f"MAP {pair}: written {written[pair]!r}, recomputed {want!r}")
        chance = float(np.mean(res["chance"]))
        if not want > chance:
            problems.append(f"MAP {pair} {want:.4f} not above chance {chance:.4f}")
    if abs(table["avg"] - float(np.mean(maps))) > MAP_TOL:
        problems.append(f"MAP avg: written {table['avg']!r}, recomputed {np.mean(maps)!r}")
    return problems


def read_pr_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "rank,recall,precision":
        raise ValueError(f"{os.path.basename(path)}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    ranks = np.array([int(r[0]) for r in rows])
    return ranks, np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows])


def check_pr_csvs(run_dir, results):
    """Ranks 1..N, recall nondecreasing to 1, precision@N = class share, curve values."""
    problems = []
    for (a, b), res in results.items():
        name = f"pr_{a}_{b}.csv"
        try:
            ranks, recall, precision = read_pr_csv(os.path.join(run_dir, name))
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        n = len(res["recall"])
        if not np.array_equal(ranks, np.arange(1, n + 1)):
            problems.append(f"{name}: ranks are not 1..{n}")
            continue
        if np.any(np.diff(recall) < 0):
            problems.append(f"{name}: recall decreases")
        if abs(recall[-1] - 1.0) > EXACT_TOL:
            problems.append(f"{name}: recall at rank {n} is {recall[-1]!r}, not 1")
        if abs(precision[-1] - res["share"]) > EXACT_TOL:
            problems.append(f"{name}: precision at rank {n} is {precision[-1]!r}, "
                            f"class share is {res['share']!r}")
        worst = max(np.max(np.abs(recall - res["recall"])),
                    np.max(np.abs(precision - res["precision"])))
        if worst > PR_TOL:
            problems.append(f"{name}: off the recomputed curve by {worst:.3e}")
    return problems


def prior_errors(w, l):
    """Relative Frobenius errors of the four Penrose conditions and of L W = I."""
    def rel(x, ref):
        return float(np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300))
    wl, lw = w @ l, l @ w
    return {
        "WLW=W": rel(w @ l @ w, w),
        "LWL=L": rel(l @ w @ l, l),
        "(WL)^T=WL": rel(wl.T, wl),
        "(LW)^T=LW": rel(lw.T, lw),
        "LW=I": rel(lw, np.eye(w.shape[1])),
    }


def prior_tolerance(w):
    """float32 storage rounds W and L by eps32 each; errors scale with cond(W)."""
    return 8.0 * FLOAT32_EPS * float(np.linalg.cond(w))


def check_prior(run_dir):
    problems = []
    try:
        header, (w, l) = read_tensor_file(os.path.join(run_dir, "prior.bin"), 2)
    except (OSError, ValueError) as exc:
        return [f"prior.bin: unreadable ({exc})"]
    d, c = header.get("embed_dim"), header.get("num_classes")
    if header.get("format") != "PRIOR1" or w.shape != (d, c) or l.shape != (c, d):
        return [f"prior.bin: header {header} does not match shapes {w.shape}/{l.shape}"]
    tol = prior_tolerance(w)
    for cond, err in prior_errors(w, l).items():
        if not err <= tol:
            problems.append(f"prior.bin: {cond} relative error {err:.3e} > {tol:.3e}")
    return problems


def check_selection(run_dir, data_dir):
    """The selected modality is the first-listed argmax of the SPL scores."""
    with open(os.path.join(run_dir, "spl_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    names = [entry["name"] for entry in read_manifest(data_dir)["splits"]["train"]]
    scores = report["scores"]
    if sorted(scores) != sorted(names):
        return [f"spl_report.json scores {sorted(scores)} != modalities {names}"]
    best = names[0]
    for name in names[1:]:
        if scores[name] > scores[best]:
            best = name
    problems = []
    if report["selected"] != best:
        problems.append(f"spl_report.json selected {report['selected']!r}, argmax is {best!r}")
    with open(os.path.join(run_dir, "prior.bin"), "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
    if header.get("source_modality") != report["selected"]:
        problems.append(f"prior.bin source {header.get('source_modality')!r} "
                        f"!= selected {report['selected']!r}")
    elif header.get("score") != scores[report["selected"]]:
        problems.append("prior.bin score differs from the selected modality's score")
    return problems


def check_run(run_dir, data_dir):
    """All output checks for one pipeline run; returns the list of problems."""
    try:
        results = recompute(run_dir, data_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"could not recompute retrieval: {exc}"]
    return (check_map_table(run_dir, results) + check_pr_csvs(run_dir, results)
            + check_prior(run_dir) + check_selection(run_dir, data_dir))
