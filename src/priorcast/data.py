"""Multimodal dataset model, file formats, batching, and synthetic data.

Feature files ("DFM1") hold one matrix: 4-byte magic, rows and cols as
u32-LE, 4 reserved zero bytes, then rows*cols float32-LE values row-major.
Label files ("DLB1") hold class indices: magic, rows u32-LE, num_classes
u32-LE, then rows u32-LE indices. Tensor files (the prior and the encoder
checkpoints) are one JSON header line followed by DFM1 blocks. The readers
refuse a file with bytes after its last block. A manifest JSON ties the
files of one dataset together. Features are held as float32, the
payload's type, so write/read round trips are exact.
"""

import contextlib
import io
import json
import os
import struct
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import ConfigError, FormatError
from .numerics import make_rng, split_seed

FEATURE_MAGIC = b"DFM1"
LABEL_MAGIC = b"DLB1"
_U32_MAX = 2**32 - 1
_MAX_ELEMS = 2**31  # sanity cap: reject absurd header dims before allocating

SPLIT_NAMES = ("train", "val", "test")


@dataclass
class ModalityData:
    """One modality's raw feature matrix plus single-label class indices."""

    name: str
    features: np.ndarray  # (N, D) float32
    labels: np.ndarray  # (N,) int64, values in [0, C)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def validate(self, num_classes: int) -> None:
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise FormatError(f"modality {self.name!r}: features must be a nonempty 2-D matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise FormatError(
                f"modality {self.name!r}: {self.features.shape[0]} feature rows "
                f"but {self.labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(self.features)):
            raise FormatError(f"modality {self.name!r}: non-finite feature values")
        if self.labels.min() < 0 or self.labels.max() >= num_classes:
            raise FormatError(
                f"modality {self.name!r}: class index out of range [0, {num_classes})"
            )


def pr_curve_file(query: str, gallery: str) -> str:
    """Artifact name of the PR curve of one ordered (query, gallery) pair."""
    return f"pr_{query}_{gallery}.csv"


@dataclass
class MultimodalDataset:
    """Train/val/test splits, each a list of K unpaired modalities.

    `validate` needs all three splits. After it, the CLI drops from `splits`
    each split that no remaining stage reads (cli.STAGE_SPLITS), so a stage
    finds only its own; `files` keeps every file read at load.
    """

    num_classes: int
    splits: dict = field(default_factory=dict)  # split name -> list[ModalityData]
    files: list = field(default_factory=list)  # manifest and data files, in read order

    def modality_names(self) -> list:
        return [m.name for m in self.splits["train"]]

    def validate(self) -> None:
        """Everything the stages assume of a dataset; raises FormatError."""
        for split in SPLIT_NAMES:
            if split not in self.splits:
                raise FormatError(f"missing split {split!r}")
            for mod in self.splits[split]:
                mod.validate(self.num_classes)
        names = self.modality_names()
        for name in names:
            # names become parts of artifact file names: encoder_<name>.bin
            if not name or "/" in name or "\\" in name or ".." in name:
                raise FormatError(f"modality name {name!r} is not a safe file-name part: "
                                  f"it must be nonempty, without '/', '\\' or '..'")
        if len(names) < 2 or len(set(names)) != len(names):
            raise FormatError(f"need at least two modalities, each named once; got {names}")
        written = {}  # PR-curve file name -> the ordered pair that writes it
        for pair in ((a, b) for a in names for b in names if a != b):
            other = written.setdefault(pr_curve_file(*pair), pair)
            if other != pair:
                raise FormatError(f"modality pairs {other} and {pair} would both write "
                                  f"{pr_curve_file(*pair)}")
        for split in SPLIT_NAMES:
            if [m.name for m in self.splits[split]] != names:
                raise FormatError("splits disagree on modality names or order")
        for split in SPLIT_NAMES[1:]:
            for train, mod in zip(self.splits["train"], self.splits[split]):
                if mod.feature_dim != train.feature_dim:
                    raise FormatError(
                        f"modality {mod.name!r}: {split} features are {mod.feature_dim} "
                        f"wide, train features {train.feature_dim}"
                    )
        for mod in self.splits["train"]:
            if mod.num_samples < 2:
                raise FormatError(f"modality {mod.name!r}: training split has "
                                  f"{mod.num_samples} sample; mixing needs a partner")
        # a (query, gallery) pair with no relevant item anywhere has no PR curve
        classes = [set(mod.labels.tolist()) for mod in self.splits["test"]]
        for i, a in enumerate(classes):
            for j in range(i + 1, len(classes)):
                if not a & classes[j]:
                    raise FormatError(f"test splits of {names[i]!r} and {names[j]!r} "
                                      f"share no class")


@dataclass
class SynthConfig:
    """Parameters of the synthetic multimodal generator."""

    num_modalities: int = 3
    num_classes: int = 5
    feature_dims: List[int] = field(default_factory=lambda: [32, 24, 48])
    samples_per_class: int = 40
    separation: float = 6.0
    noise: List[float] = field(default_factory=lambda: [0.1, 0.1, 0.1])
    seed: int = 0

    def validate(self) -> None:
        if self.num_modalities < 2:
            raise ConfigError("num_modalities: need at least 2 modalities")
        if self.num_classes < 2:
            raise ConfigError("num_classes: need at least 2 classes")
        if len(self.feature_dims) != self.num_modalities:
            raise ConfigError("feature_dims: need one dimension per modality")
        if any(d < 1 for d in self.feature_dims):
            raise ConfigError("feature_dims: dimensions must be >= 1")
        if self.samples_per_class < 3:
            raise ConfigError("samples_per_class: need >= 3 so every split is nonempty")
        # a train split over the readers' cap could never be read back, and
        # synth_generate's (C, C, max D) centre differences and (max D, D)
        # maps must not outgrow that cap either
        c, top = self.num_classes, max(self.feature_dims)
        if max(c * _split_counts(self.samples_per_class)[0], c * c, top) * top > _MAX_ELEMS:
            raise ConfigError(f"num_classes, samples_per_class and feature_dims: {c} classes in "
                              f"{top} dimensions would generate arrays of more than "
                              f"{_MAX_ELEMS} elements")
        if not 0 < self.separation < np.inf:
            raise ConfigError("separation: must be finite and > 0")
        if len(self.noise) != self.num_modalities:
            raise ConfigError("noise: need one standard deviation per modality")
        if not all(0 <= s < np.inf for s in self.noise):
            raise ConfigError("noise: standard deviations must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a temporary file beside path for writing; when the block ends
    without an exception, move it over path with os.replace.

    A failed write removes the temporary file, so path is either left as it
    was or holds the complete new content, never a partial file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_features_to(fh, features: np.ndarray) -> None:
    """Write one DFM1 matrix to an open binary stream."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise FormatError("features must be 2-D")
    rows, cols = features.shape
    if rows > _U32_MAX or cols > _U32_MAX:
        raise FormatError(f"dimension overflow: {rows}x{cols} exceeds u32 header range")
    fh.write(FEATURE_MAGIC)
    fh.write(struct.pack("<III", rows, cols, 0))
    fh.write(features.astype("<f4").tobytes(order="C"))


def write_features(path, features: np.ndarray) -> None:
    """Write one matrix in the DFM1 format."""
    with atomic_open(path) as fh:
        write_features_to(fh, features)


def _read_payload(fh, want: int, claim: str) -> bytes:
    """Read the want payload bytes a header claims (claim names its shape).

    A seekable stream is checked against its size first, so a header that
    claims more than the file holds is refused before anything is allocated.
    """
    if fh.seekable():
        pos = fh.tell()
        end = fh.seek(0, io.SEEK_END)
        fh.seek(pos)
        if want > end - pos:
            raise FormatError(
                f"truncated payload: header claims {claim} but only "
                f"{end - pos} payload bytes remain"
            )
    payload = fh.read(want)
    if len(payload) != want:
        raise FormatError(
            f"truncated payload: header claims {claim} but only "
            f"{len(payload)} of {want} payload bytes present"
        )
    return payload


def _read_file(path, parse):
    """parse(fh) of the file at path, which must hold no more; a FormatError names the file."""
    try:
        with open(path, "rb") as fh:
            result = parse(fh)
            if fh.read(1):
                raise FormatError("trailing bytes after the last block")
    except FormatError as exc:
        raise FormatError(f"{exc} (in {path})") from exc
    return result


def parse_json(data: bytes, what: str):
    """UTF-8 JSON data; what json cannot take (bad UTF-8 or JSON, deep nesting,
    an over-long integer) raises FormatError '<what>: <reason>'."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


def usable_text(value) -> bool:
    """Whether value is a str without NUL that encodes as UTF-8, as a path or seed key must."""
    return (isinstance(value, str) and "\0" not in value
            and value.encode("utf-8", "replace").decode("utf-8") == value)


def read_features_from(fh) -> np.ndarray:
    """Read one DFM1 matrix from an open binary stream, consuming exactly its bytes.

    Returns the stored float32 values as a read-only view of the bytes read,
    without a copy; a consumer that computes in float64 widens what it takes
    (every float32 value is exact in float64).
    """
    magic = fh.read(4)
    if magic != FEATURE_MAGIC:
        raise FormatError(f"malformed magic: expected {FEATURE_MAGIC!r}, got {magic!r}")
    header = fh.read(12)
    if len(header) != 12:
        raise FormatError("truncated payload: incomplete feature header")
    rows, cols, _reserved = struct.unpack("<III", header)
    if rows < 1 or cols < 1:
        raise FormatError(f"dimension overflow: invalid shape {rows}x{cols}")
    if rows * cols > _MAX_ELEMS:
        raise FormatError(f"dimension overflow: {rows}x{cols} exceeds element cap")
    payload = _read_payload(fh, rows * cols * 4, f"{rows}x{cols}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols)


def read_features(path) -> np.ndarray:
    """Read a DFM1 file that holds exactly one matrix."""
    return _read_file(path, read_features_from)


def write_tensor_file(path, header: dict, tensors) -> None:
    """One JSON header line (sorted keys), then each tensor as a DFM1 block.

    1-D tensors are stored as one-row matrices.
    """
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for tensor in tensors:
            write_features_to(fh, tensor if tensor.ndim == 2 else tensor[None, :])


def read_tensor_file(path, count: int):
    """Read a file written by write_tensor_file; returns (header, matrices).

    The header must be a JSON object; count DFM1 matrices of finite values
    follow it, and nothing after them. The matrices are widened to float64.
    """
    def parse(fh):
        header = parse_json(fh.readline(), "malformed header")
        if not isinstance(header, dict):
            raise FormatError("malformed header: not a JSON object")
        mats = [read_features_from(fh).astype(np.float64) for _ in range(count)]
        if not all(np.isfinite(m).all() for m in mats):
            raise FormatError("non-finite tensor values")
        return header, mats
    return _read_file(path, parse)


def write_labels(path, labels: np.ndarray, num_classes: int) -> None:
    """Write class indices in the DLB1 format."""
    labels = np.asarray(labels)
    rows = labels.shape[0]
    if rows > _U32_MAX or num_classes > _U32_MAX:
        raise FormatError("dimension overflow: label header exceeds u32 range")
    if rows and (labels.min() < 0 or labels.max() >= num_classes):
        raise FormatError(f"label index outside [0, {num_classes})")
    with atomic_open(path) as fh:
        fh.write(LABEL_MAGIC)
        fh.write(struct.pack("<II", rows, num_classes))
        fh.write(labels.astype("<u4").tobytes(order="C"))


def read_labels(path):
    """Read a DLB1 file; returns (labels, num_classes)."""
    def parse(fh):
        magic = fh.read(4)
        if magic != LABEL_MAGIC:
            raise FormatError(f"malformed magic: expected {LABEL_MAGIC!r}, got {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise FormatError("truncated payload: incomplete label header")
        rows, num_classes = struct.unpack("<II", header)
        labels = np.frombuffer(_read_payload(fh, rows * 4, f"{rows} labels"),
                               dtype="<u4").astype(np.int64)
        if rows and labels.max() >= num_classes:
            raise FormatError(f"label index outside [0, {num_classes})")
        return labels, num_classes
    return _read_file(path, parse)


def _refuse_unknown_keys(obj: dict, known, where: str) -> None:
    # write_dataset writes no other key; one here is a typo or another format
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise FormatError(f"{where} has unknown keys {unknown}")


def load_manifest(path) -> MultimodalDataset:
    """Load and fully validate a dataset from its manifest JSON.

    File paths inside the manifest are resolved relative to the manifest's
    directory.
    """
    with open(path, "rb") as fh:
        doc = parse_json(fh.read(), "manifest is not valid JSON")
    if not isinstance(doc, dict) or "num_classes" not in doc or "splits" not in doc:
        raise FormatError("manifest must be an object with num_classes and splits")
    _refuse_unknown_keys(doc, ("num_classes", "splits"), "manifest")
    num_classes = doc["num_classes"]
    # JSON true loads as bool, a subclass of int equal to 1
    if isinstance(num_classes, bool) or not isinstance(num_classes, int) or num_classes < 1:
        raise FormatError("manifest num_classes must be a positive integer")
    if not isinstance(doc["splits"], dict):
        raise FormatError("manifest splits must be an object")
    _refuse_unknown_keys(doc["splits"], SPLIT_NAMES, "manifest splits")
    base = os.path.dirname(os.path.abspath(path))
    splits = {}
    files = [path]
    for split in SPLIT_NAMES:
        entries = doc["splits"].get(split)
        if not isinstance(entries, list) or not entries:
            raise FormatError(f"manifest split {split!r} missing or empty")
        mods = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise FormatError(f"manifest split {split!r}: entry {entry!r} is not an object")
            _refuse_unknown_keys(entry, ("name", "features", "labels"),
                                 f"manifest split {split!r}: entry")
            for key in ("name", "features", "labels"):
                if not usable_text(entry.get(key)):
                    raise FormatError(f"manifest entry needs a UTF-8 string {key!r} without NUL")
            feat_path = os.path.join(base, entry["features"])
            lab_path = os.path.join(base, entry["labels"])
            files += [feat_path, lab_path]
            features = read_features(feat_path)
            labels, file_classes = read_labels(lab_path)
            if file_classes != num_classes:
                raise FormatError(
                    f"label file for {entry['name']!r} declares {file_classes} classes, "
                    f"manifest says {num_classes}"
                )
            mods.append(ModalityData(entry["name"], features, labels))
        splits[split] = mods
    dataset = MultimodalDataset(num_classes=num_classes, splits=splits, files=files)
    dataset.validate()
    return dataset


def write_json(path, doc) -> None:
    """Write doc as UTF-8 JSON: 2-space indent, sorted keys, trailing newline.

    NaN or an infinity raises ValueError: JSON has no token for them. The
    write is atomic (see atomic_open).
    """
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_dataset(dataset: MultimodalDataset, out_dir) -> list:
    """Write all feature/label files plus the manifest, manifest.json; returns
    the names of the files written."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {"num_classes": dataset.num_classes, "splits": {}}
    written = []
    for split in SPLIT_NAMES:
        doc["splits"][split] = []
        for mod in dataset.splits[split]:
            feat_name = f"{mod.name}_{split}.dfm"
            lab_name = f"{mod.name}_{split}.dlb"
            write_features(os.path.join(out_dir, feat_name), mod.features)
            write_labels(os.path.join(out_dir, lab_name), mod.labels, dataset.num_classes)
            doc["splits"][split].append(
                {"name": mod.name, "features": feat_name, "labels": lab_name}
            )
            written += [feat_name, lab_name]
    write_json(os.path.join(out_dir, "manifest.json"), doc)
    return written + ["manifest.json"]


def _split_counts(n: int):
    """80/10/10 split of n >= 3 samples (SynthConfig.validate), every part nonempty."""
    n_val = max(1, n // 10)
    n_test = max(1, n // 10)
    return n - n_val - n_test, n_val, n_test


@np.errstate(over="ignore", invalid="ignore")  # the float32 range check reports overflow
def synth_generate(cfg: SynthConfig) -> MultimodalDataset:
    """Generate a fully seeded multimodal dataset with shared class structure.

    Class centers live in a latent space of dimension max(feature_dims) and
    are rescaled so the minimum pairwise distance is at least cfg.separation.
    Each modality applies its own seeded linear map to its feature dimension
    and adds Gaussian noise with its own standard deviation. Splits are
    class-stratified 80/10/10.
    """
    cfg.validate()
    latent_dim = max(cfg.feature_dims)
    rng_centers = make_rng(split_seed(cfg.seed, "centers"))
    centers = rng_centers.standard_normal((cfg.num_classes, latent_dim))
    dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    min_dist = dists[~np.eye(cfg.num_classes, dtype=bool)].min()
    if min_dist <= 0:
        raise ConfigError("could not draw distinct class centers")
    if min_dist < cfg.separation:
        centers *= cfg.separation / min_dist

    n = cfg.samples_per_class
    cuts = np.cumsum((0, *_split_counts(n)))
    classes = np.arange(cfg.num_classes, dtype=np.int64)
    f32_max = np.finfo(np.float32).max
    splits = {name: [] for name in SPLIT_NAMES}
    for k in range(cfg.num_modalities):
        dim = cfg.feature_dims[k]
        rng_map = make_rng(split_seed(cfg.seed, "map", k))
        lin_map = rng_map.standard_normal((latent_dim, dim)) / np.sqrt(latent_dim)
        rng_noise = make_rng(split_seed(cfg.seed, "noise", k))
        # class c's rows are feats[c]: its noise drawn in place, scaled, plus its center
        feats = np.empty((cfg.num_classes, n, dim))
        for c, block in enumerate(feats):
            base = centers[c] @ lin_map
            if cfg.noise[k] > 0:
                rng_noise.standard_normal(out=block)
                block *= cfg.noise[k]
                block += base
            else:
                block[...] = base
        # stored payload is float32; NaN fails both comparisons
        if not (feats.max() <= f32_max and feats.min() >= -f32_max):
            raise ConfigError(f"separation and noise: modality 'mod{k}' features overflow float32")
        for name, lo, hi in zip(SPLIT_NAMES, cuts, cuts[1:]):
            # each split is the same rows of every class
            part = feats[:, lo:hi].astype(np.float32)
            splits[name].append(ModalityData(name=f"mod{k}", features=part.reshape(-1, dim),
                                             labels=np.repeat(classes, hi - lo)))
    dataset = MultimodalDataset(num_classes=cfg.num_classes, splits=splits)
    dataset.validate()
    return dataset


def lockstep_batches(modalities, spans, rngs, num_classes: int, ws):
    """One epoch of minibatches for K modalities of equal size, in lockstep.

    Each modality draws its order, rng.permutation(N), from its own
    generator, and the batch of each (start, stop) span (numerics.row_spans)
    is order[start:stop]. Each step yields the K float64 feature matrices of
    that step's batches and their one-hot label rows as one (K, B, C) stack,
    all gathered into the Workspace ws and overwritten by the next step.
    """
    eye = np.eye(num_classes)
    orders = [rng.permutation(mod.num_samples) for mod, rng in zip(modalities, rngs)]
    labels = np.empty((len(modalities), modalities[0].num_samples), np.intp)
    for mod, order, row in zip(modalities, orders, labels):
        # an order is a permutation, in range; mode "raise" would buffer out
        mod.labels.take(order, out=row, mode="clip")
    for start, stop in spans:
        b = stop - start
        x = [ws.get(("x", k), b, mod.feature_dim, lead=()) for k, mod in enumerate(modalities)]
        for mod, order, out in zip(modalities, orders, x):
            # take will not widen into a float64 out: the float32 rows are
            # gathered, then widened (exactly) by one copy
            out[...] = mod.features.take(order[start:stop], axis=0, mode="clip")
        y = eye.take(labels[:, start:stop], axis=0, mode="clip",
                     out=ws.get("y", b, num_classes))
        yield x, y
