"""Deterministic dense linear-algebra and elementary-function kernels.

All matrices are float64 numpy arrays, row-major. Every public function is
pure; randomized ones take an explicit generator so identical seeds give
identical output. Generators must not be shared across threads; derive
per-task seeds with split_seed instead.
"""

import itertools
import math
import mmap

import numpy as np

from .errors import NumericError

# Norms at or below this are treated as degenerate (zero vector).
NORM_EPS = 1e-12

# Relative singular-value cutoff for the pseudo-inverse.
SVD_CUTOFF = 1e-10

# Sets the height of a block of rows (block_rows): each of a block's
# (rows, width) temporaries stays near this many bytes whatever the row count.
BLOCK_BYTES = 1 << 18


def block_rows(width: int) -> int:
    """Rows of a block whose (rows, width) float64 arrays take about BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * width))


def row_spans(n: int, height: int):
    """(start, stop) spans that cut n >= 1 rows into blocks of
    h = max(2, height) rows, in order; a last span of one row joins the one
    before it, so no span has one row unless n == 1.

    This is the one rule for training batches, embed blocks and ranking
    blocks. A batch needs two rows because feature augmentation mixes each
    row with a partner row, and numpy sends a one-row product to gemv,
    whose bits may differ from gemm's.
    """
    h = max(2, height)
    stops = (*range(h, n - 1, h), n)
    return list(zip((0, *stops[:-1]), stops))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single RNG algorithm used everywhere."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def split_seed(seed: int, *keys) -> int:
    """Derive an independent child seed from a root seed and a key path.

    Keys may be non-negative ints or strings; a string is folded to the
    int of all its UTF-8 bytes, so the derivation does not depend on
    Python's randomized hash and strings that share a prefix stay apart.
    """
    folded = [int(seed)]
    for key in keys:
        if isinstance(key, str):
            folded.append(int.from_bytes(key.encode("utf-8"), "little"))
        else:
            folded.append(int(key))
    ss = np.random.SeedSequence(folded)
    return int(ss.generate_state(1, np.uint64)[0])


def unit_rows(x: np.ndarray, out=(None, None, None)):
    """Scale each row (last axis) of x to unit Euclidean norm.

    Returns (unit, safe, degenerate), the last two shaped x.shape[:-1], so a
    (K, B, d) stack gives the same bits as each of its (B, d) slices. A row
    whose norm is <= NORM_EPS is degenerate: its unit row is zero and its
    safe norm is 1. Other rows have safe equal to their norm, so
    unit == x / safe[..., None] on every row that is not degenerate. out
    holds arrays for the three results, as for a numpy ufunc.
    """
    unit, safe, degenerate = out
    # np.linalg.norm(x, axis=-1) computes exactly this, with more overhead
    unit = np.multiply(x, x, out=unit)
    safe = np.sqrt(np.add.reduce(unit, axis=-1, out=safe), out=safe)
    degenerate = np.less_equal(safe, NORM_EPS, out=degenerate)
    fix = np.count_nonzero(degenerate)
    if fix:
        safe[degenerate] = 1.0
    np.divide(x, safe[..., None], out=unit)
    if fix:
        unit[degenerate] = 0.0
    return unit, safe, degenerate


def unit_rows_grad(d_unit, unit, safe, out) -> np.ndarray:
    """The gradient d_unit at unit_rows(x)'s unit rows taken back to x: each
    row times (I - u u^T) / ||x||, from unit_rows' unit and safe, into out,
    which is also scratch and must not overlap d_unit or unit. Degenerate
    rows are left to the caller."""
    proj = np.add.reduce(np.multiply(d_unit, unit, out=out), axis=-1, keepdims=True)
    np.subtract(d_unit, np.multiply(proj, unit, out=out), out=out)
    out /= safe[..., None]
    return out


def softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, computed with max-subtraction."""
    e = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


class Workspace:
    """Scratch arrays for batches of up to `rows` rows, reused step after step.

    It holds memory of two kinds. get(name, b, *tail) views buffer `name`
    as (*lead, b, *tail): the front of one flat array, allocated for `rows`
    rows when the name is first asked for, so every batch size shares its
    memory and each step overwrites what the last one wrote there. A named
    buffer holds a value that crosses a kernel boundary: a batch, the
    forward cache, a mixed batch, the logits, a gradient that a caller
    reads. Its views hold garbage until a kernel writes them.

    scratch(b, *widths) hands out the temporaries of one kernel call: one
    (*lead, b, width) float64 view per width, packed into one region that
    every scratch request of this workspace shares. The views stay valid
    until the next scratch request on this workspace, which may overwrite
    or move them. So a kernel takes all its temporaries in one request and
    calls no kernel that requests scratch while it still reads them, and a
    scratch view that a kernel returns is consumed before its caller runs
    another kernel. The region is sized for `rows` rows and grows only at a
    request, when by that rule no earlier scratch view is live. It is an
    anonymous memory map of its own, so a region that grows leaves no hole
    in the heap, and freeing it gives its pages back to the system.

    A view starts where a fresh array would: a named view at the start of
    its own array, a scratch view on a 64-byte boundary (the map starts on
    a page), which is at least a fresh array's alignment; so numpy and BLAS
    see the layout of a fresh result.
    """

    def __init__(self, lead, rows: int):
        self.lead, self.rows = tuple(lead), rows
        self._flat, self._views = {}, {}
        self._region, self._scratch_views = np.empty(0, np.uint8), {}

    def get(self, name, b: int, *tail: int, dtype=np.float64, lead=None) -> np.ndarray:
        view = self._views.get((name, b))
        if view is None:
            shape = (*(self.lead if lead is None else lead), b, *tail)
            per_row = math.prod(shape) // b
            if name not in self._flat:
                self._flat[name] = np.empty(per_row * self.rows, dtype)
            view = self._views[name, b] = self._flat[name][:per_row * b].reshape(shape)
        return view

    def scratch(self, b: int, *widths: int, lead=None):
        lead = self.lead if lead is None else tuple(lead)
        views = self._scratch_views.get((b, widths, lead))
        if views is None:
            per_row = [math.prod(lead) * width for width in widths]
            # a slot per width, for `rows` rows, each on a 64-byte boundary
            ends = list(itertools.accumulate(-(-8 * n * self.rows // 64) * 64 for n in per_row))
            if ends[-1] > self._region.size:
                self._region = np.frombuffer(mmap.mmap(-1, ends[-1]), np.uint8)
                self._scratch_views = {}
            views = self._scratch_views[b, widths, lead] = tuple(
                self._region[start:end].view(np.float64)[:n * b].reshape(*lead, b, width)
                for start, end, n, width in zip([0, *ends], ends, per_row, widths))
        return views

    @property
    def nbytes(self) -> int:
        """Bytes held: the named buffers and the scratch region."""
        return sum(flat.nbytes for flat in self._flat.values()) + self._region.nbytes


def pseudo_inverse(w: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a d x C matrix via SVD.

    Singular values at or below SVD_CUTOFF * sigma_max are treated as zero.
    The result satisfies the four Penrose conditions to ~1e-8 relative
    Frobenius error for well-scaled inputs.
    """
    w = np.asarray(w, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    cutoff = SVD_CUTOFF * s[0]
    large = s > cutoff
    inv_s = np.zeros_like(s)
    inv_s[large] = 1.0 / s[large]
    return (vt.T * inv_s) @ u.T


def random_orthogonal(d: int, c: int, rng: np.random.Generator) -> np.ndarray:
    """d x C matrix with orthonormal columns from a seeded Gaussian draw.

    QR factorization with the triangular factor's diagonal made positive, so
    the result is a deterministic function of the generator state. Needs
    d >= C, which the CLI checks as embed_dim >= num_classes at load.
    """
    g = rng.standard_normal((d, c))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs

