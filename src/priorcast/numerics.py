"""Deterministic dense linear-algebra and elementary-function kernels.

All matrices are float64 numpy arrays, row-major. Every public function is
pure; randomized ones take an explicit generator so identical seeds give
identical output. Generators must not be shared across threads; derive
per-task seeds with split_seed instead.
"""

import numpy as np

from .errors import NumericError

# Norms at or below this are treated as degenerate (zero vector).
NORM_EPS = 1e-12

# Relative singular-value cutoff for the pseudo-inverse.
SVD_CUTOFF = 1e-10


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single RNG algorithm used everywhere."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def split_seed(seed: int, *keys) -> int:
    """Derive an independent child seed from a root seed and a key path.

    Keys may be ints or strings; strings are folded to stable ints so the
    derivation does not depend on Python's randomized hash.
    """
    folded = [int(seed)]
    for key in keys:
        if isinstance(key, str):
            folded.append(int.from_bytes(key.encode("utf-8"), "little") % (2**63))
        else:
            folded.append(int(key))
    ss = np.random.SeedSequence(folded)
    return int(ss.generate_state(1, np.uint64)[0])


def unit_rows(x: np.ndarray):
    """Scale each row (last axis) of x to unit Euclidean norm.

    Returns (unit, safe, degenerate), the last two shaped x.shape[:-1], so a
    (K, B, d) stack gives the same bits as each of its (B, d) slices. A row
    whose norm is <= NORM_EPS is degenerate: its unit row is zero and its
    safe norm is 1. Other rows have safe equal to their norm, so
    unit == x / safe[..., None] on every row that is not degenerate.
    """
    # np.linalg.norm(x, axis=-1) computes exactly this, with more overhead
    norms = np.sqrt(np.add.reduce(x * x, axis=-1))
    degenerate = norms <= NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    unit = x / safe[..., None]
    unit[degenerate] = 0.0
    return unit, safe, degenerate


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with max-subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


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

