import numpy as np
from hypothesis import settings

from priorcast.encoder import EncoderParams
from priorcast.numerics import NORM_EPS, Workspace

# every property checks the same examples on every run: no example database,
# no deadline; each property sets only its own max_examples
settings.register_profile("priorcast", derandomize=True, database=None, deadline=None)
settings.load_profile("priorcast")


def numeric_grad(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn() w.r.t. array x (in place)."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        f_plus = fn()
        x[i] = orig - h
        f_minus = fn()
        x[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric):
    """Elementwise |a - n| / max(1, |a|, |n|), reduced to the max."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grad(fn, x, analytic, tol=1e-5, h=1e-6):
    err = max_rel_err(analytic, numeric_grad(fn, x, h))
    assert err <= tol, f"gradient mismatch: max rel err {err:.3e} > {tol:.0e}"


def cosine(a, b):
    """Cosine similarity clamped to [-1, 1]; 0 if either vector is degenerate."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na <= NORM_EPS or nb <= NORM_EPS:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def workspace_for(batch):
    """A fresh Workspace for the rows of batch, (B, .) or (K, B, .)."""
    return Workspace(batch.shape[:-2], batch.shape[-2])


def stack_slice(stacked, k):
    """Modality k of stacked EncoderParams (an EncoderStack's params or
    grads) as views shaped like one encoder's."""
    s = stacked
    return EncoderParams(s.w1[k], s.b1[k, 0], s.w2[k], s.b2[k, 0], s.w3[k], s.b3[k, 0])
