"""Modality-specific encoder: two ReLU hidden layers plus a normalized
representation layer, with hand-derived gradients and plain SGD updates.

The backward pass includes the Jacobian of the row normalization
(d/dz of z/||z|| = (I - zz^T/||z||^2) / ||z||) and defines the ReLU
subgradient at exactly 0 as 0.
"""

from dataclasses import dataclass

import numpy as np

from .data import read_tensor_file, write_tensor_file
from .errors import FormatError
from .numerics import unit_rows

_TENSOR_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class EncoderParams:
    """Weights and biases; also used as the gradient container."""

    w1: np.ndarray  # (D, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, H)
    b2: np.ndarray  # (H,)
    w3: np.ndarray  # (H, d)
    b3: np.ndarray  # (d,)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w3.shape[1]

    def tensors(self):
        return [getattr(self, name) for name in _TENSOR_ORDER]


@dataclass
class ForwardCache:
    """Intermediate state of one forward pass, consumed by backward."""

    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    a2: np.ndarray
    z3: np.ndarray  # pre-normalization representation
    unit: np.ndarray  # z3 rows at unit norm, zero where degenerate
    safe: np.ndarray  # (B,) row norms of z3, 1 where degenerate
    degenerate: np.ndarray  # (B,) bool, rows with norm <= NORM_EPS


def init_params(input_dim: int, hidden_dim: int, output_dim: int,
                rng: np.random.Generator) -> EncoderParams:
    """Fan-in-scaled uniform weights (bound sqrt(3/fan_in)), zero biases."""

    def layer(fan_in, fan_out):
        bound = np.sqrt(3.0 / fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return EncoderParams(
        w1=layer(input_dim, hidden_dim),
        b1=np.zeros(hidden_dim),
        w2=layer(hidden_dim, hidden_dim),
        b2=np.zeros(hidden_dim),
        w3=layer(hidden_dim, output_dim),
        b3=np.zeros(output_dim),
    )


def forward(params: EncoderParams, x: np.ndarray):
    """Embed a batch; returns (F, cache) with F row-normalized.

    Rows whose pre-normalization norm is <= NORM_EPS pass through unchanged
    and are flagged in cache.degenerate.
    """
    x = np.asarray(x, dtype=np.float64)
    z1 = x @ params.w1 + params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.w2 + params.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ params.w3 + params.b3
    unit, safe, degenerate = unit_rows(z3)
    f = np.where(degenerate[:, None], z3, unit)
    return f, ForwardCache(x, z1, a1, z2, a2, z3, unit, safe, degenerate)


def backward(params: EncoderParams, cache: ForwardCache, d_f: np.ndarray) -> EncoderParams:
    """Exact gradients of a scalar loss wrt all parameters, given dJ/dF."""
    d_f = np.asarray(d_f, dtype=np.float64)
    if d_f.shape != cache.z3.shape:
        raise ValueError(f"dJ/dF shape {d_f.shape} does not match batch {cache.z3.shape}")
    unit, safe = cache.unit, cache.safe
    # (I - u u^T)/||z|| applied row-wise; identity on degenerate rows
    proj = np.sum(d_f * unit, axis=1, keepdims=True)
    d_z3 = (d_f - proj * unit) / safe[:, None]
    d_z3[cache.degenerate] = d_f[cache.degenerate]

    d_w3 = cache.a2.T @ d_z3
    d_b3 = d_z3.sum(axis=0)
    d_a2 = d_z3 @ params.w3.T
    d_z2 = d_a2 * (cache.z2 > 0)
    d_w2 = cache.a1.T @ d_z2
    d_b2 = d_z2.sum(axis=0)
    d_a1 = d_z2 @ params.w2.T
    d_z1 = d_a1 * (cache.z1 > 0)
    d_w1 = cache.x.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    return EncoderParams(d_w1, d_b1, d_w2, d_b2, d_w3, d_b3)


def sgd_step(params: EncoderParams, grads: EncoderParams, lr: float) -> EncoderParams:
    """Plain gradient descent: theta <- theta - lr * g."""
    return EncoderParams(
        *[p - lr * g for p, g in zip(params.tensors(), grads.tensors())]
    )


def save_checkpoint(path, params: EncoderParams, modality_name: str) -> None:
    """One file: a JSON header line, then the six tensors in DFM1 format."""
    header = {
        "modality": modality_name,
        "input_dim": params.input_dim,
        "hidden_dim": params.hidden_dim,
        "output_dim": params.output_dim,
        "tensors": list(_TENSOR_ORDER),
    }
    write_tensor_file(path, header, params.tensors())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, header dict)."""
    header, mats = read_tensor_file(path, len(_TENSOR_ORDER))
    params = EncoderParams(*[m[0] if name.startswith("b") else m
                             for name, m in zip(_TENSOR_ORDER, mats)])
    for key, got in (
        ("input_dim", params.input_dim),
        ("hidden_dim", params.hidden_dim),
        ("output_dim", params.output_dim),
    ):
        if header.get(key) != got:
            raise FormatError(f"checkpoint header {key}={header.get(key)} but tensors say {got}")
    return params, header
