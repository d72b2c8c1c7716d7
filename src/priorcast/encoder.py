"""Modality-specific encoder: two ReLU hidden layers plus a normalized
representation layer, with hand-derived gradients and plain SGD updates.

forward and backward run the K encoders of an EncoderStack at once, on
(K, B, .) batches, and write into the stack's workspace; a single encoder
runs as a stack of one. embed_blocks runs forward on a stack of one, one
block of a split's rows at a time, and embed collects its blocks.

The backward pass includes the Jacobian of the row normalization
(numerics.unit_rows_grad) and defines the ReLU subgradient at exactly 0 as
0. The forward cache keeps only what backward reads: the input, the two
hidden activations and the normalization's unit rows, norms and degenerate
flags. Each ReLU is applied in place, and backward takes its mask from
a > 0, which holds exactly where z > 0 (a NaN pre-activation stays NaN and
fails both).
"""

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import lockstep_batches, read_tensor_file, write_tensor_file
from .errors import FormatError, NumericError
from .numerics import (Workspace, block_rows, make_rng, row_spans, split_seed, unit_rows,
                       unit_rows_grad)

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
    """Intermediate state of one forward pass over a stack, consumed by backward."""

    x: Sequence[np.ndarray]  # the K input matrices
    a1: np.ndarray  # first hidden activation, relu(z1)
    a2: np.ndarray  # second hidden activation, relu(z2)
    unit: np.ndarray  # pre-normalization rows z3 at unit norm, zero where degenerate
    safe: np.ndarray  # (K, B) row norms of z3, 1 where degenerate
    degenerate: np.ndarray  # (K, B) bool, rows with norm <= NORM_EPS


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


def forward(stack: "EncoderStack", x):
    """Embed K batches at once; returns (F, cache) with F row-normalized.

    x is a sequence of K (B, D_k) matrices, one per modality of the stack;
    F is (K, B, d), in the stack's workspace unless a row is degenerate. A
    single encoder runs as a stack of one. Rows whose pre-normalization norm
    is <= NORM_EPS pass through unchanged and are flagged in
    cache.degenerate.
    """
    params, ws = stack.params, stack.workspace
    b = x[0].shape[0]
    width, out_dim = params.b1.shape[-1], params.b3.shape[-1]
    a1 = ws.get("a1", b, width)
    # np.dot is np.matmul's BLAS call, cheaper
    for x_k, w1_k, a1_k in zip(x, params.w1, a1):
        np.dot(x_k, w1_k, out=a1_k)
    a1 += params.b1
    np.maximum(a1, 0.0, out=a1)
    a2 = np.matmul(a1, params.w2, out=ws.get("a2", b, width))
    a2 += params.b2
    np.maximum(a2, 0.0, out=a2)
    z3 = np.matmul(a2, params.w3, out=ws.scratch(b, out_dim)[0])
    z3 += params.b3
    unit, safe, degenerate = unit_rows(z3, (ws.get("unit", b, out_dim), ws.get("safe", b),
                                            ws.get("degenerate", b, dtype=bool)))
    f = unit
    if np.count_nonzero(degenerate):
        f = np.where(degenerate[..., None], z3, unit)
    return f, ForwardCache(x, a1, a2, unit, safe, degenerate)


def embed_blocks(params: EncoderParams, x: np.ndarray):
    """Yield (start, stop, f): the embeddings f of rows start:stop of x under
    one encoder, by forward on a stack of one, block by block.

    x may be float32, as load_manifest holds features; each block of rows is
    widened to float64 (exactly) before forward. Blocks are the row_spans of
    block_rows(widest layer), in order, and the stack's workspace holds one
    block: f is a view into it, overwritten by the next block. So besides x
    only one block's arrays and the stack's parameter and gradient vectors
    are held at once."""
    n = x.shape[0]
    spans = row_spans(n, block_rows(max(params.input_dim, params.hidden_dim, params.output_dim)))
    stack = EncoderStack([params], max(stop - start for start, stop in spans))
    for start, stop in spans:
        block = np.ascontiguousarray(x[start:stop], dtype=np.float64)
        yield start, stop, forward(stack, [block])[0][0]


def embed(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Embeddings of the rows of x under one encoder: embed_blocks' blocks
    collected into one (N, d) result."""
    out = np.empty((x.shape[0], params.output_dim))
    for start, stop, f in embed_blocks(params, x):
        out[start:stop] = f
    return out


def backward(stack: "EncoderStack", cache: ForwardCache, d_f: np.ndarray) -> None:
    """Exact gradients of a scalar loss wrt all parameters, given dJ/dF.

    Works on a stack, like forward, and writes the gradients into
    stack.grads. It consumes the cache: the gradients at the two hidden
    layers overwrite cache.a1 and cache.a2.
    """
    params, grads, ws = stack.params, stack.grads, stack.workspace
    unit, safe, a1, a2 = cache.unit, cache.safe, cache.a1, cache.a2
    b, out_dim = d_f.shape[-2:]
    # through row normalization; identity on degenerate rows
    d_z3 = unit_rows_grad(d_f, unit, safe, ws.scratch(b, out_dim)[0])
    if np.count_nonzero(cache.degenerate):
        np.copyto(d_z3, d_f, where=cache.degenerate[..., None])

    np.matmul(a2.swapaxes(-1, -2), d_z3, out=grads.w3)
    np.add.reduce(d_z3, axis=-2, keepdims=True, out=grads.b3)
    # each hidden gradient overwrites the activation it no longer needs
    active = np.greater(a2, 0.0, out=ws.get("active", b, a2.shape[-1], dtype=bool))
    d_z2 = np.matmul(d_z3, params.w3.swapaxes(-1, -2), out=a2)
    d_z2 *= active
    np.matmul(a1.swapaxes(-1, -2), d_z2, out=grads.w2)
    np.add.reduce(d_z2, axis=-2, keepdims=True, out=grads.b2)
    np.greater(a1, 0.0, out=active)
    d_z1 = np.matmul(d_z2, params.w2.swapaxes(-1, -2), out=a1)
    d_z1 *= active
    for x_k, d_k, g_k in zip(cache.x, d_z1, grads.w1):
        np.dot(x_k.T, d_k, out=g_k)
    np.add.reduce(d_z1, axis=-2, keepdims=True, out=grads.b1)


class EncoderStack:
    """K encoders of one hidden and output width, trained in lockstep.

    All parameters live in one flat float64 vector and their gradients in a
    second vector of the same layout: each modality's w1, then b1, w2, b2,
    w3, b3 as (K, ...) blocks with the biases (K, 1, .) so that they
    broadcast over a (K, B, .) batch, then the optional per-modality extra
    tensor (stage one's candidate transformations). `params` and `grads`
    view the vectors as stacked EncoderParams whose w1 is a tuple of K
    matrices (input widths may differ); `members[k]` views modality k as an
    ordinary EncoderParams. `step` updates everything in place, so a
    training step constructs no EncoderParams. `workspace` holds the
    batch-sized arrays of forward, backward and a training step, for
    batches of up to `rows` rows; it lives and dies with the stack.
    """

    def __init__(self, members, rows: int, extra: Optional[np.ndarray] = None):
        k = len(members)
        self.workspace = Workspace((k,), rows)
        hidden, out_dim = members[0].hidden_dim, members[0].output_dim
        shapes = [m.w1.shape for m in members] + [
            (k, 1, hidden), (k, hidden, hidden), (k, 1, hidden),
            (k, hidden, out_dim), (k, 1, out_dim)]
        if extra is not None:
            shapes.append(extra.shape)
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        self.flat = np.empty(ends[-1])
        self.grad = np.zeros(ends[-1])
        p, g = ([vec[start:stop].reshape(shape)
                 for start, stop, shape in zip([0, *ends], ends, shapes)]
                for vec in (self.flat, self.grad))
        self.params = EncoderParams(tuple(p[:k]), *p[k:k + 5])
        self.grads = EncoderParams(tuple(g[:k]), *g[k:k + 5])
        self.extra = self.extra_grad = None
        if extra is not None:
            self.extra, self.extra_grad = p[-1], g[-1]
            self.extra[...] = extra
        s = self.params
        self.members = [EncoderParams(s.w1[i], s.b1[i, 0], s.w2[i], s.b2[i, 0],
                                      s.w3[i], s.b3[i, 0]) for i in range(k)]
        for view, m in zip(self.members, members):
            for dst, src in zip(view.tensors(), m.tensors()):
                dst[...] = src

    def step(self, lr: float) -> None:
        """SGD on every parameter in place: theta <- theta - lr * g.

        Consumes the gradients (they are scaled by lr in place).
        """
        self.grad *= lr
        self.flat -= self.grad

    def check_finite(self, losses, where: str) -> None:
        """Raise NumericError unless the losses and every parameter are finite."""
        if not (np.isfinite(losses).all() and np.isfinite(self.flat).all()):
            raise NumericError(f"{where}: loss or parameters not finite")


def train_stack(stage, mods, cfg, seed, key, num_classes, qs, terms, batch_step, extra=None):
    """The one training driver of both stages: SGD on each modality's encoder,
    an epoch per q in qs.

    Modalities of equal training-split size get the same batch spans,
    row_spans(size, cfg.batch_size), so they train in lockstep as one
    EncoderStack, its workspace sized for the largest span (groups in order
    of first appearance; a unique size is a stack of one). Each member
    draws from its own generator, make_rng(split_seed(seed, key, name)), so
    its result is that of training it alone. Every member starts with a copy
    of extra, if given, as its extra tensor. batch_step(stack, x, y, q, rngs,
    out) sets the gradients and writes the batch's terms times its size into
    out, the stack's one (len(terms), K) buffer; rngs are the group's
    generators. Returns, in modality order, one (params, extra, records) per
    modality, records holding an entry per epoch: epoch, q, each term's
    mean, wall_seconds."""
    groups = {}
    for pos, mod in enumerate(mods):
        groups.setdefault(mod.num_samples, []).append(pos)
    results = [None] * len(mods)
    for group in groups.values():
        members = [mods[pos] for pos in group]
        rngs = [make_rng(split_seed(seed, key, mod.name)) for mod in members]
        spans = row_spans(members[0].num_samples, cfg.batch_size)
        stack = EncoderStack([init_params(mod.feature_dim, cfg.hidden_dim, cfg.embed_dim, rng)
                              for mod, rng in zip(members, rngs)],
                             max(stop - start for start, stop in spans),
                             None if extra is None else np.stack([extra] * len(members)))
        step_sums = np.empty((len(terms), len(members)))
        epochs = [[] for _ in members]
        for epoch, q in enumerate(qs):
            t0 = time.perf_counter()
            sums = np.zeros_like(step_sums)
            # check_finite reports what an overflow leads to; numpy's warnings
            # would only print ahead of it
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for x, y in lockstep_batches(members, spans, rngs, num_classes, stack.workspace):
                    batch_step(stack, x, y, q, rngs, step_sums)
                    sums += step_sums
                    stack.step(cfg.lr)
            stack.check_finite(sums, f"stage {stage}, epoch {epoch}")
            wall_seconds = time.perf_counter() - t0
            # an epoch visits every sample once
            for records, means in zip(epochs, (sums / members[0].num_samples).T):
                records.append({"epoch": epoch, "q": q, **dict(zip(terms, means.tolist())),
                                "wall_seconds": wall_seconds})
        extras = [None] * len(members) if extra is None else stack.extra
        for pos, params, member_extra, records in zip(group, stack.members, extras, epochs):
            results[pos] = (params, member_extra, records)
    return results


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
    d, h, e = (header.get(key) for key in ("input_dim", "hidden_dim", "output_dim"))
    shapes = [m.shape for m in mats]
    if shapes != [(d, h), (1, h), (h, h), (1, h), (h, e), (1, e)]:
        raise FormatError(f"{path}: tensor shapes {shapes} do not match the header's "
                          f"input_dim {d}, hidden_dim {h} and output_dim {e}")
    return EncoderParams(*[m[0] if name.startswith("b") else m
                           for name, m in zip(_TENSOR_ORDER, mats)]), header
