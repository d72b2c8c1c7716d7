import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import reference_training as ref
from conftest import check_grad, stack_slice
from priorcast import numerics
from priorcast.encoder import (
    EncoderStack,
    backward,
    embed,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from priorcast.errors import FormatError
from priorcast.numerics import make_rng


def _toy(seed=0, d_in=5, hidden=7, d_out=4):
    rng = make_rng(seed)
    params = init_params(d_in, hidden, d_out, rng)
    x = rng.standard_normal((6, d_in))
    return params, x, rng


def _embed(params, x):
    """forward on one encoder and batch, as a stack of one: (F, cache) of slice 0."""
    f, cache = forward(EncoderStack([params], len(x)), [x])
    return f[0], cache


def test_forward_shapes_and_norms():
    params, x, _ = _toy()
    f, cache = forward(EncoderStack([params], len(x)), [x])
    assert f.shape == (1, 6, 4)
    assert np.allclose(np.linalg.norm(f, axis=-1), 1.0, atol=1e-12)


def test_forward_passes_degenerate_rows_through():
    params, x, _ = _toy()
    params.b3 = np.full(4, 1e-14)
    x[0] = 0.0  # zero biases elsewhere: z3[0] == b3, below NORM_EPS
    f, cache = _embed(params, x)
    assert np.array_equal(f[0], params.b3)
    assert cache.degenerate.tolist() == [[True] + [False] * 5]
    assert np.array_equal(cache.unit[0, 0], np.zeros(4))
    assert np.allclose(np.linalg.norm(f[1:], axis=1), 1.0, atol=1e-12)


def test_forward_batch_independent():
    # no batch statistics: a row's embedding does not depend on its batch.
    # (BLAS may route 1-row products through a different kernel, so compare
    # numerically rather than bitwise.)
    params, x, _ = _toy(seed=3)
    full, _ = _embed(params, x)
    for i in range(len(x)):
        row, _ = _embed(params, x[i : i + 1])
        assert np.allclose(row[0], full[i], atol=1e-12, rtol=0)


def test_forward_identical_rows():
    params, x, _ = _toy(seed=1)
    x[2] = x[0]
    f, _ = _embed(params, x)
    assert np.array_equal(f[2], f[0])


def test_embed_gives_forward_bits_with_two_hidden_arrays_at_most():
    """embed of an (N, D) split has the bits of one forward over all N rows,
    a degenerate row passed through, and at its traced peak holds no more
    than two (N, hidden) float64 arrays and one (N, embed_dim)."""
    n, hidden, out_dim = 4000, 64, 16
    params, _, rng = _toy(seed=6, d_in=20, hidden=hidden, d_out=out_dim)
    params.b3 = np.full(out_dim, 1e-14)
    x = rng.standard_normal((n, 20))
    x[0] = 0.0  # zero biases elsewhere: z3[0] == b3, below NORM_EPS
    want = forward(EncoderStack([params], n), [x])[0][0]
    tracemalloc.start()
    try:
        got = embed(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[0], params.b3)
    assert peak <= 8 * n * (2 * hidden + out_dim)


@pytest.mark.parametrize("n", [4000, 3901])
def test_embed_in_blocks_gives_forward_bits_within_the_block_budget(n):
    """embed runs in row blocks of block_rows(hidden) = 300 rows here, on N
    no multiple of that (3901 leaves a one-row tail, which joins the block
    before it), with a degenerate row in a later block and float32 input
    as load_manifest holds it. Its bytes must equal forward's for a stack
    of one on the widened input, so a BLAS whose row-blocked gemm changes
    bits fails here. At its traced peak it holds the (N, embed_dim) result,
    one block's widened input, the stack of one's workspace buffers for one
    block (two hidden activations, three embed_dim-wide ones and the row
    norms and flags), its parameter and gradient vectors (~104 KB here) and
    numpy's 64 KiB buffer of a broadcasting ufunc, within five block
    budgets."""
    d_in, hidden, out_dim, height = 20, 64, 16, 300
    params, _, rng = _toy(seed=8, d_in=d_in, hidden=hidden, d_out=out_dim)
    params.b3 = np.full(out_dim, 1e-14)
    x = rng.standard_normal((n, d_in)).astype(np.float32)
    x[2 * height + 5] = 0.0  # zero biases elsewhere: z3 == b3, below NORM_EPS
    want = forward(EncoderStack([params], n), [x.astype(np.float64)])[0][0]
    budget = 8 * hidden * height
    with mock.patch.object(numerics, "BLOCK_BYTES", budget):
        assert numerics.block_rows(hidden) == height
        assert embed(params, x.astype(np.float64)).tobytes() == want.tobytes()
        tracemalloc.start()
        try:
            got = embed(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[2 * height + 5], params.b3)
    assert peak <= 8 * n * out_dim + 5 * budget


def test_embed_wider_than_hidden_gives_forward_bits():
    """An embedding row wider than a hidden one: the block height follows
    the widest layer."""
    params, x, _ = _toy(seed=7, hidden=4, d_out=9)
    assert embed(params, x).tobytes() == _embed(params, x)[0].tobytes()


def test_init_deterministic_and_bounded():
    a = init_params(8, 16, 4, make_rng(5))
    b = init_params(8, 16, 4, make_rng(5))
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)
    assert np.all(a.b1 == 0) and np.all(a.b2 == 0) and np.all(a.b3 == 0)
    assert np.max(np.abs(a.w1)) <= np.sqrt(3.0 / 8)
    assert np.max(np.abs(a.w2)) <= np.sqrt(3.0 / 16)


def _stack_toy(b, seed=0, widths=(5, 3, 6), degenerate=1):
    """Encoders of the given input widths, the one at index degenerate with
    a degenerate output row: a zero input row with zero hidden biases gives
    z3 == b3."""
    rng = make_rng(seed)
    members = [init_params(d_in, 7, 4, rng) for d_in in widths]
    members[degenerate].b3 = np.full(4, 1e-14)
    xs = [rng.standard_normal((b, m.input_dim)) for m in members]
    xs[degenerate][0] = 0.0
    return members, xs, rng.standard_normal((len(widths), b, 4))


# K = 1 and K = 3, each with a degenerate row
_STACKS = [((3,), 0), ((5, 3, 6), 1)]


def test_backward_matches_finite_differences():
    # on a batch and on a merged tail batch of B + 1
    for (widths, degenerate), b in itertools.product(_STACKS, (6, 7)):
        members, xs, r = _stack_toy(b, seed=4, widths=widths, degenerate=degenerate)
        # a step off the degenerate row's z3 ~ 1e-14 normalizes it, a jump that
        # finite differences cannot follow: that row enters the loss with weight 0
        r[degenerate, 0] = 0.0
        stack = EncoderStack(members, len(xs[0]))
        _, cache = forward(stack, xs)
        assert cache.degenerate[degenerate, 0]
        backward(stack, cache, r)

        def loss():
            return float(np.sum(forward(stack, xs)[0] * r))

        for k, view in enumerate(stack.members):
            grads = stack_slice(stack.grads, k)
            for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
                check_grad(loss, getattr(view, name), getattr(grads, name))


@pytest.mark.parametrize("widths, degenerate", _STACKS)
def test_backward_is_the_identity_on_a_degenerate_row(widths, degenerate):
    # F = z3 there, and z3 = b3 because the row's hidden activations are 0
    members, xs, _ = _stack_toy(6, widths=widths, degenerate=degenerate)
    r = np.zeros((len(widths), 6, 4))
    r[degenerate, 0] = [1.0, -2.0, 0.5, 3.0]
    stack = EncoderStack(members, len(xs[0]))
    _, cache = forward(stack, xs)
    backward(stack, cache, r)
    assert np.array_equal(stack.grads.b3[degenerate, 0], r[degenerate, 0])
    assert not stack.grads.w3.any() and not stack.grads.w2.any()


def test_sgd_step():
    params, x, rng = _toy()
    r = rng.standard_normal((6, 4))
    grads = ref.backward(params, ref.forward(params, x)[1], r)
    new = ref.sgd_step(params, grads, 0.5)
    assert np.allclose(new.w1, params.w1 - 0.5 * grads.w1)
    # original untouched
    assert not np.shares_memory(new.w1, params.w1)


@pytest.mark.parametrize("b", [6, 7])  # a batch and a merged tail batch of B + 1
def test_stacked_forward_backward_match_each_slice(b):
    # against the frozen one-encoder forward and backward
    members, xs, d_f = _stack_toy(b)
    stack = EncoderStack(members, len(xs[0]))
    f, cache = forward(stack, xs)
    backward(stack, cache, d_f)
    assert cache.degenerate[1].tolist() == [True] + [False] * (b - 1)
    for k, (params, x) in enumerate(zip(members, xs)):
        f_k, cache_k = ref.forward(params, x)
        assert np.array_equal(f[k], f_k)
        assert np.array_equal(cache.degenerate[k], cache_k.degenerate)
        want = ref.backward(params, cache_k, d_f[k])
        for tg, tw in zip(stack_slice(stack.grads, k).tensors(), want.tensors()):
            assert tg.shape == tw.shape
            assert np.array_equal(tg, tw)


def test_stack_step_matches_sgd_step_in_place():
    members, xs, d_f = _stack_toy(6, seed=2)
    stack = EncoderStack(members, len(xs[0]))
    views = stack.members
    for view, params in zip(views, members):
        for tv, tp in zip(view.tensors(), params.tensors()):
            assert np.array_equal(tv, tp)
    _, cache = forward(stack, xs)
    backward(stack, cache, d_f)
    stack.step(0.5)
    for k, (view, params, x) in enumerate(zip(views, members, xs)):
        want = ref.sgd_step(params, ref.backward(params, ref.forward(params, x)[1], d_f[k]), 0.5)
        for tv, tw in zip(view.tensors(), want.tensors()):
            assert np.shares_memory(tv, stack.flat)
            assert np.array_equal(tv, tw)


def test_checkpoint_round_trip(tmp_path):
    params, _, _ = _toy(seed=9)
    path = tmp_path / "enc.bin"
    save_checkpoint(path, params, "modX")
    loaded, header = load_checkpoint(path)
    assert header["modality"] == "modX"
    for a, b in zip(params.tensors(), loaded.tensors()):
        # storage is float32; round-tripped values match the quantized originals
        assert np.array_equal(b, a.astype(np.float32).astype(np.float64))


def test_checkpoint_deterministic_bytes(tmp_path):
    params, _, _ = _toy(seed=9)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, params, "m")
    save_checkpoint(p2, params, "m")
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    save_checkpoint(path, _toy()[0], "m")
    tensors = path.read_bytes().split(b"\n", 1)[1]
    # valid JSON, valid tensors, but the header is not an object
    for data in (b"not a checkpoint\n", b"[1, 2]\n" + tensors):
        path.write_bytes(data)
        with pytest.raises(FormatError):
            load_checkpoint(path)
    # a header that fits w1 and w3, but a w2 of another width
    params = _toy()[0]
    save_checkpoint(path, dataclasses.replace(params, w2=params.w2[:, :-1]), "m")
    with pytest.raises(FormatError, match="do not match the header"):
        load_checkpoint(path)
