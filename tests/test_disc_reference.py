"""disc_loss's d x d form against the B x B reference.

priorcast.losses.disc_loss never forms a B x B matrix;
reference_losses.gram_disc_loss forms all of them. The two must agree on
every shape the training loops can pass (one batch or a stack of three,
batches of 2 to 300 rows, 1 to 64 embedding dimensions), with zero rows in
f and in t:
- the gradient within GRAD_RTOL of the reference's largest entry, or of
  1/B if that is larger: near f = t the gradient is small and both forms
  round at the scale of a generic batch's gradient, ~1/B;
- the value within VALUE_RTOL of the reference plus VALUE_ATOL.
At f = t the value and the gradient are exactly zero, and close to f = t
the value keeps its relative accuracy. A run at B = 4096 must not allocate
anything of B x B size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_losses as ref
from conftest import workspace_for
from priorcast.losses import disc_loss
from priorcast.numerics import NORM_EPS, make_rng

GRAD_RTOL = 1e-13
VALUE_RTOL = 1e-12
VALUE_ATOL = 1e-14


def _pair(rng, k, b, d, zero_rows=True):
    shape = (b, d) if k is None else (k, b, d)
    f = rng.standard_normal(shape)
    t = rng.standard_normal(shape)
    if zero_rows:
        f[..., 0, :] = 0.0
        t[..., -1, :] = 0.0
    return f, t


def _assert_matches_reference(f, t):
    value, grad = disc_loss(f, t, workspace_for(f))
    ref_value, ref_grad = ref.gram_disc_loss(f, t)
    assert np.shape(value) == np.shape(ref_value)
    assert grad.shape == f.shape
    assert np.all(np.abs(value - ref_value) <= VALUE_RTOL * np.abs(ref_value) + VALUE_ATOL)
    scale = max(np.max(np.abs(ref_grad)), 1.0 / f.shape[-2])
    assert np.max(np.abs(grad - ref_grad)) <= GRAD_RTOL * scale


def test_reference_zero_threshold_is_priorcasts():
    assert ref.NORM_EPS == NORM_EPS


@pytest.mark.parametrize("k", [None, 1, 3])
@pytest.mark.parametrize("b", [2, 3, 7, 31, 32, 33, 100, 256, 257, 300])
@pytest.mark.parametrize("d", [1, 2, 16, 64])
def test_matches_reference(k, b, d):
    rng = make_rng(1000 * b + d)
    _assert_matches_reference(*_pair(rng, k, b, d))


def test_degenerate_rows_have_zero_gradient():
    f, t = _pair(make_rng(3), 3, 33, 16)
    f[1, 5] = 1e-13  # below NORM_EPS
    _, grad = disc_loss(f, t, workspace_for(f))
    assert not np.any(grad[:, 0])
    assert not np.any(grad[1, 5])
    _assert_matches_reference(f, t)


def test_all_rows_degenerate():
    f, t = _pair(make_rng(4), 3, 8, 5, zero_rows=False)
    f[...] = 0.0
    _assert_matches_reference(f, t)
    assert not np.any(disc_loss(f, t, workspace_for(f))[1])


@pytest.mark.parametrize("k", [None, 3])
def test_exactly_zero_at_f_equals_t(k):
    t = _pair(make_rng(5), k, 64, 16)[1]
    value, grad = disc_loss(t.copy(), t, workspace_for(t))
    assert np.all(value == 0.0)
    assert not np.any(grad)


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
def test_relative_accuracy_near_f_equals_t(eps):
    # the value is built from f - t, so it does not cancel to ~1e-16 noise
    rng = make_rng(6)
    t = rng.standard_normal((3, 64, 16))
    f = t + eps * rng.standard_normal(t.shape)
    value, _ = disc_loss(f, t, workspace_for(f))
    ref_value, _ = ref.gram_disc_loss(f, t)
    assert np.all(value > 0.0)
    assert np.allclose(value, ref_value, rtol=1e-2, atol=0.0)
    _assert_matches_reference(f, t)


@settings(max_examples=150)
@given(st.data())
def test_random_shapes_match_reference(data):
    k = data.draw(st.sampled_from([None, 1, 2, 3]), "k")
    b = data.draw(st.integers(2, 300), "b")
    d = data.draw(st.integers(1, 64), "d")
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e6]), "scale")
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    f, t = _pair(rng, k, b, d, zero_rows=False)
    f *= scale
    lead = (b,) if k is None else (k, b)
    f[rng.random(lead) < 0.05] = 0.0
    t[rng.random(lead) < 0.05] = 0.0
    _assert_matches_reference(f, t)


def test_no_batch_by_batch_allocation():
    # one 4096 x 4096 float64 array is 128 MiB; the inputs are 0.5 MiB each
    f, t = _pair(make_rng(7), 1, 4096, 16)
    tracemalloc.start()
    try:
        disc_loss(f, t, workspace_for(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
