import numpy as np
import pytest

from conftest import cosine
from priorcast.errors import NumericError
from priorcast.numerics import (
    Workspace,
    make_rng,
    pseudo_inverse,
    random_orthogonal,
    softmax,
    split_seed,
    unit_rows,
)


def test_pinv_diagonal_hand_case():
    w = np.array([[2.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    expected = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.0]])
    assert np.allclose(pseudo_inverse(w), expected, atol=1e-14)


def test_pinv_penrose_conditions():
    rng = make_rng(42)
    for _ in range(20):
        d = int(rng.integers(2, 10))
        c = int(rng.integers(2, 10))
        w = rng.standard_normal((d, c))
        l = pseudo_inverse(w)
        assert np.allclose(w @ l @ w, w, atol=1e-10)
        assert np.allclose(l @ w @ l, l, atol=1e-10)
        assert np.allclose((w @ l).T, w @ l, atol=1e-10)
        assert np.allclose((l @ w).T, l @ w, atol=1e-10)


def test_pinv_rank_deficient():
    # duplicated column: rank 1, Penrose conditions must still hold
    col = np.array([[1.0], [2.0], [3.0]])
    w = np.hstack([col, col])
    l = pseudo_inverse(w)
    assert np.allclose(w @ l @ w, w, atol=1e-12)
    assert np.allclose(l @ w @ l, l, atol=1e-12)


def test_pinv_orthonormal_is_transpose():
    w = random_orthogonal(8, 5, make_rng(3))
    assert np.allclose(pseudo_inverse(w), w.T, atol=1e-12)


def test_pinv_rejects_nonfinite():
    w = np.full((3, 3), np.nan)
    with pytest.raises(NumericError):
        pseudo_inverse(w)


def test_random_orthogonal_columns():
    for seed in range(5):
        w = random_orthogonal(9, 4, make_rng(seed))
        assert w.shape == (9, 4)
        assert np.allclose(w.T @ w, np.eye(4), atol=1e-12)


def test_random_orthogonal_deterministic():
    a = random_orthogonal(6, 3, make_rng(7))
    b = random_orthogonal(6, 3, make_rng(7))
    assert np.array_equal(a, b)


def test_softmax_hand_case():
    out = softmax(np.array([[np.log(2.0), 0.0]]))
    assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = make_rng(1)
    logits = rng.standard_normal((10, 6)) * 5
    out = softmax(logits)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out > 0)


def test_softmax_shift_invariant():
    rng = make_rng(2)
    logits = rng.standard_normal((4, 5))
    assert np.allclose(softmax(logits), softmax(logits + 123.0), atol=1e-12)


def test_softmax_extreme_logits():
    out = softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.isfinite(out).all()
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_cosine_basics():
    a = np.array([1.0, 0.0])
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert cosine(a, -a) == pytest.approx(-1.0)
    assert cosine(a, np.zeros(2)) == 0.0
    # positive rescaling never changes the value
    b = np.array([0.3, -0.7])
    assert cosine(a, b) == pytest.approx(cosine(a, 50.0 * b))


def test_split_seed_streams():
    base = 99
    a = make_rng(split_seed(base, "spl", "mod0")).standard_normal(4)
    b = make_rng(split_seed(base, "spl", "mod1")).standard_normal(4)
    c = make_rng(split_seed(base, "spl", "mod0")).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)
    # key order matters
    d = make_rng(split_seed(base, "mod0", "spl")).standard_normal(4)
    assert not np.allclose(a, d)


def test_split_seed_reads_every_byte_of_a_string_key():
    # the first 8 bytes agree ("modality"), and so did these seeds while a
    # key was folded modulo 2**63
    assert split_seed(7, "rsc", "modality_image") != split_seed(7, "rsc", "modality_text")
    assert split_seed(7, "spl", "x" * 1000) != split_seed(7, "spl", "x" * 999 + "y")


# split_seed(seed, *keys) for the keys in use, which every dataset and artifact
# derives from: a change to any of them moves every benchmark byte
GOLDEN_SEEDS = {
    0: [9671809809654494827, 4211006418011631417, 9173629809779454138,
        12398439662331823045, 7129548687932955440, 2308498904676602459],
    1: [6426387364163845171, 10850716167497742849, 12805430358443860614,
        4984077789285697892, 2070805949885924789, 10966933029750202225],
    7: [13308060715500434949, 5749450261432888142, 7587120303009008681,
        7130284673167911475, 14734882361449976649, 8304901540409643007],
    2**31: [1559375709025898950, 688120609047177468, 10787388762778020004,
            7357074445546356072, 2877820210998705981, 15103312129203218060],
}


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_split_seed_golden_values(seed):
    keys = [("centers",), ("map", 1), ("noise", 2), ("spl", "shared-w"), ("spl", "mod0"),
            ("rsc", "mod2")]
    assert [split_seed(seed, *k) for k in keys] == GOLDEN_SEEDS[seed]


def test_unit_rows_degenerate_row_convention():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0]])
    unit, safe, degenerate = unit_rows(x)
    assert np.array_equal(unit, [[0.6, 0.8], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(safe, [5.0, 1.0, 1.0])
    assert degenerate.tolist() == [False, True, True]


def test_workspace_batches_of_every_size_share_one_buffer():
    ws = Workspace((3,), 33)
    full = ws.get("a", 33, 16)
    assert full.shape == (3, 33, 16) and full.flags.c_contiguous
    for b in (32, 6, 2):  # a full batch and short tails
        view = ws.get("a", b, 16)
        assert view.shape == (3, b, 16) and view.flags.c_contiguous
        assert view.ctypes.data == full.ctypes.data
        assert ws.get("a", b, 16) is view
    flags = ws.get("flags", 8, dtype=bool, lead=(2, 3))
    assert flags.shape == (2, 3, 8) and flags.dtype == bool
    assert not np.shares_memory(flags, full)
    with pytest.raises(ValueError):
        ws.get("a", 34, 16)  # more rows than the workspace was sized for


def test_workspace_scratch_packs_one_call_s_views_into_one_region():
    ws = Workspace((3,), 33)
    named = ws.get("a", 33, 16)
    full = ws.scratch(33, 16, 5, 16)
    assert [v.shape for v in full] == [(3, 33, 16), (3, 33, 5), (3, 33, 16)]
    for i, view in enumerate(full):
        assert view.flags.c_contiguous and view.ctypes.data % 64 == 0
        assert not np.shares_memory(view, named)
        assert not any(np.shares_memory(view, other) for other in full[i + 1:])
    assert ws.scratch(33, 16, 5, 16) is full
    # a short batch takes the front of each slot; another request reuses the region
    short = ws.scratch(6, 16, 5, 16)
    assert [v.ctypes.data for v in short] == [v.ctypes.data for v in full]
    pair, = ws.scratch(33, 4, lead=(2, 3))
    assert pair.shape == (2, 3, 33, 4) and pair.ctypes.data == full[0].ctypes.data
    assert ws.nbytes == named.nbytes + 3 * 33 * (16 + 5 + 16) * 8 + 8  # 5-wide slot padded
    # a request larger than the region grows it, and only then
    wide, = ws.scratch(33, 64)
    assert not np.shares_memory(wide, full[0]) and wide.ctypes.data % 64 == 0
    assert ws.nbytes == named.nbytes + wide.nbytes
    with pytest.raises(ValueError):
        ws.scratch(34, 16, 16)  # more rows than the workspace was sized for
