import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmflab import spaces
from rmflab.spaces import (
    Vector,
    dual_exponent,
    hilbert_op_space,
    lp_space,
    norm,
    norm_of,
    norms_and_grads_of,
    norms_of,
    random_unit_vector,
    schatten_space,
    singular_values,
    space_from_json,
    space_to_json,
)


def vec(space, *coords):
    return Vector(np.array(coords, dtype=float), space)


class TestNorm:
    def test_l1(self):
        assert norm(vec(lp_space(1, 2), 3, 4)) == 7.0

    def test_l2(self):
        assert norm(vec(lp_space(2, 2), 3, 4)) == 5.0

    def test_linf(self):
        assert norm(vec(lp_space(math.inf, 3), 1, -9, 2)) == 9.0

    def test_schatten_identity(self):
        # singular values of the 2x2 identity are (1, 1)
        s = schatten_space(1, 2, 2)
        assert norm(vec(s, 1, 0, 0, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_operator_norm_is_top_singular_value(self):
        s = hilbert_op_space(2, 2)
        m = np.array([[2.0, 0.0], [0.0, 0.5]])
        assert norm(Vector(m.ravel(), s)) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Vector(np.ones(3), lp_space(2, 2))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_schatten_diagonal_matches_lp_of_diagonal(self, p):
        d = np.array([1.5, -0.3, 0.8])
        m = np.diag(d)
        got = norm_of(m.ravel(), schatten_space(p, 3, 3))
        want = norm_of(np.abs(d), lp_space(p, 3))
        assert got == pytest.approx(want, abs=1e-10)


class TestJacobiSVD:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 2), (2, 5)])
    def test_matches_numpy(self, shape):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.standard_normal(shape)
            got = singular_values(m)
            want = np.linalg.svd(m, compute_uv=False)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_right_vectors(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3))
        sv, v = singular_values(m, return_right_vectors=True)
        # A v_i has length sigma_i
        for i in range(3):
            assert np.linalg.norm(m @ v[:, i]) == pytest.approx(sv[i], abs=1e-10)

    def test_tiny_entry_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sv = singular_values([[1.0, 1e-310], [0.0, 0.0]])
        np.testing.assert_allclose(sv, [1.0, 0.0], atol=1e-300)

    def test_right_vectors_wide_matrix(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((2, 4))
        sv, v = singular_values(m, return_right_vectors=True)
        np.testing.assert_allclose(sv, np.linalg.svd(m, compute_uv=False), atol=1e-10)
        for i in range(2):
            assert np.linalg.norm(m @ v[:, i]) == pytest.approx(sv[i], abs=1e-10)


class TestDualExponent:
    def test_self_dual(self):
        assert dual_exponent(2) == 2

    def test_one_and_inf(self):
        assert dual_exponent(1) == math.inf
        assert dual_exponent(math.inf) == 1

    def test_four(self):
        assert dual_exponent(4) == pytest.approx(4 / 3, abs=1e-15)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            dual_exponent(0.5)


class TestRandomUnitVector:
    @pytest.mark.parametrize(
        "space", [lp_space(2, 3), lp_space(1, 4), schatten_space(3, 2, 3), hilbert_op_space(3, 2)]
    )
    def test_unit_norm(self, space):
        v = random_unit_vector(space, 7)
        assert norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = random_unit_vector(lp_space(2, 3), 7)
        b = random_unit_vector(lp_space(2, 3), 7)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_seeds_differ(self):
        a = random_unit_vector(lp_space(2, 3), 7)
        b = random_unit_vector(lp_space(2, 3), 8)
        assert not np.array_equal(a.coords, b.coords)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    seed=st.integers(0, 10_000),
)
def test_triangle_inequality_and_homogeneity(p, seed):
    rng = np.random.default_rng(seed)
    space = lp_space(p, 4)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    t = rng.standard_normal()
    assert norm_of(x + y, space) <= norm_of(x, space) + norm_of(y, space) + 1e-10
    assert norm_of(t * x, space) == pytest.approx(abs(t) * norm_of(x, space), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(
        [
            lp_space(1, 3),
            lp_space(2, 3),
            lp_space(3, 3),
            lp_space(math.inf, 3),
            schatten_space(1, 2, 3),
            schatten_space(3, 2, 2),
            hilbert_op_space(3, 2),
        ]
    ),
    seed=st.integers(0, 10_000),
)
def test_norm_of_is_the_row_norm_exactly(space, seed):
    rows = np.random.default_rng(seed).standard_normal((7, space.total_dim))
    stacked = norms_of(rows, space)
    for x, want in zip(rows, stacked):
        assert norm_of(x, space) == want
        assert norms_of(x[None], space)[0] == want


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hilbert_flag_consistent(seed):
    rng = np.random.default_rng(seed)
    space = lp_space(2, 5)
    assert space.is_hilbert
    x = rng.standard_normal(5)
    assert norm_of(x, space) ** 2 == pytest.approx(float(np.sum(x * x)), rel=1e-12)


def test_space_json_roundtrip():
    for s in [
        lp_space(2, 4),
        lp_space(math.inf, 3),
        schatten_space(1, 2, 2),
        hilbert_op_space(3, 2),
    ]:
        assert space_from_json(space_to_json(s)) == s


GRADIENT_SPACES = [
    lp_space(1, 4),
    lp_space(2, 4),
    lp_space(3, 4),
    lp_space(math.inf, 4),
    schatten_space(1, 2, 3),
    schatten_space(2, 2, 2),
    schatten_space(3, 3, 2),
    hilbert_op_space(3, 2),
]


@pytest.mark.parametrize("space", GRADIENT_SPACES, ids=lambda s: f"{s.kind}{s.p:g}")
def test_norm_gradients_match_central_differences(space):
    # random rows are smooth points of every norm here; central differences
    # with h = 1e-6 are good to about 1e-9, so 1e-7 is asked
    rows = np.random.default_rng(3).standard_normal((6, space.total_dim))
    norms, grads = norms_and_grads_of(rows, space)
    np.testing.assert_allclose(norms, norms_of(rows, space), rtol=1e-15, atol=0)
    if space.kind == "lp":
        assert np.array_equal(norms, norms_of(rows, space))
    h = 1e-6
    for i in range(space.total_dim):
        step = np.zeros(space.total_dim)
        step[i] = h
        fd = (norms_of(rows + step, space) - norms_of(rows - step, space)) / (2 * h)
        np.testing.assert_allclose(grads[:, i], fd, atol=1e-7)


@pytest.mark.parametrize("space", GRADIENT_SPACES, ids=lambda s: f"{s.kind}{s.p:g}")
def test_norm_gradient_is_a_dual_unit_vector_without_warning(space):
    rows = np.zeros((2, space.total_dim))
    rows[1] = np.random.default_rng(4).standard_normal(space.total_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms, grads = norms_and_grads_of(rows, space)
    # Euler: <x, dN(x)> = N(x); an lp zero row has gradient 0
    assert float(rows[1] @ grads[1]) == pytest.approx(norms[1], rel=1e-12)
    if space.kind == "lp":
        assert not np.any(grads[0])



SPECIAL_ENTRIES = st.sampled_from(
    [0.0, -0.0, 5e-324, -(2.0**-1030), 2.0**-1022, 1e300, -1e300, 1e-300, -1e-300]
)


def reduced_lp_norms(vals, p):
    """Row norms by ``np.add.reduce`` over the last axis, the reference order."""
    if p == math.inf:
        return np.maximum.reduce(np.abs(vals), axis=1)
    if p == 2:
        return np.sqrt(np.add.reduce(vals * vals, axis=1))
    if p == 1:
        return np.add.reduce(np.abs(vals), axis=1)
    return np.add.reduce(np.abs(vals) ** p, axis=1) ** (1.0 / p)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    st.sampled_from(["contiguous", "sliced", "strided", "transposed"]),
    st.data(),
)
def test_lp_norms_equal_the_reduction_bit_for_bit(d, rows, seed, p, layout, data):
    """Column adds on short rows give exactly the bits of ``np.add.reduce``."""
    rng = np.random.default_rng(seed)
    # full random mantissas over six decades, so any other summation order shows
    wide = rng.standard_normal((rows, 2 * d)) * 10.0 ** rng.integers(-3, 4, (rows, 2 * d))
    specials = data.draw(arrays(np.float64, wide.shape, elements=SPECIAL_ENTRIES))
    wide = np.where(data.draw(arrays(np.bool_, wide.shape)), specials, wide)
    wide[data.draw(arrays(np.bool_, rows))] = 0.0  # zero rows
    vals = {
        "contiguous": np.ascontiguousarray(wide[:, :d]),
        "sliced": wide[::2, d:],
        "strided": wide[:, ::2],
        "transposed": np.ascontiguousarray(wide[:, :d].T).T,
    }[layout]
    with np.errstate(over="ignore", under="ignore"):
        got, want = spaces._lp_norms(vals, p), reduced_lp_norms(vals, p)
    assert got.dtype == want.dtype and got.shape == want.shape == (vals.shape[0],)
    assert got.tobytes() == want.tobytes()
