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
    schatten_space,
    space_from_json,
    unit_vector,
)

from helpers import space_to_json


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


class TestMatrixNorms:
    """Schatten and operator norms of ``norms_of`` against numpy's SVD.

    2 x 2 matrices take a closed form; the other shapes take LAPACK's SVD.
    """

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 2), (2, 5)])
    def test_matches_numpy(self, shape):
        rng = np.random.default_rng(11)
        mats = rng.standard_normal((20,) + shape)
        sv = np.linalg.svd(mats, compute_uv=False)
        flat = mats.reshape(20, -1)
        for p in (1, 1.5, 2, 3):
            got = norms_of(flat, schatten_space(p, *shape))
            want = np.linalg.norm(sv, ord=p, axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(norms_of(flat, hilbert_op_space(*shape[::-1])), sv[:, 0], atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 2), (2, 5)])
    def test_gradients_are_u_diag_w_vt(self, shape):
        # random matrices have distinct nonzero singular values, where the
        # gradient U diag(w) V^T is unique whichever signs the vectors take
        rng = np.random.default_rng(12)
        mats = rng.standard_normal((20,) + shape)
        u, sv, vt = np.linalg.svd(mats, full_matrices=False)
        flat = mats.reshape(20, -1)
        for p in (1, 1.5, 2, 3):
            w = (sv / np.linalg.norm(sv, ord=p, axis=1)[:, None]) ** (p - 1)
            _, got = norms_and_grads_of(flat, schatten_space(p, *shape))
            np.testing.assert_allclose(got, ((u * w[:, None, :]) @ vt).reshape(20, -1), atol=1e-13)
        _, got = norms_and_grads_of(flat, hilbert_op_space(*shape[::-1]))
        np.testing.assert_allclose(got, (u[:, :, :1] @ vt[:, :1, :]).reshape(20, -1), atol=1e-13)

    def test_tiny_entry_emits_no_warning(self):
        tiny = np.array([1.0, 1e-310, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [norm_of(tiny, space) for space in (schatten_space(1, 2, 2), hilbert_op_space(2, 2))]
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-300)


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
        v = unit_vector(space, np.random.default_rng(7))
        assert norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = unit_vector(lp_space(2, 3), np.random.default_rng(7))
        b = unit_vector(lp_space(2, 3), np.random.default_rng(7))
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_seeds_differ(self):
        a = unit_vector(lp_space(2, 3), np.random.default_rng(7))
        b = unit_vector(lp_space(2, 3), np.random.default_rng(8))
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
    pytest.param(schatten_space(1, 2, 2), id="schatten1_2x2"),
    pytest.param(schatten_space(3, 2, 2), id="schatten3_2x2"),
    pytest.param(hilbert_op_space(2, 2), id="hilbert_op_2x2"),
]


def takes_lapack(space):
    """Whether the norms of ``space`` come from LAPACK's SVD (matrix shapes other than 2 x 2)."""
    return space.kind != "lp" and (space.rows, space.cols) != (2, 2)


@pytest.mark.parametrize("space", GRADIENT_SPACES, ids=lambda s: f"{s.kind}{s.p:g}")
def test_norm_gradients_match_central_differences(space):
    # random rows are smooth points of every norm here; central differences
    # with h = 1e-6 are good to about 1e-9, so 1e-7 is asked
    rows = np.random.default_rng(3).standard_normal((6, space.total_dim))
    norms, grads = norms_and_grads_of(rows, space)
    np.testing.assert_allclose(norms, norms_of(rows, space), rtol=1e-15, atol=0)
    # an SVD with vectors can differ from one without in the last bit
    if not takes_lapack(space):
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
    # Euler: <x, dN(x)> = N(x); a zero row has norm 0, and gradient 0 off LAPACK
    assert float(rows[1] @ grads[1]) == pytest.approx(norms[1], rel=1e-12)
    assert norms[0] == 0
    if not takes_lapack(space):
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


# subnormal, +-1e+-150 and near-overflow entries; a + d overflows for the
# largest, where LAPACK's SVD does not
EXTREME_ENTRIES = st.sampled_from(
    [0.0, -0.0, 5e-324, -(2.0**-1030), 2.0**-1022, 1e-150, -1e-150, 1e150, -1e150, 1e300, -1e300, 1.5e308, -1.5e308]
)


@st.composite
def two_by_two_rows(draw):
    """A row (a, b, c, d); about half are rank one, (c, d) an exact multiple of (a, b)."""
    entries = st.one_of(st.floats(-4.0, 4.0), EXTREME_ENTRIES)
    row = draw(arrays(np.float64, 4, elements=entries))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([0.0, 1.0, -1.0, 0.5, -4.0, 2.0**-600]))
        with np.errstate(over="ignore"):
            lower = scale * row[:2]
        row[2:] = lower if np.all(np.isfinite(lower)) else row[:2]
    return row


def lapack_norms_and_grads(rows, space):
    """Norms and gradients of 2 x 2 rows from LAPACK's SVD with vectors, and the singular values."""
    u, sv, vt = np.linalg.svd(rows.reshape(-1, 2, 2))
    if space.kind == "hilbert_op":
        norms, weights = sv[:, 0], np.array([1.0, 0.0])
    else:
        norms = spaces._lp_norms(sv, space.p)
        weights = spaces._lp_grads(sv, norms, space.p)
    return norms, ((u * weights[..., None, :]) @ vt).reshape(-1, 4), sv


@settings(max_examples=300, deadline=None)
@given(st.lists(two_by_two_rows(), min_size=1, max_size=8))
def test_2x2_closed_form_matches_lapack(rows):
    rows = np.vstack(rows)
    for space in [schatten_space(p, 2, 2) for p in (1, 1.5, 2, 3)] + [hilbert_op_space(2, 2)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            norms = norms_of(rows, space)
            values, grads = norms_and_grads_of(rows, space)
        with np.errstate(all="ignore"):
            want, want_grads, sv = lapack_norms_and_grads(rows, space)
        # the value and gradient paths share their arithmetic
        assert values.tobytes() == norms.tobytes()
        top = sv[:, 0]
        if space.kind == "hilbert_op" or space.p == 1:
            # no sum of entries overflows: only a norm past the largest float warns
            assert not caught or not np.all(np.isfinite(want))
            fits = np.ones(len(rows), dtype=bool)
        else:
            # where the sum of p-th powers of the singular values under- or
            # overflows, the lp norm of them does, as on lp spaces
            with np.errstate(all="ignore"):
                powers = np.sum(sv**space.p, axis=1)
            fits = (top == 0) | ((powers >= np.finfo(float).tiny) & (powers < np.inf))
        # a few units in the last place, also when the norm is subnormal
        np.testing.assert_allclose(norms[fits], want[fits], rtol=2e-15, atol=1e-322)
        # where sigma_2 and sigma_1 - sigma_2 are both at least sigma_1 / 100 the
        # singular vectors, and so the gradients, are good to eps * 100; a row
        # whose sigma_1 overflows has top - sv[:, 1] = inf - inf, left out below
        with np.errstate(over="ignore", invalid="ignore"):
            well = (100 * sv[:, 1] >= top) & (100 * (top - sv[:, 1]) >= top)
        well &= fits & (top > 0) & np.isfinite(want)
        np.testing.assert_allclose(grads[well], want_grads[well], rtol=0, atol=1e-13)
