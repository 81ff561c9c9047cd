import hashlib
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmflab import optim, rademacher
from rmflab.rademacher import (
    EnumConfig,
    exact_sign_entries,
    hilbert_moment2,
    moment_evaluator,
    MAX_MC_SIGN_ENTRIES,
    mc_sign_entries,
    moment_from_matrix,
    rademacher_moment,
    type_cotype_estimate,
)
from rmflab.spaces import Vector, hilbert_op_space, lp_space, norm, norms_and_grads_of, norms_of, schatten_space

from helpers import sign_table

CFG = EnumConfig(seed=1)
FAST = EnumConfig(seed=1, restarts=6)


def basis(space):
    d = space.total_dim
    return [Vector(np.eye(d)[j], space) for j in range(d)]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_enum_config_tol_is_a_finite_number_above_zero(tol):
    with pytest.raises(ValueError, match="tol"):
        EnumConfig(tol=tol)


def _reference_rows(n, rows):
    """Rows of the sign table from plain Python ints: +1, then 1 - 2 * bit j of the row index."""
    return np.array([[1.0] + [1.0 - 2 * ((i >> j) & 1) for j in range(n - 1)] for i in rows]).reshape(-1, n)


def test_sign_patterns_shape_and_symmetry():
    # 4 signs: one block of 8 rows led by +1; with their negations they are
    # every pattern of the hypercube once
    [pats] = rademacher._sign_blocks(4)
    assert pats.shape == (8, 4) and np.all(pats[:, 0] == 1.0)
    assert {tuple(r) for r in np.vstack([pats, -pats])} == set(itertools.product((1.0, -1.0), repeat=4))
    # 2^14 rows of 15 signs are walked in 8 blocks of 2^11 rows
    assert [len(b) for b in rademacher._sign_blocks(15)] == [rademacher._ROW_BLOCK] * 8


@pytest.mark.parametrize("n", range(1, 21))
def test_sign_patterns_match_python_int_reference(n):
    m = 1 << (n - 1)
    head = rademacher._sign_block(n)
    # the first block is cached, and read-only
    assert rademacher._sign_block(n) is head and not head.flags.writeable
    # every row of a small table; of a larger one the first and last rows,
    # the rows around every power of two and a seeded sample
    rng = np.random.default_rng(n)
    rows = np.arange(m) if m <= 1 << 12 else np.unique(np.concatenate([
        np.arange(64), np.arange(m - 64, m), rng.integers(0, m, 256),
        *(np.arange((1 << k) - 2, (1 << k) + 2) for k in range(2, n - 1)),
    ]))
    # the reference table the kernel tests compare against
    reference = sign_table(n) if n <= 15 else None
    start = 0
    for block in rademacher._sign_blocks(n):
        assert block.shape == (len(head), n) and block.dtype == np.float64 and block.flags.c_contiguous
        if start == 0:
            assert block is head
        # column j + 1 is bit j of the row index
        index = start + np.arange(len(block))
        np.testing.assert_array_equal(block[:, 1:], 1.0 - 2.0 * ((index[:, None] >> np.arange(n - 1)) & 1))
        if reference is not None:
            np.testing.assert_array_equal(block, reference[start : start + len(block)])
        mine = rows[(rows >= start) & (rows < start + len(block))]
        np.testing.assert_array_equal(block[mine - start], _reference_rows(n, mine.tolist()))
        start += len(block)
    assert start == m


class TestMoment:
    def test_hilbert_basis_square_sum(self):
        # E||e1 eps1 + e2 eps2||^2 = 2 in l2
        est = rademacher_moment(basis(lp_space(2, 2)), 2, CFG)
        assert est.mode == "exact"
        assert est.stderr == 0.0
        assert est.value == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_single_vector_any_p(self):
        v = Vector(np.array([3.0, -4.0]), lp_space(2, 2))
        for p in [1, 1.5, 2, 3]:
            assert rademacher_moment([v], p, CFG).value == pytest.approx(5.0, abs=1e-12)

    def test_l1_basis(self):
        # all four sign patterns give l1 norm 2
        est = rademacher_moment(basis(lp_space(1, 2)), 2, CFG)
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            rademacher_moment(
                [Vector(np.ones(2), lp_space(1, 2)), Vector(np.ones(2), lp_space(2, 2))],
                2,
                CFG,
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999), n=st.integers(1, 6))
    def test_monotone_in_p(self, seed, n):
        rng = np.random.default_rng(seed)
        space = lp_space(1.5, 3)
        vs = [Vector(rng.standard_normal(3), space) for _ in range(n)]
        vals = [rademacher_moment(vs, p, CFG).value for p in (1, 2, 3, 4)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999), n=st.integers(1, 8))
    def test_hilbert_exact_is_square_sum(self, seed, n):
        rng = np.random.default_rng(seed)
        space = lp_space(2, 4)
        vs = [Vector(rng.standard_normal(4), space) for _ in range(n)]
        est = rademacher_moment(vs, 2, CFG)
        want = math.sqrt(sum(norm(v) ** 2 for v in vs))
        assert est.value == pytest.approx(want, abs=1e-10)

    def test_monte_carlo_consistent_with_exact(self):
        rng = np.random.default_rng(3)
        space = lp_space(1, 3)
        vs = [Vector(rng.standard_normal(3), space) for _ in range(8)]
        exact = rademacher_moment(vs, 2, CFG)
        mc_cfg = EnumConfig(exact_threshold=1, mc_samples=40_000, seed=5)
        mc = rademacher_moment(vs, 2, mc_cfg)
        assert mc.mode == "monte_carlo"
        assert mc.stderr > 0
        assert abs(mc.value - exact.value) <= 5 * mc.stderr

    def test_monte_carlo_deterministic(self):
        vs = basis(lp_space(1, 4))
        mc_cfg = EnumConfig(exact_threshold=1, mc_samples=5000, seed=9)
        a = rademacher_moment(vs, 2, mc_cfg)
        b = rademacher_moment(vs, 2, mc_cfg)
        assert a.value == b.value


def _unit_sphere_angles(space, count):
    """Unit vectors of a 2d space sampled along the angle parameterization."""
    ang = np.linspace(0, 2 * math.pi, count, endpoint=False)
    raw = np.column_stack([np.cos(ang), np.sin(ang)])
    ns = norms_of(raw, space)
    return raw / ns[:, None]


def _grid_oracle_type_cotype(kind, space, exponent, count=720):
    """Brute-force max of the type/cotype ratio over pairs of unit vectors.

    dim 2, N = 2 only: enumerate both unit spheres by angle and use the
    two-pattern identity E||x1 eps1 + x2 eps2||^2 = (||x1+x2||^2 + ||x1-x2||^2)/2.
    """
    pts = _unit_sphere_angles(space, count)
    best = 0.0
    for x1 in pts:
        s = norms_of(pts + x1, space)
        d = norms_of(pts - x1, space)
        m2 = np.sqrt((s**2 + d**2) / 2)
        if exponent == math.inf:
            rhs = 1.0
        else:
            rhs = 2 ** (1.0 / exponent)
        ratio = m2 / rhs if kind == "type" else rhs / m2
        best = max(best, float(np.max(ratio)))
    return best


class TestTypeCotype:
    @pytest.mark.parametrize("n", [2, 4])
    def test_l1_type2_sqrt_n(self, n):
        est = type_cotype_estimate("type", lp_space(1, n), 2, n, FAST)
        assert est.value == pytest.approx(math.sqrt(n), abs=1e-6)

    @pytest.mark.parametrize("n", [2, 4])
    def test_linf_cotype2_sqrt_n(self, n):
        est = type_cotype_estimate("cotype", lp_space(math.inf, n), 2, n, FAST)
        assert est.value == pytest.approx(math.sqrt(n), abs=1e-6)

    def test_hilbert_type_and_cotype_one(self):
        for kind in ("type", "cotype"):
            est = type_cotype_estimate(kind, lp_space(2, 3), 2, 3, FAST)
            assert est.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("space", [lp_space(2, 3), schatten_space(2, 2, 2)], ids=["lp2", "schatten2"])
    def test_hilbert_constants_are_exact_past_the_threshold(self, space, n):
        # the second moment of a Hilbert space is a closed form, so no sign is sampled
        cfg = EnumConfig(exact_threshold=2, mc_samples=50, restarts=2, seed=1)
        for kind in ("type", "cotype"):
            est = type_cotype_estimate(kind, space, 2, n, cfg)
            assert est.mode == "exact"
            assert abs(est.value - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "kind,space,exponent,n",
        [("type", lp_space(1, 2), 2, 3), ("cotype", lp_space(3, 2), 3, 4), ("cotype", schatten_space(1, 2, 2), 2, 2)],
        ids=["type-lp1", "cotype-lp3", "cotype-schatten1"],
    )
    def test_values_ignore_the_monte_carlo_settings(self, kind, space, exponent, n):
        default = type_cotype_estimate(kind, space, exponent, n, EnumConfig(seed=1, restarts=2))
        low = type_cotype_estimate(kind, space, exponent, n, EnumConfig(exact_threshold=1, mc_samples=8, seed=1, restarts=2))
        assert low.mode == default.mode == "exact" and low.value == default.value
        assert all(np.array_equal(a.coords, b.coords) for a, b in zip(low.witness, default.witness))

    @pytest.mark.parametrize(
        "kind,space,exponent", [("type", lp_space(1, 2), 2), ("cotype", lp_space(3, 2), 3)], ids=["type-lp1", "cotype-lp3"]
    )
    def test_counts_past_the_exact_rows_pad_the_witness(self, monkeypatch, kind, space, exponent):
        # off Hilbert spaces _EXACT_ROWS vectors are searched and zero vectors
        # pad the witness, which leave both sides of the ratio as they are
        monkeypatch.setattr(rademacher, "_EXACT_ROWS", 3)
        cfg = EnumConfig(restarts=2, seed=1)
        searched = type_cotype_estimate(kind, space, exponent, 3, cfg)
        est = type_cotype_estimate(kind, space, exponent, 5, cfg)
        assert est.mode == "exact" and est.value == searched.value
        coords = np.array([w.coords for w in est.witness])
        assert coords.shape == (5, 2) and not np.any(coords[3:])
        np.testing.assert_array_equal(coords[:3], [w.coords for w in searched.witness])
        moment = moment_from_matrix(coords, space, 2.0, CFG).value
        sums = norms_of(norms_of(coords, space)[None], lp_space(exponent, 5))[0]
        ratio = moment / sums if kind == "type" else sums / moment
        assert ratio == pytest.approx(est.value, rel=1e-12)

    def test_a_padded_witness_over_the_start_cap_is_refused(self, monkeypatch):
        # the padded witness is priced as a start stack is: a count whose
        # witness of count x dim floats passes the cap raises before the search
        monkeypatch.setattr(rademacher, "_EXACT_ROWS", 3)
        monkeypatch.setattr(optim, "MAX_START_FLOATS", 64)
        cfg = EnumConfig(restarts=2, seed=1)
        assert len(type_cotype_estimate("type", lp_space(1, 2), 2, 32, cfg).witness) == 32
        with pytest.raises(ValueError) as err:
            type_cotype_estimate("type", lp_space(1, 2), 2, 33, cfg)
        assert str(err.value) == (
            "a witness of 33 vectors of 2 floats holds 66 floats, over the cap of 64 "
            "(optim.MAX_START_FLOATS); --count 32 fits"
        )
        # a Hilbert witness is the searched tuple, priced by the start stack alone
        assert len(type_cotype_estimate("type", lp_space(2, 2), 2, 16, cfg).witness) == 16

    def test_cotype_infinity_uses_max(self):
        est = type_cotype_estimate("cotype", lp_space(math.inf, 2), math.inf, 2, FAST)
        # max-norm right side: ratio 1/moment2, moment2 >= 1 on unit vectors
        assert est.value <= 1.0 + 1e-9

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            type_cotype_estimate("type", lp_space(2, 2), 3, 2, FAST)
        with pytest.raises(ValueError):
            type_cotype_estimate("cotype", lp_space(2, 2), 1.5, 2, FAST)

    @pytest.mark.parametrize(
        "kind,space,exponent",
        [
            ("type", lp_space(1, 2), 2),
            ("type", lp_space(2, 2), 2),
            ("cotype", lp_space(math.inf, 2), 2),
            ("cotype", lp_space(3, 2), 2),
        ],
    )
    def test_never_exceeds_grid_oracle(self, kind, space, exponent):
        est = type_cotype_estimate(kind, space, exponent, 2, FAST)
        oracle = _grid_oracle_type_cotype(kind, space, exponent)
        assert est.value <= oracle + 1e-6


class TestMatrixSpaces:
    def test_schatten_two_moment_is_square_sum(self):
        # the Schatten 2-norm is a Hilbert norm, so the square identity holds
        from rmflab.spaces import schatten_space

        space = schatten_space(2, 2, 2)
        rng = np.random.default_rng(21)
        vs = [Vector(rng.standard_normal(4), space) for _ in range(4)]
        est = rademacher_moment(vs, 2, CFG)
        want = math.sqrt(sum(np.sum(v.coords**2) for v in vs))
        assert est.value == pytest.approx(want, abs=1e-10)

    def test_operator_norm_moment_enumeration(self):
        from rmflab.spaces import hilbert_op_space

        space = hilbert_op_space(2, 2)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        est = rademacher_moment(
            [Vector(np.eye(2).ravel(), space), Vector(flip.ravel(), space)], 2, CFG
        )
        manual = math.sqrt(
            0.5
            * sum(
                np.linalg.svd(np.eye(2) + s * flip, compute_uv=False)[0] ** 2
                for s in (1.0, -1.0)
            )
        )
        assert est.value == pytest.approx(manual, abs=1e-10)


def _central_differences(evaluate, vmats, h=1e-6):
    fd = np.empty(vmats.shape)
    for idx in np.ndindex(vmats.shape[1:]):
        up, down = vmats.copy(), vmats.copy()
        up[(slice(None),) + idx] += h
        down[(slice(None),) + idx] -= h
        fd[(slice(None),) + idx] = (evaluate(up) - evaluate(down)) / (2 * h)
    return fd


@pytest.mark.parametrize(
    "space,n,p",
    [
        (lp_space(1, 3), 4, 1.0),
        (lp_space(3, 3), 3, 3.0),
        (lp_space(math.inf, 2), 4, 2.0),
        (schatten_space(1, 2, 2), 3, 3.0),
        (schatten_space(3, 2, 2), 3, 1.0),
        (hilbert_op_space(3, 2), 3, 2.0),
        (lp_space(3, 2), 6, 3.0),
    ],
    ids=["lp1", "lp3", "lpinf", "schatten1", "schatten3", "hilbert_op", "lp3-6"],
)
def test_moment_gradients_match_central_differences(space, n, p):
    # random tuples are smooth points; central differences with h = 1e-6
    # are good to about 1e-9 here, so 1e-6 is asked
    vmats = np.random.default_rng(n).standard_normal((3, n, space.total_dim))
    evaluate = moment_evaluator(n, space, p)
    values, grads = evaluate(vmats, grad=True)
    np.testing.assert_allclose(values, evaluate(vmats), rtol=1e-14)
    np.testing.assert_allclose(grads, _central_differences(evaluate, vmats), atol=1e-6)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_moment_gradient_at_zero_is_zero_without_warning(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for space in (lp_space(1, 2), schatten_space(1, 2, 2), hilbert_op_space(2, 2)):
            values, grads = moment_evaluator(3, space, p)(np.zeros((2, 3, space.total_dim)), grad=True)
            assert not np.any(values) and not np.any(grads)
        values, grads = hilbert_moment2(np.zeros((2, 3, 2)), grad=True)
        assert not np.any(values) and not np.any(grads)


def _full_table_moments(n, space, p, vmats, grad=False):
    """Moments of a (batch, n, dim) stack over the whole reference table of n
    signs, and with ``grad`` their gradients.

    The sum of ||c||^p is one ``np.add.reduce`` over every row.  Products
    and gradient sums are taken slice after slice of _ROW_BLOCK rows, as the
    kernel takes them: BLAS may round one product over the whole table
    otherwise.
    """
    table = sign_table(n)
    rows, dim = len(table), space.total_dim
    step = min(rows, rademacher._ROW_BLOCK)
    combos = np.concatenate([table[r : r + step] @ vmats for r in range(0, rows, step)], axis=1)
    if not grad:
        norms = norms_of(combos.reshape(-1, dim), space)
        return (np.add.reduce(norms.reshape(len(vmats), rows) ** p, axis=1) / rows) ** (1 / p)
    norms, dnorms = norms_and_grads_of(combos.reshape(-1, dim), space)
    moments = (np.add.reduce(norms.reshape(len(vmats), rows) ** p, axis=1) / rows) ** (1 / p)
    weighted = ((norms ** (p - 1))[:, None] * dnorms).reshape(len(vmats), rows, dim)
    grads = np.zeros(vmats.shape)
    for r in range(0, rows, step):
        grads += table[r : r + step].T @ weighted[:, r : r + step]
    scale = np.divide(1.0, rows * moments ** (p - 1), out=np.zeros(len(vmats)), where=moments > 0)
    return moments, grads * scale[:, None, None]


_KERNEL_SPACES = [lp_space(1, 3), lp_space(3, 2), lp_space(math.inf, 3), schatten_space(1, 2, 2), schatten_space(1, 2, 3)]


@pytest.mark.parametrize("n", [13, 14, 15, 16])
@pytest.mark.parametrize(
    "space", [lp_space(1, 8), lp_space(3, 3), schatten_space(1, 2, 2)], ids=["lp1", "lp3", "schatten1"]
)
def test_row_blocked_product_matches_the_whole_table(n, space):
    # from 2^12 rows the table is walked 2^11 rows at a time; values and
    # gradients are those of the whole table, bit for bit
    vmats = np.random.default_rng(n).standard_normal((3, n, space.total_dim))
    assert np.array_equal(rademacher._table_moments(n, space, 3.0, vmats), _full_table_moments(n, space, 3.0, vmats))
    for got, want in zip(rademacher._table_moments(n, space, 3.0, vmats, grad=True),
                         _full_table_moments(n, space, 3.0, vmats, grad=True)):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@example(n=13, batch=8, space=_KERNEL_SPACES[0], p=3.0, seed=13)
@example(n=16, batch=1, space=_KERNEL_SPACES[4], p=1.5, seed=16)
@example(n=17, batch=30, space=_KERNEL_SPACES[1], p=1.0, seed=17)
@given(
    n=st.integers(1, 17),
    batch=st.integers(1, 30),
    space=st.sampled_from(_KERNEL_SPACES),
    p=st.sampled_from([1.0, 1.5, 3.0]),
    seed=st.integers(0, 9999),
)
def test_block_walk_is_the_full_table_bit_for_bit(n, batch, space, p, seed):
    # the kernel never holds more than one 2^11-row block of signs; moments
    # and gradients are those of the whole table, bit for bit
    rows = 1 << (n - 1)
    if rows * batch > 1 << 16:  # keeps an example near a tenth of a second
        batch = max(1, (1 << 16) // rows)
    vmats = np.random.default_rng(seed).standard_normal((batch, n, space.total_dim))
    assert np.array_equal(rademacher._table_moments(n, space, p, vmats), _full_table_moments(n, space, p, vmats))
    want, want_grads = _full_table_moments(n, space, p, vmats, grad=True)
    got, grads = rademacher._table_moments(n, space, p, vmats, grad=True)
    assert np.array_equal(got, want) and np.array_equal(grads, want_grads)


@pytest.mark.parametrize("m", range(11, 21))
def test_block_tree_is_one_add_reduce(m):
    # rows of 2^m numbers summed in 2^11-number blocks, then by the kernel's
    # pairwise tree, give the bits of one np.add.reduce over each row
    x = np.random.default_rng(m).standard_normal((4, 1 << m)) ** 2
    blocks = np.add.reduce(x.reshape(4, -1, rademacher._ROW_BLOCK), axis=2).T
    np.testing.assert_array_equal(rademacher._tree_sum(blocks), np.add.reduce(x, axis=1))


@pytest.mark.parametrize(
    "space", [lp_space(2, 3), schatten_space(2, 2, 2)], ids=["lp2", "schatten2"]
)
def test_hilbert_second_moment_is_exact(space):
    vmats = np.random.default_rng(5).standard_normal((4, 5, space.total_dim))
    values, grads = hilbert_moment2(vmats, grad=True)
    want = [moment_from_matrix(v, space, 2.0, CFG).value for v in vmats]
    np.testing.assert_allclose(values, want, rtol=1e-13)
    np.testing.assert_allclose(grads, _central_differences(hilbert_moment2, vmats), atol=1e-8)
    # the evaluator of a Hilbert space at exponent 2 is this closed form
    # with no sign table, also past the most vectors a sign table fits
    assert moment_evaluator(5, space, 2.0) is hilbert_moment2
    assert moment_evaluator(rademacher._EXACT_ROWS + 1, space, 2.0) is hilbert_moment2


def test_an_evaluator_holds_no_sign_table():
    # 20 vectors: the whole table of 2^19 rows would be 80 MiB; one call,
    # with gradients, walks it in blocks of 2^11 rows
    space = lp_space(1, 2)
    vmats = np.random.default_rng(20).standard_normal((2, 20, 2))
    tracemalloc.start()
    try:
        moments = moment_evaluator(20, space, 3.0)
        values, grads = moments(vmats, grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert np.array_equal(moments(vmats), values) and grads.shape == vmats.shape


@pytest.mark.parametrize("n", [21, 22, 64])
def test_evaluator_past_the_exact_rows_raises_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            moment_evaluator(n, lp_space(1, 2), 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"an exact search of {n} vectors scores 2^{n - 1} sign patterns per tuple, over the most a search "
        "takes (rademacher._EXACT_ROWS); 20 vectors fit"
    )
    assert peak < 1 << 20
    # the Hilbert closed form at exponent 2 holds no table
    assert moment_evaluator(n, lp_space(2, 2), 2.0) is hilbert_moment2


def test_sign_table_price_and_cap():
    # the exact moment enumerates n 2^(n-1) signs: 26 vectors fit under the
    # cap the Monte Carlo moment has, 27 do not
    assert exact_sign_entries(20) == 10_485_760
    assert exact_sign_entries(26) <= MAX_MC_SIGN_ENTRIES < exact_sign_entries(27)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 1 << 16), cap=st.integers(1, 1 << 40))
def test_sign_table_remedy_sits_just_under_the_cap(n, cap):
    # prices only, at caps of every size: a refused exact moment names the
    # largest threshold whose table fits, below n
    if exact_sign_entries(n) <= cap:
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rademacher, "MAX_MC_SIGN_ENTRIES", cap)
        with pytest.raises(ValueError) as err:
            moment_from_matrix(np.ones((n, 1)), lp_space(1, 1), 2.0, EnumConfig(exact_threshold=n))
    assert str(err.value).startswith(f"an exact moment of {n} vectors enumerates {n} x 2^{n - 1} signs, ")
    fits = int(re.search(r"; --exact-threshold (\d+) fits$", str(err.value)).group(1))
    assert fits < n and exact_sign_entries(fits) <= cap < exact_sign_entries(fits + 1)


@pytest.mark.parametrize("n", [27, 40, 200])
def test_exact_moment_over_the_cap_raises_before_enumerating(n):
    cfg = EnumConfig(exact_threshold=n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            moment_from_matrix(np.ones((n, 2)), lp_space(1, 2), 3.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"an exact moment of {n} vectors enumerates {n} x 2^{n - 1} signs, over the cap of "
        f"{MAX_MC_SIGN_ENTRIES:,} (rademacher.MAX_MC_SIGN_ENTRIES); --exact-threshold 26 fits"
    )
    assert peak < 1 << 20


def test_monte_carlo_draw_price():
    # one sign per vector per sample: 2.1M at the default samples and threshold
    assert mc_sign_entries(21, EnumConfig()) == 2_100_000
    assert mc_sign_entries(10_737, EnumConfig()) <= MAX_MC_SIGN_ENTRIES < mc_sign_entries(10_738, EnumConfig())


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 1 << 16), samples=st.integers(1, 1 << 40))
def test_monte_carlo_draw_remedy_sits_just_under_the_cap(n, samples):
    fits = MAX_MC_SIGN_ENTRIES // n
    under, over = EnumConfig(exact_threshold=1, mc_samples=fits), EnumConfig(exact_threshold=1, mc_samples=fits + 1)
    assert mc_sign_entries(n, under) <= MAX_MC_SIGN_ENTRIES < mc_sign_entries(n, over)
    cfg = EnumConfig(exact_threshold=1, mc_samples=samples)
    if mc_sign_entries(n, cfg) > MAX_MC_SIGN_ENTRIES:
        # refused before the first sign is drawn
        with pytest.raises(ValueError, match=rf"\(rademacher.MAX_MC_SIGN_ENTRIES\); --mc-samples {fits} fits$"):
            moment_from_matrix(np.ones((n, 1)), lp_space(1, 1), 2.0, cfg)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


# pinned while every sign table was computed entry by entry from bit shifts;
# schatten1 re-pinned when 2 x 2 norms took the closed form (one of four
# moments moved, by 2.0e-16 relative)
EXACT_MOMENT_DIGESTS = {
    "lp1": "2889f12823da8fd66d43a00a130502c2c8ca47c528ca444be0d0aa1a98026498",
    "lp3": "2eeee8f773116e69411030fc88276bbcab6794d4ad0895f92364b41e97ad6af7",
    "schatten1": "9d914266b2e2c622fad442a20065bf55dcb39547a687260fe1edd1ad84efb180",
}


@pytest.mark.parametrize(
    "name,space",
    [("lp1", lp_space(1, 3)), ("lp3", lp_space(3, 2)), ("schatten1", schatten_space(1, 2, 2))],
    ids=["lp1", "lp3", "schatten1"],
)
def test_exact_moments_past_one_chunk_are_pinned(name, space):
    # 15 vectors fill one chunk of 2^14 sign patterns, 18 fill eight
    rng = np.random.default_rng(15)
    values = []
    for n, p in zip(range(15, 19), (1.0, 3.0, 1.5, 3.0)):
        vmat = rng.standard_normal((n, space.total_dim))
        est = moment_from_matrix(vmat, space, p, CFG)
        assert est.mode == "exact" and est.samples == 1 << (n - 1)
        values.append(est.value)
    assert _digest(values) == EXACT_MOMENT_DIGESTS[name]


# re-pinned when 2 x 2 norms took the closed form: one of the six Schatten-1
# moments moved, by 1.6e-16 relative, and gradient entries by 1.1e-16 at most
EVALUATOR_DIGESTS = {
    16: "ccdc000d2ff345abfe0ae8974768c89a9b32839423ccf8beb7cabda10125f923",
    17: "74c5eb577c4e20bbe077e8fc232df445e0747940df6749654474a02c7d06242a",
}


@pytest.mark.parametrize("n", [16, 17])
def test_exact_evaluators_are_pinned(n):
    parts = []
    for space in (lp_space(1, 2), schatten_space(1, 2, 2)):
        vmats = np.random.default_rng(n).standard_normal((3, n, space.total_dim))
        moments = moment_evaluator(n, space, 3.0)
        values = moments(vmats)
        with_grad, grads = moments(vmats, grad=True)
        assert np.array_equal(values, with_grad)
        parts += [values, grads.ravel()]
    assert _digest(np.concatenate(parts)) == EVALUATOR_DIGESTS[n]


def _traced_peak(build):
    """What ``build()`` returns, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_table_peak_memory():
    # the 2^17-row table of 18 signs (18.9 MB) is walked in one block of 2^11 rows
    rademacher._sign_block.cache_clear()
    block_bytes = rademacher._ROW_BLOCK * 18 * 8
    rows, peak = _traced_peak(lambda: sum(len(block) for block in rademacher._sign_blocks(18)))
    assert rows == 1 << 17
    assert peak < 4 * block_bytes


def test_exact_moment_peak_memory():
    vmat = np.random.default_rng(18).standard_normal((18, 3))
    est, peak = _traced_peak(lambda: moment_from_matrix(vmat, lp_space(1, 3), 3.0, CFG))
    assert est.samples == 1 << 17
    assert peak < 6_000_000
