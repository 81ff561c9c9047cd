import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import rademacher
from rmflab.rademacher import (
    EnumConfig,
    hilbert_moment2,
    moment_evaluator,
    MAX_MC_SIGN_ENTRIES,
    MAX_SIGN_TABLE_BYTES,
    mc_sign_entries,
    moment_from_matrix,
    rademacher_moment,
    scalar_moment,
    sign_patterns,
    sign_table_bytes,
    type_cotype_estimate,
)
from rmflab.spaces import Vector, hilbert_op_space, lp_space, norm, norms_of, schatten_space

CFG = EnumConfig(seed=1)
FAST = EnumConfig(seed=1, restarts=6)


def basis(space):
    d = space.total_dim
    return [Vector(np.eye(d)[j], space) for j in range(d)]


def test_sign_patterns_shape_and_symmetry():
    pats = sign_patterns(4)
    assert pats.shape == (8, 4)
    assert np.all(pats[:, 0] == 1.0)
    # chunked generation agrees with the full table
    np.testing.assert_array_equal(pats[3:6], sign_patterns(4, 3, 6))


# hi defaults to the table's end, 8 rows at n = 4
@pytest.mark.parametrize("lo,hi", [(-1, None), (-1, 4), (5, 4), (3, 2), (9, None)])
def test_sign_patterns_need_lo_within_zero_and_hi(lo, hi):
    with pytest.raises(ValueError, match="0 <= lo <= hi"):
        sign_patterns(4, lo, hi)


def test_sign_patterns_past_the_end_are_empty():
    # a given hi is clamped to the table's end, and so is a lo past it
    assert sign_patterns(4, 6, 100).shape == (2, 4)
    assert sign_patterns(4, 8).shape == (0, 4)
    assert sign_patterns(4, 9, 12).shape == (0, 4)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_enum_config_tol_is_a_finite_number_above_zero(tol):
    with pytest.raises(ValueError, match="tol"):
        EnumConfig(tol=tol)


def _reference_rows(n, rows):
    """Rows of the sign table from plain Python ints: +1, then 1 - 2 * bit j of the row index."""
    return np.array([[1.0] + [1.0 - 2 * ((i >> j) & 1) for j in range(n - 1)] for i in rows]).reshape(-1, n)


@pytest.mark.parametrize("n", range(1, 21))
def test_sign_patterns_match_python_int_reference(n):
    m = 1 << (n - 1)
    full = sign_patterns(n)
    assert full.shape == (m, n) and full.dtype == np.float64 and full.flags.c_contiguous
    if n <= 15:
        # cached, and read-only
        assert sign_patterns(n) is full and not full.flags.writeable
    # every row of a small table; of a larger one the first and last rows,
    # the rows around every power of two and a seeded sample
    rng = np.random.default_rng(n)
    rows = np.arange(m) if m <= 1 << 12 else np.unique(np.concatenate([
        np.arange(64), np.arange(m - 64, m), rng.integers(0, m, 256),
        *(np.arange((1 << k) - 2, (1 << k) + 2) for k in range(2, n - 1)),
    ]))
    np.testing.assert_array_equal(full[rows], _reference_rows(n, rows.tolist()))
    # column j + 1 is bit j of the row index: +1 on the first 2^j rows of every 2^(j + 1), -1 on the rest
    for j in range(n - 1):
        halves = full[:, j + 1].reshape(-1, 2, 1 << j)
        assert (halves[:, 0] == 1.0).all() and (halves[:, 1] == -1.0).all()
    # aligned chunks, unaligned ranges that cross block boundaries, an empty range at the end
    chunk = rademacher._CHUNK
    ranges = [(lo, lo + chunk) for lo in range(0, m, chunk)]
    ranges += [(1000, 1100), (1023, 1025), (1, 3000), (chunk - 5, chunk + 7),
               (3 * 1024 + 17, 5 * chunk + 3), (m - 3, m + 10), (m, m), (m, None)]
    ranges += [tuple(sorted(rng.integers(0, m + 1, 2).tolist())) for _ in range(4)]
    for lo, hi in ranges:
        if not 0 <= lo <= m:
            continue
        part = sign_patterns(n, lo, hi)
        want = full[lo:hi]
        assert part.shape == want.shape and part.dtype == np.float64
        np.testing.assert_array_equal(part, want)


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

    def test_monte_carlo_constants_say_so(self):
        cfg = EnumConfig(exact_threshold=2, mc_samples=50, restarts=2, seed=1)
        assert type_cotype_estimate("type", lp_space(1, 2), 2, 3, cfg).mode == "monte_carlo"
        assert type_cotype_estimate("type", lp_space(1, 2), 2, 2, cfg).mode == "exact"

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


def test_scalar_moment_matches_vector_form():
    lam = np.array([0.6, -0.8])
    est = scalar_moment(lam, 3, CFG)
    vs = [Vector(np.array([c]), lp_space(1, 1)) for c in lam]
    assert est.value == pytest.approx(rademacher_moment(vs, 3, CFG).value, abs=1e-12)


def _central_differences(evaluate, vmats, h=1e-6):
    fd = np.empty(vmats.shape)
    for idx in np.ndindex(vmats.shape[1:]):
        up, down = vmats.copy(), vmats.copy()
        up[(slice(None),) + idx] += h
        down[(slice(None),) + idx] -= h
        fd[(slice(None),) + idx] = (evaluate(up) - evaluate(down)) / (2 * h)
    return fd


@pytest.mark.parametrize(
    "space,n,p,cfg",
    [
        (lp_space(1, 3), 4, 1.0, CFG),
        (lp_space(3, 3), 3, 3.0, CFG),
        (lp_space(math.inf, 2), 4, 2.0, CFG),
        (schatten_space(1, 2, 2), 3, 3.0, CFG),
        (schatten_space(3, 2, 2), 3, 1.0, CFG),
        (hilbert_op_space(3, 2), 3, 2.0, CFG),
        # a frozen Monte Carlo table is a smooth objective as well
        (lp_space(3, 2), 6, 3.0, EnumConfig(exact_threshold=4, mc_samples=300, seed=2)),
    ],
    ids=["lp1", "lp3", "lpinf", "schatten1", "schatten3", "hilbert_op", "lp3-mc"],
)
def test_moment_gradients_match_central_differences(space, n, p, cfg):
    # random tuples are smooth points; central differences with h = 1e-6
    # are good to about 1e-9 here, so 1e-6 is asked
    vmats = np.random.default_rng(n).standard_normal((3, n, space.total_dim))
    evaluate = moment_evaluator(n, space, p, cfg)
    values, grads = evaluate(vmats, grad=True)
    np.testing.assert_allclose(values, evaluate(vmats), rtol=1e-14)
    np.testing.assert_allclose(grads, _central_differences(evaluate, vmats), atol=1e-6)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_moment_gradient_at_zero_is_zero_without_warning(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for space in (lp_space(1, 2), schatten_space(1, 2, 2), hilbert_op_space(2, 2)):
            values, grads = moment_evaluator(3, space, p, CFG)(np.zeros((2, 3, space.total_dim)), grad=True)
            assert not np.any(values) and not np.any(grads)
        values, grads = hilbert_moment2(np.zeros((2, 3, 2)), grad=True)
        assert not np.any(values) and not np.any(grads)


@pytest.mark.parametrize("n", [13, 14, 15, 16])
@pytest.mark.parametrize(
    "space", [lp_space(1, 8), lp_space(3, 3), schatten_space(1, 2, 2)], ids=["lp1", "lp3", "schatten1"]
)
def test_row_blocked_product_matches_the_whole_table(monkeypatch, n, space):
    # from 2^12 rows the table is multiplied 2^11 rows at a time; the values
    # stay within 1e-15 (relative) of one whole-table product per tuple, and
    # the gradients, summed over the blocks, near those of one block
    table = rademacher.sign_patterns(n)
    vmats = np.random.default_rng(n).standard_normal((3, n, space.total_dim))
    whole = [
        (np.add.reduce(norms_of((table @ v).reshape(-1, space.total_dim), space) ** 3.0) / len(table))
        ** (1 / 3)
        for v in vmats
    ]
    np.testing.assert_allclose(rademacher._table_moments(table, space, 3.0, vmats), whole, rtol=1e-15)
    values, grads = rademacher._table_moments(table, space, 3.0, vmats, grad=True)
    np.testing.assert_allclose(values, whole, rtol=1e-15)
    assert grads.shape == vmats.shape
    monkeypatch.setattr(rademacher, "_ROW_BLOCK", len(table))
    _, whole_grads = rademacher._table_moments(table, space, 3.0, vmats, grad=True)
    np.testing.assert_allclose(grads, whole_grads, rtol=1e-12, atol=1e-14)


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
    # with no sign table, also beyond the exact threshold
    assert moment_evaluator(5, space, 2.0, EnumConfig(exact_threshold=2, mc_samples=8)) is hilbert_moment2


def test_one_evaluator_holds_one_sign_table():
    # 18 vectors: a 2^17-row exact table of 18.9 MB, held once for values and gradients
    space = lp_space(1, 2)
    table_bytes = (1 << 17) * 18 * 8
    tracemalloc.start()
    try:
        moments = moment_evaluator(18, space, 3.0, EnumConfig())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table_bytes <= held < 1.5 * table_bytes
    vmats = np.random.default_rng(18).standard_normal((2, 18, 2))
    values, grads = moments(vmats, grad=True)
    assert np.array_equal(moments(vmats), values) and grads.shape == vmats.shape


def test_sign_table_price_and_cap():
    # 2^(n-1) n floats within the threshold: 84 MB at 20 vectors, 7.0 GB at 26
    assert sign_table_bytes(20, EnumConfig()) == 83_886_080
    assert sign_table_bytes(26, EnumConfig(exact_threshold=26)) == 6_979_321_856
    # beyond it, min(mc_samples, 2^15) rows of n signs
    assert sign_table_bytes(26, EnumConfig()) == (1 << 15) * 26 * 8
    assert sign_table_bytes(26, EnumConfig(mc_samples=100)) == 100 * 26 * 8
    # 21 vectors are the most an exact table fits; 1024 the most a Monte Carlo one does
    assert sign_table_bytes(21, EnumConfig(exact_threshold=21)) <= MAX_SIGN_TABLE_BYTES
    assert sign_table_bytes(22, EnumConfig(exact_threshold=22)) > MAX_SIGN_TABLE_BYTES
    assert sign_table_bytes(1024, EnumConfig()) <= MAX_SIGN_TABLE_BYTES
    assert sign_table_bytes(1025, EnumConfig()) > MAX_SIGN_TABLE_BYTES


@pytest.mark.parametrize(
    "n,cfg,remedy",
    [
        (22, EnumConfig(exact_threshold=22), "--exact-threshold 21 fits"),
        (1025, EnumConfig(), "--mc-samples 32736 fits"),
    ],
)
def test_evaluator_over_the_cap_raises_before_allocating(n, cfg, remedy):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the cap of 256 MiB") as err:
            moment_evaluator(n, lp_space(1, 2), 3.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value).endswith(remedy)
    assert peak < 1 << 20
    # the Hilbert closed form at exponent 2 holds no table
    assert moment_evaluator(n, lp_space(2, 2), 2.0, cfg) is hilbert_moment2


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(1, 64), st.integers(1, 1 << 20)),
    threshold=st.integers(1, 64),
    samples=st.integers(1, 1 << 40),
)
def test_sign_table_remedy_sits_just_under_the_cap(n, threshold, samples):
    # prices only: no table is built
    cfg = EnumConfig(exact_threshold=threshold, mc_samples=samples)
    if sign_table_bytes(n, cfg) <= MAX_SIGN_TABLE_BYTES:
        return
    flag, fits = re.search(r"(--[a-z-]+) (\d+) fits$", rademacher._over_cap_message(n, cfg)).groups()
    fits = int(fits)
    if flag == "--exact-threshold":
        # an exact table of the vectors that fits, and of one more
        under, over = EnumConfig(exact_threshold=fits), EnumConfig(exact_threshold=fits + 1)
        assert sign_table_bytes(fits, under) <= MAX_SIGN_TABLE_BYTES < sign_table_bytes(fits + 1, over)
    else:
        under, over = EnumConfig(threshold, mc_samples=fits), EnumConfig(threshold, mc_samples=fits + 1)
        assert sign_table_bytes(n, under) <= MAX_SIGN_TABLE_BYTES < sign_table_bytes(n, over)


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
        moments = moment_evaluator(n, space, 3.0, CFG)
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
    table, peak = _traced_peak(lambda: sign_patterns(18))
    assert table.nbytes == (1 << 17) * 18 * 8
    assert peak < 2 * table.nbytes


def test_exact_moment_peak_memory():
    vmat = np.random.default_rng(18).standard_normal((18, 3))
    est, peak = _traced_peak(lambda: moment_from_matrix(vmat, lp_space(1, 3), 3.0, CFG))
    assert est.samples == 1 << 17
    assert peak < 6_000_000
