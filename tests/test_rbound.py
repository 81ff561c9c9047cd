import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sign_table
from rmflab import optim, rbound
from rmflab.rademacher import EnumConfig
from rmflab.rbound import (
    HILBERT_EXACT,
    RBoundBracket,
    atomwise_rbound,
    rbound_certify_grid,
    rbound_scalar,
)
from rmflab.filtration import conditional_expectation, make_dyadic_filtration, random_step_function
from rmflab.maximal import doob_maximal
from rmflab.spaces import Vector, lp_space, norm, norms_of, schatten_space

FAST = EnumConfig(seed=2, restarts=6)


def ce_stack(f, filt):
    return np.stack([conditional_expectation(f, part).values for part in filt.levels])


def basis(space):
    d = space.total_dim
    return [Vector(np.eye(d)[j], space) for j in range(d)]


class TestScalar:
    def test_hilbert_collapses_to_max_norm(self):
        rng = np.random.default_rng(0)
        space = lp_space(2, 3)
        vs = [Vector(rng.standard_normal(3), space) for _ in range(4)]
        br = rbound_scalar(vs, 2, cfg=FAST)
        assert br.mode == "hilbert_exact"
        want = max(norm(v) for v in vs)
        assert br.lower == br.upper == pytest.approx(want, abs=1e-12)

    def test_l1_basis_sqrt2(self):
        br = rbound_scalar(basis(lp_space(1, 2)), 2, cfg=FAST)
        assert br.mode == "optimized"
        assert br.lower == pytest.approx(math.sqrt(2), abs=1e-4)
        assert br.upper == 2.0

    def test_singleton_every_p_and_multiplicity(self):
        v = Vector(np.array([0.3, -0.7]), lp_space(1, 2))
        for p in (1, 2, 3):
            for mult in (1, 2):
                br = rbound_scalar([v], p, multiplicity=mult, cfg=FAST)
                assert br.lower == pytest.approx(norm(v), abs=1e-9)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            rbound_scalar([], 2, cfg=FAST)

    def test_floor_is_max_member_norm(self):
        rng = np.random.default_rng(4)
        space = lp_space(1.5, 3)
        vs = [Vector(rng.standard_normal(3), space) for _ in range(3)]
        br = rbound_scalar(vs, 2, cfg=FAST)
        assert br.lower >= max(norm(v) for v in vs) - 1e-9
        assert br.lower <= br.upper + 1e-9

    def test_zero_vectors_never_increase_bracket(self):
        space = lp_space(1, 2)
        vs = basis(space)
        with_zero = vs + [Vector(np.zeros(2), space)]
        a = rbound_scalar(vs, 2, cfg=FAST)
        b = rbound_scalar(with_zero, 2, cfg=FAST)
        assert b.lower <= a.lower + 1e-9
        assert b.upper == a.upper

    def test_bracket_ordering_validated(self):
        with pytest.raises(ValueError):
            RBoundBracket(2.0, 1.0, None, "optimized", 2.0)

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan, -math.inf])
    def test_exponent_outside_one_to_inf_raises(self, p):
        vs = basis(lp_space(1, 2))
        stack = np.stack([v.coords for v in vs])[:, None, :]
        for call in (
            lambda: rbound_scalar(vs, p, cfg=FAST),
            lambda: atomwise_rbound(stack, lp_space(1, 2), FAST, p),
            lambda: rbound_certify_grid(vs, p, grid_step=0.1),
        ):
            with pytest.raises(ValueError, match="1 <= p < inf"):
                call()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 99_999),
    n=st.integers(1, 3),
    p=st.sampled_from([1.0, 2.0, 3.0]),
    space_p=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_bracket_invariants_property(seed, n, p, space_p):
    rng = np.random.default_rng(seed)
    space = lp_space(space_p, 2)
    vs = [Vector(rng.standard_normal(2), space) for _ in range(n)]
    cheap = EnumConfig(seed=seed, restarts=2)
    br = rbound_scalar(vs, p, cfg=cheap)
    member_max = max(norm(v) for v in vs)
    member_sum = sum(norm(v) for v in vs)
    assert br.lower <= br.upper + 1e-9
    assert br.lower >= member_max - 1e-9
    assert br.upper <= member_sum + 1e-12


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_l1_basis_sqrt_n_under_permutation_and_signs(n, data):
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    space = lp_space(1, n)
    vs = [Vector(s * np.eye(n)[j], space) for j, s in zip(perm, signs)]
    br = rbound_scalar(vs, 2, cfg=FAST)
    assert math.sqrt(n) - 1e-3 <= br.lower <= math.sqrt(n) + 1e-9


@pytest.mark.parametrize(
    "space",
    [lp_space(1, 3), lp_space(math.inf, 3), schatten_space(1, 2, 2)],
    ids=["lp1", "lpinf", "schatten1"],
)
def test_full_set_lower_covers_every_pair(space):
    # a pair's sphere is a face of the full set's sphere; without face
    # starts the lpinf case drops by 0.038 at this seed
    rng = np.random.default_rng(12)
    for n in (3, 4, 5):
        vs = [Vector(rng.standard_normal(space.total_dim), space) for _ in range(n)]
        full = rbound_scalar(vs, 2, cfg=FAST).lower
        for pair in itertools.combinations(vs, 2):
            assert full >= rbound_scalar(list(pair), 2, cfg=FAST).lower - 1e-9


@pytest.mark.parametrize("space, n, seed", [(lp_space(1, 3), 3, 0), (lp_space(3, 3), 4, 1)])
def test_face_starts_add_to_the_restarts(monkeypatch, space, n, seed):
    # every start of the search without faces still runs, on the same path;
    # the best start wins only by more than 1e-12 over an earlier one
    rows = np.random.default_rng(seed).standard_normal((n, space.total_dim))
    cfg = EnumConfig(seed=seed, restarts=6)
    [(with_faces, _)] = rbound._sphere_lower(rows[None], space, 2.0, cfg)
    monkeypatch.setattr(rbound, "_face_starts", lambda k: np.zeros((0, k)))
    [(without, _)] = rbound._sphere_lower(rows[None], space, 2.0, cfg)
    assert with_faces >= without - 1e-12


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize(
    "space",
    [lp_space(1, 3), lp_space(math.inf, 3), schatten_space(1, 2, 2)],
    ids=["lp1", "lpinf", "schatten1"],
)
def test_batched_sets_equal_each_set_alone(space, p):
    # all sets climb in one ascent; each start follows the path it follows alone
    sets = np.random.default_rng(31).standard_normal((4, 3, space.total_dim))
    cfg = EnumConfig(seed=3, restarts=4)
    found = rbound._sphere_lower(sets, space, p, cfg)
    assert len(found) == len(sets)
    for rows, (val, lam) in zip(sets, found):
        [(alone, lam_alone)] = rbound._sphere_lower(rows[None], space, p, cfg)
        assert val == alone
        assert np.array_equal(lam, lam_alone)


@pytest.mark.parametrize("cap", [None, 1], ids=["one-ascent", "one-set-per-ascent"])
def test_batched_monte_carlo_sets_equal_each_set_alone(monkeypatch, cap):
    # 5 rows above an exact threshold of 3, which steers no search: every
    # set is searched over every sign pattern
    space = lp_space(1, 2)
    sets = np.random.default_rng(32).standard_normal((3, 5, 2))
    cfg = EnumConfig(exact_threshold=3, mc_samples=256, seed=4, restarts=3)
    alone = [rbound._sphere_lower(rows[None], space, 2.0, cfg)[0] for rows in sets]
    if cap is not None:
        monkeypatch.setattr(rbound, "_BATCH_FLOATS", cap)
    for (val, lam), (want, lam_alone) in zip(rbound._sphere_lower(sets, space, 2.0, cfg), alone):
        assert val == want
        assert np.array_equal(lam, lam_alone)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), threshold=st.integers(1, 3), samples=st.integers(8, 64), seed=st.integers(0, 99))
def test_monte_carlo_settings_leave_the_l1_basis_exact(n, threshold, samples, seed):
    # R_2 of the l1^n basis is sqrt(n); the threshold and the samples steer no search
    cfg = EnumConfig(exact_threshold=threshold, mc_samples=samples, seed=seed, restarts=2)
    lower = rbound_scalar(basis(lp_space(1, n)), 2.0, cfg=cfg).lower
    assert abs(lower - math.sqrt(n)) <= 1e-6
    assert lower <= math.sqrt(n) + 1e-12


def _norm_by_definition(rows, space):
    """Norms of (m, dim) coordinate rows, by numpy's own reductions."""
    if space.kind == "schatten":
        return np.linalg.svd(rows.reshape(-1, space.rows, space.cols), compute_uv=False).sum(axis=1)
    return np.linalg.norm(rows, ord=space.p, axis=1)


def _rescore(bracket, vectors, p):
    """The R_p ratio of a bracket's witness over all 2^k sign vectors, by definition."""
    rows = np.stack([vectors[i].coords for i in bracket.witness.indices])
    coeffs = np.asarray(bracket.witness.coeffs)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(coeffs))))
    num = np.mean(_norm_by_definition((signs * coeffs) @ rows, vectors[0].space) ** p) ** (1 / p)
    return num / np.mean(np.abs(signs @ coeffs) ** p) ** (1 / p)


@settings(max_examples=40, deadline=None)
@given(
    space=st.sampled_from([lp_space(1, 3), lp_space(3, 3), lp_space(math.inf, 3), schatten_space(1, 2, 2)]),
    k=st.integers(1, 6),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    threshold=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_searched_lower_equals_a_full_rescore_of_its_witness(space, k, p, threshold, seed):
    rng = np.random.default_rng(seed)
    vectors = [Vector(rng.standard_normal(space.total_dim), space) for _ in range(k)]
    cfg = EnumConfig(exact_threshold=threshold, mc_samples=16, seed=seed % 97, restarts=2)
    bracket = rbound_scalar(vectors, p, cfg=cfg)
    assert _rescore(bracket, vectors, p) == pytest.approx(bracket.lower, rel=1e-12)


@pytest.mark.parametrize(
    "space", [lp_space(1, 2), lp_space(3, 2), schatten_space(1, 2, 2)], ids=["lp1", "lp3", "schatten1"]
)
def test_atomwise_brackets_ignore_the_monte_carlo_settings(space):
    # atoms of up to 5 distinct rows, past a threshold of 1
    stack = np.random.default_rng(33).standard_normal((5, 6, space.total_dim))
    stack[2:, 0] = stack[1, 0]
    default = atomwise_rbound(stack, space, EnumConfig(seed=3, restarts=2), 3.0)
    low = atomwise_rbound(stack, space, EnumConfig(exact_threshold=1, mc_samples=8, seed=3, restarts=2), 3.0)
    for want, got in zip(default, low):
        assert np.array_equal(want, got)


def test_face_starts_every_face_up_to_six_rows_then_prefixes():
    faces = rbound._face_starts(6)
    assert faces.shape == (56, 6)
    assert set(faces.sum(axis=1)) == {2, 3, 4, 5}
    np.testing.assert_array_equal(rbound._face_starts(7), np.tri(7)[1:6])


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_witness_names_the_member_of_each_stack_row(p):
    space = lp_space(1, 3)
    vs = [Vector(np.array([1.0, 0.2, 0.0]), space), Vector(np.array([0.0, 1.0, -0.3]), space)]
    br = rbound_scalar(vs, p, multiplicity=2, cfg=FAST)
    wit = br.witness
    assert wit.indices == (0, 1, 0, 1)
    rows = np.stack([vs[i].coords for i in wit.indices])
    signs = sign_table(len(wit.indices))
    num = np.mean(norms_of((signs * wit.coeffs) @ rows, space) ** p)
    den = np.mean(np.abs(signs @ wit.coeffs) ** p)
    assert (num / den) ** (1 / p) == pytest.approx(br.lower, abs=1e-12)


def hilbert_rbound(values, space):
    """The closed-form R-bound of a nonempty set at p = 2 on a Hilbert space."""
    bracket = rbound_scalar([Vector(v, space) for v in values], 2.0, cfg=FAST)
    assert bracket.mode == HILBERT_EXACT
    return bracket.lower


class TestHilbertOracleIdentities:
    def test_one_step_bound(self):
        # R(y_1..y_j) <= R(y_1..y_{j-1}) + ||y_j - y_{j-1}|| in max-norm form
        rng = np.random.default_rng(9)
        space = lp_space(2, 3)
        ys = rng.standard_normal((6, 3))
        for j in range(1, 6):
            r_all = hilbert_rbound(ys[: j + 1], space)
            r_prev = hilbert_rbound(ys[:j], space)
            step = float(np.linalg.norm(ys[j] - ys[j - 1]))
            assert r_all <= r_prev + step + 1e-12

    def test_sumset_subadditive(self):
        rng = np.random.default_rng(10)
        space = lp_space(2, 3)
        t = rng.standard_normal((4, 3))
        s = rng.standard_normal((3, 3))
        sumset = np.array([a + b for a in t for b in s])
        assert hilbert_rbound(sumset, space) <= hilbert_rbound(t, space) + hilbert_rbound(
            s, space
        ) + 1e-12


class TestGrid:
    def test_l1_basis(self):
        br = rbound_certify_grid(basis(lp_space(1, 2)), 2, grid_step=1e-3)
        assert br.mode == "grid_certified"
        assert br.lower == pytest.approx(math.sqrt(2), abs=1e-2)
        assert br.sup_gap is not None and br.sup_gap < 0.05

    def test_singleton_exact(self):
        v = Vector(np.array([0.0, 2.5]), lp_space(1, 2))
        br = rbound_certify_grid([v], 2, grid_step=1e-3)
        assert br.lower == pytest.approx(2.5, abs=1e-12)

    def test_hilbert_pair_max_norm(self):
        rng = np.random.default_rng(12)
        space = lp_space(2, 2)
        vs = [Vector(rng.standard_normal(2), space) for _ in range(2)]
        br = rbound_certify_grid(vs, 2, grid_step=1e-3)
        assert br.lower == pytest.approx(max(norm(v) for v in vs), abs=1e-2)

    def test_three_vectors_sphere_grid(self):
        vs = basis(lp_space(1, 3))
        br = rbound_certify_grid(vs, 2, grid_step=0.02)
        assert br.lower == pytest.approx(math.sqrt(3), abs=0.05)
        assert br.lower <= math.sqrt(3) + 1e-9

    def test_grid_agrees_with_optimizer(self):
        rng = np.random.default_rng(13)
        space = lp_space(1, 2)
        vs = [Vector(rng.standard_normal(2), space) for _ in range(2)]
        grid = rbound_certify_grid(vs, 2, grid_step=1e-3)
        opt = rbound_scalar(vs, 2, cfg=FAST)
        assert opt.lower >= grid.lower - 1e-3
        assert opt.lower <= grid.lower + (grid.sup_gap or 0) + 1e-9

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize(
        "space,k", [(lp_space(1, 2), 2), (lp_space(3, 3), 3), (lp_space(2, 2), 2), (schatten_space(1, 2, 2), 3)],
        ids=["lp1", "lp3", "lp2", "schatten1"],
    )
    def test_grid_lower_is_the_search_ratio_at_its_witness(self, space, k, p):
        # the grid scores its points with the evaluators an R-bound search
        # ascends, so its lower is their ratio at the witness, bit for bit
        vmat = np.random.default_rng(k).standard_normal((k, space.total_dim))
        br = rbound_certify_grid([Vector(v, space) for v in vmat], p, grid_step=0.05)
        vector_moments, scalar_moments = rbound._moment_pair(k, space, p)
        lam = br.witness.coeffs[None, :, None]
        assert br.lower == optim.ratio_or_zero(vector_moments(lam * vmat), scalar_moments(lam))[0]

    def test_too_many_vectors_rejected(self):
        with pytest.raises(ValueError):
            rbound_certify_grid(basis(lp_space(1, 4)), 2)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_grid_step_is_a_finite_number_above_zero(self, step):
        with pytest.raises(ValueError, match="grid_step"):
            rbound_certify_grid(basis(lp_space(1, 2)), 2, grid_step=step)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("step", [100.0, 4.0, 2.0, 1.0, 0.3, 0.07, 0.02, 4e-3])
    def test_grid_price_bounds_the_points_built(self, k, step):
        points = sum(map(len, rbound._sphere_grid_chunks(k, step)))
        price = rbound.sphere_grid_points(k, step)
        assert points <= price <= points + (5 * math.pi + 4) / step + 2
        if k < 3:
            assert price == points

    def test_grid_price_over_the_cap(self):
        cap = rbound.MAX_GRID_POINTS
        assert rbound.sphere_grid_points(3, 1e-3) <= cap
        assert rbound.sphere_grid_points(3, 3e-4) > cap
        assert rbound.sphere_grid_points(2, 2 * math.pi / cap) <= cap < rbound.sphere_grid_points(2, 6 / cap)
        for k in (2, 3):
            fits = rbound._grid_step_that_fits(k)
            assert rbound.sphere_grid_points(k, fits) <= cap < rbound.sphere_grid_points(k, 0.9 * fits)
        # no step overflows the price, down to the smallest subnormal
        for step in (1e-100, 1e-200, 5e-324):
            assert rbound.sphere_grid_points(2, step) > cap and rbound.sphere_grid_points(3, step) > cap

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([2, 3]), cap=st.integers(64, 1 << 40))
    def test_grid_remedy_sits_just_under_the_cap(self, k, cap):
        # prices only, at caps of every size: the step the refusal names is
        # accepted, and one unit lower in its last digit is refused
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rbound, "MAX_GRID_POINTS", cap)
            fits = rbound._grid_step_that_fits(k)
        unit = 10 ** (math.floor(math.log10(fits)) - 1)
        assert rbound.sphere_grid_points(k, fits) <= cap < rbound.sphere_grid_points(k, fits - unit)

    def test_grid_over_the_cap_raises_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"rbound.MAX_GRID_POINTS\); --grid-step 0.00087 fits"):
                rbound_certify_grid(basis(lp_space(1, 3)), 2, grid_step=1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("step", [4.0, 0.3, 0.02, 4e-3])
    def test_sphere_grid_is_its_rings_stacked(self, monkeypatch, k, step):
        # the grid as one array per ring, stacked, was built so before chunks
        if k == 1:
            rings = [np.array([[1.0], [-1.0]])]
        elif k == 2:
            theta = np.arange(max(4, math.ceil(2 * math.pi / step)))
            theta = theta * (2 * math.pi / theta.size)
            rings = [np.column_stack([np.cos(theta), np.sin(theta)])]
        else:
            n_lat = max(2, math.ceil(math.pi / step))
            rings = [np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])]
            for i in range(1, n_lat):
                phi = math.pi * i / n_lat
                theta = np.arange(max(4, math.ceil(2 * math.pi * math.sin(phi) / step)))
                theta = theta * (2 * math.pi / theta.size)
                ring = [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.full(theta.size, math.cos(phi))]
                rings.append(np.column_stack(ring))
        # chunks of 5 points split the poles from rings and most rings in two
        for chunk in (rbound._GRID_CHUNK, 5):
            with monkeypatch.context() as m:
                m.setattr(rbound, "_GRID_CHUNK", chunk)
                chunks = list(rbound._sphere_grid_chunks(k, step))
            assert all(len(c) == chunk for c in chunks[:-1]) and 0 < len(chunks[-1]) <= chunk
            assert np.array_equal(np.vstack(chunks), np.vstack(rings))

    @pytest.mark.parametrize(
        "space,step",
        [(lp_space(1, 3), 1e-2), (lp_space(3, 3), 1e-2), (lp_space(math.inf, 3), 1e-2), (lp_space(3, 3), 3e-3)],
        ids=["lp1", "lp3", "lpinf", "lp3-fine"],
    )
    def test_grid_chunks_give_the_bits_of_one_pass(self, monkeypatch, space, step):
        rng = np.random.default_rng(19)
        vs = [Vector(rng.standard_normal(3), space) for _ in range(3)]
        for p in (1.5, 3.0):
            chunked = rbound_certify_grid(vs, p, grid_step=step)
            with monkeypatch.context() as m:
                m.setattr(rbound, "_GRID_CHUNK", 1 << 40)
                whole = rbound_certify_grid(vs, p, grid_step=step)
            assert (chunked.lower, chunked.upper, chunked.sup_gap) == (whole.lower, whole.upper, whole.sup_gap)
            assert np.array_equal(chunked.witness.coeffs, whole.witness.coeffs)

    def test_grid_holds_little_beside_its_points(self):
        # each chunk is scored as it is generated, so the peak stays near a
        # few chunks while the grid grows (3 MB at step 1e-2, 34 MB at 3e-3)
        vs = basis(lp_space(1, 3))
        chunk_bytes = rbound._GRID_CHUNK * 3 * 8
        for step in (1e-2, 3e-3):
            tracemalloc.start()
            try:
                rbound_certify_grid(vs, 2, grid_step=step)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * chunk_bytes < rbound.sphere_grid_points(3, step) * 3 * 8


class TestAtomwise:
    def test_non_consecutive_repeat_changes_nothing(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.standard_normal((3, 2))
        with_repeat = np.stack([a, b, a, c])[:, None, :]
        plain = np.stack([a, b, c])[:, None, :]
        space = lp_space(1, 2)
        lo1, up1, mode = atomwise_rbound(with_repeat, space, FAST)
        lo2, up2, _ = atomwise_rbound(plain, space, FAST)
        assert mode == "optimized"
        assert lo1[0] == lo2[0] and up1[0] == up2[0]

    def test_hilbert_equals_doob_exactly(self):
        base, filt = make_dyadic_filtration(4)
        f = random_step_function(base, lp_space(2, 3), 5)
        lower, upper, mode = atomwise_rbound(ce_stack(f, filt), f.space, FAST)
        doob = doob_maximal(f, filt).pointwise
        assert mode == "hilbert_exact"
        assert np.array_equal(lower, doob) and np.array_equal(upper, doob)

    def test_outside_atoms_is_nan(self):
        base, filt = make_dyadic_filtration(2)
        for space in (lp_space(1, 2), lp_space(2, 2)):
            f = random_step_function(base, space, 6)
            lower, upper, _ = atomwise_rbound(ce_stack(f, filt), space, FAST, atoms=[1, 2])
            assert np.isnan(lower[[0, 3]]).all() and np.isnan(upper[[0, 3]]).all()
            assert np.isfinite(lower[[1, 2]]).all() and (lower[[1, 2]] <= upper[[1, 2]]).all()

    def test_side_by_side_stacks_equal_each_stack_alone(self, monkeypatch):
        # stacks of unequal depth and width over three spaces, one of no
        # atoms: one kernel call per space with atoms, each atom as it is
        # alone, and the kernel's mode where there are none
        rng = np.random.default_rng(9)
        l1, linf = lp_space(1, 2), lp_space(math.inf, 2)
        shapes = [(3, 4, 2), (1, 2, 2), (4, 0, 2), (2, 5, 2), (2, 0, 2)]
        stacks = [rng.standard_normal(shape) for shape in shapes]
        spaces = [l1, linf, l1, l1, lp_space(2, 2)]
        alone = [atomwise_rbound(stack, space, FAST) for stack, space in zip(stacks, spaces)]
        calls = []
        kernel = rbound.atomwise_rbound

        def counting(stack, space, *args, **kwargs):
            calls.append(space)
            return kernel(stack, space, *args, **kwargs)

        monkeypatch.setattr(rbound, "atomwise_rbound", counting)
        found = rbound._lower_side_by_side(stacks, spaces, FAST)
        assert calls == [l1, linf]
        for (lower, mode), (want, _, want_mode) in zip(found, alone):
            assert mode == want_mode
            assert np.array_equal(lower, want)
        assert rbound._lower_side_by_side([], [], FAST) == []
        assert calls == [l1, linf]


def _reference_atomwise(stack, space, cfg, p=2.0, atoms=None):
    """The kernel's bookkeeping written atom by atom, as one loop: each
    atom's distinct rows from a pairwise comparison, their norms, and every
    distinct set of k >= 2 rows searched by one ``_sphere_lower`` call per k."""
    n_atoms = stack.shape[1]
    lower = np.full(n_atoms, np.nan)
    upper = np.full(n_atoms, np.nan)
    keys, memo, pending = {}, {}, {}
    for a in range(n_atoms) if atoms is None else atoms:
        col = stack[:, a, :]
        same = np.all(col[:, None, :] == col[None, :, :], axis=2)
        distinct = col[~np.any(np.tril(same, -1), axis=1)]
        key = keys[a] = distinct.tobytes()
        if key not in memo:
            norms = norms_of(distinct, space)
            memo[key] = (float(np.max(norms)), float(np.sum(norms)))
            if len(distinct) > 1:
                pending.setdefault(len(distinct), {})[key] = distinct
    for sets in pending.values():
        for key, (val, _) in zip(sets, rbound._sphere_lower(np.stack(list(sets.values())), space, p, cfg)):
            lo, up = memo[key]
            memo[key] = (val if val > lo + 1e-12 else lo, up)
    for a, key in keys.items():
        lower[a], upper[a] = memo[key]
    return lower, upper


def _repeating_stack(rng, levels, n_atoms, dim, pool_size=6):
    """Atoms of 1 to ``levels`` distinct rows drawn from a small pool, so
    sets repeat across atoms, each row repeated at random levels."""
    pool = rng.standard_normal((pool_size, dim))
    stack = np.empty((levels, n_atoms, dim))
    for a in range(n_atoms):
        k = int(rng.integers(1, min(levels, pool_size) + 1))
        rows = pool[rng.choice(pool_size, size=k, replace=False)]
        order = np.concatenate([np.arange(k), rng.integers(0, k, size=levels - k)])
        stack[:, a] = rows[rng.permutation(order)]
    return stack


class TestDistinctSets:
    """The one-pass dedupe of ``atomwise_rbound`` against the atom-by-atom loop."""

    @staticmethod
    def _both(monkeypatch, stack, space, cfg=FAST, atoms=None, search=None):
        searched = []
        real = rbound._sphere_lower if search is None else search

        def recording(sets, *args, **kwargs):
            searched.append(sets.tobytes())
            return real(sets, *args, **kwargs)

        monkeypatch.setattr(rbound, "_sphere_lower", recording)
        want = _reference_atomwise(stack, space, cfg, atoms=atoms)
        want_searched, searched[:] = list(searched), []
        lower, upper, mode = atomwise_rbound(stack, space, cfg, atoms=atoms)
        assert mode == "optimized"
        assert np.array_equal(lower, want[0], equal_nan=True)
        assert np.array_equal(upper, want[1], equal_nan=True)
        assert searched == want_searched
        return lower, upper

    @staticmethod
    def _fake_search(sets, *args, **kwargs):
        return [(float(np.sum(np.abs(s))), None) for s in sets]

    def test_sets_past_the_exact_rows_are_cut_before_they_are_grouped(self, monkeypatch):
        # atoms of 4, 5 and 3 distinct rows are all searched on their first
        # 3 rows, in one call; their upper side keeps every distinct norm
        monkeypatch.setattr(rbound, "_EXACT_ROWS", 3)
        space, cfg = lp_space(1, 2), EnumConfig(seed=2, restarts=2)
        pool = np.random.default_rng(7).standard_normal((5, 2))
        picks = [[0, 1, 2, 3, 3], [0, 1, 2, 3, 4], [4, 3, 2, 4, 4]]
        stack = np.stack([pool[rows] for rows in picks], axis=1)
        real, searched = rbound._sphere_lower, []

        def recording(sets, *args, **kwargs):
            searched.append(sets.shape)
            return real(sets, *args, **kwargs)

        monkeypatch.setattr(rbound, "_sphere_lower", recording)
        lower, upper, _ = atomwise_rbound(stack, space, cfg)
        assert searched == [(3, 3, 2)]
        for a, rows in enumerate(picks):
            norms = norms_of(pool[list(dict.fromkeys(rows))], space)
            [(alone, _)] = real(pool[rows[:3]][None], space, 2.0, cfg)
            assert lower[a] == (alone if alone > np.max(norms) + 1e-12 else np.max(norms))
            assert upper[a] == np.sum(norms)

    @pytest.mark.parametrize("space", [lp_space(1, 2), lp_space(math.inf, 2), schatten_space(1, 2, 2)])
    def test_one_to_eight_distinct_rows(self, monkeypatch, space):
        # sets of 7 and 8 rows start from prefix faces, sets of up to 6 from every face
        rng = np.random.default_rng(4)
        stack = _repeating_stack(rng, 10, 12, space.total_dim, pool_size=8)
        pool = rng.standard_normal((8, space.total_dim))
        for k in range(1, 9):
            stack[:, k] = pool[np.arange(10) % k]
        cfg = EnumConfig(seed=2, restarts=2)
        self._both(monkeypatch, stack, space, cfg)
        counts = [len(rows) for _, rows, _, _ in rbound._distinct_sets(stack, space)]
        assert set(range(1, 9)) <= set(counts)

    def test_repeats_signed_zeros_and_nan(self, monkeypatch):
        space = lp_space(1, 2)
        a, b = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
        c, nan = np.array([2.0, -0.5]), np.array([np.nan, 1.0])
        columns = [
            [a, c, a, c],  # non-consecutive repeats
            [a, a, c, c],  # consecutive repeats
            [b, c, a, c],  # -0.0 first: 0.0 repeats it, and the set's bytes differ from the next
            [a, c, b, a],
            [nan, c, nan, c],  # a NaN row repeats nothing
            [nan, nan, nan, nan],
            [c, c, c, c],  # one distinct row: no search
            [a, c, a, c],  # a set seen before: no second search
        ]
        stack = np.stack([np.stack(col) for col in columns], axis=1)
        lower, upper = self._both(monkeypatch, stack, space, search=self._fake_search)
        rows = {a: rows for a, rows, _, _ in rbound._distinct_sets(stack, space)}
        assert [len(rows[i]) for i in range(8)] == [2, 2, 2, 2, 3, 4, 1, 2]
        assert np.signbit(rows[2][0, 0]) and not np.signbit(rows[3][0, 0])
        assert np.isnan(upper[4]) and upper[6] == lower[6] == 2.5

    def test_atoms_subset(self, monkeypatch):
        stack = _repeating_stack(np.random.default_rng(5), 5, 30, 2)
        lower, _ = self._both(
            monkeypatch, stack, lp_space(1, 2), atoms=[17, 3, 3, 29, 0], search=self._fake_search
        )
        assert np.flatnonzero(~np.isnan(lower)).tolist() == [0, 3, 17, 29]
        assert [a for a, *_ in rbound._distinct_sets(stack, lp_space(1, 2), iter([17, 3]))] == [17, 3]

    def test_across_the_chunk_boundary(self, monkeypatch):
        levels, dim = 17, 2
        per = rbound._BATCH_FLOATS // (levels * levels * dim)
        stack = _repeating_stack(np.random.default_rng(6), levels, 2 * per + 7, dim)
        self._both(monkeypatch, stack, lp_space(1, dim), search=self._fake_search)

    def test_memory_of_the_pass_is_bounded(self):
        # 2^12 atoms of 13 levels: chunks of 775 atoms peak near 0.9 MB, while
        # one unchunked pass peaks near 3.5 MB, its comparison alone holding
        # 4096 * 13 * 13 * 2 bools (1.4 MB)
        levels, n_atoms, dim = 13, 1 << 12, 2
        stack = np.random.default_rng(7).standard_normal((levels, n_atoms, dim))
        stack[1::2] = stack[0]
        # a first call fills numpy's lazy caches
        next(rbound._distinct_sets(stack, lp_space(1, dim), [0]))
        tracemalloc.start()
        try:
            for _ in rbound._distinct_sets(stack, lp_space(1, dim)):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 << 19
