import math

import numpy as np
import pytest

from rmflab import concave
from rmflab.concave import (
    PropertyCheck,
    VCandidate,
    check_v_candidate,
    expected_u_along,
    extend_standard_haar,
    haar_splice,
    penalty_candidate,
    splice,
    u_values,
)
from rmflab.filtration import (
    StepFunction,
    ResolutionError,
    is_standard_haar,
    make_dyadic_filtration,
)
from rmflab.martingale import (
    SimpleMartingale,
    constant_martingale,
    random_haar_martingale,
)
from rmflab.rademacher import EnumConfig
from rmflab.spaces import Vector, lp_space, schatten_space

FAST = EnumConfig(seed=7, restarts=4)


def shifted_to(x, point):
    """Shift a martingale by a constant so that it starts at ``point``."""
    delta = point.coords - x.levels[0].values[0]
    levels = tuple(
        StepFunction(lvl.values + delta[None, :], x.space, x.base) for lvl in x.levels
    )
    return SimpleMartingale(x.filtration, levels)


def standard_family(point, seeds, steps=4):
    return [
        shifted_to(
            random_haar_martingale(point.space, 4, steps, kind="standard", seed=s),
            point,
        )
        for s in seeds
    ]


class TestUValue:
    def test_singleton_hilbert_zero(self):
        space = lp_space(2, 3)
        t = Vector(np.array([1.0, 2.0, -1.0]), space)
        [u] = u_values([([t], t)], p=2, c=1.0, cfg=FAST)
        assert u.r_mode == "hilbert_exact"
        assert u.value == pytest.approx(0.0, abs=1e-12)

    def test_l1_basis_at_origin(self):
        space = lp_space(1, 2)
        basis = [Vector(np.eye(2)[j], space) for j in range(2)]
        zero = Vector(np.zeros(2), space)
        [u] = u_values([(basis, zero)], p=2, c=1.0, cfg=FAST)
        assert u.value == pytest.approx(2.0, abs=1e-6)

    def test_monotone_in_c(self):
        space = lp_space(2, 2)
        t = Vector(np.array([1.0, 1.0]), space)
        vals = [u_values([([t], t)], 2, c, FAST)[0].value for c in (0.5, 1, 10, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empty_set_flagged(self):
        space = lp_space(2, 2)
        t = Vector(np.array([1.0, 0.0]), space)
        [u] = u_values([([], t)], 2, 1.0, FAST)
        assert u.empty_set
        assert u.value == pytest.approx(-1.0, abs=1e-12)


class TestSplice:
    def test_equal_constants(self):
        space = lp_space(2, 2)
        _, filt = make_dyadic_filtration(1)
        t = Vector(np.array([1.0, -1.0]), space)
        x = constant_martingale(t, filt)
        out = splice(x, x, 0.5)
        for lvl in out.levels:
            assert np.allclose(lvl.values, t.coords, atol=1e-15)

    def test_mean_is_convex_combination(self):
        space = lp_space(2, 2)
        x1 = standard_family(Vector(np.array([1.0, 0.0]), space), [1])[0]
        x2 = standard_family(Vector(np.array([0.0, 1.0]), space), [2])[0]
        for alpha in (0.25, 0.5, 0.75):
            out = splice(x1, x2, alpha)  # constructor verifies martingale
            np.testing.assert_allclose(
                out.levels[0].values[0],
                alpha * x1.levels[0].values[0] + (1 - alpha) * x2.levels[0].values[0],
                atol=1e-12,
            )

    def test_non_dyadic_alpha_rejected(self):
        space = lp_space(2, 2)
        _, filt = make_dyadic_filtration(1)
        x = constant_martingale(Vector(np.array([1.0, 0.0]), space), filt)
        with pytest.raises(ResolutionError):
            splice(x, x, 1 / 3)

    def test_change_of_variables_identity(self):
        # E u over each half equals the rescaled expectation over the part
        space = lp_space(2, 2)
        t1 = Vector(np.array([1.0, 0.0]), space)
        t2 = Vector(np.array([0.0, 1.0]), space)
        x1 = standard_family(t1, [3])[0]
        x2 = standard_family(t2, [4])[0]
        members = [Vector(np.array([0.5, 0.5]), space)]
        alpha = 0.25
        out = splice(x1, x2, alpha)
        lhs = expected_u_along(out, members, 2, 1.0, FAST, skip_first=1)
        rhs = alpha * expected_u_along(x1, members, 2, 1.0, FAST) + (
            1 - alpha
        ) * expected_u_along(x2, members, 2, 1.0, FAST)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_different_grid_sizes(self):
        space = lp_space(2, 2)
        t = Vector(np.array([1.0, 1.0]), space)
        x1 = standard_family(t, [5], steps=2)[0]
        x2 = standard_family(t, [6], steps=5)[0]
        out = splice(x1, x2, 0.5)
        assert out.n_steps == max(x1.n_steps, x2.n_steps) + 1


class TestHaarSplice:
    def test_identical_inputs_give_ladder(self):
        space = lp_space(2, 2)
        t = Vector(np.array([1.0, 2.0]), space)
        x = standard_family(t, [7])[0]
        out = haar_splice(x, x)
        assert is_standard_haar(out.filtration)
        np.testing.assert_allclose(out.levels[0].values[0], t.coords, atol=1e-12)

    def test_structure_counts(self):
        space = lp_space(2, 2)
        x1 = standard_family(Vector(np.array([1.0, 0.0]), space), [8])[0]
        x2 = standard_family(Vector(np.array([0.0, 1.0]), space), [9])[0]
        out = haar_splice(x1, x2)
        assert is_standard_haar(out.filtration)
        assert out.n_steps == 2 * max(x1.n_steps, x2.n_steps) + 1
        for j, part in enumerate(out.filtration.levels):
            assert part.n_blocks == j + 1

    def test_non_standard_rejected(self):
        space = lp_space(2, 2)
        _, filt = make_dyadic_filtration(2)
        x = constant_martingale(Vector(np.array([1.0, 0.0]), space), filt)
        with pytest.raises(ValueError):
            haar_splice(x, x)

    def test_splits_expectation_in_half(self):
        space = lp_space(2, 2)
        t1 = Vector(np.array([1.0, 0.0]), space)
        t2 = Vector(np.array([0.0, 1.0]), space)
        x1 = standard_family(t1, [10])[0]
        x2 = standard_family(t2, [11])[0]
        members = [Vector(np.array([0.3, 0.3]), space)]
        out = haar_splice(x1, x2)
        lhs = expected_u_along(out, members, 2, 1.0, FAST, skip_first=1)
        rhs = 0.5 * expected_u_along(x1, members, 2, 1.0, FAST) + 0.5 * expected_u_along(
            x2, members, 2, 1.0, FAST
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_expected_u_along_holds_the_start_in_its_path_set():
    # X_0 = t lies on every path, so t joins the set at no cost, and along a
    # constant martingale the expectation is the penalty of the joined set
    space = lp_space(2, 3)
    rng = np.random.default_rng(13)
    members = [Vector(rng.standard_normal(3), space) for _ in range(3)]
    t = Vector(rng.standard_normal(3), space)
    _, filt = make_dyadic_filtration(1)
    flat = expected_u_along(constant_martingale(t, filt), members, 2, 1.0, FAST)
    assert flat == pytest.approx(u_values([(members + [t], t)], 2, 1.0, FAST)[0].value, abs=1e-12)
    space = lp_space(2, 2)
    t = Vector(np.array([1.0, 1.0]), space)
    members = [Vector(np.array([2.0, 0.0]), space)]
    for x in standard_family(t, [19, 20]):
        assert expected_u_along(x, members + [t], 2, 1.0, FAST) == expected_u_along(x, members, 2, 1.0, FAST)


class TestCheckCandidate:
    def _samples(self):
        space = lp_space(2, 2)
        rng = np.random.default_rng(29)
        samples = []
        for _ in range(6):
            members = [Vector(rng.standard_normal(2), space) for _ in range(2)]
            samples.append((members, Vector(rng.standard_normal(2), space)))
        midpoints = [
            (
                [Vector(rng.standard_normal(2), space)],
                Vector(rng.standard_normal(2), space),
                Vector(rng.standard_normal(2), space),
            )
            for _ in range(4)
        ]
        return samples, midpoints

    def test_penalty_without_cost_fails_diagonal_and_absorption(self):
        samples, midpoints = self._samples()
        raw = VCandidate(
            lambda queries: [u.value for u in u_values(queries, 2, 0.0, FAST)],
            "penalty with zero cost",
        )
        report = check_v_candidate(raw, samples, midpoints, 2, 0.0, FAST)
        assert report.majorizes_penalty.passed
        assert not report.diagonal_nonpositive.passed
        assert not report.absorbs_point.passed

    def test_zero_candidate_with_huge_cost_passes(self):
        samples, midpoints = self._samples()
        zero = VCandidate(lambda queries: [0.0] * len(queries), "identically zero")
        report = check_v_candidate(zero, samples, midpoints, 2, 1e8, FAST)
        assert report.majorizes_penalty.passed
        assert report.diagonal_nonpositive.passed
        assert report.absorbs_point.passed
        assert report.midpoint_concave.passed
        assert report.all_passed()

@pytest.mark.parametrize(
    "space",
    [lp_space(1, 3), lp_space(math.inf, 3), schatten_space(1, 2, 2)],
    ids=["lp1", "lpinf", "schatten1"],
)
def test_u_values_equal_each_query_alone(space):
    rng = np.random.default_rng(37)
    rows = [Vector(r, space) for r in rng.standard_normal((4, space.total_dim))]
    point = Vector(rng.standard_normal(space.total_dim), space)
    a, b, c, d = rows
    sets = [[], [a], [a, b], [a, b, c], [a, b], [b, a], [c, d, a], [a, a, b], []]
    queries = [(members, point if i % 2 else d) for i, members in enumerate(sets)]
    got = u_values(queries, 2, 0.5, FAST)
    assert got == [u_values([query], 2, 0.5, FAST)[0] for query in queries]
    assert u_values([], 2, 0.5, FAST) == []


def _check_one_at_a_time(v, samples, midpoints, p, c, cfg, tol=1e-9):
    """check_v_candidate with a one-query candidate and one penalty per sample."""
    slack1 = slack2 = -math.inf
    slack3 = 0.0
    for members, point in samples:
        u = u_values([(members, point)], p, c, cfg)[0].value
        slack1 = max(slack1, u - v(members, point))
        slack2 = max(slack2, v([point], point))
        slack3 = max(slack3, abs(v(members + [point], point) - v(members, point)))
    slack4 = -math.inf
    for members, p1, p2 in midpoints:
        mid = Vector(0.5 * (p1.coords + p2.coords), p1.space)
        slack4 = max(slack4, 0.5 * (v(members, p1) + v(members, p2)) - v(members, mid))
    if not samples:
        slack1 = slack2 = 0.0
    if not midpoints:
        slack4 = 0.0
    return [
        PropertyCheck(s <= tol, s) for s in (slack1, slack2, slack3, slack4)
    ]


@pytest.mark.parametrize("c", [0.0, 1.0, 3.0])
def test_check_v_candidate_equals_one_query_at_a_time(c):
    space = lp_space(1, 2)
    rng = np.random.default_rng(38)

    def vec():
        return Vector(rng.standard_normal(2), space)

    samples = [([vec(), vec()], vec()) for _ in range(3)] + [([], vec()), ([vec()], vec())]
    midpoints = [([vec()], vec(), vec()), ([vec(), vec()], vec(), vec()), ([], vec(), vec())]
    batched = VCandidate(lambda queries: [u.value for u in u_values(queries, 2, c, FAST)])
    report = check_v_candidate(batched, samples, midpoints, 2, c, FAST)
    alone = _check_one_at_a_time(
        lambda members, point: u_values([(members, point)], 2, c, FAST)[0].value,
        samples, midpoints, 2, c, FAST,
    )
    assert [
        report.majorizes_penalty,
        report.diagonal_nonpositive,
        report.absorbs_point,
        report.midpoint_concave,
    ] == alone


@pytest.mark.parametrize("c", [0.0, 1.0, 3.0])
def test_penalty_candidate_reads_its_own_penalties(monkeypatch, c):
    # the same report as a candidate that is not known to be the penalty,
    # from one kernel call instead of two
    space = lp_space(1, 2)
    rng = np.random.default_rng(39)

    def vec():
        return Vector(rng.standard_normal(2), space)

    samples = [([vec(), vec()], vec()) for _ in range(3)] + [([], vec()), ([vec()], vec())]
    midpoints = [([vec()], vec(), vec()), ([vec(), vec()], vec(), vec())]
    opaque = VCandidate(lambda queries: [u.value for u in u_values(queries, 2, c, FAST)])
    want = check_v_candidate(opaque, samples, midpoints, 2, c, FAST)
    calls = []
    kernel = concave._lower_side_by_side

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(concave, "_lower_side_by_side", counting)
    assert check_v_candidate(penalty_candidate(2, c, FAST), samples, midpoints, 2, c, FAST) == want
    assert len(calls) == 1
    # another exponent, constant or config is not this check's penalty
    for other in (penalty_candidate(1, c, FAST), penalty_candidate(2, c + 1, FAST), penalty_candidate(2, c)):
        calls.clear()
        check_v_candidate(other, samples, midpoints, 2, c, FAST)
        assert len(calls) == 2


def test_check_v_candidate_rejects_a_short_answer():
    space = lp_space(1, 2)
    t = Vector(np.array([1.0, 0.0]), space)
    with pytest.raises(ValueError, match="values for"):
        check_v_candidate(VCandidate(lambda queries: [0.0]), [([], t)], [], 2, 1.0, FAST)


def test_extend_standard_haar_preserves_values():
    space = lp_space(2, 2)
    x = standard_family(Vector(np.array([1.0, 0.0]), space), [33], steps=3)[0]
    longer = extend_standard_haar(x, 2)
    assert longer.n_steps == x.n_steps + 2
    assert is_standard_haar(longer.filtration)
    np.testing.assert_array_equal(
        longer.levels[-1].values, longer.levels[-3].values
    )
