import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import rmflab

from rmflab.filtration import (
    AtomicMeasureSpace,
    Filtration,
    atom_partition,
    make_dyadic_filtration,
    random_step_function,
    trivial_partition,
)
from rmflab.martingale import (
    INF_TIME,
    PredictableProcess,
    StoppingTime,
    alpha_of,
    constant_martingale,
    family_prefix_rbounds,
    from_function,
    good_lambda_experiment,
    good_lambda_experiments,
    gundy_decompose,
    martingale_transform,
    maximal_stars,
    norm_or_next_jump_trigger,
    norm_trigger,
    prefix_rbounds,
    random_haar_martingale,
    stopped_martingale,
    stopped_value,
    stopping_time_first,
    strong_type_constant,
    subtract,
    validate_martingale,
    validate_stopping_time,
    weak_ratio,
    weak_rmf_probe,
)
from rmflab.rademacher import EnumConfig
from rmflab import rbound
from rmflab.rbound import atomwise_rbound
from rmflab.spaces import Vector, dual_exponent, lp_space, norms_of

FAST = EnumConfig(seed=5, restarts=4)


def stacked(*parts):
    """The label matrix and space of a filtration with these levels."""
    return np.stack([p.block_of for p in parts]), parts[0].space


def dyadic_martingale(space, k, seed, scale=1.0):
    base, filt = make_dyadic_filtration(k)
    f = random_step_function(base, space, seed, scale)
    return from_function(f, filt)


class TestConstruction:
    def test_constant_function_gives_constant_martingale(self):
        base, filt = make_dyadic_filtration(2)
        from rmflab.filtration import StepFunction

        f = StepFunction(np.ones((4, 2)), lp_space(2, 2), base)
        x = from_function(f, filt)
        for lvl in x.levels:
            np.testing.assert_allclose(lvl.values, 1.0)

    def test_finest_level_recovers_function(self):
        base, filt = make_dyadic_filtration(3)
        f = random_step_function(base, lp_space(2, 2), 7)
        x = from_function(f, filt)
        np.testing.assert_array_equal(x.levels[-1].values, f.values)

    def test_tower_property_validated(self):
        x = dyadic_martingale(lp_space(2, 3), 3, 11)
        # direct recomputation: E(X_k | level j) = X_j for all j <= k
        from rmflab.filtration import conditional_expectation

        for j in range(len(x.levels)):
            for k in range(j, len(x.levels)):
                ce = conditional_expectation(x.levels[k], x.filtration.levels[j])
                np.testing.assert_allclose(ce.values, x.levels[j].values, atol=1e-12)

    def test_non_martingale_rejected(self):
        base, filt = make_dyadic_filtration(1)
        from rmflab.filtration import StepFunction

        bad = (
            StepFunction(np.zeros((2, 1)), lp_space(1, 1), base),
            StepFunction(np.array([[1.0], [0.5]]), lp_space(1, 1), base),
        )
        from rmflab.martingale import SimpleMartingale

        # the constructor checks the shape only; the property is checked
        # where levels enter from outside
        x = SimpleMartingale(filt, bad)
        with pytest.raises(ValueError, match="martingale property fails between 0 and 1"):
            validate_martingale(x)

    def test_requires_probability_space(self):
        base = AtomicMeasureSpace(np.array([1.0, 1.0]))
        filt = Filtration(*stacked(trivial_partition(base), atom_partition(base)))
        from rmflab.filtration import StepFunction
        from rmflab.martingale import SimpleMartingale

        levels = (
            StepFunction(np.ones((2, 1)), lp_space(1, 1), base),
            StepFunction(np.ones((2, 1)), lp_space(1, 1), base),
        )
        with pytest.raises(ValueError):
            SimpleMartingale(filt, levels)

    def test_from_function_normalizes_mass(self):
        base = AtomicMeasureSpace(np.array([1.0, 1.0, 2.0, 4.0]))
        filt = Filtration(*stacked(trivial_partition(base), atom_partition(base)))
        from rmflab.filtration import StepFunction

        f = StepFunction(np.array([[1.0], [2.0], [3.0], [4.0]]), lp_space(1, 1), base)
        x = from_function(f, filt)
        assert x.base.total_mass == pytest.approx(1.0)
        # level values are the same averages as on the unnormalized space
        assert x.levels[0].values[0, 0] == pytest.approx((1 + 2 + 6 + 16) / 8)


class TestTransform:
    def test_all_ones_recovers_centered(self):
        x = dyadic_martingale(lp_space(2, 2), 3, 13)
        v = PredictableProcess(tuple(np.ones(8) for _ in range(x.n_steps)))
        t = martingale_transform(v, x)
        for j in range(len(x.levels)):
            np.testing.assert_allclose(
                t.levels[j].values,
                x.levels[j].values - x.levels[0].values,
                atol=1e-12,
            )

    def test_zero_multiplier(self):
        x = dyadic_martingale(lp_space(2, 2), 2, 17)
        v = PredictableProcess(tuple(np.zeros(4) for _ in range(x.n_steps)))
        t = martingale_transform(v, x)
        for lvl in t.levels:
            np.testing.assert_allclose(lvl.values, 0.0)

    def test_random_signs_is_martingale_and_preserves_jumps(self):
        x = random_haar_martingale(lp_space(1, 3), 4, 6, seed=19)
        rng = np.random.default_rng(3)
        v_levels = []
        for j in range(x.n_steps):
            prev = x.filtration.levels[j]
            block_signs = rng.choice([-1.0, 1.0], size=prev.n_blocks)
            v_levels.append(block_signs[prev.block_of])
        v = PredictableProcess(tuple(v_levels))
        t = martingale_transform(v, x)
        validate_martingale(t)
        np.testing.assert_allclose(
            np.stack([norms_of(d, x.space) for d in t.differences()]),
            np.stack([norms_of(d, x.space) for d in x.differences()]),
            atol=1e-12,
        )

    def test_non_predictable_rejected(self):
        x = dyadic_martingale(lp_space(2, 1), 2, 23)
        bad = [np.ones(4) for _ in range(x.n_steps)]
        bad[0] = np.array([1.0, -1.0, 1.0, 1.0])  # not constant on level 0
        with pytest.raises(ValueError):
            martingale_transform(v=PredictableProcess(tuple(bad)), x=x)


class TestStoppingTimes:
    def test_never_fires(self):
        x = dyadic_martingale(lp_space(2, 2), 3, 29)
        tau = stopping_time_first(x, norm_trigger(x, 1e9))
        assert np.all(tau.values == INF_TIME)

    def test_fires_immediately(self):
        x = dyadic_martingale(lp_space(2, 2), 3, 31)
        tau = stopping_time_first(x, norm_trigger(x, -1.0))
        assert np.all(tau.values == 0)

    def test_level_sets_measurable(self):
        for seed in range(5):
            x = random_haar_martingale(lp_space(2, 2), 5, 8, seed=seed)
            tau = stopping_time_first(x, norm_trigger(x, 0.4))
            validate_stopping_time(tau, x.filtration)

    def test_unmeasurable_stopping_time_rejected(self):
        x = dyadic_martingale(lp_space(2, 1), 2, 23)
        # {tau = 1} is one atom, not a union of level-1 blocks
        tau = StoppingTime(np.array([1, INF_TIME, INF_TIME, INF_TIME]))
        with pytest.raises(ValueError, match="not measurable at level 1"):
            validate_stopping_time(tau, x.filtration)

    def test_unmeasurable_trigger_rejected(self):
        x = dyadic_martingale(lp_space(2, 1), 2, 23)

        def trigger(j):
            return np.array([True, False, False, False])

        tau = stopping_time_first(x, trigger)
        with pytest.raises(ValueError, match=r"\{tau = 0\} is not measurable at level 0"):
            validate_stopping_time(tau, x.filtration)

    def test_jump_trigger_requires_standard_haar(self):
        # dyadic (non-standard) splits make jump norms non-predictable
        for seed in range(20):
            x = random_haar_martingale(lp_space(2, 2), 4, 5, kind="dyadic", seed=seed)
            from rmflab.filtration import haar_kind

            if haar_kind(x.filtration) == "standard":
                continue
            with pytest.raises(ValueError):
                norm_or_next_jump_trigger(x, 0.5, 0.5)
            return
        pytest.skip("no non-standard dyadic filtration sampled")

    def test_stopped_value_constant_time(self):
        x = dyadic_martingale(lp_space(2, 2), 3, 37)
        n = x.n_steps
        tau = StoppingTime(np.full(8, n))
        np.testing.assert_array_equal(
            stopped_value(x, tau).values, x.levels[n].values
        )

    def test_stopped_value_infinite_is_zero(self):
        x = dyadic_martingale(lp_space(2, 2), 2, 41)
        tau = StoppingTime(np.full(4, INF_TIME))
        np.testing.assert_allclose(stopped_value(x, tau).values, 0.0)

    def test_stopped_expectation_below_l1(self):
        for seed in range(6):
            x = random_haar_martingale(lp_space(1, 3), 5, 7, seed=seed)
            tau = stopping_time_first(x, norm_trigger(x, 0.7))
            stopped = stopped_value(x, tau)
            e_norm = float(np.sum(x.base.masses * stopped.atom_norms()))
            assert e_norm <= x.lp_bound(1) + 1e-10

    def test_stopped_martingale_is_martingale(self):
        x = random_haar_martingale(lp_space(2, 3), 5, 9, seed=43)
        tau = stopping_time_first(x, norm_trigger(x, 0.5))
        validate_martingale(stopped_martingale(x, tau))

    def test_prefix_rbound_trigger(self):
        from rmflab.martingale import prefix_rbound_trigger

        x = random_haar_martingale(lp_space(2, 3), 5, 8, seed=45)
        prefixes = prefix_rbounds(x, FAST)
        threshold = float(np.median(prefixes[-1]))
        tau = stopping_time_first(x, prefix_rbound_trigger(x, threshold, FAST))
        validate_stopping_time(tau, x.filtration)
        # fires exactly at the first prefix exceeding the threshold
        for a in range(x.base.n_atoms):
            hits = np.flatnonzero(prefixes[:, a] > threshold)
            want = hits[0] + 1 if hits.size else INF_TIME
            assert tau.values[a] == want


class TestMaximalStars:
    def test_constant_martingale(self):
        base, filt = make_dyadic_filtration(2)
        v = Vector(np.array([3.0, 4.0]), lp_space(2, 2))
        x = constant_martingale(v, filt)
        stars = maximal_stars(x, FAST)
        np.testing.assert_allclose(stars.star, 5.0)
        np.testing.assert_allclose(stars.rademacher_star, 5.0)

    def test_hilbert_stars_equal(self):
        x = random_haar_martingale(lp_space(2, 3), 5, 8, seed=47)
        stars = maximal_stars(x, FAST)
        assert stars.mode == "hilbert_exact"
        np.testing.assert_array_equal(stars.star, stars.rademacher_star)

    def test_star_dominated_by_rademacher(self):
        x = random_haar_martingale(lp_space(1, 3), 4, 6, seed=53)
        stars = maximal_stars(x, FAST)
        assert stars.mode == "optimized"
        assert np.all(stars.star <= stars.rademacher_star + 1e-9)
        assert np.all(stars.rademacher_star <= stars.rademacher_star_upper + 1e-9)

    def test_doob_weak_bound(self):
        for seed in range(8):
            x = random_haar_martingale(lp_space(2, 2), 5, 9, seed=seed)
            stars = maximal_stars(x, FAST)
            l1 = x.lp_bound(1)
            for lam in [0.25 * l1, l1, 4 * l1]:
                prob = float(np.sum(x.base.masses[stars.star > lam]))
                assert lam * prob <= l1 + 1e-9

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_doob_strong_bound(self, p):
        for seed in range(5):
            x = random_haar_martingale(lp_space(2, 2), 5, 9, seed=seed)
            stars = maximal_stars(x, FAST)
            e_star_p = float(np.sum(x.base.masses * stars.star**p))
            assert e_star_p <= dual_exponent(p) ** p * x.lp_bound(p) ** p + 1e-9

    def test_rearrangement_bound(self):
        # X_R* <= ||X_1|| + sum ||D_j|| pointwise (exact mode)
        for seed in range(5):
            x = random_haar_martingale(lp_space(2, 2), 4, 6, seed=seed)
            stars = maximal_stars(x, FAST)
            bound = norms_of(x.levels[1].values, x.space) + np.sum(
                np.stack([norms_of(d, x.space) for d in x.differences()[1:]]), axis=0
            )
            assert np.all(stars.rademacher_star <= bound + 1e-9)


class TestGundy:
    def test_large_height_keeps_everything_good(self):
        x = random_haar_martingale(lp_space(2, 3), 5, 8, seed=59)
        lam = 10 * x.lp_bound(math.inf)
        parts = gundy_decompose(x, lam)
        np.testing.assert_allclose(
            np.stack([lvl.values for lvl in parts.g.levels]),
            x.values_stack(),
            atol=1e-12,
        )
        assert parts.certificates.b_positive_probability == 0.0

    def test_tiny_height_certificates_hold(self):
        x = random_haar_martingale(lp_space(1, 3), 5, 8, seed=61)
        parts = gundy_decompose(x, 1e-3 * x.lp_bound(1))
        assert parts.certificates.within_constants()

    def test_reconstruction_and_parts_are_martingales(self):
        for seed in range(10):
            space = lp_space(1, 3) if seed % 2 else lp_space(2, 3)
            x = random_haar_martingale(space, 6, 10, seed=seed)
            lam = [0.25, 1.0, 4.0][seed % 3] * x.lp_bound(1)
            parts = gundy_decompose(x, lam)
            for part in (parts.g, parts.h, parts.b):
                validate_martingale(part)
            total = (
                np.stack([lvl.values for lvl in parts.g.levels])
                + np.stack([lvl.values for lvl in parts.h.levels])
                + np.stack([lvl.values for lvl in parts.b.levels])
            )
            np.testing.assert_allclose(total, x.values_stack(), atol=1e-10)
            assert parts.certificates.within_constants()

    def test_good_part_lp_interpolation_bound(self):
        # ||G||_p^p <= (2 lam)^(p-1) ||G||_1
        for seed in range(5):
            x = random_haar_martingale(lp_space(2, 3), 5, 8, seed=seed)
            lam = x.lp_bound(1)
            parts = gundy_decompose(x, lam)
            for p in (1.5, 2, 3):
                assert parts.g.lp_bound(p) ** p <= (2 * lam) ** (
                    p - 1
                ) * parts.g.lp_bound(1) + 1e-9

    def test_rare_part_supports_agree(self):
        # B_R* > 0 exactly where B* > 0
        x = random_haar_martingale(lp_space(1, 2), 4, 6, seed=67)
        parts = gundy_decompose(x, 0.5 * x.lp_bound(1))
        stars = maximal_stars(parts.b, FAST)
        np.testing.assert_array_equal(stars.star > 0, stars.rademacher_star > 0)

    def test_large_mean_goes_to_flat_part(self):
        from rmflab.filtration import StepFunction, random_haar_filtration

        base = AtomicMeasureSpace(np.full(8, 0.125))
        filt = random_haar_filtration(base, 5, kind="standard", seed=71)
        f = random_step_function(base, lp_space(2, 2), 71, scale=0.1)
        shifted = StepFunction(f.values + np.array([5.0, 0.0]), f.space, f.base)
        x = from_function(shifted, filt)
        lam = 0.25 * x.lp_bound(1)
        parts = gundy_decompose(x, lam)
        assert parts.certificates.h_variation > 0
        assert parts.certificates.within_constants()

    def test_violated_certificates_raise_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            from rmflab import martingale as m
            from rmflab.spaces import lp_space

            x = m.random_haar_martingale(lp_space(2, 2), 3, 3, seed=1)
            bad = m.SimpleMartingale(x.filtration, (x.levels[1],) + x.levels[1:])
            try:
                m.validate_martingale(bad)
            except ValueError:
                pass
            else:
                raise SystemExit(4)
            m.GundyCertificates.within_constants = lambda self: False
            try:
                m.gundy_decompose(x, 1.0)
            except AssertionError:
                raise SystemExit(0)
            raise SystemExit(3)
            """
        )
        src = str(Path(rmflab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()

    def test_non_standard_haar_rejected(self):
        x = dyadic_martingale(lp_space(2, 2), 2, 73)
        with pytest.raises(ValueError, match="standard Haar"):
            gundy_decompose(x, 1.0)


class TestGoodLambda:
    def test_alpha_formula(self):
        assert alpha_of(0.1, 4.0, 1.0) == pytest.approx(0.4 / 2.8)
        with pytest.raises(ValueError):
            alpha_of(0.5, 1.5, 1.0)

    def test_strong_constant_finite_iff_condition(self):
        p = 2.0
        beta = 4.0
        # small delta: beta^p alpha < 1 -> finite
        delta = 0.001
        assert beta**p * alpha_of(delta, beta, 1.0) < 1
        assert math.isfinite(strong_type_constant(p, beta, delta, 1.0))
        # large delta: constant infinite
        delta = 0.1
        assert beta**p * alpha_of(delta, beta, 1.0) >= 1
        assert strong_type_constant(p, beta, delta, 1.0) == math.inf

    def test_small_martingale_trivial_inclusion(self):
        x = random_haar_martingale(lp_space(2, 2), 4, 6, seed=79, scale=0.01)
        report = good_lambda_experiment(x, beta=4.0, delta=0.1, lam=1.0, cfg=FAST)
        assert report.inclusion_violations == 0
        assert report.lhs_probability == 0.0

    def test_hilbert_grid_no_violations(self):
        for seed in range(10):
            x = random_haar_martingale(lp_space(2, 3), 5, 8, seed=seed)
            stars = maximal_stars(x, FAST)
            top = float(np.max(stars.rademacher_star))
            for lam in np.linspace(0.1, 1.1, 5) * top:
                report = good_lambda_experiment(
                    x, beta=4.0, delta=0.1, lam=float(lam), cfg=FAST
                )
                assert report.inclusion_violations == 0
                assert report.transform_sup_slack <= 1e-9

    def test_transform_is_predictable_window(self):
        x = random_haar_martingale(lp_space(2, 2), 4, 6, seed=83)
        report = good_lambda_experiment(x, beta=4.0, delta=0.2, lam=0.3, cfg=FAST)
        # the transform came through the validated predictable machinery
        assert report.transform.n_steps == x.n_steps

    def test_l1_range_diagnostic_mode(self):
        x = random_haar_martingale(lp_space(1, 2), 4, 5, seed=89)
        report = good_lambda_experiment(x, beta=4.0, delta=0.1, lam=0.5, cfg=FAST)
        assert report.mode == "optimized"
        assert report.transform_sup_slack <= 1e-9


class TestWeakRmf:
    def test_hilbert_family_at_most_doob(self):
        family = [
            random_haar_martingale(lp_space(2, 3), 5, 8, seed=s) for s in range(6)
        ]
        report = weak_rmf_probe(family, FAST)
        assert report.constant <= 1.0 + 1e-6

    def test_two_atom_hand_computation(self):
        base = AtomicMeasureSpace(np.array([0.5, 0.5]))
        filt = Filtration(*stacked(trivial_partition(base), atom_partition(base)))
        from rmflab.filtration import StepFunction

        f = StepFunction(np.array([[3.0], [1.0]]), lp_space(1, 1), base)
        x = from_function(f, filt)
        # members (j >= 1) are just X_1 = (3, 1), so X_R* = (3, 1);
        # sup_lam lam P(X_R* > lam) = max(3 * 1/2, 1 * 1) = 3/2; ||X||_1 = 2
        ratio, _ = weak_ratio(x, FAST)
        assert ratio == pytest.approx(0.75, abs=1e-9)

    def test_l1_family_at_least_one(self):
        base, filt = make_dyadic_filtration(4)
        space = lp_space(1, 3)
        family = [
            constant_martingale(Vector(np.array([1.0, 0.5, 0.0]), space), filt)
        ]
        family.extend(
            random_haar_martingale(space, 4, 5, seed=s) for s in range(3)
        )
        report = weak_rmf_probe(family, FAST)
        assert report.constant >= 1.0 - 1e-6

    def test_strong_constant_reported(self):
        family = [random_haar_martingale(lp_space(2, 2), 4, 5, seed=s) for s in range(3)]
        report = weak_rmf_probe(family, FAST, p=2.0, beta=4.0, delta=0.001)
        assert math.isfinite(report.strong_constant)


def test_prefix_rbounds_match_stars_at_final_level():
    x = random_haar_martingale(lp_space(2, 3), 4, 6, seed=97)
    prefixes = prefix_rbounds(x, FAST)
    stars = maximal_stars(x, FAST)
    np.testing.assert_allclose(prefixes[-1], stars.rademacher_star, atol=1e-12)


def test_prefix_rbounds_cover_stars_at_final_level_on_l1():
    # the final prefix is the full set's search, raised by any shorter
    # prefix's search that ended higher; at this seed one atom by 1.7e-11
    x = random_haar_martingale(lp_space(1, 3), 4, 6, seed=122)
    prefixes = prefix_rbounds(x, FAST)
    stars = maximal_stars(x, FAST)
    assert np.all(prefixes[-1] >= stars.rademacher_star)
    np.testing.assert_allclose(prefixes[-1], stars.rademacher_star, atol=1e-9)


def test_prefix_rbounds_nondecreasing_on_l1():
    # a lower bound for a prefix is one for every longer prefix
    x = random_haar_martingale(lp_space(1, 3), 4, 6, seed=122)
    prefixes = prefix_rbounds(x, FAST)
    assert prefixes.shape == (6, x.base.n_atoms)
    assert np.all(np.diff(prefixes, axis=0) >= 0)


@pytest.mark.parametrize(
    "space, seed",
    [(lp_space(1, 3), 122), (lp_space(math.inf, 2), 7), (lp_space(2, 3), 97)],
    ids=["lp1", "lpinf", "hilbert"],
)
def test_prefix_rbounds_equal_each_prefix_alone(space, seed):
    x = random_haar_martingale(space, 4, 6, seed=seed)
    stack = x.values_stack()[1:]
    alone = np.stack([atomwise_rbound(stack[: j + 1], space, FAST)[0] for j in range(len(stack))])
    assert np.array_equal(prefix_rbounds(x, FAST), np.maximum.accumulate(alone, axis=0))


def _mixed_level_family():
    """A constant martingale and 5-step Haar martingales: stacks of unequal depth."""
    _, filt = make_dyadic_filtration(4)
    space = lp_space(1, 3)
    family = [constant_martingale(Vector(np.array([1.0, 0.5, 0.0]), space), filt)]
    family.extend(random_haar_martingale(space, 4, 5, seed=s) for s in range(3))
    return family


@pytest.mark.parametrize(
    "family",
    [
        _mixed_level_family(),
        _mixed_level_family()[1:] + [random_haar_martingale(lp_space(math.inf, 2), 3, 4, seed=9)],
        [],
    ],
    ids=["mixed-levels", "two-spaces", "empty"],
)
def test_weak_rmf_probe_equals_each_martingale_alone(family):
    report = weak_rmf_probe(family, FAST)
    alone = [weak_ratio(x, FAST) for x in family]
    assert [(row.weak_ratio, row.mode) for row in report.rows] == alone
    assert report.constant == max((ratio for ratio, _ in alone), default=0.0)


def test_family_prefix_rbounds_equal_each_member_alone():
    family = _mixed_level_family() + [
        random_haar_martingale(lp_space(math.inf, 2), 3, 4, seed=9),
        random_haar_martingale(lp_space(2, 2), 3, 3, seed=10),
        random_haar_martingale(lp_space(1, 3), 3, 2, seed=11),
    ]
    found = family_prefix_rbounds(family, FAST)
    assert len(found) == len(family)
    for x, prefixes in zip(family, found):
        assert np.array_equal(prefixes, prefix_rbounds(x, FAST))
        # one atom per last-level block stands for its block: every atom
        # searched, as one stack of padded prefixes, gives the same rows
        stack = x.values_stack()[1:]
        if stack.shape[0] and not x.space.is_hilbert:
            padded = rbound._side_by_side([stack[: j + 1] for j in range(stack.shape[0])])
            lower = atomwise_rbound(padded, x.space, FAST)[0]
            every_atom = np.maximum.accumulate(lower.reshape(stack.shape[:2]), axis=0)
            assert np.array_equal(prefixes, every_atom)
    assert family_prefix_rbounds([], FAST) == []


@pytest.mark.parametrize("space", [lp_space(1, 2), lp_space(math.inf, 3)], ids=["lp1", "lpinf"])
def test_good_lambda_experiments_equal_each_item_alone(space, monkeypatch):
    items = []
    for seed in (61, 62):
        x = random_haar_martingale(space, 3, 4, seed=seed)
        # prefixes scaled far above the true R-stars put atoms into the
        # event of (a), whose transform R-stars are then searched
        prefixes = 60.0 * prefix_rbounds(x, FAST)
        top = 10.0 * float(np.max(np.stack([lvl.atom_norms() for lvl in x.levels])))
        items += [(x, top, prefixes), (x, 2 * top, prefixes), (x, 3 * top, prefix_rbounds(x, FAST))]
    alone = [
        good_lambda_experiment(x, 4.0, 0.1, lam, FAST, prefixes=prefixes)
        for x, lam, prefixes in items
    ]
    calls = []
    kernel = rbound.atomwise_rbound

    def counting(stack, *args, **kwargs):
        calls.append(stack.shape[1])
        return kernel(stack, *args, **kwargs)

    monkeypatch.setattr(rbound, "atomwise_rbound", counting)
    reports = good_lambda_experiments(items, 4.0, 0.1, FAST)
    assert len(reports) == len(items)
    # the event atoms of all six transforms, in one call
    assert any(r.lhs_probability > 0 for r in reports) and len(calls) == 1
    for report, want in zip(reports, alone):
        for field in dataclasses.fields(report):
            got, expected = getattr(report, field.name), getattr(want, field.name)
            if field.name == "transform":
                assert np.array_equal(got.values_stack(), expected.values_stack())
                assert got.filtration.levels == expected.filtration.levels
            else:
                assert got == expected, field.name
    assert good_lambda_experiments([], 4.0, 0.1, FAST) == []
    assert len(calls) == 1


def test_martingale_json_roundtrip():
    from rmflab.martingale import martingale_from_json, martingale_to_json

    x = random_haar_martingale(lp_space(1, 3), 4, 6, seed=101)
    back = martingale_from_json(martingale_to_json(x))
    assert back.space == x.space
    np.testing.assert_array_equal(back.values_stack(), x.values_stack())
    assert all(a == b for a, b in zip(back.filtration.levels, x.filtration.levels))


def test_subtract_requires_same_filtration():
    x = random_haar_martingale(lp_space(2, 2), 4, 5, seed=1)
    y = random_haar_martingale(lp_space(2, 2), 4, 5, seed=2)
    with pytest.raises(ValueError):
        subtract(x, y)


def _random_signs(x, seed):
    """A transform by signs constant on the blocks of the preceding level."""
    rng = np.random.default_rng(seed)
    signs = [
        rng.choice([-1.0, 1.0], size=part.n_blocks)[part.block_of]
        for part in x.filtration.levels[:-1]
    ]
    return martingale_transform(PredictableProcess(tuple(signs)), x)


def _gundy_parts(x, lam, stopped):
    parts = gundy_decompose(x, lam)
    # the stopping branch, or the branch that splits a large mean off
    assert (parts.sigma is not None) == stopped
    return [parts.g, parts.h, parts.b]


def _shifted(x, shift):
    from rmflab.filtration import StepFunction

    f = StepFunction(x.levels[-1].values + shift, x.space, x.base)
    return from_function(f, x.filtration)


def _internal_constructions():
    from rmflab.concave import haar_splice, prepend_constant, splice

    space = lp_space(1, 2)
    x = random_haar_martingale(space, 5, 8, seed=7)
    centered = _shifted(x, -x.levels[0].values)
    large_mean = _shifted(
        random_haar_martingale(space, 4, 6, seed=10, scale=0.1), np.array([5.0, 0.0])
    )
    short = random_haar_martingale(space, 3, 2, seed=8)
    long = random_haar_martingale(space, 3, 5, seed=9)
    point = Vector(np.array([1.0, -2.0]), space)
    cases = {
        f"from_function-{kind}": (
            lambda kind=kind: [random_haar_martingale(space, 4, 6, kind=kind, seed=3)]
        )
        for kind in ("standard", "dyadic", "general")
    }
    cases.update({
        "constant_martingale": lambda: [constant_martingale(point, x.filtration)],
        "martingale_transform": lambda: [_random_signs(x, 5)],
        "stopped_martingale": lambda: [
            stopped_martingale(x, stopping_time_first(x, norm_trigger(x, 0.5)))
        ],
        "gundy-small-height": lambda: _gundy_parts(centered, 0.25 * centered.lp_bound(1), True),
        "gundy-height-below-mean": lambda: _gundy_parts(
            large_mean, 0.25 * large_mean.lp_bound(1), False
        ),
        "splice-unequal-steps": lambda: [splice(short, long, 0.25), splice(long, short, 0.75)],
        "haar_splice-unequal-steps": lambda: [haar_splice(short, long), haar_splice(long, short)],
        "prepend_constant": lambda: [prepend_constant(x)],
    })
    return cases


_CONSTRUCTIONS = _internal_constructions()


@pytest.mark.parametrize("name", list(_CONSTRUCTIONS))
def test_internal_constructions_are_martingales(name):
    # constructions are not re-checked when built; the property they
    # promise is checked here instead
    for x in _CONSTRUCTIONS[name]():
        validate_martingale(x)
