import math
import tracemalloc

import numpy as np
import pytest

from rmflab.filtration import (
    AtomicMeasureSpace,
    Filtration,
    StepFunction,
    boolean_isomorphism,
    conditional_expectation,
    dyadic_grid,
    make_dyadic_filtration,
    random_haar_filtration,
    random_step_function,
)
from rmflab import maximal as maximal_mod
from rmflab.maximal import (
    doob_maximal,
    lp_norm,
    rademacher_maximal,
    rmf_ratio,
    telescoping_function,
)
from rmflab.rademacher import EnumConfig
from rmflab.rbound import atomwise_rbound
from rmflab.spaces import (
    Vector,
    dual_exponent,
    hilbert_op_space,
    lp_space,
    norms_of,
    schatten_space,
)

from helpers import atom_partition, trivial_partition

FAST = EnumConfig(seed=3, restarts=4)


def stacked(*parts):
    """The label matrix and space of a filtration with these levels."""
    return np.stack([p.block_of for p in parts]), parts[0].space


def l1_basis(n):
    space = lp_space(1, n)
    return [Vector(np.eye(n)[j], space) for j in range(n)]


class TestLpNorm:
    def test_indicator_half_mass(self):
        base = AtomicMeasureSpace(np.array([0.25, 0.25, 0.5]))
        assert lp_norm(np.array([1.0, 1.0, 0.0]), 1, base) == pytest.approx(0.5)

    def test_constant(self):
        base = AtomicMeasureSpace(np.array([0.5, 0.5]))
        assert lp_norm(np.array([3.0, 3.0]), 2, base) == pytest.approx(3.0)
        assert lp_norm(np.array([3.0, 3.0]), math.inf, base) == 3.0

    def test_weighted_l2(self):
        base = AtomicMeasureSpace(np.array([0.25, 0.75]))
        assert lp_norm(np.array([1.0, 1.0]), 2, base) == pytest.approx(1.0)


class TestDoob:
    def test_constant_function(self):
        space, filt = make_dyadic_filtration(3)
        f = StepFunction(np.full((8, 2), 1.0), lp_space(2, 2), space)
        report = doob_maximal(f, filt)
        np.testing.assert_allclose(report.pointwise, math.sqrt(2), atol=1e-12)

    def test_dominates_function_when_atoms_resolved(self):
        space, filt = make_dyadic_filtration(3)
        f = random_step_function(space, lp_space(2, 2), 17)
        report = doob_maximal(f, filt)
        assert np.all(report.pointwise >= f.atom_norms() - 1e-12)

    def test_two_atom_example(self):
        base = AtomicMeasureSpace(np.array([0.5, 0.5]))
        f = StepFunction(np.array([[2.0], [0.0]]), lp_space(1, 1), base)
        filt = Filtration(
            *stacked(trivial_partition(base), Filtration(*stacked(trivial_partition(base))).levels[0])
        )
        # levels: trivial then atoms
        filt = Filtration(*stacked(trivial_partition(base), atom_partition(base)))
        report = doob_maximal(f, filt)
        np.testing.assert_allclose(report.pointwise, [2.0, 1.0])


class TestRademacherMaximal:
    def test_hilbert_equals_doob(self):
        space, filt = make_dyadic_filtration(4)
        f = random_step_function(space, lp_space(2, 4), 23)
        doob = doob_maximal(f, filt)
        rad = rademacher_maximal(f, filt, FAST)
        assert rad.mode == "hilbert_exact"
        np.testing.assert_allclose(rad.pointwise, doob.pointwise, atol=1e-12)

    def test_constant_function(self):
        space, filt = make_dyadic_filtration(2)
        f = StepFunction(np.tile([1.0, 1.0], (4, 1)), lp_space(1, 2), space)
        rad = rademacher_maximal(f, filt, FAST)
        np.testing.assert_allclose(rad.pointwise, 2.0, atol=1e-9)

    def test_doob_below_rademacher_bracket(self):
        space, filt = make_dyadic_filtration(3)
        f = random_step_function(space, lp_space(1, 3), 29)
        doob = doob_maximal(f, filt)
        rad = rademacher_maximal(f, filt, FAST)
        assert rad.mode == "optimized"
        assert np.all(doob.pointwise <= rad.pointwise + 1e-9)
        assert np.all(rad.pointwise <= rad.pointwise_upper + 1e-9)

    def test_truncation_monotone(self):
        space, filt = make_dyadic_filtration(3)
        f = random_step_function(space, lp_space(1, 2), 31)
        prev = np.zeros(space.n_atoms)
        for trunc in range(len(filt.levels)):
            rep = rademacher_maximal(f, filt, FAST, truncation=trunc)
            assert np.all(rep.pointwise >= prev - 1e-9)
            prev = rep.pointwise
        full = rademacher_maximal(f, filt, FAST)
        np.testing.assert_allclose(prev, full.pointwise, atol=1e-12)

    def test_atom_restriction(self):
        space, filt = make_dyadic_filtration(3)
        f = random_step_function(space, lp_space(1, 2), 37)
        rep = rademacher_maximal(f, filt, FAST, atom_indices=[0])
        assert np.isfinite(rep.pointwise[0])
        assert np.all(np.isnan(rep.pointwise[1:]))

    def test_telescoping_l1_reaches_sqrt_n(self):
        n = 4
        f = telescoping_function(l1_basis(n))
        _, filt = make_dyadic_filtration(n - 1)
        rep = rademacher_maximal(f, filt, FAST, atom_indices=[0])
        assert rep.pointwise[0] >= math.sqrt(n) - 1e-2


class TestTelescoping:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_interval_averages_hit_targets(self, n):
        targets = l1_basis(n)
        f = telescoping_function(targets)
        _, filt = make_dyadic_filtration(n - 1)
        # the block of atom 0 at level l is [0, 2^-l) = I_(n-l)
        for level in range(n):
            ce = conditional_expectation(f, filt.levels[level])
            np.testing.assert_allclose(
                ce.values[0], targets[n - 1 - level].coords, atol=1e-12
            )

    def test_single_target_constant(self):
        space = lp_space(1, 3)
        t = Vector(np.array([0.2, 0.3, -0.1]), space)
        f = telescoping_function([t])
        assert f.base.n_atoms == 1
        np.testing.assert_allclose(f.values[0], t.coords)

    def test_sup_norm_bound(self):
        n = 6
        rng = np.random.default_rng(5)
        space = lp_space(1, 4)
        targets = []
        for _ in range(n):
            v = rng.standard_normal(4)
            targets.append(Vector(v / np.sum(np.abs(v)), space))
        f = telescoping_function(targets)
        assert float(np.max(f.atom_norms())) <= 3.0 + 1e-12


class TestRmfRatio:
    def test_constant_function_ratio_one(self):
        space, filt = make_dyadic_filtration(2)
        f = StepFunction(np.ones((4, 2)), lp_space(2, 2), space)
        assert rmf_ratio(f, filt, 2, FAST) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_hilbert_within_doob_constant(self, p):
        space, filt = make_dyadic_filtration(4)
        for seed in range(5):
            f = random_step_function(space, lp_space(2, 3), seed)
            assert rmf_ratio(f, filt, p, FAST) <= dual_exponent(p) + 1e-6

    def test_zero_function_rejected(self):
        space, filt = make_dyadic_filtration(2)
        f = StepFunction(np.zeros((4, 1)), lp_space(1, 1), space)
        with pytest.raises(ValueError):
            rmf_ratio(f, filt, 2, FAST)

    def test_infinity_exponent_ratio(self):
        # sup-norm RMF ratio of the telescoping function grows like sqrt(n)/3
        n = 4
        f = telescoping_function(l1_basis(n))
        _, filt = make_dyadic_filtration(n - 1)
        ratio = rmf_ratio(f, filt, math.inf, FAST)
        assert ratio >= math.sqrt(n) / 3 - 1e-6

    def test_telescoping_linf_unboundedness(self):
        n = 8
        f = telescoping_function(l1_basis(n))
        _, filt = make_dyadic_filtration(n - 1)
        # the maximal function reaches sqrt(n) on I_1 while ||f||_inf <= 3
        rep = rademacher_maximal(f, filt, FAST, atom_indices=[0])
        sup_norm = lp_norm(f, math.inf, f.base)
        assert rep.pointwise[0] / sup_norm >= math.sqrt(n) / 3 - 1e-6

    def test_subfiltration_monotone_hilbert(self):
        space, filt = make_dyadic_filtration(4)
        sub = Filtration(*stacked(filt.levels[0], filt.levels[2], filt.levels[4]))
        for seed in range(3):
            f = random_step_function(space, lp_space(2, 2), seed)
            assert rmf_ratio(f, sub, 2, FAST) <= rmf_ratio(f, filt, 2, FAST) + 1e-9

    @pytest.mark.parametrize("range_p", [2, 1])
    def test_invariant_under_boolean_isomorphism(self, range_p):
        space = AtomicMeasureSpace(np.full(16, 1 / 16))
        for seed in range(3):
            filt = random_haar_filtration(space, 6, kind="dyadic", seed=seed)
            iso = boolean_isomorphism(filt)
            raw = random_step_function(space, lp_space(range_p, 2), 50 + seed)
            f = conditional_expectation(raw, filt.levels[-1])
            g = iso.push_function(f)
            r_in = rmf_ratio(f, filt, 2, FAST)
            r_out = rmf_ratio(g, iso.filtration, 2, FAST)
            assert r_in == pytest.approx(r_out, abs=1e-10)


def _subsampled(filt, step):
    """Every ``step``-th level plus the last, as ``reduce --subsample`` keeps them."""
    kept = list(filt.levels[::step])
    if kept[-1] != filt.levels[-1]:
        kept.append(filt.levels[-1])
    return Filtration(*stacked(*kept))


def _block_path_filtrations():
    cases = {f"dyadic-{k}": make_dyadic_filtration(k)[1] for k in range(1, 7)}
    grid = dyadic_grid(4)
    cases["haar-general"] = random_haar_filtration(grid, 7, kind="general", seed=3)
    cases["haar-dyadic"] = random_haar_filtration(grid, 7, kind="dyadic", seed=4)
    cases["subsampled"] = _subsampled(random_haar_filtration(grid, 7, kind="dyadic", seed=5), 3)
    heavy = AtomicMeasureSpace(np.full(12, 0.625))  # total mass 7.5
    cases["mass-7.5"] = random_haar_filtration(heavy, 6, kind="general", seed=7)
    uneven = AtomicMeasureSpace(np.random.default_rng(6).uniform(0.25, 1.0, 12))
    cases["uneven-mass"] = random_haar_filtration(uneven, 6, kind="general", seed=8)
    return cases


BLOCK_PATH_FILTRATIONS = _block_path_filtrations()


def _filtrations():
    return [pytest.param(filt, id=name) for name, filt in BLOCK_PATH_FILTRATIONS.items()]


BLOCK_PATH_SPACES = [
    lp_space(1, 2),
    lp_space(2, 3),
    lp_space(math.inf, 2),
    schatten_space(1, 2, 2),
    hilbert_op_space(2, 2),
]
TRUNCATIONS = ["all", "zero", "middle", "beyond"]


def _truncation(filt, which):
    return {"all": None, "zero": 0, "middle": len(filt) // 2, "beyond": len(filt) + 2}[which]


def _reference_stack(f, filt, truncation):
    """Per-atom conditional expectations of every kept level: (levels, atoms, dim)."""
    last = len(filt) - 1 if truncation is None else min(truncation, len(filt) - 1)
    return np.stack([conditional_expectation(f, filt.levels[j]).values for j in range(last + 1)])


def _reference_doob(f, filt, truncation):
    stack = _reference_stack(f, filt, truncation)
    return np.max(np.stack([norms_of(level, f.space) for level in stack]), axis=0)


class TestBlockPath:
    """The maximal functions computed on blocks equal, bit for bit, the
    per-atom stack of conditional expectations reduced atom by atom."""

    @pytest.mark.parametrize("which", TRUNCATIONS)
    @pytest.mark.parametrize("space", BLOCK_PATH_SPACES, ids=lambda s: f"{s.kind}-{s.p}")
    @pytest.mark.parametrize("filt", _filtrations())
    def test_doob_matches_per_atom_stack(self, filt, space, which):
        truncation = _truncation(filt, which)
        f = random_step_function(filt.space, space, 41, scale=3.0)
        want = _reference_doob(f, filt, truncation)
        report = doob_maximal(f, filt, truncation)
        np.testing.assert_array_equal(report.pointwise, want)
        np.testing.assert_array_equal(report.pointwise_upper, want)
        assert report.lp_norms == {p: lp_norm(want, p, f.base) for p in report.lp_norms}

    @pytest.mark.parametrize("which", TRUNCATIONS)
    @pytest.mark.parametrize("filt", _filtrations())
    def test_hilbert_rademacher_matches_per_atom_stack(self, filt, which):
        truncation = _truncation(filt, which)
        f = random_step_function(filt.space, lp_space(2, 3), 43)
        want = _reference_doob(f, filt, truncation)
        report = rademacher_maximal(f, filt, FAST, truncation)
        assert report.mode == "hilbert_exact"
        np.testing.assert_array_equal(report.pointwise, want)
        np.testing.assert_array_equal(report.pointwise_upper, want)

    @pytest.mark.parametrize("which", TRUNCATIONS)
    @pytest.mark.parametrize("filt", _filtrations())
    def test_searched_rademacher_matches_per_atom_stack(self, filt, which):
        truncation = _truncation(filt, which)
        cfg = EnumConfig(seed=3, restarts=1)
        f = random_step_function(filt.space, lp_space(1, 2), 47)
        want = atomwise_rbound(_reference_stack(f, filt, truncation), f.space, cfg)
        report = rademacher_maximal(f, filt, cfg, truncation)
        assert report.mode == want[2] == "optimized"
        np.testing.assert_array_equal(report.pointwise, want[0])
        np.testing.assert_array_equal(report.pointwise_upper, want[1])

    @pytest.mark.parametrize("restricted", [False, True], ids=["every-atom", "some-atoms"])
    @pytest.mark.parametrize("which", ["zero", "middle", "beyond"])
    @pytest.mark.parametrize("filt", _filtrations())
    def test_truncated_search_runs_once_per_block(self, filt, which, restricted, monkeypatch):
        truncation = _truncation(filt, which)
        cfg = EnumConfig(seed=3, restarts=1)
        f = random_step_function(filt.space, lp_space(1, 2), 47)
        n = filt.space.n_atoms
        atoms = [n - 1, 0, n // 2, n - 1, 1] if restricted else None
        want = atomwise_rbound(_reference_stack(f, filt, truncation), f.space, cfg, atoms=atoms)
        widths = []

        def kernel(stack, *args):
            widths.append(stack.shape[1])
            return atomwise_rbound(stack, *args)

        monkeypatch.setattr(maximal_mod, "atomwise_rbound", kernel)
        report = rademacher_maximal(f, filt, cfg, truncation, atom_indices=atoms)
        assert widths == [filt.levels[min(truncation, len(filt) - 1)].n_blocks]
        assert report.mode == want[2] == "optimized"
        np.testing.assert_array_equal(report.pointwise, want[0])
        np.testing.assert_array_equal(report.pointwise_upper, want[1])
        assert report.lp_norms == ({} if restricted else {p: lp_norm(want[0], p, f.base) for p in report.lp_norms})

    def test_hilbert_atom_restriction_masks_the_rest(self):
        space, filt = make_dyadic_filtration(4)
        f = random_step_function(space, lp_space(2, 2), 59)
        rep = rademacher_maximal(f, filt, FAST, atom_indices=[1, 5, 6])
        want = _reference_doob(f, filt, None)
        inside = np.zeros(space.n_atoms, dtype=bool)
        inside[[1, 5, 6]] = True
        assert rep.mode == "hilbert_exact" and rep.lp_norms == {}
        np.testing.assert_array_equal(rep.pointwise[inside], want[inside])
        assert np.all(np.isnan(rep.pointwise[~inside]))
        np.testing.assert_array_equal(rep.pointwise_upper, rep.pointwise)

    @pytest.mark.parametrize("maximal", [doob_maximal, rademacher_maximal])
    def test_hilbert_path_allocates_no_stack(self, maximal):
        k = 14
        base, filt = make_dyadic_filtration(k)
        f = random_step_function(base, lp_space(2, 3), 67)
        stack_bytes = len(filt) * f.values.nbytes
        tracemalloc.start()
        try:
            maximal(f, filt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 2

    @pytest.mark.parametrize("space", [lp_space(2, 2), lp_space(1, 2)], ids=["lp2", "lp1"])
    def test_negative_truncation_rejected(self, space):
        base, filt = make_dyadic_filtration(3)
        f = random_step_function(base, space, 61)
        for call in (
            lambda: doob_maximal(f, filt, -1),
            lambda: rademacher_maximal(f, filt, FAST, -1),
            lambda: rmf_ratio(f, filt, 2, FAST, -1),
        ):
            with pytest.raises(ValueError, match="truncation must be >= 0"):
                call()
