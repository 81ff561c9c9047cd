import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab.rademacher import EnumConfig
from rmflab.rbound import (
    RBoundBracket,
    SelectionWitness,
    atomwise_rbound,
    rbound_certify_grid,
    rbound_hilbert_exact,
    rbound_operator,
    rbound_scalar,
)
from rmflab.filtration import conditional_expectation, make_dyadic_filtration, random_step_function
from rmflab.maximal import doob_maximal
from rmflab.spaces import Vector, hilbert_op_space, lp_space, norm

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

    def test_set_inclusion_monotone_with_witness_seeding(self):
        rng = np.random.default_rng(7)
        space = lp_space(1, 3)
        vs = [Vector(rng.standard_normal(3), space) for _ in range(3)]
        small = rbound_scalar(vs[:2], 2, cfg=FAST)
        big = rbound_scalar(vs, 2, cfg=FAST, warm_start=small.witness)
        assert small.lower <= big.lower + 1e-9

    def test_multiplicity_monotone_with_witness_seeding(self):
        rng = np.random.default_rng(8)
        space = lp_space(1, 2)
        vs = [Vector(rng.standard_normal(2), space) for _ in range(2)]
        m1 = rbound_scalar(vs, 2, multiplicity=1, cfg=FAST)
        m2 = rbound_scalar(vs, 2, multiplicity=2, cfg=FAST, warm_start=m1.witness)
        assert m1.lower <= m2.lower + 1e-9

    def test_bracket_ordering_validated(self):
        with pytest.raises(ValueError):
            RBoundBracket(2.0, 1.0, None, "optimized", 2.0)


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


class TestHilbertOracleIdentities:
    def test_one_step_bound(self):
        # R(y_1..y_j) <= R(y_1..y_{j-1}) + ||y_j - y_{j-1}|| in max-norm form
        rng = np.random.default_rng(9)
        space = lp_space(2, 3)
        ys = rng.standard_normal((6, 3))
        for j in range(1, 6):
            r_all = rbound_hilbert_exact(ys[: j + 1], space)
            r_prev = rbound_hilbert_exact(ys[:j], space)
            step = float(np.linalg.norm(ys[j] - ys[j - 1]))
            assert r_all <= r_prev + step + 1e-12

    def test_sumset_subadditive(self):
        rng = np.random.default_rng(10)
        space = lp_space(2, 3)
        t = rng.standard_normal((4, 3))
        s = rng.standard_normal((3, 3))
        sumset = np.array([a + b for a in t for b in s])
        assert rbound_hilbert_exact(sumset, space) <= rbound_hilbert_exact(
            t, space
        ) + rbound_hilbert_exact(s, space) + 1e-12


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

    def test_too_many_vectors_rejected(self):
        with pytest.raises(ValueError):
            rbound_certify_grid(basis(lp_space(1, 4)), 2)


class TestOperator:
    def test_identity_family(self):
        space = hilbert_op_space(2, 2)
        eye = Vector(np.eye(2).ravel(), space)
        br = rbound_operator([eye, eye], 2, cfg=FAST)
        assert br.lower == pytest.approx(1.0, abs=1e-6)

    def test_singleton_operator_norm(self):
        space = hilbert_op_space(2, 2)
        t = Vector(np.array([[2.0, 0.0], [0.0, 0.5]]).ravel(), space)
        br = rbound_operator([t], 2, cfg=FAST)
        assert br.lower == pytest.approx(2.0, abs=1e-9)
        assert br.upper == pytest.approx(2.0, abs=1e-9)

    def test_diagonal_projections(self):
        space = hilbert_op_space(2, 2)
        d1 = Vector(np.array([[1.0, 0.0], [0.0, 0.0]]).ravel(), space)
        d2 = Vector(np.array([[0.0, 0.0], [0.0, 1.0]]).ravel(), space)
        br = rbound_operator([d1, d2], 2, cfg=FAST)
        assert br.lower >= 1.0 - 1e-9
        assert br.upper == pytest.approx(2.0, abs=1e-12)

    def test_non_operator_space_rejected(self):
        with pytest.raises(ValueError):
            rbound_operator(basis(lp_space(2, 2)), 2, cfg=FAST)

    @pytest.mark.parametrize("p", [1, 3])
    def test_singleton_any_moment(self, p):
        # the argument cancels, so every moment gives the operator norm
        space = hilbert_op_space(2, 2)
        t = Vector(np.array([[0.0, 1.5], [0.0, 0.0]]).ravel(), space)
        br = rbound_operator([t], p, cfg=FAST)
        assert br.lower == pytest.approx(1.5, abs=1e-9)

    def test_witness_recorded(self):
        space = hilbert_op_space(2, 2)
        t = Vector(np.array([[0.0, 1.0], [1.0, 0.0]]).ravel(), space)
        br = rbound_operator([t], 2, cfg=FAST)
        assert isinstance(br.witness, SelectionWitness)
        assert br.witness.indices == (0,)


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
