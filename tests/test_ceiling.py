"""Proved ceilings bound every value a search scores, and change no search result."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import optim
from rmflab.rademacher import EnumConfig, type_cotype_ceiling, type_cotype_estimate
from rmflab.rbound import atomwise_rbound, rbound_scalar
from rmflab.spaces import Vector, lp_space, schatten_space

SLACK = 1 + 1e-13
SPACES = [lp_space(1, 3), lp_space(3, 3), lp_space(math.inf, 3), schatten_space(1, 2, 2)]


def _searches(run):
    """Run ``run()`` and return the (objective, args, kwargs) of each of its searches."""
    real = optim.maximize_on_spheres
    found = []

    def spy(objective, *args, **kwargs):
        found.append((objective, args, kwargs))
        return real(objective, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(optim, "maximize_on_spheres", spy)
        run()
    assert found
    return found


def _checked(run):
    """Run ``run()`` with every objective value checked against its search's ceiling.

    Returns the number of searches that had a ceiling.
    """
    real = optim.maximize_on_spheres
    bounded = [0]

    def spy(objective, *args, ceiling=None, **kwargs):
        if ceiling is None:
            return real(objective, *args, **kwargs)
        bounded[0] += 1
        bound = np.broadcast_to(np.asarray(ceiling, dtype=float) * SLACK, (kwargs.get("problems", 1),))

        def checked(x, group=0, grad=False):
            out = objective(x, group, grad)
            vals = out[0] if grad else out
            assert np.all(vals <= bound[group]), (vals.max(), bound.max())
            return out

        return real(checked, *args, ceiling=ceiling, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(optim, "maximize_on_spheres", spy)
        run()
    return bounded[0]


@settings(max_examples=30, deadline=None)
@given(
    space=st.sampled_from(SPACES),
    k=st.integers(2, 5),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_rbound_ceilings_bound_every_searched_value(space, k, p, seed, scale):
    rng = np.random.default_rng(seed)
    rows = scale * rng.standard_normal((k, space.total_dim))
    # one exact search of every row, also past an exact threshold of 3, which steers no search
    cfg = EnumConfig(restarts=2, seed=seed % 97, exact_threshold=3, mc_samples=64)
    assert _checked(lambda: rbound_scalar([Vector(r, space) for r in rows], p, cfg=cfg)) == 1
    # atoms of 2 to k distinct rows, several of each row count
    levels = rng.integers(0, k, size=(k, 6))
    levels[:, 0] = np.arange(k)
    stack = rows[levels]
    assert _checked(lambda: atomwise_rbound(stack, space, cfg, p)) >= 1


@settings(max_examples=30, deadline=None)
@given(
    space=st.sampled_from(SPACES),
    kind=st.sampled_from(["type", "cotype"]),
    u=st.floats(0.0, 1.0),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_type_cotype_ceilings_bound_every_searched_value(space, kind, u, n, seed):
    exponent = 1.0 + u if kind == "type" else (math.inf if u == 1.0 else 2.0 / (1.0 - u))
    cfg = EnumConfig(restarts=3, seed=seed)
    est = []
    assert _checked(lambda: est.append(type_cotype_estimate(kind, space, exponent, n, cfg))) == 1
    assert est[0].value <= type_cotype_ceiling(kind, exponent, n) * SLACK


@pytest.mark.parametrize("kind, space", [("type", lp_space(1, 4)), ("cotype", lp_space(math.inf, 4))])
def test_lp_extremal_ratios_meet_their_ceiling(kind, space):
    """l1 type 2 and l-infinity cotype 2 of N vectors are exactly sqrt(N), at the coordinate start."""
    assert type_cotype_ceiling(kind, 2.0, 4) == 2.0
    assert type_cotype_estimate(kind, space, 2.0, 4, EnumConfig(restarts=4, seed=1)).value == 2.0


def _ascents(objective, args, kwargs):
    """The values and points of every start of one captured search, without and with its ceiling."""
    space, n_vectors, restarts, seed, tol, *rest = args
    starts = optim.restart_stack(space, n_vectors, restarts, seed, *rest)
    problems = kwargs.get("problems", 1)
    group = np.repeat(np.arange(problems), starts.shape[0])
    tiled = np.tile(starts, (problems, 1, 1))
    rungs = kwargs["rungs_per_call"]
    plain = optim.ascend(objective, tiled, space, tol, rungs, group)
    capped = optim.ascend(objective, tiled, space, tol, rungs, group, kwargs["ceiling"])
    return plain, capped


def _same_result(objective, args, kwargs):
    """maximize_on_spheres gives the same bits with and without the captured ceiling."""
    with_ceiling = optim.maximize_on_spheres(objective, *args, **kwargs)
    without = optim.maximize_on_spheres(objective, *args, **{**kwargs, "ceiling": None})
    for (val, x), (val0, x0) in zip(with_ceiling, without):
        assert val == val0 and x.tobytes() == x0.tobytes()


BASIS_CFG = EnumConfig(restarts=8, seed=3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_l1_basis_search_keeps_its_bits_and_its_leader_keeps_climbing(n):
    """The R_2 ratio of the l1^n basis has ceiling sqrt(n), which the uniform start (1) meets
    at once; start 0 climbs from a coordinate to within 1e-12 of sqrt(n) and wins, so it must
    run as without the ceiling while the starts after start 1 stop."""
    space = lp_space(1, n)
    basis = [Vector(e, space) for e in np.eye(n)]
    [(objective, args, kwargs)] = _searches(lambda: rbound_scalar(basis, 2.0, cfg=BASIS_CFG))
    assert kwargs["ceiling"] == pytest.approx([math.sqrt(n)], rel=1e-15)
    _same_result(objective, args, kwargs)
    (vals, xs), (cvals, cxs) = _ascents(objective, args, kwargs)
    assert vals[0] < vals[1] + 1e-12 and vals[0] > 1.0
    assert cvals[:2].tobytes() == vals[:2].tobytes() and cxs[:2].tobytes() == xs[:2].tobytes()
    assert np.all(cvals[2:] <= vals[2:])


@pytest.mark.parametrize("kind, space", [("type", lp_space(1, 4)), ("cotype", lp_space(math.inf, 4))])
def test_lp_type_cotype_searches_keep_their_bits(kind, space):
    [(objective, args, kwargs)] = _searches(lambda: type_cotype_estimate(kind, space, 2.0, 4, EnumConfig()))
    assert kwargs["ceiling"] == 2.0
    _same_result(objective, args, kwargs)


def test_lp1_type2_search_stops_after_three_calls():
    """Value and gradient calls of the starts and one line search of the leader: 122 calls without the ceiling."""
    calls = [0]
    real = optim.maximize_on_spheres

    def counting(objective, *args, **kwargs):
        def counted(*a, **k):
            calls[0] += 1
            return objective(*a, **k)

        return real(counted, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(optim, "maximize_on_spheres", counting)
        est = type_cotype_estimate("type", lp_space(1, 4), 2.0, 4, EnumConfig())
    assert est.value == 2.0
    assert calls[0] <= 4


def test_ceiling_below_every_value_stops_all_but_the_first_start():
    """A (false) ceiling met by every start: the first start climbs, every later one stops at once."""
    space = lp_space(2, 3)

    def objective(x, group=0, grad=False):
        vals = x[:, 0, 1] + 2.0
        return (vals, np.broadcast_to(np.array([0.0, 1.0, 0.0]), x.shape).copy()) if grad else vals

    starts = optim.restart_stack(space, 1, 6, 1)
    vals, xs = optim.ascend(objective, starts, space, 1e-9, 1)
    cvals, cxs = optim.ascend(objective, starts, space, 1e-9, 1, ceiling=0.0)
    assert cvals[0] == vals[0] > 2.9 and cxs[0].tobytes() == xs[0].tobytes()
    np.testing.assert_array_equal(cxs[1:], starts[1:])


@pytest.mark.parametrize(
    "vals, climbing, last",
    [
        # the first start meets the ceiling of 2: everything after it stops
        ([2.0, 1.0, 1.5], [True, True, True], 0),
        # an earlier start still climbing may end within 1e-12 of the leader and win
        ([1.0, 2.0, 2.0], [True, True, True], None),
        # once it has ended below, the leader beats it by more than 1e-12 and is sure to win
        ([1.0, 2.0, 2.0], [False, True, True], 1),
        # start 1 meets the limit but does not displace start 0, which ended short of it;
        # start 2 can still win, so only the starts after it stop
        ([2 - 1.6e-12, 2 - 0.7e-12, 2.0, 1.0], [False, False, False, True], 2),
        # a best that is final and at least the limit settles the problem at once
        ([2 - 0.5e-12, 1.0, 2.0], [False, True, True], 0),
    ],
)
def test_sure_winner_follows_the_tie_break(vals, climbing, last):
    limit = 2.0 * SLACK - 1e-12
    assert optim._sure_winner(np.array(vals), np.array(climbing), limit) == last
