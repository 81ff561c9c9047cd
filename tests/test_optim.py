"""The lock-step ascent against a sequential reference and against itself."""

import math
import warnings

import numpy as np
import pytest

from rmflab import optim
from rmflab.rademacher import (
    EnumConfig,
    kk_ratio_estimate,
    make_moment_evaluator,
    moment_from_matrix,
    type_cotype_estimate,
)
from rmflab.rbound import rbound_operator, rbound_scalar
from rmflab.spaces import (
    Vector,
    hilbert_op_space,
    lp_space,
    norm_of,
    schatten_space,
)

CFG = EnumConfig(restarts=6, seed=5)


def _reference_project(mat, space):
    out = np.array(mat, dtype=float)
    for i in range(out.shape[0]):
        n = norm_of(out[i], space)
        if n == 0.0:
            out[i] = 0.0
            out[i, 0] = 1.0
            n = norm_of(out[i], space)
        out[i] /= n
    return out


def _reference_ascend(objective, start, space, tol):
    """The sequential ascent: one start, one point per objective call."""

    def score(x):
        return float(objective(x[None])[0])

    x = _reference_project(start, space)
    fx = score(x)
    step = 0.5
    for _ in range(optim.MAX_ITERS):
        grad = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            x[idx] += optim.GRAD_STEP
            up = score(_reference_project(x, space))
            x[idx] -= 2 * optim.GRAD_STEP
            down = score(_reference_project(x, space))
            x[idx] += optim.GRAD_STEP
            grad[idx] = (up - down) / (2 * optim.GRAD_STEP)
        gnorm = float(np.sqrt(np.sum(grad * grad)))
        if gnorm == 0.0:
            break
        improved = False
        while step >= 1e-7:
            cand = _reference_project(x + step * grad / gnorm, space)
            fc = score(cand)
            if fc > fx + tol:
                x, fx = cand, fc
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return fx, x


def _each_search(monkeypatch, run, check, limit=2):
    """Apply ``check(objective, starts, space, tol, rungs)`` to the first searches of ``run``.

    The check runs inside the search, while the objective's loop variables
    still hold that search's selection.
    """
    real = optim.maximize_on_spheres
    count = [0]

    def spy(objective, space, n_vectors, restarts, seed, tol, extra_starts=(), **kwargs):
        if count[0] < limit:
            starts = optim.restart_stack(space, n_vectors, restarts, seed, extra_starts)
            check(objective, starts, space, tol, kwargs["rungs_per_call"])
        count[0] += 1
        return real(objective, space, n_vectors, restarts, seed, tol, extra_starts, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(optim, "maximize_on_spheres", spy)
        run()
    assert count[0] > 0


def _members(space, count, seed):
    rng = np.random.default_rng(seed)
    return [Vector(rng.standard_normal(space.total_dim), space) for _ in range(count)]


SEARCH_SPACES = [lp_space(1, 2), lp_space(3, 2), lp_space(math.inf, 2), schatten_space(1, 2, 2)]


def _rbound_run(space):
    return lambda: rbound_scalar(_members(space, 3, 11), 2.0, 1, CFG)


def _cotype_run(space):
    return lambda: type_cotype_estimate("cotype", space, 2, 2, CFG)


def _type_run(space):
    return lambda: type_cotype_estimate("type", space, 1.5, 3, CFG)


RUNS = [
    pytest.param(make(space), id=f"{make.__name__[1:-4]}-{space.kind}{space.p:g}")
    for make in (_rbound_run, _cotype_run, _type_run)
    for space in SEARCH_SPACES
]


@pytest.mark.parametrize("run", RUNS)
def test_matches_sequential_reference(monkeypatch, run):
    def check(objective, starts, space, tol, rungs):
        vals, xs = optim.ascend(objective, starts, space, tol, rungs)
        for s, start in enumerate(starts):
            ref_val, ref_x = _reference_ascend(objective, start, space, tol)
            assert abs(vals[s] - ref_val) <= 1e-9
            assert np.max(np.abs(xs[s] - ref_x)) <= 1e-6

    _each_search(monkeypatch, run, check)


@pytest.mark.parametrize(
    "run",
    [
        _cotype_run(schatten_space(1, 2, 2)),
        _rbound_run(lp_space(3, 2)),
        lambda: rbound_operator([Vector(np.arange(6.0) - 2, hilbert_op_space(3, 2))] * 2, cfg=CFG),
        lambda: kk_ratio_estimate(lp_space(1, 3), 3, 1, 3, CFG),
    ],
    ids=["cotype-schatten1", "rbound-lp3", "operator", "kk-ratio"],
)
def test_stack_equals_each_start_alone(monkeypatch, run):
    def check(objective, starts, space, tol, rungs):
        vals, xs = optim.ascend(objective, starts, space, tol, rungs)
        for s in range(starts.shape[0]):
            val, x = optim.ascend(objective, starts[s : s + 1], space, tol, rungs)
            assert val[0] == vals[s]
            assert np.array_equal(x[0], xs[s])

    _each_search(monkeypatch, run, check)


@pytest.mark.parametrize(
    "run", [_rbound_run(lp_space(1, 2)), _cotype_run(schatten_space(1, 2, 2))], ids=["rbound", "cotype"]
)
def test_ladder_block_does_not_change_the_path(monkeypatch, run):
    def check(objective, starts, space, tol, rungs):
        one = optim.ascend(objective, starts, space, tol, 1)
        whole = optim.ascend(objective, starts, space, tol, 1 << 20)
        assert np.array_equal(one[0], whole[0])
        assert np.array_equal(one[1], whole[1])

    _each_search(monkeypatch, run, check)


@pytest.mark.parametrize(
    "space,n,cfg",
    [
        (lp_space(3, 3), 2, EnumConfig()),
        # 70 tuples of 10 vectors take 70 * 2^9 sign rows, over three chunks
        (lp_space(1, 2), 10, EnumConfig()),
        (schatten_space(1, 2, 2), 9, EnumConfig()),
        (lp_space(math.inf, 2), 6, EnumConfig(exact_threshold=4, mc_samples=5000, seed=2)),
        (lp_space(2, 2), 5, EnumConfig(exact_threshold=4, mc_samples=20000, seed=2)),
    ],
)
def test_evaluator_batch_equals_points(space, n, cfg):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((70, n, space.total_dim))
    evaluate = make_moment_evaluator(n, space, 3.0, cfg)
    batch = evaluate(stack)
    alone = np.array([evaluate(stack[i : i + 1])[0] for i in range(stack.shape[0])])
    assert batch.shape == (70,)
    assert np.array_equal(batch, alone)
    if n <= cfg.exact_threshold:
        want = moment_from_matrix(stack[0], space, 3.0, cfg).value
        assert batch[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "run",
    [
        _rbound_run(lp_space(1, 2)),
        _type_run(lp_space(1, 2)),
        _cotype_run(lp_space(1, 2)),
        lambda: kk_ratio_estimate(lp_space(1, 2), 2, 1, 2, CFG),
        lambda: rbound_operator([Vector(np.arange(6.0) - 2, hilbert_op_space(3, 2))] * 2, cfg=CFG),
    ],
    ids=["rbound", "type", "cotype", "kk-ratio", "operator"],
)
def test_zero_denominator_scores_zero_without_warning(monkeypatch, run):
    def check(objective, starts, *_):
        zero = np.zeros((2,) + starts.shape[1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(objective(zero), [0.0, 0.0])

    _each_search(monkeypatch, run, check)
