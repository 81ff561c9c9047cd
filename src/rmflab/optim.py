"""Multi-restart Riemannian gradient ascent on products of unit spheres.

The search space is an n-tuple of vectors, each on the unit sphere of the
target space's own norm.  The ascent moves along the part of the
objective's closed-form gradient tangent to each row's sphere and
renormalizes the rows (Absil, Mahony and Sepulchre, *Optimization
Algorithms on Matrix Manifolds*, 2008, ch. 3-4).

Objectives score stacks: they take a (batch, n, d) array of tuples and the
(batch,) problem index of each tuple (a one-problem objective ignores it)
and return the (batch,) values, or with ``grad=True`` the values and the
(batch, n, d) gradients.  ``maximize_on_spheres`` searches several problems
of one shape at once and ``ascend`` runs all their starts in lock step: in
each iteration one value call scores the first two rungs of the halving
line-search ladder of every climbing start, the starts that improved on
neither get the rest of the ladder, ``rungs_per_call`` rungs per call
(callers take it from ``rademacher.ladder_rungs``), then one gradient call
scores the starts that moved, whose next first trial length is their
Barzilai-Borwein step (IMA J. Numer. Anal. 8, 1988).  Each start takes the
path it takes alone, and per problem the first restart achieving the
maximum within 1e-12 wins, so results never depend on batching.

A problem may come with a ceiling, a proved upper bound on its objective
(callers give N^(1-1/p) and N^(1/q) for type and cotype ratios over exact
moments, and the summability and Cauchy-Schwarz bounds for R-bound
ratios; see ``rademacher`` and ``rbound``).  Once the problem's winner is
sure to score at least ceiling (1 + 1e-13) - 1e-12, every start ordered
after the one that makes it sure stops where it is: no value of such a
start can beat the winner by more than 1e-12, so the winner, its value
and its point keep their bits, and the winner and every earlier start
climb as they would without a ceiling.  A search that never meets its
ceiling pays one comparison of the start values with their limits per
iteration.

One iteration costs one value call for the first two rungs, one more per
further block of rungs while some start still searches, one gradient call
and a fixed few dozen numpy calls of bookkeeping, whatever the number of
starts: candidates are normalized in place and scalars stay Python floats.
Most starts improve at rung 0 or 1 (4,183 of 4,414 start searches on one
atoms bench pass), so a first call of whole blocks would mostly score
rungs past a start's first improving one.  The starts are scored by a
value call of their own rather than by the first gradient call: on matrix
spaces other than 2 x 2 the value path takes LAPACK's SVD without vectors
and the gradient path with them, which differ in the last bit (3,879 of
20,000 random 2 x 3 Schatten-1 norms, by up to 4.4e-16 relative), and a
start's value is compared against line-search values from the value path.
On lp and 2 x 2 matrix spaces the two paths give the same bits.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .spaces import Space, norms_and_grads_of, norms_of, unit_vector

MAX_ITERS = 60
MIN_STEP = 1e-7
# a later start wins a problem only by beating the best value so far by more than _TIE
_TIE = 1e-12
# computed objective values may pass a proved ceiling by this much, relative (rounding)
_CEILING_SLACK = 1e-13
# desk-scale cap on the floats of the start stack maximize_on_spheres tiles
# (start_stack_floats), 8 MiB: the largest stacks the tests and the bench
# tile hold 5,220 and 192 floats, and the line search scores up to 25 times
# the stack per call
MAX_START_FLOATS = 1 << 20

Objective = Callable[..., np.ndarray]


def ratio_or_zero(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0 and 0.0 elsewhere, without a warning."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def ratio_and_grad(num, dnum, den, dden) -> tuple[np.ndarray, np.ndarray]:
    """num / den of (batch,) values and its gradient (dnum - ratio dden) / den, 0 where den is 0."""
    ratio = ratio_or_zero(num, den)
    shape = (-1,) + (1,) * (dnum.ndim - 1)
    return ratio, ratio_or_zero(dnum - ratio.reshape(shape) * dden, den.reshape(shape))


def _project_rows(mat: np.ndarray, space: Space) -> np.ndarray:
    """Normalize every row of a C-contiguous float (..., d) stack in place and
    return it; a zero row becomes e_0 first."""
    rows = mat.reshape(-1, mat.shape[-1])
    norms = norms_of(rows, space)
    zero = norms == 0.0
    if zero.any():
        rows[zero] = 0.0
        rows[zero, 0] = 1.0
        norms[zero] = norms_of(rows[zero], space)
    rows /= norms[:, None]
    return mat


def canonical_starts(space: Space, n_vectors: int) -> list[np.ndarray]:
    """Coordinate-vector and normalized-uniform starting tuples."""
    d = space.total_dim
    coords = np.zeros((n_vectors, d))
    for j in range(n_vectors):
        coords[j, j % d] = 1.0
    uniform = np.ones((n_vectors, d))
    return [_project_rows(coords, space), _project_rows(uniform, space)]


def _tangent(x: np.ndarray, grad: np.ndarray, space: Space) -> tuple[np.ndarray, np.ndarray]:
    """The part of a (starts, n, d) gradient tangent to the row spheres at x, and its norms.

    Row by row that is g - dN(x) (x . g), the gradient of the objective at x / N(x).
    """
    _, dnorm = norms_and_grads_of(x.reshape(-1, x.shape[-1]), space)
    tangent = grad - dnorm.reshape(x.shape) * np.add.reduce(x * grad, axis=2, keepdims=True)
    return tangent, np.sqrt(np.add.reduce(tangent * tangent, axis=(1, 2)))


def ascend(
    objective: Objective,
    starts: np.ndarray,
    space: Space,
    tol: float,
    rungs_per_call: int,
    group: np.ndarray | None = None,
    ceiling=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian ascent from each tuple of a (starts, n, d) stack, in lock step.

    ``group`` holds the problem index of each start (all 0 by default), and
    ``ceiling`` (a float, or one per problem; inf for none) a proved upper
    bound on each problem's objective: a start that can no longer win its
    problem stops (see ``_sure_winner``), and the others climb as without
    it.  Returns the (starts,) values and the (starts, n, d) points reached.
    The line search halves the step from the start's first trial length
    down to ``MIN_STEP`` and takes the first rung that improves by more
    than ``tol``.  A start stops when no rung improves or its tangent
    gradient norm is at most sqrt(tol), where no step gains ``tol`` if the
    objective curves by 1/2 or more.  A start that begins that flat first
    searches along a fixed probe direction: the ratios have critical points
    by symmetry (coordinate starts) and flat regions (the cotype-2 ratio of
    two 2 x 2 Schatten-1 matrices is 1 on open sets).
    """
    x = _project_rows(np.array(starts, dtype=float, order="C"), space)
    group = np.zeros(x.shape[0], dtype=np.intp) if group is None else np.asarray(group)
    fx = np.array(objective(x, group), dtype=float)
    grad, gnorm = _tangent(x, objective(x, group, grad=True)[1], space)
    flat = gnorm <= math.sqrt(tol)
    probe = np.cos(2.4 * np.arange(x[0].size)).reshape(x.shape[1:])
    direction, length = grad.copy(), gnorm.copy()
    direction[flat], length[flat] = _tangent(x[flat], np.broadcast_to(probe, x[flat].shape), space)
    step = np.full(x.shape[0], 0.5)
    active = (length > 0).nonzero()[0]
    if ceiling is not None:
        watch = _CeilingWatch(fx, group, ceiling)
        if watch.watching():
            active = active[watch.keep(active)]
    for _ in range(MAX_ITERS):
        before = x[active]
        unit = direction[active] / length[active, None, None]
        improved = _line_search(
            objective, x, fx, step, active, group[active], unit, space, tol, rungs_per_call
        )
        moved = active[improved]
        if ceiling is not None and watch.watching():
            improved[improved] = watch.keep(moved)
            moved = active[improved]
        if moved.size == 0:
            break
        new_grad, new_norm = _tangent(x[moved], objective(x[moved], group[moved], grad=True)[1], space)
        # Barzilai-Borwein: the secant pair of the move sets the next first trial length
        s, y = x[moved] - before[improved], new_grad - grad[moved]
        sy, ss = np.add.reduce(s * y, axis=(1, 2)), np.add.reduce(s * s, axis=(1, 2))
        curved = sy < 0
        step[moved[curved]] = np.minimum(1.0, ss[curved] / -sy[curved] * new_norm[curved])
        grad[moved] = direction[moved] = new_grad
        length[moved] = new_norm
        active = moved[new_norm > math.sqrt(tol)]
    return fx, x


class _CeilingWatch:
    """Stops the starts of a lock-step ascent that can no longer win their problem.

    ``fx`` is the ascent's (starts,) value array, read as it climbs.  A
    problem is watched from the first time one of its starts scores at
    least its limit, ceiling (1 + _CEILING_SLACK) - _TIE, until
    ``_sure_winner`` finds the start after which none can win; then its
    limit becomes inf.
    """

    def __init__(self, fx: np.ndarray, group: np.ndarray, ceiling):
        limits = np.asarray(ceiling, dtype=float) * (1 + _CEILING_SLACK) - _TIE
        self.fx, self.group = fx, group
        self.limit = limits[group] if limits.ndim else np.full(fx.shape, limits)
        self.watched: set[int] = set()
        self.stopped = np.zeros(fx.shape, dtype=bool)
        self.reached = np.zeros(fx.shape, dtype=bool)

    def watching(self) -> bool:
        """Whether any problem is watched, with the values ``fx`` holds now."""
        if np.greater_equal(self.fx, self.limit, out=self.reached).any():
            self.watched.update(self.group[self.reached].tolist())
        return bool(self.watched)

    def keep(self, running: np.ndarray) -> np.ndarray:
        """A mask of the ``running`` starts that may still win; every other start has its final value."""
        climbing = np.zeros(self.fx.shape, dtype=bool)
        climbing[running] = True
        for g in sorted(self.watched):
            members = (self.group == g).nonzero()[0]
            last = _sure_winner(self.fx[members], climbing[members], self.limit[members[0]])
            if last is not None:
                self.stopped[members[last + 1 :]] = True
                self.limit[members] = math.inf
                self.watched.discard(g)
        return ~self.stopped[running]


def _sure_winner(vals: np.ndarray, climbing: np.ndarray, limit: float) -> int | None:
    """The first position after which no start of one problem can win, or None.

    ``vals`` are the problem's start values in start order, ``climbing``
    marks the starts whose values may still rise.  The winner is picked
    by a scan (``maximize_on_spheres``) whose best value only rises, and a
    start displaces it only by more than ``_TIE``; values never fall.  So
    the final best after position i is at least: the scan's own best while
    every start up to i is final; then, at the first climbing start, its
    value if that beats the best so far by more than ``_TIE``, else the best
    so far; then the largest value so far minus ``_TIE``.  Once that is at
    least ``limit``, no later start can win: its values never pass
    ceiling (1 + _CEILING_SLACK) = limit + _TIE.
    """
    best, final = -math.inf, True
    for i, (val, moving) in enumerate(zip(vals.tolist(), climbing.tolist())):
        if final:
            if val > best + _TIE:
                best = val
            final = not moving
        else:
            best = max(best, val - _TIE)
        if best >= limit:
            return i
    return None


def _line_search(objective, x, fx, step, who, owner, direction, space, tol, rungs_per_call):
    """Halving line search from x[who] along the unit ``direction``; updates x, fx and step.

    Rung k of a start tries step * 2^-k while that is at least
    ``MIN_STEP``; ``owner`` holds the problem index of each start of
    ``who``.  A winner's step becomes 1.5 times its accepted length.
    Returns a mask over ``who`` of the starts that improved.
    """
    xs, fxs, steps = x[who], fx[who], step[who]
    searching = np.ones(who.size, dtype=bool)
    rung = 0
    while True:
        alive = searching.nonzero()[0]
        if alive.size == 0:
            break
        top = math.ldexp(steps[alive].max(), -rung)
        if top < MIN_STEP:
            break
        # most starts improve at rung 0 or 1, so the first block scores two
        # rungs and only the starts left get the rest of the ladder, whose
        # blocks never outrun the longest remaining ladder
        width = rungs_per_call if rung else min(2, rungs_per_call)
        block = min(width, int(math.log2(top / MIN_STEP)) + 2)
        tries = np.ldexp(steps[alive, None], -np.arange(rung, rung + block))
        si, ri = (tries >= MIN_STEP).nonzero()
        s = alive[si]
        cand = _project_rows(xs[s] + tries[si, ri, None, None] * direction[s], space)
        fc = np.asarray(objective(cand, owner[s]))
        # points run by start, then by rung, so a start's first hit is its first improving rung
        hits = (fc > fxs[s] + tol).nonzero()[0]
        first = np.ones(hits.size, dtype=bool)
        first[1:] = s[hits[1:]] != s[hits[:-1]]
        firsts = hits[first]
        won = s[firsts]
        xs[won] = cand[firsts]
        fxs[won] = fc[firsts]
        steps[won] = tries[si[firsts], ri[firsts]] * 1.5
        searching[won] = False
        rung += block
    x[who], fx[who], step[who] = xs, fxs, steps
    return ~searching


def restart_stack(
    space: Space,
    n_vectors: int,
    restarts: int,
    seed: int,
    extra_starts: Iterable[np.ndarray] = (),
) -> np.ndarray:
    """Canonical, supplied, then seeded random starting tuples, stacked in order."""
    starts: list[np.ndarray] = list(canonical_starts(space, n_vectors))
    for s in extra_starts:
        starts.append(np.asarray(s, dtype=float).reshape(n_vectors, space.total_dim))
    for r in range(max(0, restarts - len(starts))):
        rng = np.random.default_rng([seed, n_vectors, r])
        starts.append(np.vstack([unit_vector(space, rng).coords for _ in range(n_vectors)]))
    return np.stack(starts)


def start_stack_floats(space: Space, n_vectors: int, restarts: int, extra: int = 0, problems: int = 1) -> int:
    """Floats of the start stack ``maximize_on_spheres`` tiles: ``problems``
    copies of ``restart_stack`` with ``extra`` supplied starts, whose two
    canonical starts come on top of the supplied ones when ``restarts`` is
    smaller."""
    return problems * max(restarts, 2 + extra) * n_vectors * space.total_dim


def _over_cap_message(space: Space, n_vectors: int, restarts: int, extra: int, problems: int) -> str:
    """Why a start stack is refused, and a ``--restarts`` that fits: the CLI's
    restarts are the searches' ``restarts`` less their supplied starts.  The
    two canonical starts come on top of the supplied ones, so a cap with
    room for fewer than 2 starts beyond those fits no ``--restarts``."""
    size = n_vectors * space.total_dim
    starts = start_stack_floats(space, n_vectors, restarts, extra) // size
    fits = MAX_START_FLOATS // (problems * size) - extra
    remedy = f"--restarts {fits} fits" if fits >= 2 else "no --restarts fits"
    return (
        f"a search of {problems} problem(s) from {starts:,} starts of {size} floats tiles "
        f"{problems * starts * size:,} floats, over the cap of {MAX_START_FLOATS:,} "
        f"(optim.MAX_START_FLOATS); {remedy}"
    )


def maximize_on_spheres(
    objective: Objective,
    space: Space,
    n_vectors: int,
    restarts: int,
    seed: int,
    tol: float,
    extra_starts: Iterable[np.ndarray] = (),
    *,
    rungs_per_call: int,
    problems: int = 1,
    ceiling=None,
) -> list[tuple[float, np.ndarray]]:
    """Best objective value and point of each problem over its restarts.

    Every one of the ``problems`` problems gets the same canonical,
    supplied and random starts, and all of them climb in one ``ascend``
    whose objective is told the problem of each tuple.  A problem's first
    start achieving its maximum within 1e-12 wins.  ``rungs_per_call`` is
    the line-search block of ``ascend``, and ``ceiling`` (a float, or one
    per problem) its proved upper bound on the objective, with which
    starts that can no longer win stop early and the results keep their
    bits.  A start stack of more than ``MAX_START_FLOATS`` floats
    (``start_stack_floats``) raises ``ValueError`` before any start is
    built.
    """
    extra_starts = list(extra_starts)
    if start_stack_floats(space, n_vectors, restarts, len(extra_starts), problems) > MAX_START_FLOATS:
        raise ValueError(_over_cap_message(space, n_vectors, restarts, len(extra_starts), problems))
    starts = restart_stack(space, n_vectors, restarts, seed, extra_starts)
    per = starts.shape[0]
    group = np.repeat(np.arange(problems), per)
    vals, xs = ascend(
        objective, np.tile(starts, (problems, 1, 1)), space, tol, rungs_per_call, group, ceiling
    )
    best = []
    for p_vals, p_xs in zip(vals.reshape(problems, per), xs.reshape((problems,) + starts.shape)):
        best_val, best_x = -np.inf, starts[0]
        for val, x in zip(p_vals, p_xs):
            if val > best_val + _TIE:
                best_val, best_x = float(val), x
        best.append((best_val, best_x))
    return best
