"""Multi-restart projected gradient ascent on products of unit spheres.

The search space is an n-tuple of vectors, each constrained to the unit
sphere of the target space's own norm.  Gradients are numerical (central
differences, step 1e-5) and projection is renormalization.

Objectives score stacks: they take a (batch, n, d) array of tuples and the
(batch,) index of the problem each tuple belongs to, and return the
(batch,) values; an objective that serves one problem ignores the index.
``maximize_on_spheres`` searches several problems of one shape at once by
tiling its start stack once per problem, and ``ascend`` runs all starts of
all problems in lock step.
In each iteration one objective call scores the central-difference
stencil of every restart still climbing, and the halving line-search
ladder is scored ``rungs_per_call`` rungs at a time, the first improving
rung winning.  Callers derive that block from the sign-table length of
their objective (``rademacher.ladder_rungs``), so one call holds about as
many sign-pattern rows as one chunk of a moment evaluator.  The stencil
reproduces the rounding of moving one coordinate at a time by +h, -2h and
+h, so every restart takes the path it takes when run alone.  Restart
order is deterministic and, per problem, the first restart achieving the
maximum within 1e-12 wins, so results never depend on scheduling or
batching.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .spaces import Space, norms_of, unit_vector

GRAD_STEP = 1e-5
MAX_ITERS = 60
MIN_STEP = 1e-7

Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]


def ratio_or_zero(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0 and 0.0 elsewhere, without a warning."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _project_rows(mat: np.ndarray, space: Space) -> np.ndarray:
    """Normalize every row of a (..., d) stack; a zero row becomes e_0 first."""
    out = np.array(mat, dtype=float)
    rows = out.reshape(-1, out.shape[-1])
    norms = norms_of(rows, space)
    zero = norms == 0.0
    if np.any(zero):
        rows[zero] = 0.0
        rows[zero, 0] = 1.0
        norms[zero] = norms_of(rows[zero], space)
    rows /= norms[:, None]
    return out


def canonical_starts(space: Space, n_vectors: int) -> list[np.ndarray]:
    """Coordinate-vector and normalized-uniform starting tuples."""
    d = space.total_dim
    coords = np.zeros((n_vectors, d))
    for j in range(n_vectors):
        coords[j, j % d] = 1.0
    uniform = np.ones((n_vectors, d))
    return [_project_rows(coords, space), _project_rows(uniform, space)]


def _stencil(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference points of flat tuples ``x``, and ``x`` after them.

    Point [s, 0, i] of the (starts, 2, m, m) stack moves coordinate i of
    start s up by h and point [s, 1, i] moves it down; coordinates before
    i already carry the +h, -2h, +h round trip, as when coordinates are
    moved one at a time, and every coordinate carries it afterwards.
    """
    m = x.shape[1]
    up = x + GRAD_STEP
    down = up - 2 * GRAD_STEP
    back = down + GRAD_STEP
    base = np.where(np.tri(m, k=-1, dtype=bool), back[:, None, :], x[:, None, :])
    moved = np.eye(m, dtype=bool)
    points = np.stack(
        [np.where(moved, up[:, None, :], base), np.where(moved, down[:, None, :], base)],
        axis=1,
    )
    return points, back


def ascend(
    objective: Objective,
    starts: np.ndarray,
    space: Space,
    tol: float,
    rungs_per_call: int,
    group: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected ascent from each tuple of a (starts, n, d) stack, in lock step.

    ``group`` holds the problem index of each start (all 0 by default) and
    is passed to the objective with every tuple scored for that start.
    Returns the (starts,) values and the (starts, n, d) points reached.
    The line search halves the step from its last accepted length down to
    ``MIN_STEP`` and takes the first rung that improves by more than
    ``tol``; ``rungs_per_call`` rungs of every climbing start are scored
    in one objective call.
    """
    x = _project_rows(starts, space)
    n_starts, n, d = x.shape
    m = n * d
    group = np.zeros(n_starts, dtype=np.intp) if group is None else np.asarray(group)
    fx = np.array(objective(x, group), dtype=float)
    step = np.full(n_starts, 0.5)
    active = np.arange(n_starts)
    for _ in range(MAX_ITERS):
        if active.size == 0:
            break
        pts, back = _stencil(x[active].reshape(-1, m))
        owner = np.repeat(group[active], 2 * m)
        vals = np.asarray(objective(_project_rows(pts.reshape(-1, n, d), space), owner)).reshape(-1, 2, m)
        grad = (vals[:, 0] - vals[:, 1]) / (2 * GRAD_STEP)
        gnorm = np.sqrt(np.sum(grad * grad, axis=1))
        x[active] = back.reshape(-1, n, d)
        moving = gnorm != 0.0
        active, grad, gnorm = active[moving], grad[moving].reshape(-1, n, d), gnorm[moving]
        improved = _line_search(
            objective, x, fx, step, active, group[active], grad, gnorm, space, tol, rungs_per_call
        )
        active = active[improved]
    return fx, x


def _line_search(objective, x, fx, step, who, owner, grad, gnorm, space, tol, rungs_per_call):
    """Halving line search from x[who] along grad / gnorm; updates x, fx and step.

    Rung k of a start tries step * 2^-k while that is at least
    ``MIN_STEP``; ``owner`` holds the problem index of each start of
    ``who``.  Returns a mask over ``who`` of the starts that improved.
    """
    xs, fxs, steps = x[who], fx[who], step[who]
    searching = np.ones(who.size, dtype=bool)
    rung = 0
    while True:
        alive = np.flatnonzero(searching)
        if alive.size == 0:
            break
        top = np.ldexp(np.max(steps[alive]), -rung)
        if top < MIN_STEP:
            break
        # most starts stop by rung 2, but at small P per-call overhead outweighs unused rungs
        # no more rungs than the longest remaining ladder, which is all of it
        # when rungs_per_call exceeds its length
        block = min(rungs_per_call, int(np.log2(top / MIN_STEP)) + 2)
        tries = np.ldexp(steps[alive, None], -np.arange(rung, rung + block))
        si, ri = np.nonzero(tries >= MIN_STEP)
        s = alive[si]
        moves = tries[si, ri, None, None] * grad[s] / gnorm[s, None, None]
        cand = _project_rows(xs[s] + moves, space)
        fc = np.asarray(objective(cand, owner[s]))
        # points run by start, then by rung, so a start's first hit is its first improving rung
        hits = np.flatnonzero(fc > fxs[s] + tol)
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
        starts.append(
            np.vstack([unit_vector(space, rng).coords for _ in range(n_vectors)])
        )
    return np.stack(starts)


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
) -> list[tuple[float, np.ndarray]]:
    """Best objective value and point of each problem over its restarts.

    Every one of the ``problems`` problems gets the same canonical,
    supplied and random starts, and all of them climb in one ``ascend``
    whose objective is told the problem of each tuple.  A problem's first
    start achieving its maximum within 1e-12 wins.  ``rungs_per_call`` is
    the line-search block of ``ascend``.
    """
    starts = restart_stack(space, n_vectors, restarts, seed, extra_starts)
    per = starts.shape[0]
    group = np.repeat(np.arange(problems), per)
    vals, xs = ascend(objective, np.tile(starts, (problems, 1, 1)), space, tol, rungs_per_call, group)
    best = []
    for p_vals, p_xs in zip(vals.reshape(problems, per), xs.reshape((problems,) + starts.shape)):
        best_val, best_x = -np.inf, starts[0]
        for val, x in zip(p_vals, p_xs):
            if val > best_val + 1e-12:
                best_val, best_x = float(val), x
        best.append((best_val, best_x))
    return best
