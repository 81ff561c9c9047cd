"""Characterization machinery: set-penalty values, martingale splicing,
and property checks for candidate majorant functions.

The penalty of a finite vector set at a point is R(set)^p - C ||point||^p.
The boundedness of the Rademacher maximal operator is equivalent to the
existence of a majorant of this penalty that never increases along
martingales; the exact majorant is a supremum over all finite simple
martingales starting at the point.  This module evaluates the penalty and
its expectation along a martingale's paths, builds the closure operators
(splicing, standard-Haar splicing) that realize the defining inequalities
exactly, and checks a candidate majorant's defining properties on samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .filtration import (
    MAX_GRID_EXPONENT,
    AtomicMeasureSpace,
    Filtration,
    ResolutionError,
    StepFunction,
    _canonical_labels,
    _grid_exponent,
    is_standard_haar,
)
from .martingale import SimpleMartingale
from .rademacher import EnumConfig
from .rbound import HILBERT_EXACT, OPTIMIZED, _lower_side_by_side, atomwise_rbound
from .spaces import Vector, norm_of

# a majorant property holds when its worst slack is at most this
_PROPERTY_TOL = 1e-9


@dataclass(frozen=True)
class UValue:
    """R(set)^p - C ||point||^p with the R mode recorded."""

    value: float
    rbound_lower: float
    p: float
    c: float
    r_mode: str
    empty_set: bool = False


def u_values(
    queries: list[tuple[list[Vector], Vector]],
    p: float,
    c: float,
    cfg: EnumConfig | None = None,
) -> list[UValue]:
    """Penalty R(set)^p - C ||point||^p of every ``(members, point)`` query
    (R of the empty set is 0, flagged).

    Every nonempty set is an atom of one kernel stack per space, shorter
    sets padded by repeating their last row, which the kernel drops along
    with every other repeated row (first occurrences kept in order); so a
    set's R depends on the order of its distinct rows but not on repeats,
    nor on the other queries.  Empty sets are 0 without a search.
    """
    if cfg is None:
        cfg = EnumConfig()
    for members, point in queries:
        for m in members:
            if m.space != point.space:
                raise ValueError("set members and point must share one space")
    nonempty = [(members, point) for members, point in queries if members]
    found = iter(
        _lower_side_by_side(
            [np.vstack([m.coords for m in members])[:, None, :] for members, _ in nonempty],
            [point.space for _, point in nonempty],
            cfg,
        )
    )
    values = []
    for members, point in queries:
        space = point.space
        if members:
            lower, mode = next(found)
            r_lower = float(lower[0])
        else:
            r_lower, mode = 0.0, HILBERT_EXACT if space.is_hilbert else OPTIMIZED
        value = r_lower**p - c * norm_of(point.coords, space) ** p
        values.append(UValue(value, r_lower, p, c, mode, empty_set=not members))
    return values


def _require_starting_constant(x: SimpleMartingale) -> np.ndarray:
    first = x.levels[0].values
    if not np.allclose(first, first[0], atol=1e-12):
        raise ValueError("martingale must start at a constant")
    return first[0]


def _pad_levels(x: SimpleMartingale, target: int) -> SimpleMartingale:
    """Repeat the last level (a lazy extension is still a martingale)."""
    if x.n_steps >= target:
        return x
    rows = np.minimum(np.arange(target + 1), x.n_steps)
    levels = tuple(x.levels[j] for j in rows)
    return SimpleMartingale(Filtration(x.filtration.labels[rows], x.base), levels)


def _glued(
    x1: SimpleMartingale,
    x2: SimpleMartingale,
    k_out: int,
    n_left: int,
    mean: np.ndarray,
    pairs: list[tuple[int, int]],
) -> SimpleMartingale:
    """x1 on the first n_left atoms of an equal-mass 2^k_out grid, x2 on the rest.

    Level 0 is the constant ``mean``; after it, pair (j1, j2) gives one
    level holding level j1 of x1 on the left atoms and level j2 of x2 on
    the right, each input atom spread over an equal run of output atoms.
    """
    n_out = 1 << k_out
    base = AtomicMeasureSpace(np.full(n_out, 2.0**-k_out))
    pull_left = np.arange(n_left) // (n_left // x1.base.n_atoms)
    pull_right = np.arange(n_out - n_left) // ((n_out - n_left) // x2.base.n_atoms)
    j1, j2 = (list(js) for js in zip(*pairs))
    left = x1.filtration.labels[j1][:, pull_left]
    right = x2.filtration.labels[j2][:, pull_right] + left.max(axis=1, keepdims=True) + 1
    labels = np.vstack([np.zeros(n_out, dtype=np.int64), np.hstack([left, right])])
    vals = [np.tile(mean, (n_out, 1))]
    for a, b in pairs:
        vals.append(np.concatenate([x1.levels[a].values[pull_left], x2.levels[b].values[pull_right]]))
    levels = tuple(StepFunction(v, x1.space, base) for v in vals)
    return SimpleMartingale(Filtration(labels, base), levels)


def splice(
    x1: SimpleMartingale, x2: SimpleMartingale, alpha: float
) -> SimpleMartingale:
    """Run one martingale on [0, alpha) and the other on [alpha, 1).

    Both inputs start at constants T1, T2; the output starts at
    alpha T1 + (1-alpha) T2, branches into the two scaled copies at its
    first step, and afterwards follows each input with its time shifted
    by one.  alpha must be a dyadic rational so the gluing is exact on a
    dyadic grid.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if x1.space != x2.space:
        raise ValueError("martingales must share the range space")
    frac = Fraction(alpha)
    t1 = _require_starting_constant(x1)
    t2 = _require_starting_constant(x2)
    steps = max(x1.n_steps, x2.n_steps)
    x1 = _pad_levels(x1, steps)
    x2 = _pad_levels(x2, steps)
    k1 = _grid_exponent(x1.base)
    k2 = _grid_exponent(x2.base)
    m = frac.denominator.bit_length() - 1
    a = frac.numerator
    k_out = m + max(k1, k2, 1)
    if k_out > MAX_GRID_EXPONENT:
        # every float is a dyadic rational, but one like 1/3 needs a 2^54
        # grid; only weight that fit a desk-scale grid are representable
        raise ResolutionError(
            f"alpha={alpha} needs a 2^{k_out} grid", required_k=k_out
        )
    mean = alpha * t1 + (1 - alpha) * t2
    return _glued(x1, x2, k_out, a << (k_out - m), mean, [(j, j) for j in range(steps + 1)])


def haar_splice(x1: SimpleMartingale, x2: SimpleMartingale) -> SimpleMartingale:
    """Interleave two standard Haar martingales below a midpoint root.

    The output runs x1 on [0, 1/2) and x2 on [1/2, 1), advancing the two
    sides alternately so every level still splits exactly one block into
    equal halves: the result is again a standard Haar martingale, and its
    mean value is the midpoint of the two starting constants.
    """
    if x1.space != x2.space:
        raise ValueError("martingales must share the range space")
    if not (is_standard_haar(x1.filtration) and is_standard_haar(x2.filtration)):
        raise ValueError("both inputs must be standard Haar martingales")
    t1 = _require_starting_constant(x1)
    t2 = _require_starting_constant(x2)
    steps = max(x1.n_steps, x2.n_steps)
    x1 = extend_standard_haar(x1, steps - x1.n_steps)
    x2 = extend_standard_haar(x2, steps - x2.n_steps)
    k1 = _grid_exponent(x1.base)
    k2 = _grid_exponent(x2.base)
    k_out = max(k1, k2, 1) + 1
    # x1 takes a step, then x2 catches up, so each level splits one block
    pairs = [(0, 0)] + [pair for j in range(1, steps + 1) for pair in ((j, j - 1), (j, j))]
    return _glued(x1, x2, k_out, 1 << (k_out - 1), 0.5 * (t1 + t2), pairs)


def extend_standard_haar(x: SimpleMartingale, extra_steps: int) -> SimpleMartingale:
    """Append value-preserving equal splits (zero martingale jumps)."""
    if extra_steps <= 0:
        return x
    n = len(x.levels)
    labels = np.empty((n + extra_steps, x.base.n_atoms), dtype=np.int64)
    labels[:n] = x.filtration.labels
    for r in range(n, n + extra_steps):
        cur = labels[r - 1]
        sizes = np.bincount(cur)
        even = np.flatnonzero((sizes >= 2) & (sizes % 2 == 0))
        if even.size == 0:
            raise ValueError("no block can be split into equal halves")
        atoms = np.flatnonzero(cur == even[0])
        labels[r] = cur
        labels[r, atoms[atoms.size // 2 :]] = sizes.size
        labels[r] = _canonical_labels(labels[r])[0]
    levels = x.levels + (x.levels[-1],) * extra_steps
    return SimpleMartingale(Filtration(labels, x.base), levels)


def expected_u_along(
    x: SimpleMartingale,
    members: list[Vector],
    p: float,
    c: float,
    cfg: EnumConfig | None = None,
    skip_first: int = 0,
) -> float:
    """E of the penalty of {X_j(omega)} union the set, at X_last(omega).

    ``skip_first`` drops that many initial levels from the path set (used
    to reproduce the monotonicity step that discards the root level).  The
    path stack (levels, then the set rows) is searched in one kernel call.
    Acceptance criterion 9 runs it on the change-of-variables identity of
    splicing.
    """
    if cfg is None:
        cfg = EnumConfig()
    dim = x.space.total_dim
    set_rows = np.vstack([m.coords for m in members]) if members else np.empty((0, dim))
    stack = np.concatenate(
        [
            x.values_stack()[skip_first:],
            np.broadcast_to(set_rows[:, None, :], (len(set_rows), x.base.n_atoms, dim)),
        ]
    )
    r_lower = atomwise_rbound(stack, x.space, cfg)[0]
    last = x.levels[-1].values
    total = 0.0
    for atom, mass in enumerate(x.base.masses):
        total += mass * (float(r_lower[atom]) ** p - c * norm_of(last[atom], x.space) ** p)
    return total


@dataclass(frozen=True)
class VCandidate:
    """An opaque candidate majorant, evaluated in batches: ``evaluator``
    maps a list of ``(members, point)`` queries to their values, in order,
    so a candidate that searches R-bounds can search every set at once."""

    evaluator: Callable[[list[tuple[list[Vector], Vector]]], Sequence[float]]
    description: str = ""


@dataclass(frozen=True)
class _Penalty:
    """The penalty U as a batch evaluator; equal settings compare equal, so
    :func:`check_v_candidate` can tell that a candidate is the penalty."""

    p: float
    c: float
    cfg: EnumConfig

    def __call__(self, queries: list[tuple[list[Vector], Vector]]) -> list[float]:
        return [u.value for u in u_values(queries, self.p, self.c, self.cfg)]


def penalty_candidate(p: float, c: float, cfg: EnumConfig | None = None) -> VCandidate:
    """The penalty U itself as a candidate majorant."""
    return VCandidate(_Penalty(p, c, EnumConfig() if cfg is None else cfg), "penalty itself")


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    worst_slack: float


@dataclass(frozen=True)
class VCandidateReport:
    """Outcome of the four defining properties on the given samples.

    Slacks are signed so that nonpositive means satisfied: (1) penalty
    minus candidate, (2) the diagonal value itself, (3) absolute change
    under adjoining the point, (4) averaged endpoints minus midpoint.
    """

    majorizes_penalty: PropertyCheck
    diagonal_nonpositive: PropertyCheck
    absorbs_point: PropertyCheck
    midpoint_concave: PropertyCheck

    def all_passed(self) -> bool:
        return all(
            c.passed
            for c in (
                self.majorizes_penalty,
                self.diagonal_nonpositive,
                self.absorbs_point,
                self.midpoint_concave,
            )
        )


def check_v_candidate(
    candidate: VCandidate,
    samples: list[tuple[list[Vector], Vector]],
    midpoints: list[tuple[list[Vector], Vector, Vector]],
    p: float,
    c: float,
    cfg: EnumConfig | None = None,
) -> VCandidateReport:
    """Evaluate the four majorant properties on finite sample sets.

    The candidate is called once, on (set, point), ({point}, point) and
    (set + [point], point) of every sample and on (set, a), (set, b) and
    (set, midpoint) of every midpoint triple.  The penalties of the samples
    come from one :func:`u_values` call, or, when the candidate is
    :func:`penalty_candidate` of the same p, C and config, from its own
    answers at (set, point): a set's R does not depend on the other
    queries of a call, so they are the same numbers.
    """
    if cfg is None:
        cfg = EnumConfig()
    queries = []
    for members, point in samples:
        queries += [(members, point), ([point], point), (members + [point], point)]
    for members, p1, p2 in midpoints:
        mid = Vector(0.5 * (p1.coords + p2.coords), p1.space)
        queries += [(members, p1), (members, p2), (members, mid)]
    v = list(candidate.evaluator(queries))
    if len(v) != len(queries):
        raise ValueError(f"candidate returned {len(v)} values for {len(queries)} queries")
    n = 3 * len(samples)
    if candidate.evaluator == _Penalty(p, c, cfg):
        penalties = v[0:n:3]
    else:
        penalties = [u.value for u in u_values(samples, p, c, cfg)]

    slack1 = -math.inf
    slack2 = -math.inf
    slack3 = 0.0
    for u, plain, diagonal, joined in zip(penalties, v[0:n:3], v[1:n:3], v[2:n:3]):
        slack1 = max(slack1, u - plain)
        slack2 = max(slack2, diagonal)
        slack3 = max(slack3, abs(joined - plain))
    slack4 = -math.inf
    for at_a, at_b, at_mid in zip(v[n::3], v[n + 1 :: 3], v[n + 2 :: 3]):
        avg = 0.5 * (at_a + at_b)
        slack4 = max(slack4, avg - at_mid)
    if not samples:
        slack1 = slack2 = 0.0
    if not midpoints:
        slack4 = 0.0
    return VCandidateReport(
        majorizes_penalty=PropertyCheck(slack1 <= _PROPERTY_TOL, slack1),
        diagonal_nonpositive=PropertyCheck(slack2 <= _PROPERTY_TOL, slack2),
        absorbs_point=PropertyCheck(slack3 <= _PROPERTY_TOL, slack3),
        midpoint_concave=PropertyCheck(slack4 <= _PROPERTY_TOL, slack4),
    )
