"""Characterization machinery: set-penalty values, martingale splicing,
and property checks for candidate majorant functions.

The penalty of a finite vector set at a point is R(set)^p - C ||point||^p.
The boundedness of the Rademacher maximal operator is equivalent to the
existence of a majorant of this penalty that never increases along
martingales; the exact majorant is a supremum over all finite simple
martingales starting at the point, which this module approximates from
below over finite families and supplements with the closure operators
(splicing, standard-Haar splicing, prepending a constant step) that make
the approximation realize the defining inequalities exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .filtration import (
    AtomicMeasureSpace,
    Filtration,
    Partition,
    ResolutionError,
    StepFunction,
    is_standard_haar,
    trivial_partition,
)
from .martingale import SimpleMartingale
from .rademacher import EnumConfig
from .rbound import HILBERT_EXACT, OPTIMIZED, atomwise_rbound
from .spaces import Space, Vector, norm_of

_MAX_GRID_EXPONENT = 22


@dataclass(frozen=True)
class UValue:
    """R(set)^p - C ||point||^p with the R mode recorded."""

    value: float
    rbound_lower: float
    p: float
    c: float
    r_mode: str
    empty_set: bool = False


def _set_rbound_lower(rows: np.ndarray, space: Space, cfg: EnumConfig) -> tuple[float, str]:
    """Deterministic lower R-bound of a set given as row vectors.

    Repeated rows are dropped, keeping first occurrences in order, so the
    value depends on the order in which distinct rows are presented but
    not on repeats.
    """
    if rows.size == 0:
        return 0.0, HILBERT_EXACT if space.is_hilbert else OPTIMIZED
    lower, _, mode = atomwise_rbound(rows[:, None, :], space, cfg)
    return float(lower[0]), mode


def u_value(
    members: list[Vector],
    point: Vector,
    p: float,
    c: float,
    cfg: EnumConfig | None = None,
) -> UValue:
    """Penalty R(set)^p - C ||point||^p (R of the empty set is 0, flagged)."""
    if cfg is None:
        cfg = EnumConfig()
    space = point.space
    for m in members:
        if m.space != space:
            raise ValueError("set members and point must share one space")
    rows = (
        np.vstack([m.coords for m in members])
        if members
        else np.empty((0, space.total_dim))
    )
    r_lower, mode = _set_rbound_lower(rows, space, cfg)
    value = r_lower**p - c * norm_of(point.coords, space) ** p
    return UValue(value, r_lower, p, c, mode, empty_set=not members)


def _require_starting_constant(x: SimpleMartingale) -> np.ndarray:
    first = x.levels[0].values
    if not np.allclose(first, first[0], atol=1e-12):
        raise ValueError("martingale must start at a constant")
    return first[0]


def _grid_exponent_of(base: AtomicMeasureSpace) -> int:
    n = base.n_atoms
    k = n.bit_length() - 1
    if (1 << k) != n or not np.all(base.masses == base.masses[0]):
        raise ValueError("splicing requires equal-mass 2^k unit-interval grids")
    return k


def _pad_levels(x: SimpleMartingale, target: int) -> SimpleMartingale:
    """Repeat the last level (a lazy extension is still a martingale)."""
    if x.n_steps >= target:
        return x
    extra = target - x.n_steps
    levels = x.levels + tuple(x.levels[-1] for _ in range(extra))
    parts = x.filtration.levels + tuple(x.filtration.levels[-1] for _ in range(extra))
    return SimpleMartingale(Filtration(parts), levels)


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
    k1 = _grid_exponent_of(x1.base)
    k2 = _grid_exponent_of(x2.base)
    m = frac.denominator.bit_length() - 1
    a = frac.numerator
    k_out = m + max(k1, k2, 1)
    if k_out > _MAX_GRID_EXPONENT:
        # every float is a dyadic rational, but one like 1/3 needs a 2^54
        # grid; only weight that fit a desk-scale grid are representable
        raise ResolutionError(
            f"alpha={alpha} needs a 2^{k_out} grid", required_k=k_out
        )
    n_out = 1 << k_out
    n_left = a << (k_out - m)
    base = AtomicMeasureSpace(np.full(n_out, 2.0**-k_out))

    pull_left = np.arange(n_left) // (n_left >> k1)
    n_right = n_out - n_left
    pull_right = np.arange(n_right) // (n_right // (1 << k2))

    space = x1.space
    mean = alpha * t1 + (1 - alpha) * t2
    out_parts: list[Partition] = [trivial_partition(base)]
    out_vals: list[np.ndarray] = [np.tile(mean, (n_out, 1))]
    for j in range(steps + 1):
        left_labels = x1.filtration.levels[j].block_of[pull_left]
        right_labels = x2.filtration.levels[j].block_of[pull_right]
        labels = np.concatenate(
            [left_labels, right_labels + left_labels.max() + 1]
        )
        out_parts.append(Partition(labels, base))
        vals = np.concatenate(
            [x1.levels[j].values[pull_left], x2.levels[j].values[pull_right]]
        )
        out_vals.append(vals)
    levels = tuple(StepFunction(v, space, base) for v in out_vals)
    return SimpleMartingale(Filtration(tuple(out_parts)), levels)


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
    k1 = _grid_exponent_of(x1.base)
    k2 = _grid_exponent_of(x2.base)
    k_out = max(k1, k2, 1) + 1
    n_out = 1 << k_out
    half = n_out // 2
    base = AtomicMeasureSpace(np.full(n_out, 2.0**-k_out))
    pull_left = np.arange(half) // (half >> k1)
    pull_right = np.arange(half) // (half >> k2)
    space = x1.space

    def glued(j_left: int, j_right: int) -> tuple[Partition, np.ndarray]:
        left_labels = x1.filtration.levels[j_left].block_of[pull_left]
        right_labels = x2.filtration.levels[j_right].block_of[pull_right]
        labels = np.concatenate([left_labels, right_labels + left_labels.max() + 1])
        vals = np.concatenate(
            [x1.levels[j_left].values[pull_left], x2.levels[j_right].values[pull_right]]
        )
        return Partition(labels, base), vals

    mean = 0.5 * (t1 + t2)
    out_parts = [trivial_partition(base)]
    out_vals = [np.tile(mean, (n_out, 1))]
    part, vals = glued(0, 0)
    out_parts.append(part)
    out_vals.append(vals)
    for j in range(1, steps + 1):
        part, vals = glued(j, j - 1)
        out_parts.append(part)
        out_vals.append(vals)
        part, vals = glued(j, j)
        out_parts.append(part)
        out_vals.append(vals)
    levels = tuple(StepFunction(v, space, base) for v in out_vals)
    return SimpleMartingale(Filtration(tuple(out_parts)), levels)


def extend_standard_haar(x: SimpleMartingale, extra_steps: int) -> SimpleMartingale:
    """Append value-preserving equal splits (zero martingale jumps)."""
    if extra_steps <= 0:
        return x
    parts = list(x.filtration.levels)
    vals = [lvl.values for lvl in x.levels]
    base = x.base
    for _ in range(extra_steps):
        cur = parts[-1]
        target = None
        for b, atoms in enumerate(cur.blocks()):
            if atoms.size >= 2 and atoms.size % 2 == 0:
                target = (b, atoms)
                break
        if target is None:
            raise ValueError("no block can be split into equal halves")
        b, atoms = target
        labels = cur.block_of.copy()
        labels[atoms[atoms.size // 2 :]] = cur.n_blocks
        parts.append(Partition(labels, base))
        vals.append(vals[-1])
    levels = tuple(StepFunction(v, x.space, base) for v in vals)
    return SimpleMartingale(Filtration(tuple(parts)), levels)


def prepend_constant(x: SimpleMartingale) -> SimpleMartingale:
    """Duplicate the starting level (a lazy first step)."""
    parts = (x.filtration.levels[0],) + x.filtration.levels
    levels = (x.levels[0],) + x.levels
    return SimpleMartingale(Filtration(parts), levels)


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
    to reproduce the monotonicity step that discards the root level).
    """
    if cfg is None:
        cfg = EnumConfig()
    space = x.space
    set_rows = (
        np.vstack([m.coords for m in members])
        if members
        else np.empty((0, space.total_dim))
    )
    stack = x.values_stack()[skip_first:]
    n_atoms = x.base.n_atoms
    paths = np.concatenate(
        [stack, np.broadcast_to(set_rows[:, None, :], (len(set_rows), n_atoms, space.total_dim))]
    )
    r_lower, _, _ = atomwise_rbound(paths, space, cfg)
    total = 0.0
    for atom, mass in enumerate(x.base.masses):
        total += mass * (float(r_lower[atom]) ** p - c * norm_of(stack[-1, atom], space) ** p)
    return total


def v_lower(
    members: list[Vector],
    point: Vector,
    p: float,
    c: float,
    family: list[SimpleMartingale],
    cfg: EnumConfig | None = None,
) -> float:
    """Finite-family lower approximation of the majorant at (set, point).

    Every family member must start at the point; the value is the best
    expected penalty of the member's path set joined with the given set.
    Enlarging the family never decreases the value, and including the
    constant martingale makes the result at least the penalty itself.
    """
    if cfg is None:
        cfg = EnumConfig()
    if not family:
        raise ValueError("need at least one martingale in the family")
    best = -math.inf
    for x in family:
        start = _require_starting_constant(x)
        if x.space != point.space or not np.allclose(
            start, point.coords, atol=1e-12
        ):
            raise ValueError("family members must start at the given point")
        best = max(best, expected_u_along(x, members, p, c, cfg))
    return best


@dataclass(frozen=True)
class VCandidate:
    """An opaque candidate majorant: callable on (set, point)."""

    evaluator: Callable[[list[Vector], Vector], float]
    description: str = ""


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
    tol: float = 1e-9,
) -> VCandidateReport:
    """Evaluate the four majorant properties on finite sample sets."""
    if cfg is None:
        cfg = EnumConfig()
    v = candidate.evaluator

    slack1 = -math.inf
    slack2 = -math.inf
    slack3 = 0.0
    for members, point in samples:
        u = u_value(members, point, p, c, cfg).value
        slack1 = max(slack1, u - v(members, point))
        slack2 = max(slack2, v([point], point))
        slack3 = max(slack3, abs(v(members + [point], point) - v(members, point)))
    slack4 = -math.inf
    for members, p1, p2 in midpoints:
        mid = Vector(0.5 * (p1.coords + p2.coords), p1.space)
        avg = 0.5 * (v(members, p1) + v(members, p2))
        slack4 = max(slack4, avg - v(members, mid))
    if not samples:
        slack1 = slack2 = 0.0
    if not midpoints:
        slack4 = 0.0
    return VCandidateReport(
        majorizes_penalty=PropertyCheck(slack1 <= tol, slack1),
        diagonal_nonpositive=PropertyCheck(slack2 <= tol, slack2),
        absorbs_point=PropertyCheck(slack3 <= tol, slack3),
        midpoint_concave=PropertyCheck(slack4 <= tol, slack4),
    )
