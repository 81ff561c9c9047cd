"""Lower/upper brackets for R-bounds of vector sets.

The R-bound of a set of vectors y_j is the smallest C with
(E||sum eps_j lam_j y_j||^p)^(1/p) <= C (E|sum eps_j lam_j|^p)^(1/p) over
all finite selections (with repetition) from the set and all scalars
lam_j.  The exact value is a supremum over all finite selections.  At
p = 2 on a Hilbert space it is the largest member norm, reported as a
collapsed bracket.  Otherwise this module reports certified lower bounds
found by one search on the unit sphere of the coefficients of the members
tiled to a stack, whose faces are the sub-selections, together with the
summability upper bound sum_j ||member_j||.  Each search is one
``rademacher.maximize_ratio`` call on a ratio of moment evaluators.

The per-atom kernel ``atomwise_rbound`` finds every atom's distinct rows,
their byte keys and their norms in one pass over the stack, taken in
chunks of atoms at a fixed number of numpy calls each, so what an atom
costs alone is a slice, its bytes and a dictionary lookup; what remains
is the searches, one lock-step ascent per row count (see ``optim``).  A
one-set search objective broadcasts the set's rows over its tuples
instead of gathering them per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import optim
from .rademacher import (
    _EXACT_ROWS,
    EnumConfig,
    _stack,
    hilbert_moment2,
    ladder_rungs,
    maximize_ratio,
    moment_evaluator,
)
from .spaces import Space, Vector, lp_space, norms_of

HILBERT_EXACT = "hilbert_exact"
OPTIMIZED = "optimized"
GRID_CERTIFIED = "grid_certified"

# a scalar sphere search starts from every proper face of a stack of at
# most this many rows (56 faces at 6), else from its prefix faces only: on
# lp1 atoms of 7 and 8 rows every face made the search about 5x and 10x
# slower than prefix faces alone and raised one value in 256, by 0.2%
_ALL_FACES_ROWS = 6

# desk-scale cap on the points of a certifying grid (sphere_grid_points): the
# default step 1e-3 builds about 12.6M points on 3 vectors, 302 MB, in 1.7 s
# at a peak RSS of 323 MB; a step of 3e-4 would hold 3.4 GB of points
MAX_GRID_POINTS = 1 << 24
# points scored per moment call in rbound_certify_grid
_GRID_CHUNK = 4096

# sets searched in one ascent are capped so that the coefficient-times-row
# products of one line-search call hold at most this many floats (2 MB): on
# lp1 rmf-ratio at grid exponent 9 (512 sets of 10 rows) peak memory was
# 201 MB uncapped, 98 MB at 2^20 floats and 55 MB at 2^18, in the same time,
# with finite differences; with gradients it is 50 MB in 26 s instead of 92 s
_BATCH_FLOATS = 1 << 18


@dataclass(frozen=True)
class SelectionWitness:
    """A selection of member indices plus the (k,) coefficients achieving a ratio."""

    indices: tuple[int, ...]
    coeffs: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RBoundBracket:
    """Certified bracket lower <= R_p <= upper with provenance.

    ``sup_gap`` is a bound on the distance from ``lower`` to the true
    supremum over the searched chart when one is available (grid mode);
    None means no gap certificate.
    """

    lower: float
    upper: float
    witness: SelectionWitness | None
    mode: str
    p: float
    sup_gap: float | None = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise ValueError("bracket ordering violated: lower > upper")


def _face_starts(k: int) -> np.ndarray:
    """Uniform points (unnormalized) of the proper faces of S^(k-1) with >= 2 rows.

    All of them up to ``_ALL_FACES_ROWS`` rows, else the prefix ones.
    """
    if k > _ALL_FACES_ROWS:
        return np.tri(k)[1 : k - 1]
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
    size = masks.sum(axis=1)
    return masks[(size >= 2) & (size < k)]


def _ratio_ceiling(norms: np.ndarray, p: float) -> np.ndarray:
    """Upper bound on the R_p ratio on the coefficient sphere of each set, from its (b, k) row norms.

    The ratio at lambda is (E||sum eps_j lam_j y_j||^p)^(1/p) over
    (E|sum eps_j lam_j|^p)^(1/p).  The numerator is at most
    sum_j |lam_j| ||y_j|| (triangle inequality, sign by sign).  The
    denominator is at least ||lam||_inf at every p, since
    (E|sum eps lam|^p)^(1/p) >= E|sum eps lam| >= max_j |lam_j| (eps_j lam_j
    is the conditional mean of the sum given eps_j), and at least
    ||lam||_2 = (E|sum eps lam|^2)^(1/2) at p >= 2.  So the ratio is at most
    sum_j ||y_j||, and at p >= 2 at most (sum_j ||y_j||^2)^(1/2) by
    Cauchy-Schwarz, the smaller of the two; the l1^n basis at p = 2
    attains sqrt(n).
    """
    if p >= 2:
        return np.sqrt(np.add.reduce(norms * norms, axis=1))
    return np.add.reduce(norms, axis=1)


def _moment_pair(k: int, space: Space, p: float):
    """Evaluators of the R_p ratio's sides at k coefficients: of (b, k, dim) rows lam_j y_j and of (b, k, 1) lam_j."""
    # over every sign pattern E|sum_j eps_j lam_j|^2 = ||lam||_2^2
    scalar = hilbert_moment2 if p == 2 else moment_evaluator(k, lp_space(1, 1), p)
    return moment_evaluator(k, space, p), scalar


def _sphere_lower(
    sets: np.ndarray, space: Space, p: float, cfg: EnumConfig
) -> list[tuple[float, np.ndarray]]:
    """Best ratio found on the coefficient sphere of each set of a (b, k, dim) stack, k >= 2.

    Returns each set's value and point.  Setting lambda_j = 0 off a subset
    gives that subset's ratio, so the faces of the sphere are the
    sub-selections.  The first ``_EXACT_ROWS`` rows of each set are
    searched, over every sign pattern, so the value is a lower bound: the
    R-bound of a set is at least that of a subset.  Every set starts from
    ``cfg.restarts`` starts plus ``_face_starts(k)``, and all sets climb
    in one ascent (several when one would hold more than ``_BATCH_FLOATS``
    floats); each start follows the path it follows alone.  Each set's
    search is given ``_ratio_ceiling`` of its rows, so once a start
    reaches it the starts after it stop.
    """
    sets = sets[:, :_EXACT_ROWS]
    k = sets.shape[1]
    ceilings = _ratio_ceiling(norms_of(sets.reshape(-1, sets.shape[2]), space).reshape(sets.shape[:2]), p)
    extra = list(_face_starts(k))
    vector_moments, scalar_moments = _moment_pair(k, space, p)

    def coefficients(lams: np.ndarray, group, grad):
        found = scalar_moments(lams[:, 0, :, None], grad)
        return (found[0], found[1].reshape(lams.shape)) if grad else found

    # a ladder call scores a block of rungs of every start, each a (k, dim)
    # product, and a ladder from a unit length has 25 rungs; the gradient
    # call that follows scores one tuple per start
    rungs = ladder_rungs(k)
    starts = len(extra) + max(cfg.restarts, 2)
    per = max(1, _BATCH_FLOATS // (starts * min(rungs, 25) * k * space.total_dim))
    best = []
    for lo in range(0, sets.shape[0], per):
        batch = sets[lo : lo + per]

        def combos(lams: np.ndarray, group, grad):
            # the rows of a single set broadcast over every tuple; only several sets are gathered
            rows = batch[group] if batch.shape[0] > 1 else batch[0]
            found = vector_moments(lams[:, 0, :, None] * rows, grad)
            return (found[0], np.add.reduce(found[1] * rows, axis=2)[:, None, :]) if grad else found

        best += [
            (val, lam[0])
            for val, lam in maximize_ratio(
                combos, coefficients, lp_space(2, k), 1, k, cfg, ceilings[lo : lo + per], extra,
                problems=batch.shape[0],
            )
        ]
    return best


def rbound_scalar(
    vectors: list[Vector],
    p: float = 2.0,
    multiplicity: int = 1,
    cfg: EnumConfig | None = None,
) -> RBoundBracket:
    """Bracket for the R-bound of a vector set with scalar coefficients.

    On a Hilbert space at p = 2 the value is exactly max_j ||y_j|| (the
    randomized square identity turns the ratio into a weighted mean of
    squared norms), reported as a collapsed bracket.  Otherwise the lower
    bound is the best of the member norms (exact singleton ratios) and a
    search on the sphere of the first ``_EXACT_ROWS`` rows of the members
    tiled ``multiplicity`` times, round robin; a witness names the member
    of each stack row.  The upper bound is the summability ceiling.
    """
    if cfg is None:
        cfg = EnumConfig()
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    vmat, space = _stack(vectors)
    member_norms = norms_of(vmat, space)
    j = int(np.argmax(member_norms))
    lower, wit = float(member_norms[j]), SelectionWitness((j,), np.array([1.0]))
    if space.is_hilbert and p == 2:
        return RBoundBracket(lower, lower, wit, HILBERT_EXACT, p, sup_gap=0.0)
    n, stack = len(vectors), np.tile(vmat, (multiplicity, 1))
    if len(stack) > 1:
        [(val, lam)] = _sphere_lower(stack[None], space, p, cfg)
        if val > lower + 1e-12:
            lower, wit = val, SelectionWitness(tuple(i % n for i in range(len(lam))), lam)
    return RBoundBracket(lower, float(np.sum(member_norms)), wit, OPTIMIZED, p)


def atomwise_rbound(
    stack: np.ndarray,
    space: Space,
    cfg: EnumConfig,
    p: float = 2.0,
    atoms=None,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Bracket of R({stack[j, a] : j}) at each atom a of a (levels, atoms, dim) stack.

    On a Hilbert space at p = 2 both sides are exactly the largest norm
    over levels.  Otherwise an atom's repeated rows are dropped (first
    occurrences kept in order), the lower side is the best of the
    distinct norms and a search on the sphere of the first ``_EXACT_ROWS``
    distinct rows, and the upper side is the sum of the distinct norms.
    Equal row sets are searched once per call, and all sets of k searched
    rows are searched by one ``_sphere_lower`` call, one per k.  Atoms
    outside ``atoms`` hold NaN.
    """
    n_atoms = stack.shape[1]
    if space.is_hilbert and p == 2:
        # level by level, so no temporary the size of the stack is made
        peak = np.max(np.stack([norms_of(level, space) for level in stack]), axis=0)
        if atoms is not None:
            outside = np.ones(n_atoms, dtype=bool)
            outside[list(atoms)] = False
            peak[outside] = np.nan
        return peak, peak.copy(), HILBERT_EXACT

    lower = np.full(n_atoms, np.nan)
    upper = np.full(n_atoms, np.nan)
    keys: dict[int, bytes] = {}
    memo: dict[bytes, tuple[float, float]] = {}
    pending: dict[int, dict[bytes, np.ndarray]] = {}
    for a, distinct, peak, total in _distinct_sets(stack, space, atoms):
        key = keys[a] = distinct.tobytes()
        if key not in memo:
            memo[key] = (peak, total)
            if len(distinct) > 1:
                searched = distinct[:_EXACT_ROWS]
                pending.setdefault(len(searched), {})[key] = searched
    for sets in pending.values():
        for key, (val, _) in zip(sets, _sphere_lower(np.stack(list(sets.values())), space, p, cfg)):
            lo, up = memo[key]
            memo[key] = (val if val > lo + 1e-12 else lo, up)
    for a, key in keys.items():
        lower[a], upper[a] = memo[key]
    return lower, upper, OPTIMIZED


def _distinct_sets(stack: np.ndarray, space: Space, atoms=None):
    """Each atom's distinct rows of a (levels, atoms, dim) stack, with the
    largest and the summed norm of those rows.

    Yields ``(atom, rows, peak, total)`` for the atoms in ``atoms`` (all by
    default), in order; ``rows`` keeps the first occurrence of every row,
    in order, and ``peak`` and ``total`` are ``np.max`` and ``np.sum`` of
    its norms as floats.  Rows compare by value, so -0.0 repeats 0.0 and a
    row holding NaN repeats nothing.  Atoms are taken in chunks whose row
    comparison holds at most ``_BATCH_FLOATS`` entries.
    """
    levels, n_atoms, dim = stack.shape
    chosen = np.arange(n_atoms) if atoms is None else np.fromiter(atoms, dtype=np.intp)
    per = max(1, _BATCH_FLOATS // (levels * levels * dim))
    for lo in range(0, chosen.size, per):
        idx = chosen[lo : lo + per]
        cols = stack[:, idx].transpose(1, 0, 2)
        same = (cols[:, :, None, :] == cols[:, None, :, :]).all(axis=3)
        repeat = np.tril(same, -1).any(axis=2)
        # kept rows run atom by atom, so each atom's distinct rows are one slice
        rows = cols[~repeat]
        norms = norms_of(rows, space)
        counts = levels - repeat.sum(axis=1)
        ends = np.cumsum(counts)
        starts = ends - counts
        # np.max and np.sum of each atom's norms, bit for bit, come from a
        # row-wise reduction over the atoms of one row count (reduceat sums
        # in another order)
        peaks, totals = np.empty(idx.size), np.empty(idx.size)
        for k in np.unique(counts).tolist():
            of_k = (counts == k).nonzero()[0]
            group = norms[starts[of_k, None] + np.arange(k)]
            peaks[of_k], totals[of_k] = np.maximum.reduce(group, axis=1), np.add.reduce(group, axis=1)
        for a, lo_row, hi_row, peak, total in zip(
            idx.tolist(), starts.tolist(), ends.tolist(), peaks.tolist(), totals.tolist()
        ):
            yield a, rows[lo_row:hi_row], peak, total


def _side_by_side(stacks: list[np.ndarray]) -> np.ndarray:
    """(levels, atoms, dim) stacks joined along atoms, each padded to the
    longest by repeating its last level.

    ``atomwise_rbound`` drops repeated rows, so every atom keeps its bracket.
    """
    depth = max(s.shape[0] for s in stacks)
    return np.concatenate([s[np.minimum(np.arange(depth), len(s) - 1)] for s in stacks], axis=1)


def _lower_side_by_side(
    stacks: list[np.ndarray], spaces: list[Space], cfg: EnumConfig
) -> list[tuple[np.ndarray, str]]:
    """Lower side of ``atomwise_rbound`` at every atom of every (levels,
    atoms, dim) stack, and its mode, with the stacks of one space side by
    side in one kernel call.  A space whose stacks hold no atoms makes no
    call and gets the mode the kernel would report.
    """
    found: list = [None] * len(stacks)
    by_space: dict[Space, list[int]] = {}
    for i, space in enumerate(spaces):
        by_space.setdefault(space, []).append(i)
    for space, members in by_space.items():
        widths = [stacks[i].shape[1] for i in members]
        if sum(widths) == 0:
            lower, mode = np.empty(0), HILBERT_EXACT if space.is_hilbert else OPTIMIZED
        else:
            lower, _, mode = atomwise_rbound(
                _side_by_side([stacks[i] for i in members]), space, cfg
            )
        for i, part in zip(members, np.split(lower, np.cumsum(widths)[:-1])):
            found[i] = (part, mode)
    return found


def sphere_grid_points(k: int, step: float) -> float:
    """Upper bound on the points ``_sphere_grid_chunks(k, step)`` yields, for 1 <= k <= 3, in O(1).

    Exact for k <= 2.  On S^2 the n = max(2, ceil(pi / step)) latitudes
    hold 2 poles and n - 1 rings of max(4, ceil(2 pi sin(phi_i) / step))
    points, at most 2 pi sin(phi_i) / step + 5 each, and the sines sum to
    cot(pi / 2n) <= 2n / pi.  With n <= N = max(2, pi / step + 1) the count
    is at most 2 + 5 (N - 1) + 4 N / step: 4 pi / step^2 + (5 pi + 4) / step
    + 2 once step <= pi, at most (5 pi + 4) / step + 2 above the count.
    """
    if k == 1:
        return 2.0
    if k == 2:
        ring = 2 * math.pi / step
        return float(max(4, math.ceil(ring))) if math.isfinite(ring) else math.inf
    lat = max(2.0, math.pi / step + 1)
    return 2 + 5 * (lat - 1) + 4 * lat / step


def _grid_step_that_fits(k: int) -> float:
    """A step, of two significant digits, whose grid on S^(k-1) prices at most MAX_GRID_POINTS."""
    if k == 2:
        step = 2 * math.pi / MAX_GRID_POINTS
    else:
        # the positive root in 1 / step of sphere_grid_points(3, step) = MAX_GRID_POINTS
        b = 5 * math.pi + 4
        step = 8 * math.pi / (math.sqrt(b * b + 16 * math.pi * (MAX_GRID_POINTS - 2)) - b)
    digits = 10 ** (math.floor(math.log10(step)) - 1)
    return math.ceil(step / digits) * digits


def _sphere_grid_chunks(k: int, step: float):
    """Points covering the Euclidean unit sphere S^(k-1), spacing <= step,
    in grid order, as new arrays of _GRID_CHUNK points (the last fewer).

    S^0 is its two points.  On S^2 the two poles come first, then one ring
    per latitude; S^1 is the equator ring alone, with no third column (its
    sine, 1, scales nothing).  A ring may run across chunks: each chunk is
    written from its own range of the ring's angles, so the whole grid is
    never held.
    """
    if k == 1:
        yield np.array([[1.0], [-1.0]])
        return
    if k == 2:
        phis, at = [math.pi / 2], 0
    else:
        n_lat = max(2, int(math.ceil(math.pi / step)))
        phis, at = [math.pi * i / n_lat for i in range(1, n_lat)], 2
    rings = [max(4, int(math.ceil(2 * math.pi * math.sin(phi) / step))) for phi in phis]
    left = at + sum(rings)
    out = np.empty((min(_GRID_CHUNK, left), k))
    if k == 3:
        out[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    for phi, ring in zip(phis, rings):
        done = 0
        while done < ring:
            take = min(ring - done, out.shape[0] - at)
            theta = np.arange(done, done + take) * (2 * math.pi / ring)
            block = out[at : at + take]
            np.multiply(np.sin(phi), np.cos(theta), out=block[:, 0])
            np.multiply(np.sin(phi), np.sin(theta), out=block[:, 1])
            if k == 3:
                block[:, 2] = math.cos(phi)
            at, done = at + take, done + take
            if at == out.shape[0]:
                yield out
                left -= at
                out, at = np.empty((min(_GRID_CHUNK, left), k)), 0


def rbound_certify_grid(
    vectors: list[Vector], p: float = 2.0, grid_step: float = 1e-3
) -> RBoundBracket:
    """Exhaustive grid oracle for the scalar-coefficient R-bound.

    Restricted to at most 3 members (sphere dimension <= 2).  Every grid
    point is feasible, so the reported lower bound is certified; the gap
    to the supremum over single selections of the full set is bounded by a
    Lipschitz argument and reported in ``sup_gap``.  ``grid_step`` must be
    a finite number > 0, and a grid that ``sphere_grid_points`` prices
    over ``MAX_GRID_POINTS`` raises ``ValueError`` before it is built.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError("grid_step must be a finite number > 0")
    vmat, space = _stack(vectors)
    k = len(vectors)
    if k > 3:
        raise ValueError("grid certification supports at most 3 vectors")
    points = sphere_grid_points(k, grid_step)
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"a grid of step {grid_step:g} on {k} vectors has up to {points:,.0f} points, over the cap of "
            f"{MAX_GRID_POINTS:,} (rbound.MAX_GRID_POINTS); --grid-step {_grid_step_that_fits(k):.2g} fits"
        )
    member_norms = norms_of(vmat, space)
    upper = float(np.sum(member_norms))

    vector_moments, scalar_moments = _moment_pair(k, space, p)
    # the moments of each point depend on that point alone, so chunks of
    # points give the bits of one pass; each is scored as it is generated, by
    # a search's evaluators, and only the best point so far is kept, as a copy
    value, best, num_top, den_low = -math.inf, None, -math.inf, math.inf
    for pts in _sphere_grid_chunks(k, grid_step):
        num, den = vector_moments(pts[:, :, None] * vmat), scalar_moments(pts[:, :, None])
        ratio = optim.ratio_or_zero(num, den)
        i = int(np.argmax(ratio))
        if best is None:  # the first point, while no ratio beats -inf
            best = pts[0].copy()
        if ratio[i] > value:  # strictly, so the first maximum over all chunks wins
            value, best = float(ratio[i]), pts[i].copy()
        num_top, den_low = max(num_top, float(np.max(num))), min(den_low, float(np.min(den)))

    # Lipschitz gap: both moments are norms of lambda in R^k, with
    # |num(a)-num(b)| <= ||a-b||_2 (sum ||y_j||^2)^(1/2) and
    # |den(a)-den(b)| <= ||a-b||_2 sqrt(k); the grid covering radius is
    # at most grid_step.
    l_num = float(np.sqrt(np.sum(member_norms**2)))
    l_den = math.sqrt(k)
    den_lb = den_low - l_den * grid_step
    if den_lb <= 0:
        gap = math.inf
    else:
        num_max = num_top + l_num * grid_step
        l_ratio = l_num / den_lb + num_max * l_den / den_lb**2
        gap = l_ratio * grid_step
    wit = SelectionWitness(tuple(range(k)), best)
    return RBoundBracket(value, upper, wit, GRID_CERTIFIED, p, sup_gap=gap)
