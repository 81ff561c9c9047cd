"""Lower/upper brackets for R-bounds of vector sets and operator families.

The R-bound of a family is the smallest C with
E||sum eps_j T_j x_j||^p <= C^p E||sum eps_j x_j||^p over all finite
selections (with repetition) from the family.  For sets of vectors the
arguments are scalars.  The exact value is a supremum over all finite
selections; this module reports certified lower bounds found by search
together with the summability upper bound sum_j ||member_j||, which
collapses to an exact value on Hilbert spaces at p = 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import optim
from .rademacher import EnumConfig, make_moment_evaluator, sign_patterns
from .spaces import HILBERT_OP, Space, Vector, lp_space, norms_of, singular_values

HILBERT_EXACT = "hilbert_exact"
OPTIMIZED = "optimized"
GRID_CERTIFIED = "grid_certified"

# enumerating every multiset of members is exponential; beyond this many
# candidate selections only singletons, the full set and any warm start
# are searched
_MAX_SELECTIONS = 256


@dataclass(frozen=True)
class SelectionWitness:
    """A selection of member indices plus the coefficients achieving a ratio.

    For scalar-coefficient brackets ``coeffs`` has shape (k,); for operator
    brackets it holds the Hilbert-space arguments, shape (k, dim_h).
    """

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


def _stack(vectors: list[Vector]) -> tuple[np.ndarray, Space]:
    if not vectors:
        raise ValueError("R-bound of the empty set is not defined here")
    space = vectors[0].space
    for v in vectors[1:]:
        if v.space != space:
            raise ValueError("all members must live in the same space")
    return np.vstack([v.coords for v in vectors]), space


def _selections(n: int, multiplicity: int) -> list[tuple[int, ...]]:
    """Multisets of member indices, each index repeated at most ``multiplicity``.

    Only sizes >= 2 are returned (singletons are handled exactly); if the
    enumeration would exceed the search budget, only the full selection at
    maximal multiplicity is returned.
    """
    counts = [range(multiplicity + 1)] * n
    total = (multiplicity + 1) ** n
    if total <= _MAX_SELECTIONS:
        sels = []
        for combo in itertools.product(*counts):
            if sum(combo) >= 2:
                sel = tuple(
                    i for i, c in enumerate(combo) for _ in range(c)
                )
                sels.append(sel)
        return sels
    return [tuple(i for i in range(n) for _ in range(multiplicity))]


def optimized_scalar_lower(
    vectors: list[Vector],
    p: float,
    multiplicity: int,
    cfg: EnumConfig,
    warm_start: SelectionWitness | None = None,
    selection_mode: str = "exhaustive",
) -> tuple[float, SelectionWitness]:
    """Search lower bound for the scalar-coefficient R-bound.

    The best ratio over singletons (exact: the member norm), candidate
    multiset selections, and a projected ascent over coefficients on the
    Euclidean unit sphere for each selection.  ``selection_mode``
    "exhaustive" enumerates multisets up to the search budget; "chain"
    searches only prefixes and the full set, which is the cheap scheme
    used for per-atom maximal functions where members arrive as a
    filtration chain.
    """
    vmat, space = _stack(vectors)
    n = len(vectors)
    member_norms = norms_of(vmat, space)

    best = -math.inf
    best_wit: SelectionWitness | None = None
    for j in range(n):
        # a singleton's ratio is exactly its norm, independent of lambda
        if member_norms[j] > best + 1e-12:
            best = float(member_norms[j])
            best_wit = SelectionWitness((j,), np.array([1.0]))

    if selection_mode == "chain":
        candidates = [tuple(range(k)) for k in range(2, n + 1)]
    else:
        candidates = _selections(n, multiplicity)
    if warm_start is not None and len(warm_start.indices) >= 2:
        if warm_start.indices not in candidates:
            candidates = candidates + [warm_start.indices]
    for sel in candidates:
        sel_mat = vmat[list(sel)]
        k = sel_mat.shape[0]
        sphere = lp_space(2, k)
        vector_moment = make_moment_evaluator(k, space, p, cfg)
        scalar_moment_eval = make_moment_evaluator(k, lp_space(1, 1), p, cfg)

        def objective(lam2d: np.ndarray) -> float:
            lam = lam2d[0]
            den = scalar_moment_eval(lam[:, None])
            if den <= 0:
                return 0.0
            return vector_moment(lam[:, None] * sel_mat) / den

        extra = []
        if warm_start is not None and tuple(warm_start.indices) == sel:
            extra.append(np.asarray(warm_start.coeffs, dtype=float).reshape(1, k))
        val, lam = optim.maximize_on_spheres(
            objective, sphere, 1, cfg.restarts, cfg.seed, cfg.tol, extra_starts=extra
        )
        if val > best + 1e-12:
            best = val
            best_wit = SelectionWitness(tuple(sel), lam[0])
    if best_wit is None:
        raise AssertionError("no selection produced a finite ratio")
    return best, best_wit


def rbound_scalar(
    vectors: list[Vector],
    p: float = 2.0,
    multiplicity: int = 1,
    cfg: EnumConfig | None = None,
    warm_start: SelectionWitness | None = None,
) -> RBoundBracket:
    """Bracket for the R-bound of a vector set with scalar coefficients.

    On a Hilbert space at p = 2 the value is exactly max_j ||y_j|| (the
    randomized square identity turns the ratio into a weighted mean of
    squared norms), reported as a collapsed bracket.  Otherwise the lower
    bound is searched and the upper bound is the summability ceiling.
    """
    if cfg is None:
        cfg = EnumConfig()
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    vmat, space = _stack(vectors)
    member_norms = norms_of(vmat, space)
    if space.is_hilbert and p == 2:
        j = int(np.argmax(member_norms))
        val = float(member_norms[j])
        wit = SelectionWitness((j,), np.array([1.0]))
        return RBoundBracket(val, val, wit, HILBERT_EXACT, p, sup_gap=0.0)
    lower, wit = optimized_scalar_lower(vectors, p, multiplicity, cfg, warm_start)
    upper = float(np.sum(member_norms))
    return RBoundBracket(lower, upper, wit, OPTIMIZED, p)


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
    occurrences kept in order), the lower side is searched exhaustively
    for up to 6 distinct rows and over chain prefixes beyond, and the
    upper side is the sum of the distinct norms; equal row sets are
    searched once per call.  Atoms outside ``atoms`` hold NaN.
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
    memo: dict[bytes, tuple[float, float]] = {}
    for a in range(n_atoms) if atoms is None else atoms:
        col = stack[:, a, :]
        same = np.all(col[:, None, :] == col[None, :, :], axis=2)
        distinct = col[~np.any(np.tril(same, -1), axis=1)]
        key = distinct.tobytes()
        if key not in memo:
            vectors = [Vector(row, space) for row in distinct]
            mode = "exhaustive" if len(vectors) <= 6 else "chain"
            lo, _ = optimized_scalar_lower(vectors, p, 1, cfg, selection_mode=mode)
            memo[key] = (lo, float(np.sum(norms_of(distinct, space))))
        lower[a], upper[a] = memo[key]
    return lower, upper, OPTIMIZED


def rbound_hilbert_exact(values: np.ndarray, space: Space) -> float:
    """Exact R-bound (p = 2, Hilbert space): the maximal member norm."""
    if not space.is_hilbert:
        raise ValueError("exact oracle requires a Hilbert space")
    if values.size == 0:
        return 0.0
    return float(np.max(norms_of(values, space)))


def rbound_operator(
    operators: list[Vector],
    p: float = 2.0,
    n_args: int | None = None,
    cfg: EnumConfig | None = None,
) -> RBoundBracket:
    """Bracket for the R-bound of operators acting on Hilbert-space vectors.

    The lower bound searches selections (multisets of operators, sizes up
    to ``n_args``) and argument tuples on the product of unit spheres of
    the domain; singleton values are exact operator norms via their top
    singular pair.
    """
    if cfg is None:
        cfg = EnumConfig()
    omat, space = _stack(operators)
    if space.kind != HILBERT_OP:
        raise ValueError("operator R-bounds require a hilbert_op space")
    m = len(operators)
    if n_args is None:
        n_args = m
    if n_args < m:
        raise ValueError("n_args must be at least the number of operators")
    dim_h, dim_e = space.cols, space.rows
    h = lp_space(2, dim_h)
    e = lp_space(2, dim_e)

    op_norms = np.empty(m)
    top_vecs = []
    for i in range(m):
        sv, right = singular_values(omat[i].reshape(dim_e, dim_h), return_right_vectors=True)
        op_norms[i] = sv[0]
        top_vecs.append(right[:, 0])

    best = -math.inf
    best_wit: SelectionWitness | None = None
    for i in range(m):
        if op_norms[i] > best + 1e-12:
            best = float(op_norms[i])
            best_wit = SelectionWitness((i,), top_vecs[i].reshape(1, dim_h))

    selections: list[tuple[int, ...]] = []
    for size in range(2, n_args + 1):
        selections.extend(itertools.combinations_with_replacement(range(m), size))
        if len(selections) > _MAX_SELECTIONS:
            selections = selections[:_MAX_SELECTIONS]
            break
    for sel in selections:
        mats = [omat[i].reshape(dim_e, dim_h) for i in sel]
        k = len(sel)
        out_moment = make_moment_evaluator(k, e, p, cfg)
        arg_moment = make_moment_evaluator(k, h, p, cfg)

        def objective(xs: np.ndarray) -> float:
            den = arg_moment(xs)
            if den <= 0:
                return 0.0
            out = np.vstack([mats[j] @ xs[j] for j in range(k)])
            return out_moment(out) / den

        extra = [np.vstack([top_vecs[i] for i in sel])]
        val, xs = optim.maximize_on_spheres(
            objective, h, k, cfg.restarts, cfg.seed, cfg.tol, extra_starts=extra
        )
        if val > best + 1e-12:
            best = val
            best_wit = SelectionWitness(tuple(sel), xs)
    if best_wit is None:
        raise AssertionError("no selection produced a finite ratio")
    upper = float(np.sum(op_norms))
    return RBoundBracket(min(best, upper), upper, best_wit, OPTIMIZED, p)


def _sphere_grid(k: int, step: float) -> np.ndarray:
    """Points covering the Euclidean unit sphere S^(k-1), spacing <= step."""
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        m = max(4, int(math.ceil(2 * math.pi / step)))
        ang = np.arange(m) * (2 * math.pi / m)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    pts = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    n_lat = max(2, int(math.ceil(math.pi / step)))
    for i in range(1, n_lat):
        phi = math.pi * i / n_lat
        ring = max(4, int(math.ceil(2 * math.pi * math.sin(phi) / step)))
        theta = np.arange(ring) * (2 * math.pi / ring)
        pts.append(
            np.column_stack(
                [
                    np.sin(phi) * np.cos(theta),
                    np.sin(phi) * np.sin(theta),
                    np.full(ring, math.cos(phi)),
                ]
            )
        )
    return np.vstack([p if p.ndim == 2 else p[None, :] for p in pts])


def rbound_certify_grid(
    vectors: list[Vector], p: float = 2.0, grid_step: float = 1e-3
) -> RBoundBracket:
    """Exhaustive grid oracle for the scalar-coefficient R-bound.

    Restricted to at most 3 members (sphere dimension <= 2).  Every grid
    point is feasible, so the reported lower bound is certified; the gap
    to the supremum over single selections of the full set is bounded by a
    Lipschitz argument and reported in ``sup_gap``.
    """
    vmat, space = _stack(vectors)
    k = len(vectors)
    if k > 3:
        raise ValueError("grid certification supports at most 3 vectors")
    member_norms = norms_of(vmat, space)
    upper = float(np.sum(member_norms))

    grid = _sphere_grid(k, grid_step)
    pats = sign_patterns(k)
    count = pats.shape[0]
    num_p = np.zeros(grid.shape[0])
    den_p = np.zeros(grid.shape[0])
    for s in pats:
        combos = (grid * s) @ vmat
        num_p += norms_of(combos, space) ** p
        den_p += np.abs(grid @ s) ** p
    num = (num_p / count) ** (1.0 / p)
    den = (den_p / count) ** (1.0 / p)
    ratio = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    i = int(np.argmax(ratio))
    value = float(ratio[i])

    # Lipschitz gap: both moments are norms of lambda in R^k, with
    # |num(a)-num(b)| <= ||a-b||_2 (sum ||y_j||^2)^(1/2) and
    # |den(a)-den(b)| <= ||a-b||_2 sqrt(k); the grid covering radius is
    # at most grid_step.
    l_num = float(np.sqrt(np.sum(member_norms**2)))
    l_den = math.sqrt(k)
    den_lb = float(np.min(den)) - l_den * grid_step
    if den_lb <= 0:
        gap = math.inf
    else:
        num_max = float(np.max(num)) + l_num * grid_step
        l_ratio = l_num / den_lb + num_max * l_den / den_lb**2
        gap = l_ratio * grid_step
    wit = SelectionWitness(tuple(range(k)), grid[i])
    return RBoundBracket(value, upper, wit, GRID_CERTIFIED, p, sup_gap=gap)
