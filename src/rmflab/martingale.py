"""Simple martingales on finite atomic probability spaces: transforms,
stopping times, the good-part/flat-part/rare-part decomposition at a
height, good-lambda experiments, and weak-type probes.

A simple martingale is an adapted sequence of block-constant step
functions whose conditional expectations telescope:
E(X_k | level j) = X_j for j <= k.  Level 0 is the trivial algebra, so
X_0 is the overall mean; the member indices j >= 1 are the ones entering
maximal functions, matching the convention that the mean is attached as a
level-0 constant.

Generated martingales take every level's conditional expectation from one
bincount per range coordinate over level-offset block labels.  The
decomposition runs on a martingale's (levels, atoms, dim) value stack:
:func:`gundy_heights` decides the Haar kind and takes the level norms and
predictable jump norms once, then each height is an argmax over the level
axis and one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filtration import (
    AtomicMeasureSpace,
    Filtration,
    StepFunction,
    conditional_expectation,
    dyadic_grid,
    is_standard_haar,
    random_haar_filtration,
)
from .rademacher import EnumConfig
from .rbound import HILBERT_EXACT, _lower_side_by_side, atomwise_rbound
from .spaces import Space, Vector, dual_exponent, norms_of

INF_TIME = np.iinfo(np.int64).max

_MARTINGALE_TOL = 1e-9


@dataclass(frozen=True)
class SimpleMartingale:
    """Adapted sequence with the conditional-expectation property.

    The constructor checks the shape only: one level per filtration level,
    a shared base and range space, and a probability base.  The property
    itself is checked by :func:`validate_martingale` where levels enter
    from outside (:func:`martingale_from_json`); the constructions here
    are martingales by construction and are not checked again.
    """

    filtration: Filtration
    levels: tuple[StepFunction, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        filt = self.filtration
        if len(levels) != len(filt.levels):
            raise ValueError("need one step function per filtration level")
        base = filt.space
        if abs(base.total_mass - 1.0) > 1e-9:
            raise ValueError("martingales require a probability space")
        space = levels[0].space
        for x in levels:
            if x.base != base or x.space != space:
                raise ValueError("levels must share the base and range space")

    @property
    def space(self) -> Space:
        return self.levels[0].space

    @property
    def base(self) -> AtomicMeasureSpace:
        return self.filtration.space

    @property
    def n_steps(self) -> int:
        return len(self.levels) - 1

    def values_stack(self) -> np.ndarray:
        return np.stack([x.values for x in self.levels])

    def differences(self) -> np.ndarray:
        """D_j = X_j - X_{j-1} as an array (n_steps, atoms, dim)."""
        stack = self.values_stack()
        return stack[1:] - stack[:-1]

    def lp_bound(self, p: float) -> float:
        """sup_j (E ||X_j||^p)^(1/p); the essential sup norm when p = inf."""
        return _lp_bound_of(self.base.masses, np.stack([x.atom_norms() for x in self.levels]), p)


def _lp_bound_of(masses: np.ndarray, norms: np.ndarray, p: float) -> float:
    """:meth:`SimpleMartingale.lp_bound` from the (levels, atoms) atom norms."""
    if p == math.inf:
        return float(np.max(norms))
    return float(np.max(np.sum(masses[None, :] * norms**p, axis=1)) ** (1.0 / p))


def validate_martingale(x: SimpleMartingale) -> None:
    """Raise unless each level is measurable at its own level and
    E(X_{j+1} | level j) = X_j; run it on a hand-built martingale."""
    filt, levels = x.filtration, x.levels
    for j, lvl in enumerate(levels):
        ce = conditional_expectation(lvl, filt.levels[j])
        if not np.allclose(ce.values, lvl.values, atol=_MARTINGALE_TOL):
            raise ValueError(f"level {j} is not measurable at its level")
    for j in range(len(levels) - 1):
        ce = conditional_expectation(levels[j + 1], filt.levels[j])
        if not np.allclose(ce.values, levels[j].values, atol=_MARTINGALE_TOL):
            raise ValueError(f"martingale property fails between {j} and {j + 1}")


def _level_slots(labels: np.ndarray) -> np.ndarray:
    """Block b of row j of a (levels, atoms) label matrix as slot
    j * atoms + b: one labelling of every row's blocks, flattened."""
    n_levels, n_atoms = labels.shape
    return (labels + n_atoms * np.arange(n_levels)[:, None]).ravel()


def from_function(f: StepFunction, filt: Filtration) -> SimpleMartingale:
    """Martingale of conditional expectations X_j = E_j f.

    A base of total mass other than one is normalized first (conditional
    expectations are scale-invariant, so the level values are unchanged).
    One bincount per range coordinate over :func:`_level_slots` sums every
    level's blocks, each in atom order as :func:`conditional_expectation`
    sums them, and one more sums the block masses.
    """
    base = filt.space
    if abs(base.total_mass - 1.0) > 1e-12:
        base = base.normalized()
        filt = Filtration(filt.labels, base)
        f = StepFunction(f.values, f.space, base)
    n_levels, n_atoms = filt.labels.shape
    slots = _level_slots(filt.labels)

    def slot_sums(weights: np.ndarray) -> np.ndarray:
        return np.bincount(slots, weights=np.tile(weights, n_levels))[slots]

    weighted = base.masses[:, None] * f.values
    sums = np.stack([slot_sums(w) for w in weighted.T], axis=1)
    stack = (sums / slot_sums(base.masses)[:, None]).reshape(n_levels, n_atoms, -1)
    return SimpleMartingale(filt, tuple(StepFunction(v, f.space, base) for v in stack))


def random_haar_martingale(
    space: Space,
    grid_exponent: int,
    steps: int,
    kind: str = "standard",
    seed: int = 0,
    scale: float = 1.0,
) -> SimpleMartingale:
    """Seeded martingale of conditional expectations of a Gaussian step
    function over a random Haar filtration on a 2^grid_exponent grid."""
    ss = np.random.SeedSequence(seed).generate_state(2)
    base = dyadic_grid(grid_exponent)
    filt = random_haar_filtration(base, steps, kind=kind, seed=int(ss[0]))
    rng = np.random.default_rng(int(ss[1]))
    f = StepFunction(
        scale * rng.standard_normal((base.n_atoms, space.total_dim)), space, base
    )
    return from_function(f, filt)


def constant_martingale(
    value: Vector, filt: Filtration
) -> SimpleMartingale:
    vals = np.tile(value.coords, (filt.space.n_atoms, 1))
    levels = tuple(
        StepFunction(vals.copy(), value.space, filt.space) for _ in filt.levels
    )
    return SimpleMartingale(filt, levels)


@dataclass(frozen=True)
class PredictableProcess:
    """Real multipliers v_j, j = 1..N, with v_j known at level j-1."""

    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "levels", tuple(np.asarray(v, dtype=float).ravel() for v in self.levels)
        )


def validate_predictable(v: PredictableProcess, filt: Filtration) -> None:
    if len(v.levels) != len(filt.levels) - 1:
        raise ValueError("need one multiplier per martingale difference")
    for j, vj in enumerate(v.levels):
        if vj.size != filt.space.n_atoms:
            raise ValueError("multiplier length must match atom count")
        if not filt.levels[j].is_measurable(vj):
            raise ValueError(f"multiplier {j + 1} is not known at level {j}")


def martingale_transform(v: PredictableProcess, x: SimpleMartingale) -> SimpleMartingale:
    """(v * X)_j = sum_{k<=j} v_k D_k; a martingale when v is predictable."""
    validate_predictable(v, x.filtration)
    diffs = x.differences()
    out = [np.zeros_like(x.levels[0].values)]
    for j in range(diffs.shape[0]):
        out.append(out[-1] + v.levels[j][:, None] * diffs[j])
    levels = tuple(
        StepFunction(vals, x.space, x.base) for vals in out
    )
    return SimpleMartingale(x.filtration, levels)


@dataclass(frozen=True)
class StoppingTime:
    """Per-atom level index in {0..N} or INF_TIME; {tau = j} is a union of
    level-j blocks."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))


def validate_stopping_time(tau: StoppingTime, filt: Filtration) -> None:
    for j, part in enumerate(filt.levels):
        if not part.is_measurable(tau.values == j):
            raise ValueError(f"{{tau = {j}}} is not measurable at level {j}")


def stopping_time_first(x: SimpleMartingale, trigger) -> StoppingTime:
    """First level j at which ``trigger(j)`` holds, INF_TIME if never.

    ``trigger(j)`` returns a boolean per atom and must be level-j
    measurable (constant on level-j blocks); this is not checked here,
    so check a time from a hand-built trigger with
    :func:`validate_stopping_time`.
    """
    n_atoms = x.base.n_atoms
    tau = np.full(n_atoms, INF_TIME, dtype=np.int64)
    for j in range(len(x.levels)):
        hit = np.asarray(trigger(j), dtype=bool)
        if hit.shape != (n_atoms,):
            raise ValueError("trigger must produce one boolean per atom")
        fresh = (tau == INF_TIME) & hit
        tau[fresh] = j
    return StoppingTime(tau)


def norm_trigger(x: SimpleMartingale, threshold: float):
    """Trigger ||X_j|| > c."""
    norms = np.stack([lvl.atom_norms() for lvl in x.levels])

    def trigger(j: int) -> np.ndarray:
        return norms[j] > threshold

    return trigger


def jump_norms(x: SimpleMartingale) -> np.ndarray:
    """||D_j|| per atom, shape (n_steps, atoms)."""
    diffs = x.differences()
    return norms_of(diffs.reshape(-1, diffs.shape[2]), x.space).reshape(diffs.shape[:2])


def predictable_jump_norms(x: SimpleMartingale, atol: float = 1e-9) -> np.ndarray:
    """Jump norms flattened to exact constants on the preceding level.

    For standard Haar martingales ||D_{j+1}|| is measurable at level j up
    to floating-point summation noise; this validates the constancy
    within ``atol`` and returns the blockwise maximum so that triggers
    built from it are exactly level-measurable.  Every level's blocks are
    one set of slots (:func:`_level_slots`).
    """
    jumps = jump_norms(x)
    slots = _level_slots(x.filtration.labels[:-1])
    hi = np.full(jumps.size, -np.inf)
    lo = np.full(jumps.size, np.inf)
    np.maximum.at(hi, slots, jumps.ravel())
    np.minimum.at(lo, slots, jumps.ravel())
    if np.any(hi - lo > atol):
        raise ValueError(
            "jump norms are not predictable; this construction is "
            "valid only for standard Haar martingales"
        )
    return hi[slots].reshape(jumps.shape)


def prefix_rbound_trigger(x: SimpleMartingale, threshold: float, cfg: EnumConfig | None = None):
    """Trigger R(X_1..X_j) > c using per-atom prefix R-bounds."""
    prefixes = prefix_rbounds(x, cfg)

    def trigger(j: int) -> np.ndarray:
        if j < 1:
            return np.zeros(x.base.n_atoms, dtype=bool)
        return prefixes[j - 1] > threshold

    return trigger


def prefix_rbounds(x: SimpleMartingale, cfg: EnumConfig | None = None) -> np.ndarray:
    """R({X_k : 1 <= k <= j}) per atom for j = 1..N, shape (n_steps, atoms).

    Exact (running maximal norm) on Hilbert ranges; otherwise searched
    lower bounds from one kernel call over every prefix, made
    nondecreasing in j: a lower bound for a prefix is one for every longer
    prefix.  The last row is therefore at least
    ``maximal_stars(x, cfg).rademacher_star``, which searches the full set
    alone, and exceeds it only by search noise.  The one-martingale case
    of :func:`family_prefix_rbounds`.
    """
    return family_prefix_rbounds([x], cfg)[0]


def family_prefix_rbounds(
    family: list[SimpleMartingale], cfg: EnumConfig | None = None
) -> list[np.ndarray]:
    """:func:`prefix_rbounds` of every member, with every prefix of every
    member on a non-Hilbert range searched in one kernel call per space.

    Atoms in one block of the last level share their whole path, so one
    atom per block is searched.  Prefix j is padded to N levels by
    repeating level j, which the kernel drops, so each atom keeps the
    bracket of its prefix alone.
    """
    if cfg is None:
        cfg = EnumConfig()
    stacks = [x.values_stack()[1:] for x in family]
    found: list = [None] * len(family)
    searched, blocks = [], {}
    for i, (x, stack) in enumerate(zip(family, stacks)):
        if stack.shape[0] == 0:
            found[i] = np.empty(stack.shape[:2])
        elif x.space.is_hilbert:
            found[i] = np.maximum.accumulate(
                np.stack([norms_of(level, x.space) for level in stack]), axis=0
            )
        else:
            searched.append(i)
            last = x.filtration.levels[-1]
            stacks[i], blocks[i] = stack[:, last.first_atoms()], last.block_of
    prefixes = [stacks[i][: j + 1] for i in searched for j in range(stacks[i].shape[0])]
    spaces = [family[i].space for i in searched for _ in range(stacks[i].shape[0])]
    lowers = iter(_lower_side_by_side(prefixes, spaces, cfg))
    for i in searched:
        levels = [next(lowers)[0] for _ in range(stacks[i].shape[0])]
        found[i] = np.maximum.accumulate(np.stack(levels), axis=0)[:, blocks[i]]
    return found


def stopped_value(x: SimpleMartingale, tau: StoppingTime) -> StepFunction:
    """X_tau = sum_j 1{tau = j} X_j, zero where tau is infinite."""
    stack = x.values_stack()
    vals = np.zeros_like(stack[0])
    finite = tau.values != INF_TIME
    idx = np.flatnonzero(finite)
    if idx.size:
        vals[idx] = stack[np.minimum(tau.values[idx], len(x.levels) - 1), idx]
    return StepFunction(vals, x.space, x.base)


def stopped_martingale(x: SimpleMartingale, tau: StoppingTime) -> SimpleMartingale:
    """The optional-stopping martingale (X_{tau and j})_j."""
    stack = x.values_stack()
    t = np.minimum(tau.values, len(x.levels) - 1)
    idx = np.arange(x.base.n_atoms)
    levels = tuple(
        StepFunction(stack[np.minimum(j, t), idx], x.space, x.base)
        for j in range(len(x.levels))
    )
    return SimpleMartingale(x.filtration, levels)


@dataclass(frozen=True)
class MartingaleStars:
    """Doob and Rademacher maximal functions of a martingale, atomwise."""

    star: np.ndarray = field(repr=False)
    rademacher_star: np.ndarray = field(repr=False)
    rademacher_star_upper: np.ndarray = field(repr=False)
    mode: str
    lp: float
    p: float


def _star_levels(x: SimpleMartingale) -> np.ndarray:
    """The levels X_j, j >= 1, whose atomwise norms and R-bound are the stars."""
    return x.values_stack()[1:] if x.n_steps >= 1 else x.values_stack()


def maximal_stars(
    x: SimpleMartingale, cfg: EnumConfig | None = None, p: float = 1.0
) -> MartingaleStars:
    """X* = sup_{j>=1} ||X_j|| and X_R* = R(X_j : j >= 1) per atom,
    together with ||X||_p."""
    if cfg is None:
        cfg = EnumConfig()
    stack = _star_levels(x)
    star = np.max(np.stack([norms_of(s, x.space) for s in stack]), axis=0)
    lower, upper, mode = atomwise_rbound(stack, x.space, cfg)
    return MartingaleStars(star, lower, upper, mode, x.lp_bound(p), p)


def subtract(x: SimpleMartingale, y: SimpleMartingale) -> SimpleMartingale:
    if x.filtration != y.filtration:
        raise ValueError("martingales live on different filtrations")
    levels = tuple(
        StepFunction(a.values - b.values, x.space, x.base)
        for a, b in zip(x.levels, y.levels)
    )
    return SimpleMartingale(x.filtration, levels)


@dataclass(frozen=True)
class GundyCertificates:
    g_l1: float
    g_sup: float
    h_variation: float
    b_positive_probability: float
    x_l1: float
    lam: float

    def within_constants(self) -> bool:
        return (
            self.g_l1 <= 4 * self.x_l1 + 1e-10
            and self.g_sup <= 2 * self.lam + 1e-10
            and self.h_variation <= 4 * self.x_l1 + 1e-10
            and self.b_positive_probability <= 3 * self.x_l1 / self.lam + 1e-10
        )


@dataclass(frozen=True)
class GundyParts:
    """Decomposition X = G + H + B at a height.

    G is uniformly small (sup norm at most twice the height) with
    controlled L1 size, H has small total jump variation (here: the mean,
    split off when it alone exceeds the height, else zero), and B
    vanishes outside an event of small probability.
    """

    g: SimpleMartingale
    h: SimpleMartingale
    b: SimpleMartingale
    lam: float
    sigma: StoppingTime | None
    certificates: GundyCertificates


@dataclass(frozen=True)
class GundyHeight:
    """The stopping time (None when the mean goes to the flat part), the
    certificates and max |G + H + B - X| of the decomposition at a height."""

    sigma: StoppingTime | None
    certificates: GundyCertificates
    reconstruction_error: float


def gundy_heights(x: SimpleMartingale, lams: list[float]) -> list[GundyHeight]:
    """Stopped-martingale decomposition X = G + H + B of a standard Haar
    martingale at each height in ``lams``.

    The stopping time sigma fires when the running norm exceeds the height
    or the next jump would (jump norms are predictable for standard Haar
    martingales, so this is a stopping time).  Up to the stop, norms stay
    below the height and each jump adds at most the height, giving
    ||G||_inf <= 2 lam with G_j = X_{min(j, sigma)}; the remainder B moves
    only after the stop, an event of probability at most
    P(X* > lam/2) <= 2 ||X||_1 / lam.  A mean larger than the height cannot
    be stopped away, so it is split off into the flat part H, whose total
    variation is just ||X_0|| <= ||X||_1, and G = 0.

    The Haar kind, the level norms, ||X||_1, ||X_0|| and the jump norms are
    taken once; each height is then an argmax over the level axis, one
    gather from the value stack, and G's norms gathered with it.  Raises
    ``AssertionError`` when a certificate is violated.  An empty ``lams``
    gives ``[]`` without the Haar check.
    """
    if any(lam <= 0 for lam in lams):
        raise ValueError("height must be positive")
    if not lams:
        return []
    if not is_standard_haar(x.filtration):
        raise ValueError(
            "decomposition requires a standard Haar martingale; reduce the "
            "filtration first (haar embedding / dyadic approximation / "
            "boolean isomorphism)"
        )
    stack = x.values_stack()
    n_levels, n_atoms, dim = stack.shape
    masses = x.base.masses
    norms = norms_of(stack.reshape(-1, dim), x.space).reshape(n_levels, n_atoms)
    x_l1 = _lp_bound_of(masses, norms, 1)
    x0 = stack[0, 0]
    n0 = float(norms_of(x0, x.space)[0])
    jumps = predictable_jump_norms(x)
    atoms = np.arange(n_atoms)
    level_index = np.arange(n_levels)[:, None]
    out = []
    for lam in lams:
        if n0 > lam:
            sigma, g, h = None, 0.0, x0
            g_l1 = g_sup = 0.0
        else:
            hit = norms > lam
            hit[:-1] |= jumps > lam
            first = np.argmax(hit, axis=0)
            fired = hit[first, atoms]
            sigma = StoppingTime(np.where(fired, first, INF_TIME))
            gather = np.minimum(level_index, np.where(fired, first, n_levels - 1))
            g, h = stack[gather, atoms], 0.0
            g_norms = norms[gather, atoms]
            g_l1, g_sup = _lp_bound_of(masses, g_norms, 1), float(np.max(g_norms))
        b = stack - (x0 if sigma is None else g)
        # B* > 0 where a level of B has a positive norm, which only a nonzero row can
        moved_level, moved_atom = np.nonzero(np.any(b != 0, axis=2))
        b_positive = np.zeros(n_atoms, dtype=bool)
        b_positive[moved_atom[norms_of(b[moved_level, moved_atom], x.space) > 0]] = True
        certs = GundyCertificates(
            g_l1=g_l1,
            g_sup=g_sup,
            h_variation=n0 if sigma is None else 0.0,
            b_positive_probability=float(np.sum(masses[b_positive])),
            x_l1=x_l1,
            lam=lam,
        )
        if not certs.within_constants():
            raise AssertionError("decomposition certificates violated")
        recon = float(np.max(np.abs(g + h + b - stack)))
        out.append(GundyHeight(sigma, certs, recon))
    return out


def gundy_decompose(x: SimpleMartingale, lam: float) -> GundyParts:
    """The decomposition of :func:`gundy_heights` at one height, with its
    parts as martingales: G = X stopped at sigma, H = 0 and B = X - G, or
    G = 0, H = X_0 and B = X - X_0 when the mean exceeds the height."""
    (height,) = gundy_heights(x, [lam])
    x0 = x.levels[0].values[0]
    zero = constant_martingale(Vector(np.zeros_like(x0), x.space), x.filtration)
    if height.sigma is None:
        g, h = zero, constant_martingale(Vector(x0, x.space), x.filtration)
        b = subtract(x, h)
    else:
        g, h = stopped_martingale(x, height.sigma), zero
        b = subtract(x, g)
    return GundyParts(g, h, b, lam, height.sigma, height.certificates)


def alpha_of(delta: float, beta: float, weak_constant: float) -> float:
    """Good-lambda factor 4 C delta / (beta - 2 delta - 1)."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if beta <= 2 * delta + 1:
        raise ValueError("need beta > 2 delta + 1")
    return 4.0 * weak_constant * delta / (beta - 2 * delta - 1)


def strong_type_constant(
    p: float, beta: float, delta: float, weak_constant: float
) -> float:
    """Strong RMF constant from the good-lambda inequality.

    beta^p C_D^p / ((1 - beta^p alpha(delta)) delta^p) with C_D the Doob
    Lp constant (the dual exponent); infinite when beta^p alpha >= 1.
    """
    alpha = alpha_of(delta, beta, weak_constant)
    if beta**p * alpha >= 1:
        return math.inf
    c_doob = dual_exponent(p)
    return beta**p * c_doob**p / ((1 - beta**p * alpha) * delta**p)


@dataclass(frozen=True)
class GoodLambdaReport:
    """Pathwise checks of the good-lambda construction at one height."""

    lam: float
    beta: float
    delta: float
    mode: str
    inclusion_violations: int
    transform_sup_slack: float
    lhs_probability: float
    rhs_probability: float
    alpha: float
    transform: SimpleMartingale


def good_lambda_experiment(
    x: SimpleMartingale,
    beta: float,
    delta: float,
    lam: float,
    cfg: EnumConfig | None = None,
    weak_constant: float = 1.0,
    prefixes: np.ndarray | None = None,
) -> GoodLambdaReport:
    """Build the two R-bound stopping times and the norm stopping time,
    transform by the predictable window between them, and check:

    (a) on { X_R* > beta lam, X* <= delta lam } the transform satisfies
        (v * X)_R* > (beta - 2 delta - 1) lam;
    (b) (v * X)* <= 4 delta lam 1{tau_1 < infinity} everywhere;
    (c) the measure inequality with factor alpha(delta).

    (b) is a pure norm identity and is asserted in every mode; (a)
    involves R-bounds on both sides, so it is asserted only in exact mode
    and reported as a diagnostic otherwise.  ``prefixes`` (from
    :func:`prefix_rbounds`) are searched when not given.  The one-item
    case of :func:`good_lambda_experiments`, which runs a grid of heights
    or martingales with one search for all of them.
    """
    if prefixes is None:
        prefixes = prefix_rbounds(x, cfg)
    return good_lambda_experiments([(x, lam, prefixes)], beta, delta, cfg, weak_constant)[0]


def good_lambda_experiments(
    items: list[tuple[SimpleMartingale, float, np.ndarray]],
    beta: float,
    delta: float,
    cfg: EnumConfig | None = None,
    weak_constant: float = 1.0,
) -> list[GoodLambdaReport]:
    """:func:`good_lambda_experiment` of every ``(x, lam, prefixes)`` item,
    with ``prefixes`` from :func:`prefix_rbounds` or
    :func:`family_prefix_rbounds`.

    The event atoms of every transform are searched in one kernel call
    per range space, side by side.
    """
    if cfg is None:
        cfg = EnumConfig()
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if beta <= 2 * delta + 1:
        raise ValueError("need beta > 2 delta + 1")
    if any(lam <= 0 for _, lam, _ in items):
        raise ValueError("height must be positive")
    # the CLI's items share one martingale per instance: check each once
    if not all(is_standard_haar(x.filtration) for x in {id(x): x for x, _, _ in items}.values()):
        raise ValueError("good-lambda experiments run on standard Haar martingales")
    windows = [_good_lambda_window(x, beta, delta, lam, pre) for x, lam, pre in items]
    t_rstars = _lower_side_by_side(
        [event_stack for _, event_stack, _, _ in windows], [x.space for x, _, _ in items], cfg
    )
    reports = []
    for (x, lam, prefixes), (transform, _, lhs_event, slack), (t_rstar, mode) in zip(
        items, windows, t_rstars
    ):
        threshold = (beta - 2 * delta - 1) * lam
        violations = int(np.sum(~(t_rstar > threshold)))
        if slack > 1e-9:
            raise AssertionError(
                f"transform sup bound violated by {slack}; the construction is broken"
            )
        if mode == HILBERT_EXACT and violations:
            raise AssertionError(f"{violations} atoms violate the exact-mode inclusion")
        masses = x.base.masses
        reports.append(
            GoodLambdaReport(
                lam=lam,
                beta=beta,
                delta=delta,
                mode=mode,
                inclusion_violations=violations,
                transform_sup_slack=slack,
                lhs_probability=float(np.sum(masses[lhs_event])),
                rhs_probability=float(np.sum(masses[prefixes[-1] > lam])),
                alpha=alpha_of(delta, beta, weak_constant),
                transform=transform,
            )
        )
    return reports


def _good_lambda_window(
    x: SimpleMartingale, beta: float, delta: float, lam: float, prefixes: np.ndarray
) -> tuple[SimpleMartingale, np.ndarray, np.ndarray, float]:
    """The transform of x by the window between the stopping times, its
    levels at the atoms of the event of (a), whose R-star (a) needs, that
    event, and the slack of (b)."""
    n = x.n_steps
    n_atoms = x.base.n_atoms

    def r_trigger(threshold):
        def trigger(j):
            if j < 1:
                return np.zeros(n_atoms, dtype=bool)
            return prefixes[j - 1] > threshold

        return trigger

    tau1 = stopping_time_first(x, r_trigger(lam))
    tau2 = stopping_time_first(x, r_trigger(beta * lam))

    norms = np.stack([lvl.atom_norms() for lvl in x.levels])
    jumps = predictable_jump_norms(x)

    def sigma_trigger(j):
        if j < 1:
            return np.zeros(n_atoms, dtype=bool)
        hit = norms[j] > delta * lam
        if j < n:
            hit = hit | (jumps[j] > 2 * delta * lam)
        return hit

    sigma = stopping_time_first(x, sigma_trigger)

    window_top = np.minimum(tau2.values, sigma.values)
    v_levels = []
    for j in range(1, n + 1):
        v_levels.append(((tau1.values < j) & (j <= window_top)).astype(float))
    v = PredictableProcess(tuple(v_levels))
    transform = martingale_transform(v, x)

    x_star = np.max(norms[1:], axis=0) if n >= 1 else norms[0]
    t_stack = transform.values_stack()[1:] if n >= 1 else transform.values_stack()
    t_star = np.max(np.stack([norms_of(s, x.space) for s in t_stack]), axis=0)
    lhs_event = (prefixes[-1] > beta * lam) & (x_star <= delta * lam)
    cap = 4 * delta * lam * (tau1.values < INF_TIME).astype(float)
    # the transform R-star is only needed on the event atoms
    return transform, t_stack[:, lhs_event], lhs_event, float(np.max(t_star - cap))


@dataclass(frozen=True)
class WeakRmfRow:
    instance: int
    l1_bound: float
    weak_ratio: float
    mode: str


@dataclass(frozen=True)
class WeakRmfReport:
    """Empirical weak-type constant sup lam P(X_R* > lam) / ||X||_1."""

    constant: float
    rows: list[WeakRmfRow]
    strong_constant: float
    p: float
    beta: float
    delta: float


def weak_ratio(x: SimpleMartingale, cfg: EnumConfig | None = None) -> tuple[float, str]:
    """sup over lam > 0 of lam P(X_R* > lam) / ||X||_1 for one martingale."""
    stars = maximal_stars(x, cfg)
    return _weak_ratio_of(x, stars.rademacher_star), stars.mode


def _weak_ratio_of(x: SimpleMartingale, rstar: np.ndarray) -> float:
    """sup over lam > 0 of lam P(X_R* > lam) / ||X||_1, given X_R*.

    The survival function is a step function, so the supremum is attained
    approaching the distinct values of X_R* from below and is computed
    exactly from the jump points.
    """
    l1 = x.lp_bound(1)
    if l1 == 0:
        raise ValueError("weak ratio of the zero martingale is undefined")
    masses = x.base.masses
    best = 0.0
    for v in np.unique(rstar):
        if v <= 0:
            continue
        best = max(best, v * float(np.sum(masses[rstar >= v])))
    return best / l1


def martingale_to_json(x: SimpleMartingale) -> dict:
    from .filtration import filtration_to_json
    from .spaces import space_to_json

    return {
        "space": space_to_json(x.space),
        "filtration": filtration_to_json(x.filtration),
        "levels": [lvl.values.tolist() for lvl in x.levels],
    }


def martingale_from_json(obj: dict) -> SimpleMartingale:
    from .filtration import filtration_from_json
    from .spaces import space_from_json

    space = space_from_json(obj["space"])
    filt = filtration_from_json(obj["filtration"])
    levels = tuple(
        StepFunction(np.asarray(vals, dtype=float), space, filt.space)
        for vals in obj["levels"]
    )
    x = SimpleMartingale(filt, levels)
    validate_martingale(x)
    return x


def weak_rmf_probe(
    martingales: list[SimpleMartingale],
    cfg: EnumConfig | None = None,
    p: float = 2.0,
    beta: float = 4.0,
    delta: float = 0.01,
) -> WeakRmfReport:
    """Empirical weak-RMF constant over a family, plus the strong-type
    constant the good-lambda argument would give for that constant.

    The martingales of one space take their stars X_R* from one kernel
    call, with their atoms side by side."""
    if cfg is None:
        cfg = EnumConfig()
    stars = _lower_side_by_side(
        [_star_levels(x) for x in martingales], [x.space for x in martingales], cfg
    )
    rows = []
    best = 0.0
    for i, (x, (rstar, mode)) in enumerate(zip(martingales, stars)):
        ratio = _weak_ratio_of(x, rstar)
        rows.append(WeakRmfRow(i, x.lp_bound(1), ratio, mode))
        best = max(best, ratio)
    strong = strong_type_constant(p, beta, delta, best) if martingales else math.inf
    return WeakRmfReport(best, rows, strong, p, beta, delta)
