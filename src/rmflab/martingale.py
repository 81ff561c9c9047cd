"""Simple martingales on finite atomic probability spaces: transforms,
stopping times, the good-part/flat-part/rare-part decomposition at a
height, good-lambda experiments, and weak-type probes.

A simple martingale is an adapted sequence of block-constant step
functions whose conditional expectations telescope:
E(X_k | level j) = X_j for j <= k.  Level 0 is the trivial algebra, so
X_0 is the overall mean; the member indices j >= 1 are the ones entering
maximal functions, matching the convention that the mean is attached as a
level-0 constant.
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
    is_standard_haar,
    random_haar_filtration,
)
from .rademacher import EnumConfig
from .rbound import HILBERT_EXACT, atomwise_rbound
from .spaces import Space, Vector, dual_exponent, norms_of

INF_TIME = np.iinfo(np.int64).max

_MARTINGALE_TOL = 1e-9


@dataclass(frozen=True)
class SimpleMartingale:
    """Adapted sequence with the conditional-expectation property."""

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
        for j, x in enumerate(levels):
            if x.base != base or x.space != space:
                raise ValueError("levels must share the base and range space")
            ce = conditional_expectation(x, filt.levels[j])
            if not np.allclose(ce.values, x.values, atol=_MARTINGALE_TOL):
                raise ValueError(f"level {j} is not measurable at its level")
        for j in range(len(levels) - 1):
            ce = conditional_expectation(levels[j + 1], filt.levels[j])
            if not np.allclose(ce.values, levels[j].values, atol=_MARTINGALE_TOL):
                raise ValueError(f"martingale property fails between {j} and {j + 1}")

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
        masses = self.base.masses
        norms = np.stack([x.atom_norms() for x in self.levels])
        if p == math.inf:
            return float(np.max(norms))
        return float(np.max(np.sum(masses[None, :] * norms**p, axis=1)) ** (1.0 / p))


def from_function(f: StepFunction, filt: Filtration) -> SimpleMartingale:
    """Martingale of conditional expectations X_j = E_j f.

    A base of total mass other than one is normalized first (conditional
    expectations are scale-invariant, so the level values are unchanged).
    """
    base = filt.space
    if abs(base.total_mass - 1.0) > 1e-12:
        base = base.normalized()
        filt = Filtration(tuple(type(p)(p.block_of, base) for p in filt.levels))
        f = StepFunction(f.values, f.space, base)
    levels = tuple(conditional_expectation(f, p) for p in filt.levels)
    return SimpleMartingale(filt, levels)


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
    base = AtomicMeasureSpace(np.full(1 << grid_exponent, 2.0**-grid_exponent))
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
        prev = filt.levels[j]
        for atoms in prev.blocks():
            if np.any(vj[atoms] != vj[atoms[0]]):
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
        hit = tau.values == j
        for atoms in part.blocks():
            vals = hit[atoms]
            if np.any(vals != vals[0]):
                raise ValueError(f"{{tau = {j}}} is not measurable at level {j}")


def stopping_time_first(
    x: SimpleMartingale, trigger, validate: bool = True
) -> StoppingTime:
    """First level j at which ``trigger(j)`` holds, INF_TIME if never.

    ``trigger(j)`` returns a boolean per atom and must be level-j
    measurable (constant on level-j blocks); this is validated unless
    switched off.
    """
    n_atoms = x.base.n_atoms
    tau = np.full(n_atoms, INF_TIME, dtype=np.int64)
    for j in range(len(x.levels)):
        hit = np.asarray(trigger(j), dtype=bool)
        if hit.shape != (n_atoms,):
            raise ValueError("trigger must produce one boolean per atom")
        if validate:
            for atoms in x.filtration.levels[j].blocks():
                if np.any(hit[atoms] != hit[atoms[0]]):
                    raise ValueError(f"trigger at level {j} is not level-measurable")
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
    return np.stack([norms_of(d, x.space) for d in x.differences()])


def predictable_jump_norms(x: SimpleMartingale, atol: float = 1e-9) -> np.ndarray:
    """Jump norms flattened to exact constants on the preceding level.

    For standard Haar martingales ||D_{j+1}|| is measurable at level j up
    to floating-point summation noise; this validates the constancy
    within ``atol`` and returns the blockwise maximum so that triggers
    built from it are exactly level-measurable.
    """
    jumps = jump_norms(x)
    out = np.empty_like(jumps)
    for j in range(jumps.shape[0]):
        for atoms in x.filtration.levels[j].blocks():
            vals = jumps[j][atoms]
            if float(np.max(vals) - np.min(vals)) > atol:
                raise ValueError(
                    "jump norms are not predictable; this construction is "
                    "valid only for standard Haar martingales"
                )
            out[j][atoms] = np.max(vals)
    return out


def norm_or_next_jump_trigger(
    x: SimpleMartingale, threshold: float, jump_threshold: float
):
    """Trigger ||X_j|| > c or ||D_{j+1}|| > c'.

    Valid only when the jump norms are predictable (constant on the
    preceding level's blocks), which holds for standard Haar martingales;
    validated here.
    """
    norms = np.stack([lvl.atom_norms() for lvl in x.levels])
    jumps = predictable_jump_norms(x)

    def trigger(j: int) -> np.ndarray:
        hit = norms[j] > threshold
        if j < jumps.shape[0]:
            hit = hit | (jumps[j] > jump_threshold)
        return hit

    return trigger


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
    lower bounds over the prefix chain.
    """
    if cfg is None:
        cfg = EnumConfig()
    stack = x.values_stack()[1:]
    out = np.empty(stack.shape[:2])
    for j in range(stack.shape[0]):
        out[j] = atomwise_rbound(stack[: j + 1], x.space, cfg)[0]
    return out


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


def maximal_stars(
    x: SimpleMartingale, cfg: EnumConfig | None = None, p: float = 1.0
) -> MartingaleStars:
    """X* = sup_{j>=1} ||X_j|| and X_R* = R(X_j : j >= 1) per atom,
    together with ||X||_p."""
    if cfg is None:
        cfg = EnumConfig()
    stack = x.values_stack()[1:] if x.n_steps >= 1 else x.values_stack()
    star = np.max(np.stack([norms_of(s, x.space) for s in stack]), axis=0)
    lower, upper, mode = atomwise_rbound(stack, x.space, cfg)
    return MartingaleStars(star, lower, upper, mode, x.lp_bound(p), p)


def _shift_levels(x: SimpleMartingale, constant: np.ndarray) -> SimpleMartingale:
    levels = tuple(
        StepFunction(lvl.values - constant[None, :], x.space, x.base)
        for lvl in x.levels
    )
    return SimpleMartingale(x.filtration, levels)


def _zero_martingale(x: SimpleMartingale) -> SimpleMartingale:
    z = np.zeros_like(x.levels[0].values)
    levels = tuple(StepFunction(z.copy(), x.space, x.base) for _ in x.levels)
    return SimpleMartingale(x.filtration, levels)


def subtract(x: SimpleMartingale, y: SimpleMartingale) -> SimpleMartingale:
    if x.filtration is not y.filtration and x.filtration.levels != y.filtration.levels:
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


def gundy_decompose(x: SimpleMartingale, lam: float) -> GundyParts:
    """Stopped-martingale decomposition for standard Haar martingales.

    The stopping time fires when the running norm exceeds the height or
    the next jump would (jump norms are predictable for standard Haar
    martingales, so this is a stopping time).  Up to the stop, norms stay
    below the height and each jump adds at most the height, giving
    ||G||_inf <= 2 lam; the remainder B moves only after the stop, an
    event of probability at most P(X* > lam/2) <= 2 ||X||_1 / lam.  A mean
    larger than the height cannot be stopped away, so it is split off
    into the flat part H, whose total variation is just ||X_0|| <= ||X||_1.
    """
    if lam <= 0:
        raise ValueError("height must be positive")
    if not is_standard_haar(x.filtration):
        raise ValueError(
            "decomposition requires a standard Haar martingale; reduce the "
            "filtration first (haar embedding / dyadic approximation / "
            "boolean isomorphism)"
        )
    x_l1 = x.lp_bound(1)
    x0 = x.levels[0].values[0]
    n0 = float(norms_of(x0, x.space)[0])

    if n0 > lam:
        h = constant_martingale(Vector(x0, x.space), x.filtration)
        g = _zero_martingale(x)
        b = _shift_levels(x, x0)
        sigma = None
        b_star = np.max(np.stack([lvl.atom_norms() for lvl in b.levels]), axis=0)
        certs = GundyCertificates(
            g_l1=0.0,
            g_sup=0.0,
            h_variation=n0,
            b_positive_probability=float(np.sum(x.base.masses[b_star > 0])),
            x_l1=x_l1,
            lam=lam,
        )
    else:
        trigger = norm_or_next_jump_trigger(x, lam, lam)
        sigma = stopping_time_first(x, trigger, validate=False)
        g = stopped_martingale(x, sigma)
        h = _zero_martingale(x)
        b = subtract(x, g)
        b_star = np.max(np.stack([lvl.atom_norms() for lvl in b.levels]), axis=0)
        certs = GundyCertificates(
            g_l1=g.lp_bound(1),
            g_sup=g.lp_bound(math.inf),
            h_variation=0.0,
            b_positive_probability=float(np.sum(x.base.masses[b_star > 0])),
            x_l1=x_l1,
            lam=lam,
        )
    if not certs.within_constants():
        raise AssertionError("decomposition certificates violated")
    return GundyParts(g, h, b, lam, sigma, certs)


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

    @property
    def measure_inequality_holds(self) -> bool:
        return self.lhs_probability <= self.alpha * self.rhs_probability + 1e-12


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
    and reported as a diagnostic otherwise.  When running a grid of
    heights over one martingale, pass ``prefixes`` (from
    :func:`prefix_rbounds`) to avoid re-searching per-atom R-bounds.
    """
    if cfg is None:
        cfg = EnumConfig()
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if beta <= 2 * delta + 1:
        raise ValueError("need beta > 2 delta + 1")
    if lam <= 0:
        raise ValueError("height must be positive")
    if not is_standard_haar(x.filtration):
        raise ValueError("good-lambda experiments run on standard Haar martingales")

    if prefixes is None:
        prefixes = prefix_rbounds(x, cfg)
    n = x.n_steps
    n_atoms = x.base.n_atoms

    def r_trigger(threshold):
        def trigger(j):
            if j < 1:
                return np.zeros(n_atoms, dtype=bool)
            return prefixes[j - 1] > threshold

        return trigger

    tau1 = stopping_time_first(x, r_trigger(lam), validate=False)
    tau2 = stopping_time_first(x, r_trigger(beta * lam), validate=False)

    norms = np.stack([lvl.atom_norms() for lvl in x.levels])
    jumps = predictable_jump_norms(x)

    def sigma_trigger(j):
        if j < 1:
            return np.zeros(n_atoms, dtype=bool)
        hit = norms[j] > delta * lam
        if j < n:
            hit = hit | (jumps[j] > 2 * delta * lam)
        return hit

    sigma = stopping_time_first(x, sigma_trigger, validate=False)

    window_top = np.minimum(tau2.values, sigma.values)
    v_levels = []
    for j in range(1, n + 1):
        v_levels.append(((tau1.values < j) & (j <= window_top)).astype(float))
    v = PredictableProcess(tuple(v_levels))
    transform = martingale_transform(v, x)

    x_star = np.max(norms[1:], axis=0) if n >= 1 else norms[0]
    x_rstar = prefixes[-1]
    t_stack = transform.values_stack()[1:] if n >= 1 else transform.values_stack()
    t_star = np.max(np.stack([norms_of(s, x.space) for s in t_stack]), axis=0)

    lhs_event = (x_rstar > beta * lam) & (x_star <= delta * lam)
    threshold = (beta - 2 * delta - 1) * lam
    # the transform R-star is only needed on the event atoms
    t_rstar, _, mode = atomwise_rbound(t_stack, x.space, cfg, atoms=np.flatnonzero(lhs_event))
    violations = int(np.sum(lhs_event & ~(t_rstar > threshold)))

    cap = 4 * delta * lam * (tau1.values < INF_TIME).astype(float)
    slack = float(np.max(t_star - cap))
    if slack > 1e-9:
        raise AssertionError(
            f"transform sup bound violated by {slack}; the construction is broken"
        )
    if mode == HILBERT_EXACT and violations:
        raise AssertionError(f"{violations} atoms violate the exact-mode inclusion")

    masses = x.base.masses
    lhs_probability = float(np.sum(masses[lhs_event]))
    rhs_probability = float(np.sum(masses[x_rstar > lam]))
    return GoodLambdaReport(
        lam=lam,
        beta=beta,
        delta=delta,
        mode=mode,
        inclusion_violations=violations,
        transform_sup_slack=slack,
        lhs_probability=lhs_probability,
        rhs_probability=rhs_probability,
        alpha=alpha_of(delta, beta, weak_constant),
        transform=transform,
    )


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
    """sup over lam > 0 of lam P(X_R* > lam) / ||X||_1 for one martingale.

    The survival function is a step function, so the supremum is attained
    approaching the distinct values of X_R* from below and is computed
    exactly from the jump points.
    """
    stars = maximal_stars(x, cfg)
    l1 = x.lp_bound(1)
    if l1 == 0:
        raise ValueError("weak ratio of the zero martingale is undefined")
    masses = x.base.masses
    best = 0.0
    for v in np.unique(stars.rademacher_star):
        if v <= 0:
            continue
        best = max(best, v * float(np.sum(masses[stars.rademacher_star >= v])))
    return best / l1, stars.mode


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
    return SimpleMartingale(filt, levels)


def weak_rmf_probe(
    martingales: list[SimpleMartingale],
    cfg: EnumConfig | None = None,
    p: float = 2.0,
    beta: float = 4.0,
    delta: float = 0.01,
) -> WeakRmfReport:
    """Empirical weak-RMF constant over a family, plus the strong-type
    constant the good-lambda argument would give for that constant."""
    if cfg is None:
        cfg = EnumConfig()
    rows = []
    best = 0.0
    for i, x in enumerate(martingales):
        ratio, mode = weak_ratio(x, cfg)
        rows.append(WeakRmfRow(i, x.lp_bound(1), ratio, mode))
        best = max(best, ratio)
    strong = strong_type_constant(p, beta, delta, best) if martingales else math.inf
    return WeakRmfReport(best, rows, strong, p, beta, delta)
