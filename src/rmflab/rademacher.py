"""Randomized moments over sign patterns and type/cotype constant
estimation.

The p-th randomized moment of vectors x_1..x_N is
(E || sum_j eps_j x_j ||^p)^(1/p) with independent uniform signs eps_j.
N up to ``EnumConfig.exact_threshold`` is handled by exact enumeration over
sign patterns (halved by the eps -> -eps symmetry); larger N falls back to
counter-based Monte Carlo (``moment_from_matrix``).  A moment that would
write more than ``MAX_MC_SIGN_ENTRIES`` signs is refused before it writes
one (``exact_sign_entries`` and ``mc_sign_entries`` price them).  Every
average over sign patterns is one kernel, ``_table_moments``, which holds
one block of at most ``_ROW_BLOCK`` sign rows, whatever N.

Searches use no Monte Carlo value.  A moment evaluator
(``moment_evaluator``) also gives the gradient in every x_j; it is a
closed form at exponent 2 on a Hilbert space and otherwise the kernel, of
at most ``_EXACT_ROWS`` (20) vectors.  So every searched ratio is exact and
its best value is a lower bound.  Every ratio search is one
``maximize_ratio`` call, given a proved ceiling on the ratio:
``type_cotype_ceiling`` for type and cotype (n^(1-1/p) and n^(1/q)), and
``rbound``'s summability and Cauchy-Schwarz bounds for R-bounds.  A search
that meets its ceiling stops every start that can no longer win (see
``optim``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import optim
from .spaces import Space, Vector, lp_space, norms_and_grads_of, norms_of

EXACT = "exact"
MONTE_CARLO = "monte_carlo"

# sign rows per Monte Carlo draw, at most per kernel product, and about per
# line-search block of one start (ladder_rungs)
_CHUNK = 1 << 14
# desk-scale cap on the signs a moment of moment_from_matrix writes, drawn
# (mc_sign_entries) or enumerated (exact_sign_entries): 2^30, about 20 s at
# 17-20 ns a drawn sign (2-core machine); the default 100,000 samples fit up
# to 10,737 vectors, and an exact moment fits up to 26
MAX_MC_SIGN_ENTRIES = 1 << 30
# the sign table is walked 2^_ROW_BITS rows at a time: a 2^15-row product is
# memory-bound; 2^11 rows at a time took 1.5 ms against 2.0-2.1 ms per tuple
# (lp1, 16 vectors of dimension 16, on a 2-core machine)
_ROW_BITS = 11
_ROW_BLOCK = 1 << _ROW_BITS
# a search scores every sign pattern of at most this many vectors, for time:
# an R-bound search of 20 rows of lp1^3 at p = 3 (rbound --restarts 8) took
# about 18 s on a 2-core machine, and each further row doubles that
_EXACT_ROWS = 20


@dataclass(frozen=True)
class EnumConfig:
    """Knobs for sign enumeration, sampling and ratio optimization.

    ``exact_threshold`` and ``mc_samples`` steer ``moment_from_matrix``
    alone; searches always enumerate every sign pattern.
    """

    exact_threshold: int = 20
    mc_samples: int = 100_000
    seed: int = 0
    restarts: int = 32
    tol: float = 1e-9

    def __post_init__(self):
        if self.exact_threshold < 1:
            raise ValueError("exact_threshold must be >= 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be a finite number > 0")


@dataclass(frozen=True)
class MomentEstimate:
    """p-th root of a randomized moment, with provenance."""

    value: float
    mode: str
    samples: int
    stderr: float = 0.0


@dataclass(frozen=True)
class RatioEstimate:
    """Best found value of a randomized-norm ratio over exact moments, with witness tuple."""

    value: float
    mode: str
    witness: list[Vector] = field(repr=False)


def _bit_signs(index: np.ndarray, bits: int) -> np.ndarray:
    """1 - 2 * (bit j of each index) for j < ``bits``, one row per index."""
    return 1.0 - 2.0 * ((index[:, None] >> np.arange(bits)) & 1)


@lru_cache(maxsize=64)
def _sign_block(n: int) -> np.ndarray:
    """The first block of ``_sign_blocks(n)``, read-only."""
    rows = min(1 << (n - 1), _ROW_BLOCK)
    block = np.empty((rows, n))
    block[:, 0] = 1.0
    block[:, 1:] = _bit_signs(np.arange(rows), n - 1)
    block.setflags(write=False)
    return block


def _sign_blocks(n: int):
    """The table of every sign pattern of n signs, in blocks of min(2^(n-1), _ROW_BLOCK) rows.

    Row i of the table is +1 followed by 1 - 2 * (bit j of i) for j < n - 1;
    averaging over its 2^(n-1) rows equals averaging over the whole
    hypercube because the summand is symmetric under eps -> -eps.  The first
    block is cached; the others are written in turn into one copy of it,
    rewriting only the columns past bit _ROW_BITS that flip from one block
    to the next.  So a block holds only until the next one is taken.
    """
    yield _sign_block(n)
    signs = _sign_block(n).copy() if n - 1 > _ROW_BITS else None
    for b in range(1, 1 << max(0, n - 1 - _ROW_BITS)):
        # from block b - 1 to block b the bits of b ^ (b - 1) flip, two on average
        for col in range(_ROW_BITS + 1, _ROW_BITS + 1 + (b ^ (b - 1)).bit_length()):
            signs[:, col] = -signs[0, col]
        yield signs


def _stack(vectors: list[Vector]) -> tuple[np.ndarray, Space]:
    """The coordinates of a nonempty list of vectors of one space as rows, and the space."""
    if not vectors:
        raise ValueError("vector list must be nonempty")
    space = vectors[0].space
    for v in vectors[1:]:
        if v.space != space:
            raise ValueError("all vectors must live in the same space")
    return np.vstack([v.coords for v in vectors]), space


def _require_exponent(p: float) -> None:
    """Raise ``ValueError`` unless 1 <= p < inf, the exponents a moment takes."""
    if not (1 <= p < math.inf):
        raise ValueError("moment exponent must satisfy 1 <= p < inf")


def moment_from_matrix(
    vmat: np.ndarray, space: Space, p: float, cfg: EnumConfig
) -> MomentEstimate:
    """Randomized p-th moment of the rows of ``vmat`` (coords in ``space``).

    A moment whose signs ``exact_sign_entries`` (exact) or
    ``mc_sign_entries`` (Monte Carlo) prices over ``MAX_MC_SIGN_ENTRIES``
    raises ``ValueError`` before it writes any.
    """
    _require_exponent(p)
    n = vmat.shape[0]
    if n <= cfg.exact_threshold:
        if exact_sign_entries(n) > MAX_MC_SIGN_ENTRIES:
            fits = next(m for m in range(1, n) if exact_sign_entries(m + 1) > MAX_MC_SIGN_ENTRIES)
            # the count as a power of two: its decimal digits could pass Python's limit
            raise ValueError(
                f"an exact moment of {n} vectors enumerates {n} x 2^{n - 1} signs, over the cap of "
                f"{MAX_MC_SIGN_ENTRIES:,} (rademacher.MAX_MC_SIGN_ENTRIES); --exact-threshold {fits} fits"
            )
        # the kernel itself, not moment_evaluator: a Hilbert space at p = 2 enumerates too
        value = float(_table_moments(n, space, p, vmat[None])[0])
        return MomentEstimate(value, EXACT, 1 << (n - 1), 0.0)

    drawn = mc_sign_entries(n, cfg)
    if drawn > MAX_MC_SIGN_ENTRIES:
        raise ValueError(
            f"a Monte Carlo moment of {n} vectors at {cfg.mc_samples:,} samples draws {drawn:,} signs, over "
            f"the cap of {MAX_MC_SIGN_ENTRIES:,} (rademacher.MAX_MC_SIGN_ENTRIES); "
            f"--mc-samples {MAX_MC_SIGN_ENTRIES // n} fits"
        )
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    remaining = cfg.mc_samples
    s = 0.0
    ss = 0.0
    while remaining > 0:
        block = min(remaining, _CHUNK)
        signs = rng.integers(0, 2, size=(block, n)) * 2.0 - 1.0
        vals = norms_of(signs @ vmat, space) ** p
        s += float(np.sum(vals))
        ss += float(np.sum(vals * vals))
        remaining -= block
    m = s / cfg.mc_samples
    var = max(ss / cfg.mc_samples - m * m, 0.0)
    se_m = math.sqrt(var / cfg.mc_samples)
    value = m ** (1.0 / p)
    stderr = se_m / p * m ** (1.0 / p - 1.0) if m > 0 else se_m
    return MomentEstimate(value, MONTE_CARLO, cfg.mc_samples, stderr)


def rademacher_moment(vectors: list[Vector], p: float, cfg: EnumConfig) -> MomentEstimate:
    """(E || sum_j eps_j x_j ||^p)^(1/p) for the given vectors."""
    vmat, space = _stack(vectors)
    return moment_from_matrix(vmat, space, p, cfg)


def ladder_rungs(n: int) -> int:
    """Line-search rungs to score per objective call over n-vector moments.

    One rung costs the 2^(n-1) sign rows of n vectors per restart, so a
    block of ``_CHUNK >> (n - 1)`` rungs (at least one) keeps a call near
    _CHUNK rows.
    """
    return max(1, _CHUNK >> (n - 1))


def _tree_sum(parts: np.ndarray) -> np.ndarray:
    """Sum over the first axis of a (2^m, ...) stack by a balanced pairwise tree."""
    while len(parts) > 1:
        parts = parts[0::2] + parts[1::2]
    return parts[0]


def _table_moments(n: int, space: Space, p: float, vmats: np.ndarray, grad: bool = False):
    """(mean over the 2^(n-1) sign patterns s of ||s @ vmat||^p)^(1/p) per tuple.

    ``vmats`` is a (batch, n, dim) stack.  The table of sign patterns is
    never held: its blocks (``_sign_blocks``) are taken in turn.  A
    tuple's block sums are added by a balanced pairwise tree: rows come in
    powers of two, so that is the order ``np.add.reduce`` takes over the
    whole row, bit for bit.  With ``grad`` the (batch, n, dim) gradients
    come too: in x_j the moment M has M^(1-p) mean_s ||c_s||^(p-1) dN(c_s)
    s_j, summed block after block, and 0 where M = 0.
    """
    vmats = np.asarray(vmats, dtype=float)
    batch, _, dim = vmats.shape
    rows = 1 << (n - 1)
    block_rows = min(rows, _ROW_BLOCK)
    # tuples per product: as many as _CHUNK rows of the whole table hold;
    # 8 tuples to a 2^11-row block were up to 1.6x slower on lp3 (2-core machine)
    per = max(1, _CHUNK // rows)
    sums = np.empty((rows // block_rows, batch))
    grads = np.zeros(vmats.shape) if grad else None
    for b, signs in enumerate(_sign_blocks(n)):
        for lo in range(0, batch, per):
            part = vmats[lo : lo + per]
            combos = (signs @ part).reshape(-1, dim)
            if grad:
                norms, dnorms = norms_and_grads_of(combos, space)
                weighted = (norms ** (p - 1))[:, None] * dnorms
                grads[lo : lo + per] += signs.T @ weighted.reshape(part.shape[0], -1, dim)
            else:
                norms = norms_of(combos, space)
            sums[b, lo : lo + per] = np.add.reduce(norms.reshape(part.shape[0], -1) ** p, axis=1)
    moments = (_tree_sum(sums) / rows) ** (1.0 / p)
    if not grad:
        return moments
    scale = np.divide(1.0, rows * moments ** (p - 1), out=np.zeros(batch), where=moments > 0)
    return moments, grads * scale[:, None, None]


def exact_sign_entries(n: int) -> int:
    """Signs ``moment_from_matrix`` enumerates for the exact moment of n vectors: n 2^(n-1)."""
    return n << (n - 1)


def mc_sign_entries(n: int, cfg: EnumConfig) -> int:
    """Signs ``moment_from_matrix`` draws for the Monte Carlo moment of n vectors under ``cfg``."""
    return cfg.mc_samples * n


def hilbert_moment2(vmats: np.ndarray, grad: bool = False):
    """Second randomized moment of each tuple of a (batch, n, dim) stack on a Hilbert space.

    E||sum_j eps_j x_j||^2 = sum_j ||x_j||^2 with ||.|| the Euclidean norm
    of the coordinates (lp2, Schatten 2), so no sign pattern is needed.  With
    ``grad`` the gradients x / moment come too, 0 where the moment is 0.
    """
    flat = vmats.reshape(vmats.shape[0], -1)
    moments = np.sqrt(np.add.reduce(flat * flat, axis=1))
    if not grad:
        return moments
    return moments, optim.ratio_or_zero(vmats, moments[:, None, None])


def moment_evaluator(n: int, space: Space, p: float):
    """The p-th randomized moment of n-tuples, as one function ``moments(vmats, grad=False)``.

    It maps a (batch, n, dim) stack of tuples to their (batch,) moments, and
    with ``grad`` to the moments and their (batch, n, dim) gradients.  At
    p = 2 on a Hilbert space it is ``hilbert_moment2``, at every n.
    Otherwise it is ``_table_moments`` over every sign pattern, and past
    ``_EXACT_ROWS`` vectors ``ValueError`` is raised.
    """
    if p == 2 and space.is_hilbert:
        return hilbert_moment2
    if n > _EXACT_ROWS:
        raise ValueError(
            f"an exact search of {n} vectors scores 2^{n - 1} sign patterns per tuple, over the most a search "
            f"takes (rademacher._EXACT_ROWS); {_EXACT_ROWS} vectors fit"
        )
    return partial(_table_moments, n, space, p)


def maximize_ratio(
    numerator,
    denominator,
    space: Space,
    n: int,
    table_n: int,
    cfg: EnumConfig,
    ceiling,
    extra_starts=(),
    problems=1,
) -> list[tuple[float, np.ndarray]]:
    """``optim.maximize_on_spheres`` of numerator / denominator (0 where it is 0) on ``space``^n.

    Each part maps a stack of points, their problem indices and ``grad`` to
    values, and with ``grad`` to values and gradients in the points' shape.
    Starts are ``cfg.restarts`` plus ``extra_starts``; a line-search block
    is ``ladder_rungs(table_n)`` rungs.  ``ceiling`` (a float, or one per
    problem) is a proved upper bound on the ratio: a start that can no
    longer beat the winner then stops (see ``optim``), and the results
    keep their bits.
    """

    def objective(x: np.ndarray, group=0, grad=False):
        if not grad:
            return optim.ratio_or_zero(numerator(x, group, False), denominator(x, group, False))
        return optim.ratio_and_grad(*numerator(x, group, True), *denominator(x, group, True))

    return optim.maximize_on_spheres(
        objective, space, n, cfg.restarts + len(extra_starts), cfg.seed, cfg.tol,
        extra_starts, rungs_per_call=ladder_rungs(table_n), problems=problems, ceiling=ceiling,
    )


def type_cotype_ceiling(kind: str, exponent: float, n: int) -> float:
    """Upper bound on the type-p or cotype-q ratio of n vectors over exact moments.

    Type p: by the triangle inequality and Hoelder,
    (E||sum eps x||^2)^(1/2) <= sum_j ||x_j|| <= n^(1-1/p) (sum_j ||x_j||^p)^(1/p),
    so the ratio is at most n^(1-1/p).  Cotype q: eps_j x_j is the
    conditional mean of sum_k eps_k x_k given eps_j, so by Jensen (or
    Kahane's contraction principle) (E||sum eps x||^2)^(1/2) >=
    E||sum eps x|| >= max_j ||x_j||, while (sum_j ||x_j||^q)^(1/q) <=
    n^(1/q) max_j ||x_j||; the ratio is at most n^(1/q), 1 at q = inf.
    The l1 type-2 and l-infinity cotype-2 ratios reach sqrt(n) at n
    disjointly supported unit vectors.
    """
    return n ** (1.0 - 1.0 / exponent) if kind == "type" else n ** (1.0 / exponent)


def type_cotype_estimate(
    kind: str, space: Space, exponent: float, n: int, cfg: EnumConfig
) -> RatioEstimate:
    """Lower estimate of the type-p or cotype-q constant of ``space``.

    Type p compares (E||sum eps x||^2)^(1/2) against (sum ||x_j||^p)^(1/p);
    cotype q inverts the ratio, with a max-norm right side when q = inf.
    The search runs over tuples of unit vectors, where the lp sum of norms
    is constant.  On a Hilbert space the moment is a closed form and
    elsewhere it is enumerated over every sign pattern, so the value is
    exact, a true lower bound on the constant in the defining inequality.
    Off Hilbert spaces at most ``_EXACT_ROWS`` vectors are searched and
    the witness is padded to n with zero vectors, which change neither
    side of the ratio; a padded witness of more than
    ``optim.MAX_START_FLOATS`` floats raises ``ValueError`` before the
    search.  The search is given ``type_cotype_ceiling``, so once a start
    reaches it the starts after it stop.
    """
    if kind not in ("type", "cotype"):
        raise ValueError("kind must be 'type' or 'cotype'")
    if kind == "type" and not (1 <= exponent <= 2):
        raise ValueError("type exponent must lie in [1, 2]")
    if kind == "cotype" and not (2 <= exponent <= math.inf):
        raise ValueError("cotype exponent must lie in [2, inf]")
    if n < 1:
        raise ValueError("need at least one vector")

    m = n if space.is_hilbert else min(n, _EXACT_ROWS)
    # the start stack prices the m searched vectors; a padded witness is priced here
    if m < n and n * space.total_dim > optim.MAX_START_FLOATS:
        raise ValueError(
            f"a witness of {n:,} vectors of {space.total_dim} floats holds {n * space.total_dim:,} floats, over "
            f"the cap of {optim.MAX_START_FLOATS:,} (optim.MAX_START_FLOATS); "
            f"--count {optim.MAX_START_FLOATS // space.total_dim} fits"
        )
    moment2 = moment_evaluator(m, space, 2.0)
    norm_sum = lp_space(exponent, m)

    def moments(vmats: np.ndarray, group, grad):
        return moment2(vmats, grad)

    def lp_sums(vmats: np.ndarray, group, grad):
        if not grad:
            return norms_of(norms_of(vmats.reshape(-1, space.total_dim), space).reshape(-1, m), norm_sum)
        ns, dns = norms_and_grads_of(vmats.reshape(-1, space.total_dim), space)
        sums, dsums = norms_and_grads_of(ns.reshape(-1, m), norm_sum)
        return sums, dsums[:, :, None] * dns.reshape(vmats.shape)

    parts = (moments, lp_sums) if kind == "type" else (lp_sums, moments)
    [(val, x)] = maximize_ratio(*parts, space, m, m, cfg, type_cotype_ceiling(kind, exponent, m))
    padding = [Vector(np.zeros(space.total_dim), space) for _ in range(n - m)]
    return RatioEstimate(val, EXACT, [Vector(row, space) for row in x] + padding)
