"""Randomized moments over sign patterns and type/cotype constant
estimation.

The p-th randomized moment of vectors x_1..x_N is
(E || sum_j eps_j x_j ||^p)^(1/p) with independent uniform signs eps_j.
N up to ``EnumConfig.exact_threshold`` is handled by exact enumeration over
sign patterns (halved by the eps -> -eps symmetry); larger N falls back to
counter-based Monte Carlo (``moment_from_matrix``).
A sign table is copied in blocks from a small head, not computed entry by
entry (see ``sign_patterns``), and the exact moment of N > 15 vectors
walks it in aligned 2^14-row chunks of one buffer, rewriting only the
columns past bit 14 per chunk: the sign patterns cost a copy, and the
products and norms of the 2^(N-1) combinations are the work.  A Monte
Carlo moment that would draw over ``MAX_MC_SIGN_ENTRIES`` signs is
refused before it draws one (``mc_sign_entries`` prices it).

Searches use no Monte Carlo value.  A moment evaluator
(``moment_evaluator``) also gives the gradient in every x_j; it is a
closed form at exponent 2 on a Hilbert space and otherwise the table of
every sign pattern, of at most ``_EXACT_ROWS`` (20) vectors, the most
of which the two tables an R-bound search holds fit under
``MAX_SIGN_TABLE_BYTES`` (``sign_table_bytes`` prices one).  So every
searched ratio is exact and its best value is a lower bound.  Every
ratio search is one ``maximize_ratio`` call, given a proved ceiling on
the ratio: ``type_cotype_ceiling`` for type and cotype (n^(1-1/p) and
n^(1/q)), and ``rbound``'s summability and Cauchy-Schwarz bounds for
R-bounds.  A search that meets its ceiling
stops every start that can no longer win (see ``optim``).
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

# the exact moment sums the sign table in aligned chunks of 2^_CHUNK_BITS rows
_CHUNK_BITS = 14
_CHUNK = 1 << _CHUNK_BITS
# a sign table is copied from its first 2^_HEAD_BITS rows (all of them when shorter)
_HEAD_BITS = 10
# desk-scale cap on the sign tables a search holds (sign_table_bytes prices
# one): 256 MiB, above the two 80 MiB tables of 20 vectors (_EXACT_ROWS)
MAX_SIGN_TABLE_BYTES = 1 << 28
# desk-scale cap on the signs the Monte Carlo moment draws (mc_sign_entries):
# 2^30, about 20 s at 17-20 ns a sign (2-core machine); the default 100,000
# samples fit up to 10,737 vectors
MAX_MC_SIGN_ENTRIES = 1 << 30
# sign-table rows multiplied at a time once a table has twice as many: a
# 2^15-row product is memory-bound; 2^11 rows at a time took 1.5 ms against
# 2.0-2.1 ms per tuple (lp1, 16 vectors of dimension 16, on a 2-core machine)
_ROW_BLOCK = 1 << 11


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


@lru_cache(maxsize=32)
def _full_patterns(n: int) -> np.ndarray:
    pats = _pattern_rows(n, 0, 1 << (n - 1))
    pats.setflags(write=False)
    return pats


def _bit_signs(index: np.ndarray, bits: int) -> np.ndarray:
    """1 - 2 * (bit j of each index) for j < ``bits``, one row per index."""
    return 1.0 - 2.0 * ((index[:, None] >> np.arange(bits)) & 1)


def _pattern_rows(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo`` to ``hi`` of the sign table, from the blocks they touch."""
    b = min(_HEAD_BITS, n - 1)
    first, last = lo >> b, -(-hi >> b)
    blocks = np.empty((last - first, 1 << b, n))
    blocks[:, :, 0] = 1.0
    blocks[:, :, 1 : b + 1] = _bit_signs(np.arange(1 << b), b)
    blocks[:, :, b + 1 :] = _bit_signs(np.arange(first, last), n - 1 - b)[:, None, :]
    start = lo - (first << b)
    return blocks.reshape(-1, n)[start : start + hi - lo]


def sign_patterns(n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Sign patterns of length n with the first sign fixed to +1.

    Rows ``lo`` to ``hi`` of the full (2^(n-1), n) table, whose row i is
    +1 followed by 1 - 2 * (bit j of i) for j < n - 1; averaging over the
    table equals averaging over the whole hypercube because the summand is
    symmetric under eps -> -eps.  So, with a head of the first 2^b rows
    (b = min(10, n - 1)), columns 1..b repeat the head every 2^b rows and
    every later column is constant on each 2^b-row block: bit arithmetic
    runs on the head and on one row per block, and the rest is block
    copies.  Requires 0 <= lo <= hi; ``hi`` beyond the table is clamped to
    its end.  Full tables for n <= 15 are cached read-only; no other table
    is kept.
    """
    if n < 1:
        raise ValueError("need at least one sign")
    m = 1 << (n - 1)
    if hi is None:
        hi = m
    if not 0 <= lo <= hi:
        raise ValueError(f"sign-table rows need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    lo, hi = min(lo, m), min(hi, m)
    if lo == 0 and hi == m and n <= 15:
        return _full_patterns(n)
    return _pattern_rows(n, lo, hi)


def _stack(vectors: list[Vector]) -> tuple[np.ndarray, Space]:
    """The coordinates of a nonempty list of vectors of one space as rows, and the space."""
    if not vectors:
        raise ValueError("vector list must be nonempty")
    space = vectors[0].space
    for v in vectors[1:]:
        if v.space != space:
            raise ValueError("all vectors must live in the same space")
    return np.vstack([v.coords for v in vectors]), space


def moment_from_matrix(
    vmat: np.ndarray, space: Space, p: float, cfg: EnumConfig
) -> MomentEstimate:
    """Randomized p-th moment of the rows of ``vmat`` (coords in ``space``).

    A Monte Carlo moment whose signs ``mc_sign_entries`` prices over
    ``MAX_MC_SIGN_ENTRIES`` raises ``ValueError`` before it draws any.
    """
    if not (1 <= p < math.inf):
        raise ValueError("moment exponent must satisfy 1 <= p < inf")
    n = vmat.shape[0]
    if n <= cfg.exact_threshold:
        total = 0.0
        count = 1 << (n - 1)
        # the cached table for n <= 15; past that, one buffer whose columns past
        # bit 14 are rewritten per chunk, the only columns in which chunks differ
        pats = sign_patterns(n, 0, _CHUNK)
        for lo in range(0, count, _CHUNK):
            if lo:
                pats[:, _CHUNK_BITS + 1 :] = _bit_signs(np.array([lo >> _CHUNK_BITS]), n - 1 - _CHUNK_BITS)
            combos = pats @ vmat
            total += float(np.sum(norms_of(combos, space) ** p))
        return MomentEstimate((total / count) ** (1.0 / p), EXACT, count, 0.0)

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


def sign_table_bytes(n: int) -> int:
    """Bytes of the float64 table of every sign pattern of n signs (``moment_evaluator``)."""
    return 8 * n << (n - 1)


# a search scores every sign pattern of at most this many vectors: the most
# of which two tables fit under the cap, 20, since an R-bound search off
# p = 2 holds one for its vector and one for its scalar moments
_EXACT_ROWS = max(n for n in range(1, 64) if 2 * sign_table_bytes(n) <= MAX_SIGN_TABLE_BYTES)


def ladder_rungs(n: int) -> int:
    """Line-search rungs to score per objective call over n-vector moments.

    One rung costs one sign table of 2^(n-1) rows per restart, so a block
    of ``_CHUNK >> (n - 1)`` rungs (at least one) keeps a call near one
    chunk.
    """
    return max(1, _CHUNK >> (n - 1))


def _table_moments(table: np.ndarray, space: Space, p: float, vmats: np.ndarray, grad: bool = False):
    """(mean over the table's rows of ||sign row @ vmat||^p)^(1/p) per tuple.

    ``vmats`` is a (batch, n, dim) stack; tuples are taken in chunks so no
    product holds more than max(P, _CHUNK) sign-pattern rows, and a table
    of at least 2 * _ROW_BLOCK rows is multiplied _ROW_BLOCK rows at a time.
    With ``grad`` the (batch, n, dim) gradients come too: in x_j the moment
    M has M^(1-p) mean_s ||c_s||^(p-1) dN(c_s) s_j, summed over the same row
    blocks, and 0 where M = 0.
    """
    vmats = np.asarray(vmats, dtype=float)
    batch, _, dim = vmats.shape
    rows = table.shape[0]
    per = max(1, _CHUNK // rows)
    block_rows = _ROW_BLOCK if rows >= 2 * _ROW_BLOCK else rows
    moments = np.empty(batch)
    grads = np.zeros(vmats.shape) if grad else None
    for lo in range(0, batch, per):
        block = vmats[lo : lo + per]
        parts = []
        for r in range(0, rows, block_rows):
            signs = table[r : r + block_rows]
            combos = (signs @ block).reshape(-1, dim)
            if grad:
                norms, dnorms = norms_and_grads_of(combos, space)
                weighted = (norms ** (p - 1))[:, None] * dnorms
                grads[lo : lo + per] += signs.T @ weighted.reshape(block.shape[0], -1, dim)
            else:
                norms = norms_of(combos, space)
            parts.append(norms.reshape(block.shape[0], -1))
        # a table of one row block (under 2 * _ROW_BLOCK rows) uses its norms as they come
        vals = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        # the sum over the table divided by its length is np.mean, bit for bit
        moments[lo : lo + per] = (np.add.reduce(vals**p, axis=1) / rows) ** (1.0 / p)
    if not grad:
        return moments
    scale = np.divide(1.0, rows * moments ** (p - 1), out=np.zeros(batch), where=moments > 0)
    return moments, grads * scale[:, None, None]


def mc_sign_entries(n: int, cfg: EnumConfig) -> int:
    """Signs ``moment_from_matrix`` draws for the Monte Carlo moment of n vectors under ``cfg``."""
    return cfg.mc_samples * n


def _over_cap_message(n: int) -> str:
    """Why a moment evaluator of n vectors is refused."""
    return (
        f"an exact search of {n} vectors holds two sign tables of 2^{n - 1} rows of {n} signs, over the cap "
        f"of {MAX_SIGN_TABLE_BYTES >> 20} MiB (rademacher.MAX_SIGN_TABLE_BYTES = {MAX_SIGN_TABLE_BYTES}); "
        f"{_EXACT_ROWS} vectors fit"
    )


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
    Otherwise it averages over the table of every sign pattern, built here;
    past ``_EXACT_ROWS`` vectors the two tables of an R-bound search would
    pass ``MAX_SIGN_TABLE_BYTES``, and ``ValueError`` is raised before
    anything is allocated.
    """
    if p == 2 and space.is_hilbert:
        return hilbert_moment2
    if n > _EXACT_ROWS:
        raise ValueError(_over_cap_message(n))
    return partial(_table_moments, sign_patterns(n), space, p)


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
