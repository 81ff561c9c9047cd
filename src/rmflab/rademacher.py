"""Randomized moments over sign patterns, Khintchine-Kahane ratios, and
type/cotype constant estimation.

The p-th randomized moment of vectors x_1..x_N is
(E || sum_j eps_j x_j ||^p)^(1/p) with independent uniform signs eps_j.
Small N is handled by exact enumeration over sign patterns (halved by the
eps -> -eps symmetry); larger N falls back to counter-based Monte Carlo.
The evaluators that optimizers call also give the gradient in every x_j,
and at exponent 2 on a Hilbert space the moment has a closed form.
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

_CHUNK = 1 << 14
# rows of the frozen Monte Carlo sign table of a moment evaluator, at most
_MC_TABLE = 1 << 15
# sign-table rows multiplied at a time once a table has twice as many: a
# 2^15-row product is memory-bound; 2^11 rows at a time took 1.5 ms against
# 2.0-2.1 ms per tuple (lp1, 16 vectors of dimension 16, on a 2-core machine)
_ROW_BLOCK = 1 << 11


@dataclass(frozen=True)
class EnumConfig:
    """Knobs for sign enumeration, sampling and ratio optimization."""

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


@dataclass(frozen=True)
class MomentEstimate:
    """p-th root of a randomized moment, with provenance."""

    value: float
    mode: str
    samples: int
    stderr: float = 0.0


@dataclass(frozen=True)
class RatioEstimate:
    """Best found value of a randomized-norm ratio, with witness tuple."""

    value: float
    witness: list[Vector] = field(repr=False)


@lru_cache(maxsize=32)
def _full_patterns(n: int) -> np.ndarray:
    pats = _pattern_rows(n, 0, 1 << (n - 1))
    pats.setflags(write=False)
    return pats


def _pattern_rows(n: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.uint64)[:, None]
    bits = (idx >> np.arange(n - 1, dtype=np.uint64)[None, :]) & 1
    pats = np.empty((idx.shape[0], n))
    pats[:, 0] = 1.0
    pats[:, 1:] = 1.0 - 2.0 * bits
    return pats


def sign_patterns(n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Sign patterns of length n with the first sign fixed to +1.

    Rows ``lo`` to ``hi`` of the full (2^(n-1), n) table; averaging over
    the table equals averaging over the whole hypercube because the
    summand is symmetric under eps -> -eps.  Full tables for small n are
    cached read-only.
    """
    if n < 1:
        raise ValueError("need at least one sign")
    m = 1 << (n - 1)
    hi = m if hi is None else min(hi, m)
    if lo == 0 and hi == m and n <= 15:
        return _full_patterns(n)
    return _pattern_rows(n, lo, hi)


def _stack(vectors: list[Vector]) -> tuple[np.ndarray, Space]:
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
    """Randomized p-th moment of the rows of ``vmat`` (coords in ``space``)."""
    if not (1 <= p < math.inf):
        raise ValueError("moment exponent must satisfy 1 <= p < inf")
    n = vmat.shape[0]
    if n <= cfg.exact_threshold:
        total = 0.0
        count = 1 << (n - 1)
        for lo in range(0, count, _CHUNK):
            pats = sign_patterns(n, lo, lo + _CHUNK)
            combos = pats @ vmat
            total += float(np.sum(norms_of(combos, space) ** p))
        return MomentEstimate((total / count) ** (1.0 / p), EXACT, count, 0.0)

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


def _table_rows(n: int, cfg: EnumConfig) -> int:
    """Length of the sign table a moment evaluator of n vectors uses."""
    if n <= cfg.exact_threshold:
        return 1 << (n - 1)
    return min(cfg.mc_samples, _MC_TABLE)


def ladder_rungs(n: int, cfg: EnumConfig) -> int:
    """Line-search rungs to score per objective call over n-vector moments.

    One rung costs one sign table per restart, so a block of
    ``_CHUNK // P`` rungs (at least one) keeps a call near one chunk.
    """
    return max(1, _CHUNK // _table_rows(n, cfg))


def _table_moments(table: np.ndarray, vmats: np.ndarray, space: Space, p: float, grad: bool = False):
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
        vals = np.empty((block.shape[0], rows))
        for r in range(0, rows, block_rows):
            signs = table[r : r + block_rows]
            combos = (signs @ block).reshape(-1, dim)
            if grad:
                norms, dnorms = norms_and_grads_of(combos, space)
                weighted = (norms ** (p - 1))[:, None] * dnorms
                grads[lo : lo + per] += signs.T @ weighted.reshape(block.shape[0], -1, dim)
            else:
                norms = norms_of(combos, space)
            vals[:, r : r + block_rows] = norms.reshape(block.shape[0], -1)
        # the sum over the table divided by its length is np.mean, bit for bit
        moments[lo : lo + per] = (np.add.reduce(vals**p, axis=1) / rows) ** (1.0 / p)
    if not grad:
        return moments
    scale = np.divide(1.0, rows * moments ** (p - 1), out=np.zeros(batch), where=moments > 0)
    return moments, grads * scale[:, None, None]


@lru_cache(maxsize=1)
def _mc_table(n: int, rows: int, seed: int) -> np.ndarray:
    """The frozen Monte Carlo sign table; the value and gradient evaluators of
    one objective share it."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    signs = rng.integers(0, 2, size=(rows, n)) * 2.0 - 1.0
    signs.setflags(write=False)
    return signs


def make_moment_evaluator(n: int, space: Space, p: float, cfg: EnumConfig, grad: bool = False):
    """Fast repeated-evaluation closure for the p-th randomized moment.

    The closure maps a (batch, n, dim) stack of tuples to their (batch,)
    moments, and with ``grad`` to the moments and their (batch, n, dim)
    gradients.  Exact enumeration with a cached pattern table when n is
    within the exact threshold; otherwise Monte Carlo with a frozen sign
    table (common random numbers) so that optimizers see a smooth
    objective.
    """
    if n <= cfg.exact_threshold:
        pats = sign_patterns(n)

        def evaluate(vmats: np.ndarray):
            return _table_moments(pats, vmats, space, p, grad)

        return evaluate

    signs = _mc_table(n, _table_rows(n, cfg), cfg.seed)

    def evaluate_mc(vmats: np.ndarray):
        return _table_moments(signs, vmats, space, p, grad)

    return evaluate_mc


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


def moment_evaluators(n: int, space: Space, p: float, cfg: EnumConfig):
    """The values and the (values, gradients) closures of the p-th moment of n-tuples.

    At p = 2 on a Hilbert space both are ``hilbert_moment2``.
    """
    if p == 2 and space.is_hilbert:
        return hilbert_moment2, partial(hilbert_moment2, grad=True)
    return make_moment_evaluator(n, space, p, cfg), make_moment_evaluator(n, space, p, cfg, grad=True)


def kk_ratio_estimate(
    space: Space, p: float, q: float, n: int, cfg: EnumConfig
) -> RatioEstimate:
    """Best found moment_p / moment_q over n-tuples of unit vectors.

    A lower bound for the comparability constant between the two
    randomized norms on this space; never claimed to attain the supremum.
    A moment at exponent 2 on a Hilbert space is taken in closed form.
    """
    if not (1 <= p < math.inf and 1 <= q < math.inf):
        raise ValueError("exponents must lie in [1, inf)")
    if n < 1:
        raise ValueError("need at least one vector")
    moment_p, grad_p = moment_evaluators(n, space, p, cfg)
    moment_q, grad_q = moment_evaluators(n, space, q, cfg)

    def objective(vmats: np.ndarray, group=0, grad=False):
        if not grad:
            return optim.ratio_or_zero(moment_p(vmats), moment_q(vmats))
        return optim.ratio_and_grad(*grad_p(vmats), *grad_q(vmats))

    [(val, x)] = optim.maximize_on_spheres(
        objective, space, n, cfg.restarts, cfg.seed, cfg.tol,
        rungs_per_call=ladder_rungs(n, cfg),
    )
    return RatioEstimate(val, [Vector(row, space) for row in x])


def type_cotype_estimate(
    kind: str, space: Space, exponent: float, n: int, cfg: EnumConfig
) -> RatioEstimate:
    """Lower estimate of the type-p or cotype-q constant of ``space``.

    Type p compares (E||sum eps x||^2)^(1/2) against (sum ||x_j||^p)^(1/p);
    cotype q inverts the ratio, with a max-norm right side when q = inf.
    The search runs over n-tuples of unit vectors, where the lp sum of
    norms is constant.  When ``n <= cfg.exact_threshold`` the moment is
    enumerated over every sign pattern, so the value is a true lower bound
    on the constant in the defining inequality.  Above the threshold the
    moment comes from a Monte Carlo sign table, and the value is an
    estimate that may exceed the constant.
    """
    if kind not in ("type", "cotype"):
        raise ValueError("kind must be 'type' or 'cotype'")
    if kind == "type" and not (1 <= exponent <= 2):
        raise ValueError("type exponent must lie in [1, 2]")
    if kind == "cotype" and not (2 <= exponent <= math.inf):
        raise ValueError("cotype exponent must lie in [2, inf]")
    if n < 1:
        raise ValueError("need at least one vector")

    moment2 = make_moment_evaluator(n, space, 2.0, cfg)
    moment2_grad = make_moment_evaluator(n, space, 2.0, cfg, grad=True)
    norm_sum = lp_space(exponent, n)

    def lp_sums(vmats: np.ndarray) -> np.ndarray:
        return norms_of(norms_of(vmats.reshape(-1, space.total_dim), space).reshape(-1, n), norm_sum)

    def lp_sums_grad(vmats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ns, dns = norms_and_grads_of(vmats.reshape(-1, space.total_dim), space)
        sums, dsums = norms_and_grads_of(ns.reshape(-1, n), norm_sum)
        return sums, dsums[:, :, None] * dns.reshape(vmats.shape)

    def objective(vmats: np.ndarray, group=0, grad=False):
        if not grad:
            m2, s = moment2(vmats), lp_sums(vmats)
            return optim.ratio_or_zero(m2, s) if kind == "type" else optim.ratio_or_zero(s, m2)
        m2, s = moment2_grad(vmats), lp_sums_grad(vmats)
        return optim.ratio_and_grad(*m2, *s) if kind == "type" else optim.ratio_and_grad(*s, *m2)

    [(val, x)] = optim.maximize_on_spheres(
        objective, space, n, cfg.restarts, cfg.seed, cfg.tol,
        rungs_per_call=ladder_rungs(n, cfg),
    )
    return RatioEstimate(val, [Vector(row, space) for row in x])


def scalar_moment(coeffs: np.ndarray, p: float, cfg: EnumConfig) -> MomentEstimate:
    """Randomized moment (E | sum_j eps_j c_j |^p)^(1/p) of real scalars."""
    mat = np.asarray(coeffs, dtype=float).reshape(-1, 1)
    return moment_from_matrix(mat, lp_space(1, 1), p, cfg)
