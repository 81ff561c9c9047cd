"""Doob and Rademacher maximal functions of step functions over
filtrations, Lp norms on atomic bases, RMF ratios, and the telescoping
construction that defeats L-infinity bounds.

At an atom, the Doob maximal function is the largest norm of the
conditional expectations across levels, while the Rademacher maximal
function is the R-bound of the same set of vectors.  On Hilbert ranges
(at moment 2) the two coincide exactly; otherwise the R-bound is reported
as a search lower bound together with the summability upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filtration import (
    AtomicMeasureSpace,
    Filtration,
    ProductBase,
    StepFunction,
    conditional_expectation,
)
from .rademacher import EnumConfig
from .rbound import HILBERT_EXACT, atomwise_rbound
from .spaces import Vector, lp_space, norms_of

DEFAULT_NORM_EXPONENTS = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class MaximalReport:
    """Pointwise maximal values plus their Lp norms and provenance.

    ``pointwise_upper`` carries the summability upper bracket of the
    R-bound in optimized mode (equal to ``pointwise`` in exact mode);
    atoms excluded from a restricted computation hold NaN.
    """

    pointwise: np.ndarray = field(repr=False)
    lp_norms: dict[float, float]
    mode: str
    truncation: int | None = None
    pointwise_upper: np.ndarray | None = field(default=None, repr=False)


def lp_norm(g, p: float, base: AtomicMeasureSpace) -> float:
    """Mass-weighted integral Lp norm of per-atom reals (max for p=inf).

    Accepts a plain array of nonnegative reals or a StepFunction, whose
    atomwise norms are integrated.
    """
    if isinstance(g, StepFunction):
        vals = g.atom_norms()
        if g.base != base:
            raise ValueError("step function lives on a different base space")
    else:
        vals = np.abs(np.asarray(g, dtype=float))
    if vals.shape != (base.n_atoms,):
        raise ValueError("value count must match atom count")
    if p == math.inf:
        return float(np.max(vals))
    if not p >= 1:
        raise ValueError("exponent must satisfy p >= 1")
    return float(np.sum(base.masses * vals**p) ** (1.0 / p))


def _ce_stack(f: StepFunction, filt: Filtration, truncation: int | None) -> np.ndarray:
    """Conditional expectations per level: array (levels, atoms, dim)."""
    if filt.space != f.base:
        raise ValueError("function and filtration live on different spaces")
    last = len(filt.levels) - 1 if truncation is None else min(truncation, len(filt.levels) - 1)
    return np.stack(
        [conditional_expectation(f, filt.levels[j]).values for j in range(last + 1)]
    )


def doob_maximal(
    f: StepFunction,
    filt: Filtration,
    truncation: int | None = None,
    norm_exponents=DEFAULT_NORM_EXPONENTS,
) -> MaximalReport:
    """sup_j || E_j f || at each atom."""
    stack = _ce_stack(f, filt, truncation)
    level_norms = np.stack([norms_of(level, f.space) for level in stack])
    pointwise = np.max(level_norms, axis=0)
    lp = {p: lp_norm(pointwise, p, f.base) for p in norm_exponents}
    return MaximalReport(pointwise, lp, HILBERT_EXACT, truncation, pointwise.copy())


def rademacher_maximal(
    f: StepFunction,
    filt: Filtration,
    cfg: EnumConfig | None = None,
    truncation: int | None = None,
    atom_indices=None,
    rbound_p: float = 2.0,
    norm_exponents=DEFAULT_NORM_EXPONENTS,
) -> MaximalReport:
    """R-bound of { E_j f(xi) : j } at each atom.

    Hilbert ranges at moment 2 collapse to the Doob maximal function
    (exact mode).  Otherwise each atom's value is the searched lower
    bracket of the scalar-coefficient R-bound of its conditional
    expectations, with the singleton floor making the result always at
    least the Doob value.  ``atom_indices`` restricts the computation
    (other atoms report NaN and no Lp norms are taken).
    """
    if cfg is None:
        cfg = EnumConfig()
    stack = _ce_stack(f, filt, truncation)
    lower, upper, mode = atomwise_rbound(stack, f.space, cfg, rbound_p, atom_indices)
    if atom_indices is None:
        lp = {p: lp_norm(lower, p, f.base) for p in norm_exponents}
    else:
        lp = {}
    return MaximalReport(lower, lp, mode, truncation, upper)


def rmf_ratio(
    f: StepFunction,
    filt: Filtration,
    p: float,
    cfg: EnumConfig | None = None,
    truncation: int | None = None,
) -> float:
    """|| M_R f ||_p / || f ||_p: a lower bound on the RMF_p constant."""
    fnorm = lp_norm(f, p, f.base)
    if fnorm == 0:
        raise ValueError("RMF ratio of the zero function is undefined")
    report = rademacher_maximal(f, filt, cfg, truncation, norm_exponents=(p,))
    return report.lp_norms[p] / fnorm


def telescoping_function(targets: list[Vector]) -> StepFunction:
    """Step function on 2^(N-1) equal atoms of [0,1) whose averages over
    the nested intervals I_j = [0, 2^(j-N)) hit the given targets.

    With values S_1 = T_1 on I_1 and S_j = 2 T_j - T_{j-1} on the annulus
    I_j minus I_{j-1}, the partial sums telescope so that the average over
    I_j is exactly T_j; for unit-bounded targets the sup norm stays below
    3.  At each point of I_1 all N targets appear among the dyadic
    averages, which makes the Rademacher maximal function as large as the
    R-bound of the target family while ||f||_inf stays bounded.
    """
    if not targets:
        raise ValueError("need at least one target vector")
    space = targets[0].space
    for t in targets[1:]:
        if t.space != space:
            raise ValueError("all targets must live in the same space")
    n = len(targets)
    n_atoms = 1 << (n - 1)
    base = AtomicMeasureSpace(np.full(n_atoms, 2.0 ** (1 - n)))
    values = np.empty((n_atoms, space.total_dim))
    values[0] = targets[0].coords
    for j in range(2, n + 1):
        s_j = 2.0 * targets[j - 1].coords - targets[j - 2].coords
        values[1 << (j - 2) : 1 << (j - 1)] = s_j
    return StepFunction(values, space, base)


@dataclass(frozen=True)
class FubiniReport:
    """Pointwise slack of the product-space maximal inequality.

    ``violation`` is max over outer atoms of lhs - rhs, where lhs is the
    Rademacher maximal function of the fiber-vector-valued view and rhs
    the Lp average (over the inner space) of the fiberwise maximal
    function.  Nonpositive up to numerical noise.
    """

    lhs: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    violation: float
    mode: str


def fubini_heredity_check(
    f: StepFunction,
    product: ProductBase,
    outer_filtration: Filtration,
    p: float,
    cfg: EnumConfig | None = None,
) -> FubiniReport:
    """Check M_R of the vector-valued view against the fiberwise bound.

    ``f`` is scalar-valued on the product base.  The left side treats f
    as a function of the outer variable with values in a weighted lp
    space over the inner atoms (weights folded into coordinates); the
    right side takes the fiberwise scalar maximal function (a plain Doob
    maximum, since the R-bound of a set of scalars is its largest
    absolute value) and integrates its p-th power over the inner space.
    """
    if cfg is None:
        cfg = EnumConfig()
    if not (1 <= p < math.inf):
        raise ValueError("exponent must lie in [1, inf)")
    combined = product.combined()
    if f.base != combined:
        raise ValueError("function must live on the product base")
    if f.space.total_dim != 1:
        raise ValueError("fiberwise check needs scalar atom values")
    n_out, n_in = product.outer.n_atoms, product.inner.n_atoms
    table = f.values.reshape(n_out, n_in)
    weights = product.inner.masses ** (1.0 / p)

    folded = StepFunction(table * weights[None, :], lp_space(p, n_in), product.outer)
    lhs_report = rademacher_maximal(folded, outer_filtration, cfg, rbound_p=p)
    lhs = lhs_report.pointwise

    levels = len(outer_filtration.levels)
    fiber_stack = np.empty((levels, n_out, n_in))
    for j in range(levels):
        ce = conditional_expectation(
            StepFunction(table, lp_space(1, n_in), product.outer),
            outer_filtration.levels[j],
        )
        fiber_stack[j] = ce.values
    fiber_max = np.max(np.abs(fiber_stack), axis=0)
    rhs = (fiber_max**p @ product.inner.masses) ** (1.0 / p)

    violation = float(np.max(lhs - rhs))
    return FubiniReport(lhs, rhs, violation, lhs_report.mode)
