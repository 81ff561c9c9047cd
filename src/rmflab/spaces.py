"""Finite-dimensional normed spaces and deterministic vector sampling.

Three families are supported: ell^p sequence spaces, Schatten classes of
real matrices (ell^p norm of the singular values), and spaces of operators
between finite-dimensional Hilbert spaces carrying the operator norm.
Matrix norms of 2 x 2 matrices, and their gradients, are a closed form in
the entries (``_norms_2x2``); other shapes take numpy's batched LAPACK SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LP = "lp"
SCHATTEN = "schatten"
HILBERT_OP = "hilbert_op"


@dataclass(frozen=True)
class Space:
    """Descriptor of a finite-dimensional normed space.

    ``kind`` is one of ``"lp"`` (p in [1, inf], dimension ``dim``),
    ``"schatten"`` (p in [1, inf), ``rows`` x ``cols`` matrices) or
    ``"hilbert_op"`` (``rows`` x ``cols`` matrices with the operator norm,
    i.e. operators from R^cols to R^rows).
    """

    kind: str
    p: float = 2.0
    dim: int = 0
    rows: int = 0
    cols: int = 0

    def __post_init__(self):
        if self.kind not in (LP, SCHATTEN, HILBERT_OP):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == LP:
            if not self.p >= 1:
                raise ValueError("lp exponent must satisfy p >= 1")
            if self.dim < 1:
                raise ValueError("lp dimension must be >= 1")
        else:
            if self.rows < 1 or self.cols < 1:
                raise ValueError("matrix dimensions must be >= 1")
            if self.kind == SCHATTEN and not (1 <= self.p < math.inf):
                raise ValueError("Schatten exponent must satisfy 1 <= p < inf")

    @property
    def total_dim(self) -> int:
        """Length of the flat coordinate array of a vector in this space."""
        if self.kind == LP:
            return self.dim
        return self.rows * self.cols

    @property
    def is_hilbert(self) -> bool:
        """True when the norm comes from an inner product.

        This holds for lp with p = 2 and for the Schatten 2-class
        (Frobenius norm); it unlocks exact randomized-norm oracles.
        """
        if self.kind == LP:
            return self.p == 2
        if self.kind == SCHATTEN:
            return self.p == 2
        return False


def lp_space(p: float, dim: int) -> Space:
    return Space(LP, p=float(p), dim=dim)


def schatten_space(p: float, rows: int, cols: int) -> Space:
    return Space(SCHATTEN, p=float(p), rows=rows, cols=cols)


def hilbert_op_space(dim_h: int, dim_e: int) -> Space:
    """Operators from an R^dim_h to an R^dim_e Hilbert space (operator norm),
    the space a ``{"kind": "hilbert_op"}`` input names."""
    return Space(HILBERT_OP, rows=dim_e, cols=dim_h)


@dataclass(frozen=True)
class Vector:
    """A point of a :class:`Space`, stored as a flat float64 array.

    Matrices are stored row-major.
    """

    coords: np.ndarray = field(repr=False)
    space: Space

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float).ravel()
        object.__setattr__(self, "coords", arr)
        if arr.shape != (self.space.total_dim,):
            raise ValueError(
                f"coordinate length {arr.shape} does not match space "
                f"dimension {self.space.total_dim}"
            )


def dual_exponent(p: float) -> float:
    """Hoelder conjugate: 1/p + 1/p' = 1, with 1 and inf dual to each other."""
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def norm(v: Vector) -> float:
    """Norm of ``v`` in its own space."""
    return norm_of(v.coords, v.space)


def norm_of(coords: np.ndarray, space: Space) -> float:
    """Norm of a flat coordinate array interpreted in ``space``."""
    x = np.asarray(coords, dtype=float).ravel()
    if x.shape != (space.total_dim,):
        raise ValueError("coordinate length does not match space dimension")
    return float(norms_of(x, space)[0])


def norms_of(values: np.ndarray, space: Space) -> np.ndarray:
    """Row-wise norms of a (n, total_dim) array.

    A 2 x 2 matrix space takes the singular values of every row in closed
    form (``_norms_2x2``); other matrix shapes take them from one batched
    LAPACK SVD.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    if space.kind == LP:
        return _lp_norms(vals, space.p)
    if space.rows == space.cols == 2:
        return _norms_2x2(vals, space)
    sv = np.linalg.svd(vals.reshape(-1, space.rows, space.cols), compute_uv=False)
    return sv[:, 0] if space.kind == HILBERT_OP else _lp_norms(sv, space.p)


def norms_and_grads_of(values: np.ndarray, space: Space) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise norms of a (n, total_dim) array and a (sub)gradient of the norm at each row.

    On lp the gradient is sign(c) (|c| / ||c||)^(p-1): sign(c) at p = 1 and,
    at p = inf, the sign of the first largest coordinate in its place.  On a
    Schatten class it is U diag(w) V^T with w = s^(p-1) / ||s||_p^(p-1), and
    under the operator norm u_1 v_1^T.  A zero row has gradient 0.  On 2 x 2
    matrices both come in closed form (``_norms_2x2``) and the norms are the
    bits ``norms_of`` gives; a rank-one row gets u_1 v_1^T at every p.
    Other matrix shapes take one batched LAPACK SVD with vectors, whose
    norms may differ from ``norms_of``'s in the last bit and whose
    subgradient at a rank-deficient row is the one LAPACK's vectors give.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    if space.kind == LP:
        norms = _lp_norms(vals, space.p)
        return norms, _lp_grads(vals, norms, space.p)
    if space.rows == space.cols == 2:
        return _norms_2x2(vals, space, grad=True)
    u, sv, vt = np.linalg.svd(vals.reshape(-1, space.rows, space.cols), full_matrices=False)
    if space.kind == HILBERT_OP:
        norms, grads = sv[:, 0], u[:, :, :1] @ vt[:, :1, :]
    else:
        norms = _lp_norms(sv, space.p)
        grads = (u * _lp_grads(sv, norms, space.p)[:, None, :]) @ vt
    return norms, grads.reshape(vals.shape)


# (x, z, y, w) = (a + d, a - d, c - b, b + c) is _MIX @ (a, b, c, d); the
# closed form takes them and (s, t) a quarter size, so that no sum of two
# finite entries overflows
_MIX = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0], [0.0, -1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
_QUARTER_MIX = 0.25 * _MIX
_HALF_MIX = 0.5 * _MIX
# (s, t) / 4 to ((s + t) / 2, (s - t) / 2)
_SUM_DIFF = np.array([[2.0, 2.0], [2.0, -2.0]])
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]])
# a nonzero row whose sigma_1 is below this is rescaled, so that no rounding
# happens in the subnormal range
_TINY_2X2 = 2.0**-900


def _norms_2x2(vals: np.ndarray, space: Space, grad: bool = False):
    """Norms of the rows (a, b, c, d) of a (n, 4) array, the matrices [[a, b], [c, d]], and with ``grad`` their gradients.

    With s = hypot(a + d, c - b) and t = hypot(a - d, b + c) the singular
    values are (s + t) / 2 and |s - t| / 2 (Blinn, "Consider the lowly
    2 x 2 matrix", IEEE CG&A 16(2), 1996), so the nuclear norm is max(s, t).
    Each of a + d, ..., b + c and (s + t) / 2 rounds once, so a row's bits
    do not depend on the batch.  The gradients of s and t are
    (a + d, b - c, c - b, a + d) / s and (a - d, b + c, b + c, d - a) / t,
    each 0 where s or t is 0; with e = sign(s - t) the gradient of the norm
    is w_1 (ds + dt) / 2 + w_2 e (ds - dt) / 2 for the singular-value
    weights (w_1, w_2) of ``_lp_grads``, (1, 0) under the operator norm.  A
    rank-one row, where s = t, gets (ds + dt) / 2 = u_1 v_1^T at every p,
    and a zero row gets 0.  A row whose sigma_1 is subnormal-sized is taken
    scaled by a power of two, exactly, and its norm scaled back.
    """
    parts, st, sv = _svd_2x2_parts(vals)
    tiny = None
    if not np.minimum.reduce(sv[0], initial=np.inf) >= _TINY_2X2:
        # a quarter of a subnormal entry may round to 0, so zero rows are told by their entries
        rows = np.flatnonzero(sv[0] < _TINY_2X2)
        top = np.maximum.reduce(np.abs(vals[rows]), axis=1)
        tiny = rows[top > 0]
        _, exps = np.frexp(top[top > 0])
        parts[:, tiny], st[:, tiny], sv[:, tiny] = _svd_2x2_parts(np.ldexp(vals[tiny], -exps[:, None]))
    # sv holds (sigma_1, e sigma_2): lp norms see only |e sigma_2|, and the
    # weights _lp_grads gives are (w_1, e w_2)
    if space.kind == HILBERT_OP:
        norms = sv[0]
    elif space.p == 1:
        norms = 4.0 * np.maximum(st[0], st[1])
    else:
        norms = _lp_norms(sv.T, space.p)
    if grad:
        # (x, z, y, w) / (s, t, s, t) times their weights, mapped back by _MIX transposed
        units = np.divide(parts.reshape(2, 2, -1), st, out=np.zeros((2,) + st.shape), where=st > 0)
        if space.kind != HILBERT_OP:
            units *= _PLUS_MINUS @ _lp_grads(sv.T, norms, space.p).T
        grads = units.reshape(4, -1).T @ _HALF_MIX
    if tiny is not None:
        norms[tiny] = np.ldexp(norms[tiny], exps)
    return (norms, grads) if grad else norms


def _svd_2x2_parts(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, y, w) / 4 as a (4, n) array, and (s, t) / 4 and ((s + t) / 2, (s - t) / 2) as (2, n) arrays."""
    parts = _QUARTER_MIX @ vals.T
    st = np.hypot(parts[:2], parts[2:])
    return parts, st, _SUM_DIFF @ st


def _lp_norms(vals: np.ndarray, p: float) -> np.ndarray:
    if p == math.inf:
        return np.maximum.reduce(np.abs(vals), axis=1)
    if p == 2:
        return np.sqrt(_row_sums(vals * vals))
    if p == 1:
        return _row_sums(np.abs(vals))
    return _row_sums(np.abs(vals) ** p) ** (1.0 / p)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """``np.add.reduce(terms, axis=1)``, bit for bit.

    NumPy adds a row of fewer than 8 entries left to right (its pairwise
    sum unrolls by 8 from 8 entries on), so short rows are summed by
    column adds in that order, which is several times faster than a
    reduction over a short last axis.
    """
    d = terms.shape[1]
    if not 1 < d < 8:
        return np.add.reduce(terms, axis=1)
    total = terms[:, 0] + terms[:, 1]
    for j in range(2, d):
        total += terms[:, j]
    return total


def _lp_grads(vals: np.ndarray, norms: np.ndarray, p: float) -> np.ndarray:
    if p == 1:
        return np.sign(vals)
    if p == math.inf:
        rows = np.arange(vals.shape[0])
        top = np.argmax(np.abs(vals), axis=1)
        grads = np.zeros(vals.shape)
        grads[rows, top] = np.sign(vals[rows, top])
        return grads
    scaled = np.divide(vals, norms[:, None], out=np.zeros(vals.shape), where=norms[:, None] > 0)
    return scaled if p == 2 else np.sign(scaled) * np.abs(scaled) ** (p - 1)


def unit_vector(space: Space, rng: np.random.Generator) -> Vector:
    """Draw a Gaussian vector from ``rng`` and normalize it in ``space``."""
    coords = rng.standard_normal(space.total_dim)
    n = norm_of(coords, space)
    if n == 0.0:
        coords = np.zeros(space.total_dim)
        coords[0] = 1.0
        n = norm_of(coords, space)
    return Vector(coords / n, space)


def space_from_json(obj: dict) -> Space:
    kind = obj["kind"]
    if kind == LP:
        p = obj["p"]
        p = math.inf if p == "inf" else float(p)
        return lp_space(p, int(obj["dim"]))
    if kind == SCHATTEN:
        return schatten_space(float(obj["p"]), int(obj["rows"]), int(obj["cols"]))
    if kind == HILBERT_OP:
        return hilbert_op_space(int(obj["cols"]), int(obj["rows"]))
    raise ValueError(f"unknown space kind {kind!r}")
