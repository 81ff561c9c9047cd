"""Finite-dimensional normed spaces and deterministic vector sampling.

Three families are supported: ell^p sequence spaces, Schatten classes of
real matrices (ell^p norm of the singular values), and spaces of operators
between finite-dimensional Hilbert spaces carrying the operator norm.
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
    """Operators from an R^dim_h to an R^dim_e Hilbert space (operator norm)."""
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


def singular_values(mat: np.ndarray, return_right_vectors: bool = False):
    """Singular values of a real matrix, sorted descending.

    When ``return_right_vectors`` is set, the matching right singular
    vectors are returned as well, as the columns of a
    (cols, min(rows, cols)) array in the same order.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not return_right_vectors:
        return np.linalg.svd(a, compute_uv=False)
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    return sv, vt.T


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

    Matrix spaces take the singular values of all rows in one batched SVD.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    if space.kind != LP:
        vals = np.linalg.svd(vals.reshape(-1, space.rows, space.cols), compute_uv=False)
        if space.kind == HILBERT_OP:
            return vals[:, 0]
    return _lp_norms(vals, space.p)


def norms_and_grads_of(values: np.ndarray, space: Space) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise norms of a (n, total_dim) array and a (sub)gradient of the norm at each row.

    On lp the gradient is sign(c) (|c| / ||c||)^(p-1): sign(c) at p = 1 and,
    at p = inf, the sign of the first largest coordinate in its place.  On a
    Schatten class it is U diag(s^(p-1)) V^T / ||s||_p^(p-1), and under the
    operator norm u_1 v_1^T, from one batched SVD of all rows.  A zero row
    of an lp space has gradient 0.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    if space.kind == LP:
        norms = _lp_norms(vals, space.p)
        return norms, _lp_grads(vals, norms, space.p)
    u, sv, vt = np.linalg.svd(vals.reshape(-1, space.rows, space.cols), full_matrices=False)
    if space.kind == HILBERT_OP:
        norms, grads = sv[:, 0], u[:, :, :1] @ vt[:, :1, :]
    else:
        norms = _lp_norms(sv, space.p)
        grads = (u * _lp_grads(sv, norms, space.p)[:, None, :]) @ vt
    return norms, grads.reshape(vals.shape)


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


def random_unit_vector(space: Space, seed: int) -> Vector:
    """Deterministic pseudo-random vector of norm 1 (within 1e-12)."""
    rng = np.random.default_rng(seed)
    return unit_vector(space, rng)


def unit_vector(space: Space, rng: np.random.Generator) -> Vector:
    """Draw a Gaussian vector from ``rng`` and normalize it in ``space``."""
    coords = rng.standard_normal(space.total_dim)
    n = norm_of(coords, space)
    if n == 0.0:
        coords = np.zeros(space.total_dim)
        coords[0] = 1.0
        n = norm_of(coords, space)
    return Vector(coords / n, space)


def space_to_json(space: Space) -> dict:
    if space.kind == LP:
        p = "inf" if space.p == math.inf else space.p
        return {"kind": LP, "p": p, "dim": space.dim}
    if space.kind == SCHATTEN:
        return {"kind": SCHATTEN, "p": space.p, "rows": space.rows, "cols": space.cols}
    return {"kind": HILBERT_OP, "rows": space.rows, "cols": space.cols}


def space_from_json(obj: dict) -> Space:
    kind = obj["kind"]
    if kind == LP:
        p = obj["p"]
        p = math.inf if p == "inf" else float(p)
        return lp_space(p, int(obj["dim"]))
    if kind == SCHATTEN:
        return schatten_space(float(obj["p"]), int(obj["rows"]), int(obj["cols"]))
    if kind == HILBERT_OP:
        return Space(HILBERT_OP, rows=int(obj["rows"]), cols=int(obj["cols"]))
    raise ValueError(f"unknown space kind {kind!r}")
