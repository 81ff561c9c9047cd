"""Reference predicates and input writers that tests share; the library does not need them."""

import math
from functools import lru_cache

import numpy as np

from rmflab.filtration import (
    DYADIC,
    STANDARD,
    Partition,
    _split_units,
    block_parents,
    filtration_to_json,
    haar_kind,
)


@lru_cache(maxsize=None)
def sign_table(n):
    """The whole (2^(n-1), n) table of sign patterns the moments average over,
    read-only: row i is +1 followed by 1 - 2 * (bit j of i) for j < n - 1."""
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    table = np.hstack([np.ones((1 << (n - 1), 1)), 1.0 - 2.0 * bits])
    table.setflags(write=False)
    return table


def trivial_partition(space):
    return Partition(np.zeros(space.n_atoms, dtype=np.int64), space)


def atom_partition(space):
    return Partition(np.arange(space.n_atoms, dtype=np.int64), space)


def is_refinement(fine, coarse):
    """True iff every block of ``fine`` lies inside one block of ``coarse``."""
    if fine.space != coarse.space:
        raise ValueError("partitions live on different spaces")
    return bool(np.array_equal(block_parents(fine, coarse)[fine.block_of], coarse.block_of))


def haar_splits(filt):
    """(parent, child1, child2) masses per level of a Haar filtration, as
    exact integers in the unit of ``AtomicMeasureSpace.mass_units``; raises
    unless the filtration is Haar."""
    _, _, m1, m2 = _split_units(filt)
    return list(zip((m1 + m2).tolist(), m1.tolist(), m2.tolist()))


def is_haar(filt):
    try:
        _split_units(filt)
    except ValueError:
        return False
    return True


def is_dyadic_haar(filt):
    try:
        return haar_kind(filt) in (STANDARD, DYADIC)
    except ValueError:
        return False


def block_extremes(part, values):
    """Largest and smallest of per-atom reals over each block of ``part``."""
    vals = np.asarray(values, dtype=float)
    hi = np.full(part.n_blocks, -np.inf)
    lo = np.full(part.n_blocks, np.inf)
    np.maximum.at(hi, part.block_of, vals)
    np.minimum.at(lo, part.block_of, vals)
    return hi, lo


def validate_stopping_time(tau, filt):
    """Raise unless every {tau = j} is a union of level-j blocks."""
    for j, part in enumerate(filt.levels):
        hi, lo = block_extremes(part, tau.values == j)
        if not np.array_equal(hi, lo):
            raise ValueError(f"{{tau = {j}}} is not measurable at level {j}")


def space_to_json(space):
    if space.kind == "lp":
        return {"kind": "lp", "p": "inf" if space.p == math.inf else space.p, "dim": space.dim}
    if space.kind == "schatten":
        return {"kind": "schatten", "p": space.p, "rows": space.rows, "cols": space.cols}
    return {"kind": space.kind, "rows": space.rows, "cols": space.cols}


def martingale_to_json(x):
    return {
        "space": space_to_json(x.space),
        "filtration": filtration_to_json(x.filtration),
        "levels": [lvl.values.tolist() for lvl in x.levels],
    }
