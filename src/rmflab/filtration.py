"""Atomic measure spaces, partitions-as-algebras, filtrations, conditional
expectations, and the reduction constructions that relate arbitrary
filtrations of finite algebras to the dyadic intervals of the unit
interval.

A finite algebra is encoded by its generating partition (one block id per
atom).  A filtration is an increasing (refining) sequence of partitions,
stored as one read-only (levels, atoms) label matrix: builders write its
rows, one constructor checks them all at once, and each level's partition
is a view of its row.  A Haar filtration splits exactly one block per
level, dyadic/standard Haar filtrations constrain the split mass ratios to
dyadic fractions / exact halves; every level's split is read off the
matrix at once.  Split tests are exact: every float is a dyadic rational,
so they run on atom masses as integers in one dyadic unit, which a space
takes once; ``fractions.Fraction`` is left only where a ratio's dyadic
depth is read.  Blocks are integer labels numbered by first occurrence,
which is recognized without a sort.  Grids are capped at
2^MAX_GRID_EXPONENT atoms, checked before anything is built.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .spaces import Space, norms_of

# desk-scale cap on the grids a construction may build: 2^22 atoms
MAX_GRID_EXPONENT = 22

GENERAL = "general"
DYADIC = "dyadic"
STANDARD = "standard"


class ResolutionError(ValueError):
    """A grid is too coarse for a requested construction.

    ``required_k`` names a grid exponent at which the construction would
    have enough resolution.
    """

    def __init__(self, message: str, required_k: int):
        if required_k <= MAX_GRID_EXPONENT:  # a grid over the cap is no remedy
            message += f" (grid of 2^{required_k} atoms suffices)"
        super().__init__(message)
        self.required_k = required_k


@dataclass(frozen=True)
class AtomicMeasureSpace:
    """Finitely many atoms with positive masses.

    Masses are read-only; only writeable ones are copied.  Their exact
    integer units are taken on first use and kept.
    """

    masses: np.ndarray = field(repr=False)
    _units: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        m = self.masses
        kept = isinstance(m, np.ndarray) and m.dtype == float and m.ndim == 1 and not m.flags.writeable
        if not kept:
            m = _read_only(np.array(m, dtype=float).ravel())
        object.__setattr__(self, "masses", m)
        if m.size == 0:
            raise ValueError("need at least one atom")
        if not np.all(m > 0) or not np.all(np.isfinite(m)):
            raise ValueError("atom masses must be positive and finite")

    @property
    def n_atoms(self) -> int:
        return int(self.masses.size)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def normalized(self) -> "AtomicMeasureSpace":
        return AtomicMeasureSpace(_read_only(self.masses / self.total_mass))

    def mass_units(self) -> np.ndarray:
        """Atom masses as exact integers in one dyadic unit, read-only and
        taken once: int64 if all sums fit, Python ints otherwise."""
        if self._units is None:
            uniq, inverse = np.unique(self.masses, return_inverse=True)
            fracs = [Fraction(m) for m in uniq.tolist()]
            unit = max(f.denominator for f in fracs)
            units = [f.numerator * (unit // f.denominator) for f in fracs]
            fits = max(units) * self.masses.size < 2**62
            kept = np.array(units, dtype=np.int64 if fits else object)[inverse]
            object.__setattr__(self, "_units", _read_only(kept))
        return self._units

    def __eq__(self, other):
        return other is self or (
            isinstance(other, AtomicMeasureSpace) and np.array_equal(self.masses, other.masses)
        )

    def __hash__(self):
        return hash(self.masses.tobytes())


def _canonical_labels(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels renumbered by first occurrence, and each block's first atom.

    Canonical labels pass in linear time: none is negative, the first is 0
    and their running maximum (of sorted labels, themselves) rises by one at
    a time, as often as its final value.  Only other labels are sorted.
    """
    if labels.size and labels[0] == 0 and labels.min() >= 0:
        top = np.maximum.accumulate(labels) if (labels[1:] < labels[:-1]).any() else labels
        first = np.concatenate(([True], top[1:] != top[:-1])).nonzero()[0]
        if first.size - 1 == top[-1]:  # top[-1] + 1 overflows at the largest int64
            return labels, first
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[order] = np.arange(first.size)
    return rank[inverse], first[order]


@dataclass(frozen=True)
class Partition:
    """Partition of the atoms into nonempty blocks.

    Block ids are canonical: numbered by first atom occurrence, so two
    partitions with the same blocks compare equal.  Labels are read-only;
    only writeable ones are copied.  Block masses are summed on first use
    and kept, unless the function that made the partition knows them
    exactly and has set them (``make_dyadic_filtration``).  ``_first_atoms`` is for
    :class:`Filtration`, which hands over read-only canonical rows with
    the first atoms it found; the labels are then kept unchecked.
    """

    block_of: np.ndarray = field(repr=False)
    space: AtomicMeasureSpace
    _first_atoms: np.ndarray | None = field(default=None, repr=False)
    _block_masses: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self._first_atoms is not None:
            return
        labels = _read_only_labels(self.block_of).ravel()
        if labels.size != self.space.n_atoms:
            raise ValueError("label count must match atom count")
        block_of, first_atoms = _canonical_labels(labels)
        object.__setattr__(self, "block_of", _read_only(block_of))
        object.__setattr__(self, "_first_atoms", first_atoms)

    @property
    def n_blocks(self) -> int:
        return int(self._first_atoms.size)

    def blocks(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.block_of == b) for b in range(self.n_blocks)]

    def first_atoms(self) -> np.ndarray:
        """Index of the first atom of each block, in block order."""
        return self._first_atoms

    def block_sums(self, weights: np.ndarray) -> np.ndarray:
        """Sums over each block of per-atom reals (atoms,) or rows (atoms, dim)."""
        nb = self.n_blocks
        if weights.ndim == 1:
            return np.bincount(self.block_of, weights=weights, minlength=nb)
        return np.stack(
            [np.bincount(self.block_of, weights=w, minlength=nb) for w in weights.T], axis=1
        )

    def block_masses(self) -> np.ndarray:
        """Mass of each block, read-only: one array shared by every caller."""
        if self._block_masses is None:
            masses = self.block_sums(self.space.masses)
            masses.flags.writeable = False
            object.__setattr__(self, "_block_masses", masses)
        return self._block_masses

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.space == other.space
            and np.array_equal(self.block_of, other.block_of)
        )

    def __hash__(self):
        return hash(self.block_of.tobytes())


def _read_only(array: np.ndarray) -> np.ndarray:
    """A builder's own labels or masses, handed to a constructor uncopied."""
    array.flags.writeable = False
    return array


def _read_only_labels(labels) -> np.ndarray:
    """``labels`` as read-only row-major int64, copied unless they already are."""
    kept = isinstance(labels, np.ndarray) and labels.dtype == np.int64 and labels.flags.c_contiguous
    if kept and not labels.flags.writeable:
        return labels
    return _read_only(np.array(labels, dtype=np.int64, order="C"))


def block_parents(fine: Partition, coarse: Partition) -> np.ndarray:
    """Block of ``coarse`` holding the first atom of each block of ``fine``.

    When ``fine`` refines ``coarse`` this is the block holding all of it.
    """
    return coarse.block_of[fine.first_atoms()]


def _canonical_rows(labels: np.ndarray):
    """A read-only label matrix with its rows renumbered by first occurrence.

    Returns the matrix, whether its rows are sorted, its (levels, atoms)
    mask of first atoms, and their flat indices: row j's run from
    ``bounds[j]`` to ``bounds[j + 1]``.  The test of ``_canonical_labels``
    runs on the whole matrix: a row is canonical when it starts at 0 and
    its running maximum rises by one at a time, as often as its final
    value.  Sorted rows are their own running maximum, so a matrix of
    sorted rows takes no accumulation.  Only rows that fail are
    renumbered, each by ``_canonical_labels``.
    """
    n_levels, n_atoms = labels.shape
    sorted_rows = not (labels[:, 1:] < labels[:, :-1]).any()
    top = labels if sorted_rows else np.maximum.accumulate(labels, axis=1)
    first = np.empty(labels.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(top[:, 1:], top[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    bounds = np.searchsorted(starts, np.arange(n_levels + 1) * n_atoms)
    canonical = (labels[:, 0] == 0) & (np.diff(bounds) - 1 == top[:, -1])
    if not sorted_rows:
        canonical &= labels.min(axis=1) >= 0
    if canonical.all():
        return labels, sorted_rows, first, starts, bounds
    renumbered = labels.copy()
    for j in np.flatnonzero(~canonical):
        renumbered[j] = _canonical_labels(labels[j])[0]
    return _canonical_rows(_read_only(renumbered))


@dataclass(frozen=True)
class Filtration:
    """Increasing sequence of partitions: one read-only (levels, atoms)
    label matrix, each row renumbered by first occurrence and refining the
    row before it, and one :class:`Partition` per row on a view of it.

    Both properties are checked on the whole matrix at once, and each
    level's partition takes the first atoms found there.
    """

    labels: np.ndarray = field(repr=False, compare=False)
    space: AtomicMeasureSpace
    levels: tuple[Partition, ...] = field(init=False, repr=False)  # compared, hashed

    def __post_init__(self):
        labels = _read_only_labels(self.labels)
        if labels.ndim != 2 or labels.shape[0] == 0:
            raise ValueError("labels must be a (levels, atoms) matrix with at least one level")
        n_atoms = labels.shape[1]
        if n_atoms != self.space.n_atoms:
            raise ValueError("label count must match atom count")
        labels, sorted_rows, first, starts, bounds = _canonical_rows(labels)
        if sorted_rows:
            # rows of intervals: each keeps every first atom of the row before
            refining = not (first[:-1] > first[1:]).any()
        else:
            # block c of row j is slot bounds[j] + c; every atom of it has
            # the label one row up of its first atom (row 0's parents wrap
            # around and go unread)
            parent = labels.ravel()[starts - n_atoms]
            refining = np.array_equal(parent[labels[1:] + bounds[1:-1, None]], labels[:-1])
        if not refining:
            raise ValueError("each level must refine its predecessor")
        atoms, ends = starts % n_atoms, bounds.tolist()
        levels = tuple(
            Partition(row, self.space, atoms[a:z]) for row, a, z in zip(labels, ends, ends[1:])
        )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class StepFunction:
    """One vector per atom: the discrete stand-in for a Bochner function."""

    values: np.ndarray = field(repr=False)
    space: Space
    base: AtomicMeasureSpace

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.base.n_atoms, self.space.total_dim):
            raise ValueError(
                f"values must have shape (n_atoms, dim) = "
                f"({self.base.n_atoms}, {self.space.total_dim})"
            )

    def atom_norms(self) -> np.ndarray:
        return norms_of(self.values, self.space)


def random_step_function(
    base: AtomicMeasureSpace, space: Space, seed: int, scale: float = 1.0
) -> StepFunction:
    rng = np.random.default_rng(seed)
    return StepFunction(scale * rng.standard_normal((base.n_atoms, space.total_dim)), space, base)


def block_averages(weighted: np.ndarray, pi: Partition) -> np.ndarray:
    """(blocks, dim) averages of mass-weighted rows ``masses[:, None] * values``:
    block sums over block masses, each block's atoms summed in atom order."""
    return pi.block_sums(weighted) / pi.block_masses()[:, None]


def conditional_expectation(f: StepFunction, pi: Partition) -> StepFunction:
    """Mass-weighted block averages of ``f``; constant on each block.

    Integrals over blocks are preserved: sum_A masses * output = sum_A
    masses * f for every block A.
    """
    if pi.space != f.base:
        raise ValueError("partition and function live on different spaces")
    averages = block_averages(f.base.masses[:, None] * f.values, pi)
    return StepFunction(averages[pi.block_of], f.space, f.base)


@lru_cache(maxsize=8)
def dyadic_grid(k: int) -> AtomicMeasureSpace:
    """2^k equal atoms modeling [0,1); k over MAX_GRID_EXPONENT raises
    ``ResolutionError`` before anything is allocated.  The space is
    read-only, so one is kept per exponent (the last eight used), with its
    mass units once taken."""
    if k > MAX_GRID_EXPONENT:
        raise ResolutionError(
            f"a 2^{k}-atom grid is over the cap of 2^{MAX_GRID_EXPONENT} atoms "
            f"(filtration.MAX_GRID_EXPONENT = {MAX_GRID_EXPONENT})",
            k,
        )
    return AtomicMeasureSpace(np.full(1 << k, 2.0**-k))


def make_dyadic_filtration(k: int) -> tuple[AtomicMeasureSpace, Filtration]:
    """2^k equal atoms modeling [0,1) with the dyadic-interval levels 0..k.

    Level j is given its 2^j block masses of 2^-j: a sum of 2^(k-j) atom
    masses of 2^-k is exact for every k <= MAX_GRID_EXPONENT, so these are
    the summed masses bit for bit, and no level sums them.
    """
    if k < 1:
        raise ValueError("grid exponent must be >= 1")
    space = dyadic_grid(k)
    labels = np.arange(space.n_atoms) >> np.arange(k, -1, -1)[:, None]
    filt = Filtration(_read_only(labels), space)
    for j, level in enumerate(filt.levels):
        object.__setattr__(level, "_block_masses", _read_only(np.full(1 << j, 2.0**-j)))
    return space, filt


def dyadic_partition(space: AtomicMeasureSpace, level: int, k: int) -> Partition:
    """Level-``level`` dyadic intervals on a 2^k-atom grid."""
    if level < 0 or level > k:
        raise ValueError("dyadic level out of range")
    return Partition(np.arange(space.n_atoms) >> (k - level), space)


def _is_dyadic_split(part, whole):
    """part / whole has a power-of-two denominator: odd(whole) divides part."""
    return part % (whole // (whole & -whole)) == 0


def _uniform_capacity(c):
    """Dyadic splits c equal atoms take: 2^(v2(c)) - 1, odd counts are dead."""
    return (c & -c) - 1


def random_haar_filtration(
    space: AtomicMeasureSpace, steps: int, kind: str = GENERAL, seed: int = 0
) -> Filtration:
    """Seeded Haar filtration: level j has exactly j+1 blocks.

    Each level splits one block of its predecessor into a prefix/suffix
    pair (in atom-index order), so blocks are intervals of atoms and a
    level is a sorted list of cuts.  ``kind`` constrains the split masses:
    dyadic requires the child/parent mass ratio to be a dyadic fraction,
    standard requires exact halves, both decided on integer mass units.
    A block, then a cut inside it, is drawn uniformly among the admissible
    ones.  The blocks with an admissible cut are kept in atom order with
    their cuts, so a step finds the cuts of its two children only.  On a
    run of s equal atoms the standard cut is the midpoint of an even run
    and the dyadic cuts are the multiples of the odd part of s; other
    blocks are read off one cumulative sum of the mass units.  The label
    matrix is written from the drawn cuts at the end.
    """
    if kind not in (GENERAL, DYADIC, STANDARD):
        raise ValueError(f"unknown Haar kind {kind!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    units = space.mass_units()
    prefix = np.zeros(n + 1, dtype=units.dtype)
    np.cumsum(units, out=prefix[1:])
    # atoms lo..hi-1 have equal masses iff run_end[lo] >= hi
    run_ends = np.append(np.flatnonzero(units[1:] != units[:-1]) + 1, n)
    run_end = run_ends[np.searchsorted(run_ends, np.arange(n), side="right")].tolist()
    memo: dict[tuple[int, int], int] = {}

    def admissible(lo: int, hi: int) -> np.ndarray:
        # the cuts that split atoms lo..hi-1 as ``kind`` asks, in atom order
        if kind == GENERAL:
            return np.arange(lo + 1, hi)
        if run_end[lo] >= hi:  # s equal atoms: the midpoint, or the multiples of odd(s)
            s = hi - lo
            d = (s // 2 if s % 2 == 0 else s) if kind == STANDARD else s // (s & -s)
            return np.arange(lo + d, hi, d)
        part, whole = prefix[lo + 1 : hi] - prefix[lo], prefix[hi] - prefix[lo]
        ok = 2 * part == whole if kind == STANDARD else _is_dyadic_split(part, whole)
        return lo + 1 + np.flatnonzero(ok)

    def capacity(lo: int, hi: int) -> int:
        # most dyadic splits, one after another, atoms lo..hi-1 take; any
        # fewer are reachable, so r more steps exist iff caps sum to >= r
        if run_end[lo] >= hi:
            return _uniform_capacity(hi - lo)
        if (lo, hi) not in memo:
            cuts = admissible(lo, hi).tolist()
            memo[lo, hi] = max((1 + capacity(lo, c) + capacity(c, hi) for c in cuts), default=0)
        return memo[lo, hi]

    if kind == DYADIC and capacity(0, n) < steps:
        raise ValueError(f"no dyadic Haar filtration of {steps} steps exists on this space")
    # the blocks with an admissible cut by first atom, and their ends and cuts
    los: list[int] = []
    blocks: dict[int, tuple[int, np.ndarray]] = {}

    def keep(lo: int, hi: int):
        cuts = admissible(lo, hi)
        if cuts.size:
            insort(los, lo)
            blocks[lo] = (hi, cuts)

    keep(0, n)
    # dyadic capacity of all blocks beyond the steps still to take
    spare = capacity(0, n) - steps if kind == DYADIC else 0
    drawn = []
    for step in range(steps):
        if not los:
            raise ValueError(f"no admissible {kind} split exists after {step} steps")
        lo = los.pop(int(rng.integers(len(los))))
        hi, cuts = blocks.pop(lo)
        if kind == DYADIC:
            # keep only cuts after which the remaining steps can still be
            # split dyadically: the children of a cut take at most cap - 1
            # splits, and no more than ``spare`` fewer
            cap = capacity(lo, hi)
            if run_end[lo] >= hi:
                rest = _uniform_capacity(cuts - lo) + _uniform_capacity(hi - cuts)
            else:
                rest = np.array([capacity(lo, c) + capacity(c, hi) for c in cuts.tolist()])
            kept = rest >= cap - 1 - spare
            cuts, rest = cuts[kept], rest[kept]
        i = int(rng.integers(cuts.size))
        cut = int(cuts[i])
        if kind == DYADIC:
            spare -= cap - 1 - int(rest[i])
        keep(lo, cut)
        keep(cut, hi)
        drawn.append(cut)
    # row j counts the cuts among the first j that lie at or before each atom
    rows = np.zeros((steps + 1, n), dtype=np.int64)
    rows[np.arange(1, steps + 1), drawn] = 1
    np.cumsum(rows, axis=0, out=rows)
    np.cumsum(rows, axis=1, out=rows)
    return Filtration(_read_only(rows), space)


def _split_units(filt: Filtration) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each level's split of a Haar filtration: the parent's label, the new
    child's label and the masses of the two children, as exact integers in
    the unit of ``AtomicMeasureSpace.mass_units``.

    Rows are canonical and refine each other, so one more block per level
    is one two-way split, and the first atom where a row differs from the
    row before is the first atom of the new child.  The parent's first atom
    stays in the child that keeps the parent's label, and every older label
    at or above the new child's moves up one: a block ``ids`` of the row
    before is ``ids + (ids >= child)`` in the row.
    """
    labels = filt.labels
    top = labels.max(axis=1)
    if np.any(top[1:] - top[:-1] != 1):
        raise ValueError("not a Haar filtration: block count must grow by one")
    if top[0] != 0:
        raise ValueError("Haar filtrations start from the trivial algebra")
    fine, coarse = labels[1:], labels[:-1]
    new = (fine != coarse).argmax(axis=1)
    level = np.arange(fine.shape[0])
    parent, child = coarse[level, new], fine[level, new]
    units = filt.space.mass_units()
    m1 = (fine == parent[:, None]) @ units
    m2 = (fine == child[:, None]) @ units
    return parent, child, m1, m2


def _input_splits(filt: Filtration):
    """``_split_units`` of a construction's input, which must be Haar."""
    try:
        return _split_units(filt)
    except ValueError:
        raise ValueError("input must be a Haar filtration") from None


def haar_kind(filt: Filtration) -> str:
    """Finest split-mass class of a Haar filtration: standard < dyadic < general."""
    _, _, m1, m2 = _split_units(filt)
    if np.array_equal(m1, m2):
        return STANDARD
    if np.all(_is_dyadic_split(m1, m1 + m2)):
        return DYADIC
    return GENERAL


def is_standard_haar(filt: Filtration) -> bool:
    try:
        return haar_kind(filt) == STANDARD
    except ValueError:
        return False


def haar_embed(filt: Filtration) -> tuple[Filtration, list[int]]:
    """Embed a filtration of finite algebras into a Haar filtration.

    One block is added per output level; ties (which child to carve
    first) break by lowest block id.  Returns the Haar filtration and the
    index map: output level index_map[j] equals input level j.

    Each carved row is written canonical in linear time.  Children are
    carved in block order, so each holds its parent's first atom and keeps
    the parent's label; the rest of the parent is the new block, labelled
    one above the largest label before its first atom, and later labels
    move up one.
    """
    # output row r has r + 1 blocks, and the last one is the input's last level
    out = np.zeros((filt.levels[-1].n_blocks, filt.space.n_atoms), dtype=np.int64)
    index_map: list[int] = []
    r = 0
    for lvl in filt.levels:
        firsts = lvl.first_atoms()
        parents = out[r][firsts]
        # children grouped by parent in block order; all but each group's
        # last child are carved off one at a time
        order = np.argsort(parents, kind="stable")
        for child in order[:-1][parents[order[1:]] == parents[order[:-1]]]:
            r += 1
            prev = out[r - 1]
            rest = (prev == prev[firsts[child]]) & (lvl.block_of != child)
            top = prev[: np.argmax(rest)].max()
            out[r] = prev + (prev > top)
            out[r, rest] = top + 1
        index_map.append(r)
    return Filtration(_read_only(out), filt.space), index_map


@dataclass(frozen=True)
class DyadicHaarApproximation:
    """A dyadic Haar filtration close to a given Haar filtration.

    ``symdiff[j]`` holds mu(B symm-diff B~) for every block id B of the
    input's level j, in the input's block order.
    """

    filtration: Filtration
    symdiff: list[np.ndarray]

    @property
    def max_symdiff(self) -> float:
        return max((float(np.max(s)) if s.size else 0.0) for s in self.symdiff)


def _grid_exponent(space: AtomicMeasureSpace) -> int:
    n = space.n_atoms
    k = n.bit_length() - 1
    if (1 << k) != n:
        raise ValueError("construction requires a 2^k-atom grid")
    if not np.all(space.masses == space.masses[0]):
        raise ValueError("construction requires equal atom masses")
    return k


def dyadic_haar_approximate(filt: Filtration, eps: float) -> DyadicHaarApproximation:
    """Greedy dyadic Haar approximation on an equal-mass 2^k grid.

    Follows the splitting order of the input: when B splits into B' and
    B'', the approximating block B~ is split into B~' containing
    B~ intersect B' whose mass is a dyadic fraction of mu(B~).  Each step
    may overshoot by less than eps/(levels+1), so every accumulated
    symmetric difference mu(B symm-diff B~) stays below eps.  Among the
    admissible dyadic child sizes the one keeping the children most
    divisible (highest two-adic valuations) is taken, which is what the
    divisibility of the idealized construction degrades to on a grid.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    k = _grid_exponent(filt.space)
    parents, children, _, _ = _input_splits(filt)
    n_levels = len(parents)
    atom_mass = float(filt.space.masses[0])
    if eps <= atom_mass * max(n_levels, 1):
        raise ResolutionError(
            f"eps={eps} is not achievable with atom mass {atom_mass}",
            required_k=k + max(1, math.ceil(math.log2(atom_mass * max(n_levels, 1) / eps)) + 1),
        )
    budget = eps / (n_levels + 1)

    masses = filt.space.masses
    # tilde[atom] = input block id (at the current level) of the
    # approximating block holding the atom
    tilde = np.zeros(filt.space.n_atoms, dtype=np.int64)
    out = np.zeros((n_levels + 1, filt.space.n_atoms), dtype=np.int64)
    symdiffs = [np.zeros(1)]

    for j, (b, c2) in enumerate(zip(parents.tolist(), children.tolist()), start=1):
        # B splits into B' = c1, which keeps B's label, and B'' = c2
        prev, nxt, c1 = filt.levels[j - 1], filt.levels[j], b
        tilde_b = np.flatnonzero(tilde == b)
        in_c1 = nxt.block_of[tilde_b] == c1
        s = tilde_b.size
        odd = s >> (s & -s).bit_length() - 1
        i0 = int(in_c1.sum())
        lo = ((max(i0, 1) + odd - 1) // odd) * odd
        candidates = [
            i
            for i in range(lo, s, odd)
            if (i - i0) * atom_mass < budget
        ]
        if not candidates:
            needed = math.ceil(
                math.log2(max(odd, 2) * atom_mass * (n_levels + 1) / eps)
            )
            raise ResolutionError(
                f"cannot realize a dyadic split of a {s}-atom block within "
                f"budget {budget}",
                required_k=k + max(1, needed),
            )

        def valuations(i: int) -> int:
            return (i & -i).bit_length() + ((s - i) & -(s - i)).bit_length()

        i = max(candidates, key=lambda c: (valuations(c), -c))
        rest = tilde_b[~in_c1]
        in_parent = prev.block_of[rest] == b
        # prefer junk atoms (outside the true parent) as filler so that the
        # complementary block keeps as much of B'' as possible
        filler = np.concatenate([rest[~in_parent], rest[in_parent]])

        # unchanged blocks keep their parent's atoms under the new block id
        tilde += tilde >= c2
        tilde[tilde_b] = c2
        tilde[tilde_b[in_c1]] = c1
        tilde[filler[: i - i0]] = c1
        out[j] = tilde

        # mass of the atoms each block gains or loses; equal atom masses
        # make these sums exact in any order
        off = np.where(tilde != nxt.block_of, masses, 0.0)
        nb = nxt.n_blocks
        symdiffs.append(np.bincount(nxt.block_of, off, nb) + np.bincount(tilde, off, nb))

    # rows hold input block ids, in first-occurrence order unless the
    # approximating blocks start in another order than the input's; those
    # few rows are found in one pass over the matrix and renumbered here,
    # so the constructor keeps every row
    top = np.maximum.accumulate(out, axis=1)
    for j in np.flatnonzero((out[:, 0] != 0) | np.any(top[:, 1:] > top[:, :-1] + 1, axis=1)):
        first = np.full(j + 1, out.shape[1])
        np.minimum.at(first, out[j], np.arange(out.shape[1]))
        out[j] = np.argsort(np.argsort(first))[out[j]]  # block ids by first atom
    return DyadicHaarApproximation(Filtration(_read_only(out), filt.space), symdiffs)


def perturb_last_split(filt: Filtration) -> Filtration:
    """Move one atom across the final split boundary of a Haar filtration.

    Starting from a dyadic Haar filtration this typically produces a last
    split whose mass ratio is no longer dyadic, which is the mildest
    input that makes the dyadic approximation do actual work.  Any other
    input raises ``ValueError``, as in :func:`dyadic_haar_approximate`.
    """
    parents, children, _, _ = _input_splits(filt)
    if parents.size == 0:
        return filt
    c1, c2, last = int(parents[-1]), int(children[-1]), filt.levels[-1]
    atoms_c1 = np.flatnonzero(last.block_of == c1)
    atoms_c2 = np.flatnonzero(last.block_of == c2)
    labels = filt.labels.copy()
    if atoms_c1.size >= 2:
        labels[-1, atoms_c1[-1]] = c2
    elif atoms_c2.size >= 2:
        labels[-1, atoms_c2[0]] = c1
    else:
        return filt
    return Filtration(_read_only(labels), filt.space)


@dataclass(frozen=True)
class BooleanIsomorphism:
    """Equivalence of a dyadic Haar filtration with one on a dyadic grid.

    ``grid`` is a 2^grid_exponent equal-atom model of [0,1).  Level j of
    ``filtration`` is the mapped copy of the input's level j; each of its
    blocks is a union of dyadic intervals of level ``dyadic_levels[j]``.
    ``pullback[o]`` names the input atom whose image covers output atom o,
    so a function f measurable w.r.t. the input's finest algebra maps to
    f.values[pullback].
    """

    grid: AtomicMeasureSpace
    grid_exponent: int
    filtration: Filtration
    dyadic_levels: list[int]
    pullback: np.ndarray = field(repr=False)

    def push_function(self, f: StepFunction) -> StepFunction:
        return StepFunction(f.values[self.pullback], f.space, self.grid)

    def dyadic_level_partition(self, j: int) -> Partition:
        return dyadic_partition(self.grid, self.dyadic_levels[j], self.grid_exponent)


def boolean_isomorphism(filt: Filtration) -> BooleanIsomorphism:
    """Realize a dyadic Haar filtration inside the dyadic intervals.

    Splits are replayed on integer cell labels, level j holding one block
    id per dyadic interval of resolution 2^dyadic_levels[j]: when a block
    splits off the mass fraction m/2^r, each of its cells gives its first
    m of 2^r sub-cells to the first child and the rest to the second.
    Distributing every split uniformly across the cells is what makes
    conditional expectations with respect to level j and with respect to
    the full dyadic algebra at resolution ``dyadic_levels[j]`` agree for
    functions measurable w.r.t. the finest input algebra.  The grid size
    follows from the split ratios and atom masses alone, so a grid over
    2^MAX_GRID_EXPONENT atoms raises ``ResolutionError`` before any work.
    """
    parents, children, m1, m2 = _input_splits(filt)
    if abs(filt.space.total_mass - 1.0) > 1e-12:
        raise ValueError("construction requires a probability space")
    ratios = [Fraction(c1, c1 + c2) for c1, c2 in zip(m1.tolist(), m2.tolist())]
    if any(q.denominator & (q.denominator - 1) for q in ratios):
        raise ValueError("split mass ratios must be dyadic fractions")
    dyadic_levels = list(accumulate((q.denominator.bit_length() - 1 for q in ratios), initial=0))
    # every finite float is a dyadic rational: each atom fills whole cells
    atom_exp = max(Fraction(m).denominator.bit_length() for m in set(filt.space.masses.tolist())) - 1
    k_out = max(dyadic_levels[-1], atom_exp, 1)
    if k_out > MAX_GRID_EXPONENT:
        # the replayed splits commit one extra dyadic generation each, so
        # long filtrations genuinely need exponentially fine realizations
        raise ResolutionError(f"the equivalent filtration needs a 2^{k_out} grid", k_out)

    cells = [np.zeros(1, dtype=np.int64)]
    for j, (q, b, c2) in enumerate(zip(ratios, parents.tolist(), children.tolist()), start=1):
        # unchanged blocks keep their parent's cells under the new block id;
        # the child keeping b's first cell keeps its label
        n_sub = 1 << (dyadic_levels[j] - dyadic_levels[j - 1])
        grown = np.repeat(cells[-1] + (cells[-1] >= c2), n_sub).reshape(-1, n_sub)
        in_b = cells[-1] == b
        grown[in_b, : q.numerator] = b
        grown[in_b, q.numerator :] = c2
        cells.append(grown.ravel())
    grid = dyadic_grid(k_out)
    out = np.empty((len(cells), grid.n_atoms), dtype=np.int64)
    for row, c, k in zip(out, cells, dyadic_levels):
        row.reshape(c.size, -1)[:] = c[:, None]

    # each block's grid atoms, in order, are covered by its input atoms in
    # order, each input atom taking mass * 2^k_out consecutive grid atoms
    final, grid_blocks = filt.levels[-1], np.repeat(cells[-1], 1 << (k_out - dyadic_levels[-1]))
    spans = (filt.space.masses * grid.n_atoms).astype(np.int64)
    have = np.bincount(grid_blocks, minlength=final.n_blocks)
    need = np.bincount(final.block_of, spans, final.n_blocks).astype(np.int64)
    if not np.array_equal(have, need):
        bb = int(np.flatnonzero(have != need)[0])
        raise AssertionError(f"block {bb} maps onto {need[bb]} of {have[bb]} grid atoms")
    in_atoms = np.argsort(final.block_of, kind="stable")
    pullback = np.empty(grid.n_atoms, dtype=np.int64)
    pullback[np.argsort(grid_blocks, kind="stable")] = np.repeat(in_atoms, spans[in_atoms])
    mapped = Filtration(_read_only(out), grid)
    return BooleanIsomorphism(grid, k_out, mapped, dyadic_levels, pullback)


def filtration_to_json(filt: Filtration) -> dict:
    return {
        "masses": filt.space.masses.tolist(),
        "levels": filt.labels.tolist(),
    }


def filtration_from_json(obj: dict) -> Filtration:
    space = AtomicMeasureSpace(obj["masses"])
    if any(len(lv) != space.n_atoms for lv in obj["levels"]):
        raise ValueError("label count must match atom count")
    return Filtration(np.array(obj["levels"], dtype=np.int64), space)
