"""Atomic measure spaces, partitions-as-algebras, filtrations, conditional
expectations, and the reduction constructions that relate arbitrary
filtrations of finite algebras to the dyadic intervals of the unit
interval.

A finite algebra is encoded by its generating partition (one block id per
atom).  A filtration is an increasing (refining) sequence of partitions; a
Haar filtration splits exactly one block per level, dyadic/standard Haar
filtrations constrain the split mass ratios to dyadic fractions / exact
halves.  Dyadic-ness checks are exact: every float is a dyadic rational,
so mass ratios are compared via ``fractions.Fraction`` without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .spaces import Space, norms_of

GENERAL = "general"
DYADIC = "dyadic"
STANDARD = "standard"


class ResolutionError(ValueError):
    """A grid is too coarse for a requested construction.

    ``required_k`` names a grid exponent at which the construction would
    have enough resolution.
    """

    def __init__(self, message: str, required_k: int):
        super().__init__(f"{message} (grid of 2^{required_k} atoms suffices)")
        self.required_k = required_k


@dataclass(frozen=True)
class AtomicMeasureSpace:
    """Finitely many atoms with positive masses."""

    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).ravel()
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
        return AtomicMeasureSpace(self.masses / self.total_mass)

    def __eq__(self, other):
        return isinstance(other, AtomicMeasureSpace) and np.array_equal(
            self.masses, other.masses
        )

    def __hash__(self):
        return hash(self.masses.tobytes())


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    out = np.empty(labels.size, dtype=np.int64)
    seen: dict[int, int] = {}
    for i, b in enumerate(labels.tolist()):
        if b not in seen:
            seen[b] = len(seen)
        out[i] = seen[b]
    return out


@dataclass(frozen=True)
class Partition:
    """Partition of the atoms into nonempty blocks.

    Block ids are canonical: numbered by first atom occurrence, so two
    partitions with the same blocks compare equal.
    """

    block_of: np.ndarray = field(repr=False)
    space: AtomicMeasureSpace

    def __post_init__(self):
        labels = np.asarray(self.block_of, dtype=np.int64).ravel()
        if labels.size != self.space.n_atoms:
            raise ValueError("label count must match atom count")
        object.__setattr__(self, "block_of", _canonical_labels(labels))

    @property
    def n_blocks(self) -> int:
        return int(self.block_of.max()) + 1

    def blocks(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.block_of == b) for b in range(self.n_blocks)]

    def block_masses(self) -> np.ndarray:
        return np.bincount(self.block_of, weights=self.space.masses, minlength=self.n_blocks)

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.space == other.space
            and np.array_equal(self.block_of, other.block_of)
        )

    def __hash__(self):
        return hash(self.block_of.tobytes())


def trivial_partition(space: AtomicMeasureSpace) -> Partition:
    return Partition(np.zeros(space.n_atoms, dtype=np.int64), space)


def atom_partition(space: AtomicMeasureSpace) -> Partition:
    return Partition(np.arange(space.n_atoms, dtype=np.int64), space)


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of ``fine`` lies inside one block of ``coarse``."""
    if fine.space != coarse.space:
        raise ValueError("partitions live on different spaces")
    pairs = {(int(f), int(c)) for f, c in zip(fine.block_of, coarse.block_of)}
    fine_ids = [f for f, _ in pairs]
    return len(fine_ids) == len(set(fine_ids))


@dataclass(frozen=True)
class Filtration:
    """Increasing sequence of partitions (each refines its predecessor)."""

    levels: tuple[Partition, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("filtration needs at least one level")
        space = levels[0].space
        for prev, nxt in zip(levels, levels[1:]):
            if nxt.space != space:
                raise ValueError("all levels must share one measure space")
            if not is_refinement(nxt, prev):
                raise ValueError("each level must refine its predecessor")

    @property
    def space(self) -> AtomicMeasureSpace:
        return self.levels[0].space

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


def conditional_expectation(f: StepFunction, pi: Partition) -> StepFunction:
    """Mass-weighted block averages of ``f``; constant on each block.

    Integrals over blocks are preserved: sum_A masses * output = sum_A
    masses * f for every block A.
    """
    if pi.space != f.base:
        raise ValueError("partition and function live on different spaces")
    masses = f.base.masses
    nb = pi.n_blocks
    weighted = np.zeros((nb, f.values.shape[1]))
    np.add.at(weighted, pi.block_of, masses[:, None] * f.values)
    block_mass = pi.block_masses()
    averages = weighted / block_mass[:, None]
    return StepFunction(averages[pi.block_of], f.space, f.base)


def make_dyadic_filtration(k: int) -> tuple[AtomicMeasureSpace, Filtration]:
    """2^k equal atoms modeling [0,1) with the dyadic-interval levels 0..k."""
    if k < 1:
        raise ValueError("grid exponent must be >= 1")
    n = 1 << k
    space = AtomicMeasureSpace(np.full(n, 2.0**-k))
    idx = np.arange(n)
    levels = [Partition(idx >> (k - j), space) for j in range(k + 1)]
    return space, Filtration(tuple(levels))


def dyadic_partition(space: AtomicMeasureSpace, level: int, k: int) -> Partition:
    """Level-``level`` dyadic intervals on a 2^k-atom grid."""
    if level < 0 or level > k:
        raise ValueError("dyadic level out of range")
    idx = np.arange(space.n_atoms)
    return Partition(idx >> (k - level), space)


def _is_dyadic_ratio(child_mass: float, parent_mass: float) -> bool:
    ratio = Fraction(child_mass) / Fraction(parent_mass)
    d = ratio.denominator
    return d & (d - 1) == 0


def _split_ratio(child_mass: float, parent_mass: float) -> Fraction:
    return Fraction(child_mass) / Fraction(parent_mass)


def random_haar_filtration(
    space: AtomicMeasureSpace, steps: int, kind: str = GENERAL, seed: int = 0
) -> Filtration:
    """Seeded Haar filtration: level j has exactly j+1 blocks.

    Each level splits one block of its predecessor into a prefix/suffix
    pair (in atom-index order).  ``kind`` constrains the split masses:
    dyadic requires the child/parent mass ratio to be a dyadic fraction,
    standard requires exact halves.
    """
    if kind not in (GENERAL, DYADIC, STANDARD):
        raise ValueError(f"unknown Haar kind {kind!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.default_rng(seed)
    equal_masses = bool(np.all(space.masses == space.masses[0]))
    levels = [trivial_partition(space)]
    for step in range(steps):
        cur = levels[-1]
        options: list[tuple[int, int]] = []
        block_sizes = np.bincount(cur.block_of, minlength=cur.n_blocks)
        for b, atoms in enumerate(cur.blocks()):
            if atoms.size < 2:
                continue
            block_mass = float(np.sum(space.masses[atoms]))
            prefix = np.cumsum(space.masses[atoms])
            for s in range(1, atoms.size):
                pm = float(prefix[s - 1])
                if kind == STANDARD and pm != block_mass / 2:
                    continue
                if kind == DYADIC and not _is_dyadic_ratio(pm, block_mass):
                    continue
                options.append((b, s))
        if not options:
            raise ValueError(
                f"no admissible {kind} split exists after {len(levels) - 1} steps"
            )
        if kind == DYADIC and equal_masses and step < steps - 1:
            # on an equal-mass grid a block of n atoms supports at most
            # 2^(v2(n)) - 1 further dyadic splits (odd counts are dead), so
            # keep only splits leaving enough total capacity
            remaining = steps - step - 1

            def capacity(c: int) -> int:
                return (c & -c) - 1

            def survives(opt):
                b, s = opt
                sizes = [s, int(block_sizes[b]) - s] + [
                    int(c) for bb, c in enumerate(block_sizes) if bb != b
                ]
                return sum(capacity(c) for c in sizes) >= remaining

            viable = [opt for opt in options if survives(opt)]
            options = viable or options
        blocks_with_options = sorted({b for b, _ in options})
        b = blocks_with_options[int(rng.integers(len(blocks_with_options)))]
        sizes = [s for bb, s in options if bb == b]
        s = sizes[int(rng.integers(len(sizes)))]
        atoms = np.flatnonzero(cur.block_of == b)
        labels = cur.block_of.copy()
        labels[atoms[s:]] = cur.n_blocks
        levels.append(Partition(labels, space))
    return Filtration(tuple(levels))


def haar_splits(filt: Filtration) -> list[tuple[float, float, float]]:
    """(parent, child1, child2) masses per level of a Haar filtration.

    Raises if any transition is not a single two-way split.
    """
    out = []
    for prev, nxt in zip(filt.levels, filt.levels[1:]):
        if nxt.n_blocks != prev.n_blocks + 1:
            raise ValueError("not a Haar filtration: block count must grow by one")
        split_parent = None
        for b, atoms in enumerate(prev.blocks()):
            children = np.unique(nxt.block_of[atoms])
            if children.size == 1:
                continue
            if children.size != 2 or split_parent is not None:
                raise ValueError("not a Haar filtration: exactly one block may split")
            split_parent = (b, children)
        if split_parent is None:
            raise ValueError("not a Haar filtration: a level did not refine")
        b, children = split_parent
        pm = float(prev.block_masses()[b])
        cm = nxt.block_masses()
        out.append((pm, float(cm[children[0]]), float(cm[children[1]])))
    return out


def is_haar(filt: Filtration) -> bool:
    if filt.levels[0].n_blocks != 1:
        return False
    try:
        haar_splits(filt)
    except ValueError:
        return False
    return True


def haar_kind(filt: Filtration) -> str:
    """Finest split-mass class of a Haar filtration: standard < dyadic < general."""
    splits = haar_splits(filt)
    if filt.levels[0].n_blocks != 1:
        raise ValueError("Haar filtrations start from the trivial algebra")
    if all(c1 == c2 for _, c1, c2 in splits):
        return STANDARD
    if all(_is_dyadic_ratio(c1, p) for p, c1, _ in splits):
        return DYADIC
    return GENERAL


def is_standard_haar(filt: Filtration) -> bool:
    return is_haar(filt) and haar_kind(filt) == STANDARD


def is_dyadic_haar(filt: Filtration) -> bool:
    return is_haar(filt) and haar_kind(filt) in (STANDARD, DYADIC)


def haar_embed(filt: Filtration) -> tuple[Filtration, list[int]]:
    """Embed a filtration of finite algebras into a Haar filtration.

    One block is added per output level; ties (which child to carve
    first) break by lowest block id.  Returns the Haar filtration and the
    index map: output level index_map[j] equals input level j.
    """
    base = filt.space
    out: list[Partition] = [trivial_partition(base)]
    index_map: list[int] = []
    for lvl in filt.levels:
        cur = out[-1]
        work = cur.block_of.copy()
        next_label = int(work.max()) + 1
        for b in range(cur.n_blocks):
            atoms = np.flatnonzero(cur.block_of == b)
            children = sorted(np.unique(lvl.block_of[atoms]).tolist())
            if len(children) <= 1:
                continue
            for child in children[:-1]:
                carve = atoms[lvl.block_of[atoms] == child]
                work[carve] = next_label
                next_label += 1
                out.append(Partition(work.copy(), base))
        index_map.append(len(out) - 1)
    return Filtration(tuple(out)), index_map


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
    k = _grid_exponent(filt.space)
    if not is_haar(filt):
        raise ValueError("input must be a Haar filtration")
    n_levels = len(filt.levels) - 1
    atom_mass = float(filt.space.masses[0])
    if eps <= atom_mass * max(n_levels, 1):
        raise ResolutionError(
            f"eps={eps} is not achievable with atom mass {atom_mass}",
            required_k=k + max(1, math.ceil(math.log2(atom_mass * max(n_levels, 1) / eps)) + 1),
        )
    budget = eps / (n_levels + 1)

    # tilde_map[input block id at current level] -> sorted atom indices
    tilde_map: dict[int, np.ndarray] = {0: np.arange(filt.space.n_atoms)}
    out_levels = [trivial_partition(filt.space)]
    symdiffs: list[list[float]] = [[0.0]]

    for j in range(1, n_levels + 1):
        prev, nxt = filt.levels[j - 1], filt.levels[j]
        parent = None
        for b, atoms in enumerate(prev.blocks()):
            children = np.unique(nxt.block_of[atoms])
            if children.size == 2:
                parent = (b, int(children[0]), int(children[1]))
                break
        if parent is None:
            raise AssertionError(f"level {j} splits no block of level {j - 1}")
        b, c1, c2 = parent
        tilde_b = tilde_map[b]
        in_c1 = np.flatnonzero(nxt.block_of == c1)
        s = tilde_b.size
        odd = s >> (s & -s).bit_length() - 1
        i0 = int(np.isin(tilde_b, in_c1).sum())
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
        inside = tilde_b[np.isin(tilde_b, in_c1)]
        rest = tilde_b[~np.isin(tilde_b, in_c1)]
        in_parent = np.isin(rest, np.flatnonzero(prev.block_of == b))
        # prefer junk atoms (outside the true parent) as filler so that the
        # complementary block keeps as much of B'' as possible
        filler = np.concatenate([rest[~in_parent], rest[in_parent]])
        tilde_c1 = np.sort(np.concatenate([inside, filler[: i - i0]]))
        tilde_c2 = np.sort(filler[i - i0 :])

        new_map = {}
        for bb in range(nxt.n_blocks):
            if bb == c1:
                new_map[bb] = tilde_c1
            elif bb == c2:
                new_map[bb] = tilde_c2
            else:
                # unchanged blocks keep their atoms; find them through prev
                src = prev.block_of[np.flatnonzero(nxt.block_of == bb)[0]]
                new_map[bb] = tilde_map[int(src)]
        tilde_map = new_map

        labels = np.empty(filt.space.n_atoms, dtype=np.int64)
        for bb, atoms in tilde_map.items():
            labels[atoms] = bb
        out_levels.append(Partition(labels, filt.space))

        diffs = []
        for bb in range(nxt.n_blocks):
            true_atoms = np.flatnonzero(nxt.block_of == bb)
            sym = np.setxor1d(true_atoms, tilde_map[bb])
            diffs.append(float(np.sum(filt.space.masses[sym])))
        symdiffs.append(diffs)

    return DyadicHaarApproximation(
        Filtration(tuple(out_levels)), [np.array(d) for d in symdiffs]
    )


def perturb_last_split(filt: Filtration) -> Filtration:
    """Move one atom across the final split boundary of a Haar filtration.

    Starting from a dyadic Haar filtration this typically produces a last
    split whose mass ratio is no longer dyadic, which is the mildest
    input that makes the dyadic approximation do actual work.
    """
    if len(filt.levels) < 2:
        return filt
    prev, last = filt.levels[-2], filt.levels[-1]
    parent = None
    for b, atoms in enumerate(prev.blocks()):
        children = np.unique(last.block_of[atoms])
        if children.size == 2:
            parent = (int(children[0]), int(children[1]))
            break
    if parent is None:
        return filt
    c1, c2 = parent
    atoms_c1 = np.flatnonzero(last.block_of == c1)
    atoms_c2 = np.flatnonzero(last.block_of == c2)
    labels = last.block_of.copy()
    if atoms_c1.size >= 2:
        labels[atoms_c1[-1]] = c2
    elif atoms_c2.size >= 2:
        labels[atoms_c2[0]] = c1
    else:
        return filt
    return Filtration(tuple(filt.levels[:-1]) + (Partition(labels, filt.space),))


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

    Splits are replayed on [0,1) with exact dyadic arithmetic: when a
    block splits off the mass fraction m/2^r, every dyadic interval of
    the block (at the current resolution) contributes its first m
    sub-intervals of r generations finer.  Distributing every split
    uniformly across the committed intervals is what makes conditional
    expectations with respect to level j and with respect to the full
    dyadic algebra at resolution ``dyadic_levels[j]`` agree for functions
    measurable w.r.t. the finest input algebra.
    """
    if not is_haar(filt):
        raise ValueError("input must be a Haar filtration")
    if abs(filt.space.total_mass - 1.0) > 1e-12:
        raise ValueError("construction requires a probability space")
    for m in filt.space.masses:
        fr = Fraction(float(m))
        if fr.denominator & (fr.denominator - 1):
            raise ValueError("atom masses must be dyadic rationals")

    # regions: per current block id, list of disjoint dyadic intervals
    regions: dict[int, list[tuple[Fraction, Fraction]]] = {
        0: [(Fraction(0), Fraction(1))]
    }
    level_regions = [dict(regions)]
    k_cur = 0
    dyadic_levels = [0]
    for j in range(1, len(filt.levels)):
        prev, nxt = filt.levels[j - 1], filt.levels[j]
        parent = None
        for b, atoms in enumerate(prev.blocks()):
            children = np.unique(nxt.block_of[atoms])
            if children.size == 2:
                parent = (b, int(children[0]), int(children[1]))
                break
        if parent is None:
            raise AssertionError(f"level {j} splits no block of level {j - 1}")
        b, c1, c2 = parent
        pm = prev.block_masses()[b]
        cm = nxt.block_masses()
        ratio = _split_ratio(float(cm[c1]), float(pm))
        denom = ratio.denominator
        if denom & (denom - 1):
            raise ValueError("split mass ratios must be dyadic fractions")
        r = denom.bit_length() - 1
        m = ratio.numerator
        width = Fraction(1, 1 << k_cur)
        sub = width / denom
        first: list[tuple[Fraction, Fraction]] = []
        rest: list[tuple[Fraction, Fraction]] = []
        for a, e in regions[b]:
            pos = a
            while pos < e:
                first.append((pos, pos + m * sub))
                rest.append((pos + m * sub, pos + width))
                pos += width
        new_regions = {}
        for bb in range(nxt.n_blocks):
            if bb == c1:
                new_regions[bb] = first
            elif bb == c2:
                new_regions[bb] = rest
            else:
                src = prev.block_of[np.flatnonzero(nxt.block_of == bb)[0]]
                new_regions[bb] = regions[int(src)]
        regions = new_regions
        k_cur += r
        dyadic_levels.append(k_cur)
        level_regions.append(dict(regions))

    atom_exp = max(
        (Fraction(float(m)).denominator.bit_length() - 1 for m in filt.space.masses),
        default=0,
    )
    k_out = max(k_cur, atom_exp, 1)
    if k_out > 22:
        # the replayed splits commit one extra dyadic generation each, so
        # long filtrations genuinely need exponentially fine realizations
        raise ResolutionError(
            f"the equivalent filtration needs a 2^{k_out} grid", required_k=k_out
        )
    n_out = 1 << k_out
    grid = AtomicMeasureSpace(np.full(n_out, 2.0**-k_out))

    def atoms_of(intervals: list[tuple[Fraction, Fraction]]) -> np.ndarray:
        idx: list[np.ndarray] = []
        for a, e in intervals:
            lo = a * n_out
            hi = e * n_out
            idx.append(np.arange(int(lo), int(hi)))
        return np.sort(np.concatenate(idx)) if idx else np.empty(0, dtype=int)

    out_levels = []
    for regs in level_regions:
        labels = np.empty(n_out, dtype=np.int64)
        for bb, intervals in regs.items():
            labels[atoms_of(intervals)] = bb
        out_levels.append(Partition(labels, grid))

    final = filt.levels[-1]
    pullback = np.empty(n_out, dtype=np.int64)
    for bb, intervals in level_regions[-1].items():
        out_atoms = atoms_of(intervals)
        in_atoms = np.flatnonzero(final.block_of == bb)
        pos = 0
        for a in in_atoms:
            span = int(Fraction(float(filt.space.masses[a])) * n_out)
            pullback[out_atoms[pos : pos + span]] = a
            pos += span
        if pos != out_atoms.size:
            raise AssertionError(f"block {bb} maps onto {pos} of {out_atoms.size} grid atoms")

    return BooleanIsomorphism(
        grid, k_out, Filtration(tuple(out_levels)), dyadic_levels, pullback
    )


@dataclass(frozen=True)
class ProductBase:
    """Product of two atomic spaces, outer index major."""

    outer: AtomicMeasureSpace
    inner: AtomicMeasureSpace

    def combined(self) -> AtomicMeasureSpace:
        return AtomicMeasureSpace(np.kron(self.outer.masses, self.inner.masses))

    def lift_partition(self, pi: Partition) -> Partition:
        if pi.space != self.outer:
            raise ValueError("partition must live on the outer space")
        ni = self.inner.n_atoms
        return Partition(np.repeat(pi.block_of, ni), self.combined())

    def lift_filtration(self, filt: Filtration) -> Filtration:
        return Filtration(tuple(self.lift_partition(p) for p in filt.levels))

    def lift_function(self, f: StepFunction) -> StepFunction:
        if f.base != self.outer:
            raise ValueError("function must live on the outer space")
        return StepFunction(
            np.repeat(f.values, self.inner.n_atoms, axis=0), f.space, self.combined()
        )


def filtration_to_json(filt: Filtration) -> dict:
    return {
        "masses": filt.space.masses.tolist(),
        "levels": [p.block_of.tolist() for p in filt.levels],
    }


def filtration_from_json(obj: dict) -> Filtration:
    space = AtomicMeasureSpace(np.asarray(obj["masses"], dtype=float))
    return Filtration(
        tuple(Partition(np.asarray(lv, dtype=np.int64), space) for lv in obj["levels"])
    )
