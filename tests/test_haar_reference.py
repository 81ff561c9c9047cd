"""The Haar generator, the split reader and the filtration constructor
against frozen copies of the per-level code they replaced.

The frozen copies below run one numpy round per level: a pass over every
cut position per generator step, one search of the block parents for the
block that splits in two and two mask sums per level, and one canonical
check and one refinement check per row.  The current code, which reads
every level's split at once, must give the same labels, the same split
labels and masses and the same error text on every input.
"""

from fractions import Fraction

import numpy as np
import pytest

from rmflab.filtration import (
    AtomicMeasureSpace,
    Filtration,
    _split_units,
    block_parents,
    haar_kind,
    random_haar_filtration,
)

from helpers import haar_splits, is_haar


# ------------------------------------------------------------ frozen copies
def frozen_mass_units(masses):
    uniq, inverse = np.unique(masses, return_inverse=True)
    fracs = [Fraction(m) for m in uniq.tolist()]
    unit = max(f.denominator for f in fracs)
    units = [f.numerator * (unit // f.denominator) for f in fracs]
    fits = max(units) * masses.size < 2**62
    return np.array(units, dtype=np.int64 if fits else object)[inverse]


def frozen_is_dyadic_split(part, whole):
    return part % (whole // (whole & -whole)) == 0


def frozen_uniform_capacity(c):
    return (c & -c) - 1


def frozen_haar_rows(masses, steps, kind, seed):
    """Label matrix of the generator with one array pass per step."""
    rng = np.random.default_rng(seed)
    n = masses.size
    units = frozen_mass_units(masses)
    prefix = np.zeros(n + 1, dtype=units.dtype)
    np.cumsum(units, out=prefix[1:])
    run_ends = np.append(np.flatnonzero(units[1:] != units[:-1]) + 1, n)
    run_end = run_ends[np.searchsorted(run_ends, np.arange(n), side="right")]
    memo = {}

    def capacity(lo, hi):
        if run_end[lo] >= hi:
            return frozen_uniform_capacity(hi - lo)
        if (lo, hi) not in memo:
            part = prefix[lo + 1 : hi] - prefix[lo]
            dyadic = lo + 1 + np.flatnonzero(frozen_is_dyadic_split(part, prefix[hi] - prefix[lo]))
            memo[lo, hi] = max((1 + capacity(lo, c) + capacity(c, hi) for c in dyadic.tolist()), default=0)
        return memo[lo, hi]

    if kind == "dyadic" and capacity(0, n) < steps:
        raise ValueError(f"no dyadic Haar filtration of {steps} steps exists on this space")
    cuts = [0, n]
    rows = np.zeros((steps + 1, n), dtype=np.int64)
    for step in range(steps):
        labels = rows[step]
        block, edges = labels[1:], np.array(cuts)
        lo, hi = edges[block], edges[block + 1]
        ok = labels[:-1] == block
        if kind != "general":
            part, whole = prefix[1:-1] - prefix[lo], prefix[hi] - prefix[lo]
            ok &= 2 * part == whole if kind == "standard" else frozen_is_dyadic_split(part, whole)
        at, block, lo, hi = np.flatnonzero(ok) + 1, block[ok], lo[ok], hi[ok]
        if at.size == 0:
            raise ValueError(f"no admissible {kind} split exists after {step} steps")
        if kind == "dyadic" and step < steps - 1:
            caps = np.array([capacity(a, z) for a, z in zip(cuts, cuts[1:])])
            rest = frozen_uniform_capacity(at - lo) + frozen_uniform_capacity(hi - at)
            mixed = np.flatnonzero(run_end[lo] < hi)
            ends = zip(lo[mixed].tolist(), at[mixed].tolist(), hi[mixed].tolist())
            rest[mixed] = [capacity(a, c) + capacity(c, z) for a, c, z in ends]
            keep = caps.sum() - caps[block] + rest >= steps - step - 1
            at, block = at[keep], block[keep]
        blocks = np.flatnonzero(np.bincount(block))
        b = int(blocks[int(rng.integers(blocks.size))])
        at = at[block == b]
        cut = int(at[int(rng.integers(at.size))])
        cuts.insert(b + 1, cut)
        rows[step + 1] = labels
        rows[step + 1, cut:] += 1
    return rows


def frozen_canonical_row(labels):
    if labels.size and labels[0] == 0 and labels.min() >= 0:
        top = np.maximum.accumulate(labels) if (labels[1:] < labels[:-1]).any() else labels
        first = np.concatenate(([True], top[1:] != top[:-1])).nonzero()[0]
        if first.size - 1 == top[-1]:
            return labels
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[order] = np.arange(first.size)
    return rank[inverse]


def frozen_filtration_rows(labels, n_atoms):
    """Canonical label matrix by one check per row, or the error text."""
    labels = np.array(labels, dtype=np.int64)
    if labels.ndim != 2 or labels.shape[0] == 0:
        return "labels must be a (levels, atoms) matrix with at least one level"
    rows = []
    for row in labels:
        if row.size != n_atoms:
            return "label count must match atom count"
        rows.append(frozen_canonical_row(row))
    for coarse, fine in zip(rows, rows[1:]):
        firsts = np.unique(fine, return_index=True)[1]
        if not np.array_equal(coarse[firsts][fine], coarse):
            return "each level must refine its predecessor"
    return np.stack(rows).tolist()


def frozen_haar_splits(rows, masses):
    """(parent, child1, child2) per level by one split per level, or the error text."""
    units = frozen_mass_units(masses)
    out = []
    for prev, nxt in zip(rows, rows[1:]):
        if nxt.max() != prev.max() + 1:
            return "not a Haar filtration: block count must grow by one"
        firsts = np.unique(nxt, return_index=True)[1]
        parents = prev[firsts]
        b = int(np.flatnonzero(np.bincount(parents) == 2)[0])
        c1, c2 = np.flatnonzero(parents == b)
        m1, m2 = (int(units[nxt == c].sum()) for c in (c1, c2))
        out.append((m1 + m2, m1, m2))
    if rows[0].max() != 0:
        return "Haar filtrations start from the trivial algebra"
    return out


# ------------------------------------------------------------------- inputs
def sweep_masses(k, mixed):
    """2^k float-exact atom masses: equal, or a few runs of unequal ones."""
    n = 1 << k
    if not mixed:
        return np.full(n, 2.0**-k)
    rng = np.random.default_rng(k)
    runs = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
    units = np.repeat(rng.integers(1, 4, size=runs.size + 1), np.diff(np.concatenate(([0], runs, [n]))))
    return units / 2.0 ** (k + 2)


SWEEP = [
    (kind, k, mixed)
    for kind in ("general", "dyadic", "standard")
    for k in range(1, 8)
    for mixed in (False, True)
]


def outcome(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


def split_outcome(filt):
    try:
        return haar_splits(filt)
    except ValueError as err:
        return str(err)


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("kind, k, mixed", SWEEP, ids=[f"{a}-{b}-{'mixed' if c else 'uniform'}" for a, b, c in SWEEP])
def test_generator_and_splits_match_frozen_copies(kind, k, mixed):
    masses = sweep_masses(k, mixed)
    space = AtomicMeasureSpace(masses)
    for steps in range(14):
        for seed in range(5):
            want = outcome(lambda: frozen_haar_rows(masses, steps, kind, seed))
            got = outcome(lambda: random_haar_filtration(space, steps, kind, seed))
            if isinstance(want, str):
                assert got == want, (steps, seed)
                continue
            assert got.labels.tolist() == want.tolist(), (steps, seed)
            assert haar_splits(got) == frozen_haar_splits(want, masses), (steps, seed)


def frozen_split_labels(filt):
    """Per level, the block parents and the labels (parent, child1, child2)
    of the first block that splits in two, read one level at a time."""
    out = []
    for prev, nxt in zip(filt.levels, filt.levels[1:]):
        parents = block_parents(nxt, prev)
        b = int(np.flatnonzero(np.bincount(parents) == 2)[0])
        c1, c2 = np.flatnonzero(parents == b)
        out.append((parents, b, int(c1), int(c2)))
    return out


SPLIT_CASES = [
    ("general", sweep_masses(6, True), 20),
    ("dyadic", sweep_masses(6, True), 8),
    ("dyadic", sweep_masses(6, False), 20),
    ("standard", sweep_masses(6, False), 20),
    ("general", sweep_masses(3, True), 0),
]


@pytest.mark.parametrize(
    "kind, masses, steps", SPLIT_CASES, ids=["general-uneven", "dyadic-uneven", "dyadic-grid", "standard-grid", "no-steps"]
)
def test_split_table_matches_the_per_level_reference(kind, masses, steps):
    space = AtomicMeasureSpace(masses)
    for seed in range(6):
        filt = random_haar_filtration(space, steps, kind, seed)
        parent, child, m1, m2 = _split_units(filt)
        want = frozen_split_labels(filt)
        assert len(parent) == len(child) == len(want) == steps
        assert list(zip((m1 + m2).tolist(), m1.tolist(), m2.tolist())) == haar_splits(filt)
        for j, (parents, b, c1, c2) in enumerate(want):
            # the child keeping the parent's first atom keeps its label
            assert (parent[j], child[j], c1) == (b, c2, b), (seed, j)
            # every other child is its parent's label, moved up one at or above c2
            ids = np.arange(parents.size)
            kept = ids != c2
            assert np.array_equal(ids[kept], (parents + (parents >= c2))[kept]), (seed, j)
            # so each row is the row before relabelled, plus the new child
            coarse, fine = filt.labels[j], filt.labels[j + 1]
            assert np.array_equal(fine, np.where(fine == c2, c2, coarse + (coarse >= c2))), (seed, j)


def test_large_unit_masses_split_exactly():
    # units whose sums overflow int64 are kept as Python ints
    masses = np.array([2.0**-60, 1.0, 2.0**-60, 1.0 - 2.0**-59] * 4)
    space = AtomicMeasureSpace(masses)
    assert space.mass_units().dtype == object
    for kind in ("general", "dyadic", "standard"):
        for seed in range(4):
            want = outcome(lambda: frozen_haar_rows(masses, 5, kind, seed))
            got = outcome(lambda: random_haar_filtration(space, 5, kind, seed))
            if isinstance(want, str):
                assert got == want
                continue
            assert got.labels.tolist() == want.tolist()
            assert haar_splits(got) == frozen_haar_splits(want, masses)


def random_matrices(seed, count):
    """Label matrices that are non-canonical, non-refining, non-Haar, or all fine."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        levels, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        shape = rng.integers(4)
        if shape == 0:  # arbitrary labels, negative ones too
            yield rng.integers(-2, 5, size=(levels, n))
        elif shape == 1:  # refining rows under random relabelling
            rows = [rng.integers(0, 1 + j, size=n) for j in range(levels)]
            for j in range(1, levels):
                rows[j] = rows[j - 1] * 8 + rows[j]
            perm = rng.permutation(8**levels)
            yield np.stack([perm[r] for r in rows])
        elif shape == 2:  # Haar rows, levels dropped, repeated or reversed
            k = int(rng.integers(1, 4))
            rows = frozen_haar_rows(np.full(1 << k, 2.0**-k), int(rng.integers(0, 1 << k)), "general", 0)
            pick = rng.integers(0, rows.shape[0], size=levels)
            yield rows[np.sort(pick) if rng.integers(2) else pick]
        else:  # sorted rows, some of them skipping a label
            yield np.sort(rng.integers(0, 3, size=(levels, n)), axis=1)


@pytest.mark.parametrize("seed", range(4))
def test_constructor_and_splits_raise_as_before(seed):
    checked = {"rows": 0, "errors": 0, "splits": 0}
    for labels in random_matrices(seed, 500):
        space = AtomicMeasureSpace(np.full(labels.shape[1], 0.5))
        want = frozen_filtration_rows(labels, space.n_atoms)
        got = outcome(lambda: Filtration(labels, space))
        if isinstance(want, str):
            assert got == want, labels.tolist()
            checked["errors"] += 1
            continue
        assert got.labels.tolist() == want, labels.tolist()
        assert [lvl.first_atoms().tolist() for lvl in got.levels] == [
            np.unique(row, return_index=True)[1].tolist() for row in got.labels
        ]
        want_splits = frozen_haar_splits(np.array(want), space.masses)
        assert split_outcome(got) == want_splits, labels.tolist()
        assert is_haar(got) == (not isinstance(want_splits, str))
        if not isinstance(want_splits, str):
            kind = haar_kind(got)
            assert (kind == "standard") == all(c1 == c2 for _, c1, c2 in want_splits)
        checked["rows"] += 1
        checked["splits"] += isinstance(want_splits, str)
    # every kind of input occurs
    assert min(checked.values()) >= 50, checked


@pytest.mark.parametrize(
    "labels, message",
    [
        ([[0, 0, 0, 0], [0, 1, 1, 2]], "not a Haar filtration: block count must grow by one"),
        ([[0, 0, 0, 0], [0, 0, 0, 0]], "not a Haar filtration: block count must grow by one"),
        ([[0, 0, 1, 1], [0, 1, 2, 2]], "Haar filtrations start from the trivial algebra"),
        ([[0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 2, 2]], "not a Haar filtration: block count must grow by one"),
    ],
)
def test_non_haar_matrices_raise_the_old_text(labels, message):
    space = AtomicMeasureSpace(np.full(4, 0.25))
    filt = Filtration(labels, space)
    assert frozen_haar_splits(filt.labels, space.masses) == message
    with pytest.raises(ValueError, match=message):
        haar_splits(filt)
    assert not is_haar(filt)
