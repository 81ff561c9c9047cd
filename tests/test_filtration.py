import hashlib
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmflab import filtration
from rmflab.filtration import (
    _canonical_labels,
    perturb_last_split,
    AtomicMeasureSpace,
    Filtration,
    Partition,
    ResolutionError,
    StepFunction,
    block_averages,
    boolean_isomorphism,
    conditional_expectation,
    dyadic_grid,
    dyadic_haar_approximate,
    dyadic_partition,
    filtration_from_json,
    filtration_to_json,
    haar_embed,
    haar_kind,
    is_standard_haar,
    make_dyadic_filtration,
    random_haar_filtration,
    random_step_function,
)
from rmflab.maximal import lp_norm
from rmflab.spaces import lp_space

from helpers import atom_partition, is_dyadic_haar, is_haar, is_refinement, trivial_partition


def stacked(*parts):
    """The label matrix and space of a filtration with these levels."""
    return np.stack([p.block_of for p in parts]), parts[0].space


def scalar_f(base, values):
    return StepFunction(np.asarray(values, dtype=float)[:, None], lp_space(1, 1), base)


def first_occurrence_numbering(labels):
    seen: dict[int, int] = {}
    return [seen.setdefault(b, len(seen)) for b in labels]


def unique_canonical_labels(labels):
    """First-occurrence labels and first atoms by a full sort, as
    ``_canonical_labels`` computed them for every input before."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[order] = np.arange(first.size)
    return rank[inverse], first[order]


def reference_haar_labels(masses, steps, kind, seed):
    """Labels of each level of ``random_haar_filtration`` by the per-split
    loop it replaced: float prefix sums, ``Fraction`` ratio tests and a
    capacity recursion on tuples of integer mass units."""
    rng = np.random.default_rng(seed)
    fracs = [Fraction(m) for m in masses.tolist()]
    unit = max(f.denominator for f in fracs)
    units = tuple(f.numerator * (unit // f.denominator) for f in fracs)
    memo = {}

    def capacity(u):
        if u.count(u[0]) == len(u):
            return (len(u) & -len(u)) - 1
        if u not in memo:
            total, prefix, best = sum(u), 0, 0
            for s in range(1, len(u)):
                prefix += u[s - 1]
                d = total // math.gcd(prefix, total)
                if d & (d - 1) == 0:
                    best = max(best, 1 + capacity(u[:s]) + capacity(u[s:]))
            memo[u] = best
        return memo[u]

    def dyadic_ratio(child, parent):
        d = (Fraction(child) / Fraction(parent)).denominator
        return d & (d - 1) == 0

    if kind == "dyadic" and capacity(units) < steps:
        raise ValueError(f"no dyadic Haar filtration of {steps} steps exists on this space")
    labels = np.zeros(masses.size, dtype=np.int64)
    out = [labels]
    for step in range(steps):
        blocks = [np.flatnonzero(labels == b) for b in range(labels.max() + 1)]
        options = []
        for b, atoms in enumerate(blocks):
            block_mass = float(np.sum(masses[atoms]))
            prefix = np.cumsum(masses[atoms])
            for s in range(1, atoms.size):
                pm = float(prefix[s - 1])
                if kind == "standard" and pm != block_mass / 2:
                    continue
                if kind == "dyadic" and not dyadic_ratio(pm, block_mass):
                    continue
                options.append((b, s))
        if not options:
            raise ValueError(f"no admissible {kind} split exists after {step} steps")
        if kind == "dyadic" and step < steps - 1:
            block_units = [tuple(units[a] for a in atoms) for atoms in blocks]
            uniform = [u.count(u[0]) == len(u) for u in block_units]
            caps = [capacity(u) for u in block_units]

            def survives(b, s):
                u = block_units[b]
                if uniform[b]:  # closed form, no slicing of a long block
                    rest = (s & -s) - 1 + ((len(u) - s) & -(len(u) - s)) - 1
                else:
                    rest = capacity(u[:s]) + capacity(u[s:])
                return sum(caps) - caps[b] + rest >= steps - step - 1

            options = [(b, s) for b, s in options if survives(b, s)]
        choices = sorted({b for b, _ in options})
        b = choices[int(rng.integers(len(choices)))]
        sizes = [s for bb, s in options if bb == b]
        s = sizes[int(rng.integers(len(sizes)))]
        labels = labels.copy()
        labels[blocks[b][s:]] = len(blocks)
        labels = np.array(first_occurrence_numbering(labels.tolist()))
        out.append(labels)
    return out


def labels_or_error(build):
    try:
        return [labels.tolist() for labels in build()]
    except ValueError as err:
        return str(err)


# equal-mass grids 2^1..2^9 and unequal dyadic masses, all float-exact
SWEEP_MASSES = {f"grid{k}": np.full(1 << k, 2.0**-k) for k in range(1, 10)} | {
    "unequal4": np.array([1 / 2, 1 / 8, 1 / 8, 1 / 4]),
    "unequal5": np.array([1 / 4, 1 / 16, 1 / 16, 1 / 8, 1 / 2]),
    "unequal6": np.array([3 / 8, 1 / 8, 1 / 4, 1 / 4, 1 / 8, 1 / 8]),
    "unequal7": np.array([1 / 2, 1 / 4, 1 / 4, 1 / 4, 3 / 4, 1 / 8, 1 / 8]),
}


class TestDyadicFiltration:
    def test_k1_levels(self):
        space, filt = make_dyadic_filtration(1)
        assert space.n_atoms == 2
        assert [p.n_blocks for p in filt.levels] == [1, 2]

    def test_k3_level2(self):
        space, filt = make_dyadic_filtration(3)
        masses = filt.levels[2].block_masses()
        assert filt.levels[2].n_blocks == 4
        np.testing.assert_allclose(masses, 0.25)

    def test_block_counts_are_powers_of_two(self):
        _, filt = make_dyadic_filtration(4)
        assert [p.n_blocks for p in filt.levels] == [1, 2, 4, 8, 16]

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            make_dyadic_filtration(0)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_level_masses_are_the_summed_masses_bit_for_bit(self, k):
        space, filt = make_dyadic_filtration(k)
        for level in filt.levels:
            masses = level.block_masses()
            summed = np.bincount(level.block_of, weights=space.masses)
            assert masses.dtype == summed.dtype and masses.tobytes() == summed.tobytes()
            assert not masses.flags.writeable

    def test_each_call_builds_a_fresh_filtration(self):
        (space, a), (_, b) = make_dyadic_filtration(5), make_dyadic_filtration(5)
        assert a is not b and a == b
        assert a.levels[3].block_masses() is not b.levels[3].block_masses()


class TestRandomHaar:
    def test_zero_steps(self):
        space = AtomicMeasureSpace(np.full(4, 0.25))
        filt = random_haar_filtration(space, 0, seed=1)
        assert len(filt.levels) == 1
        assert filt.levels[0].n_blocks == 1

    def test_level_block_counts(self):
        space = AtomicMeasureSpace(np.full(8, 0.125))
        filt = random_haar_filtration(space, 5, seed=3)
        assert [p.n_blocks for p in filt.levels] == [1, 2, 3, 4, 5, 6]
        assert is_haar(filt)

    def test_standard_kind_halves(self):
        space = AtomicMeasureSpace(np.full(16, 1 / 16))
        filt = random_haar_filtration(space, 6, kind="standard", seed=5)
        assert is_standard_haar(filt)

    def test_dyadic_kind(self):
        space = AtomicMeasureSpace(np.full(16, 1 / 16))
        filt = random_haar_filtration(space, 6, kind="dyadic", seed=7)
        assert is_dyadic_haar(filt)

    def test_dyadic_beyond_capacity_raises_at_once(self):
        # 16 equal atoms take at most 15 dyadic splits
        space = AtomicMeasureSpace(np.full(16, 1 / 16))
        with pytest.raises(ValueError, match="no dyadic Haar filtration of 16 steps"):
            random_haar_filtration(space, 16, kind="dyadic", seed=0)
        assert is_dyadic_haar(random_haar_filtration(space, 15, kind="dyadic", seed=0))

    def test_standard_impossible(self):
        space = AtomicMeasureSpace(np.array([0.375, 0.375, 0.25]))
        with pytest.raises(ValueError):
            random_haar_filtration(space, 1, kind="standard", seed=0)

    def test_three_way_split_is_not_haar(self):
        space = AtomicMeasureSpace(np.full(4, 0.25))
        three = Partition(np.array([0, 1, 1, 2]), space)
        assert not is_haar(Filtration(*stacked(trivial_partition(space), three)))

    def test_repeated_level_is_not_haar(self):
        space = AtomicMeasureSpace(np.full(4, 0.25))
        halves = Partition(np.array([0, 0, 1, 1]), space)
        assert is_haar(Filtration(*stacked(trivial_partition(space), halves)))
        assert not is_haar(Filtration(*stacked(trivial_partition(space), halves, halves)))

    @pytest.mark.parametrize("kind", ["general", "standard", "dyadic"])
    @pytest.mark.parametrize("masses", SWEEP_MASSES.values(), ids=SWEEP_MASSES.keys())
    def test_matches_per_split_reference(self, masses, kind):
        # the same draws on the same options: labels and errors identical
        space = AtomicMeasureSpace(masses)
        for steps in range(11):
            for seed in range(15):
                filt = labels_or_error(
                    lambda: [p.block_of for p in random_haar_filtration(space, steps, kind, seed).levels]
                )
                assert filt == labels_or_error(lambda: reference_haar_labels(masses, steps, kind, seed))

    def test_standard_split_decided_exactly(self):
        # in floats 1 + 2^-60 == 1, so every cut of the first space looked
        # like a halving; exactly, only the middle one is
        space = AtomicMeasureSpace(np.array([1, 2.0**-60, 2.0**-60, 1]))
        for seed in range(10):
            filt = random_haar_filtration(space, 1, kind="standard", seed=seed)
            assert filt.levels[1].block_of.tolist() == [0, 0, 1, 1]
        uneven = AtomicMeasureSpace(np.array([1, 2.0**-60, 1]))
        with pytest.raises(ValueError, match="no admissible standard split"):
            random_haar_filtration(uneven, 1, kind="standard", seed=0)

    def test_haar_kind_decided_exactly(self):
        space = AtomicMeasureSpace(np.array([1, 2.0**-60, 2.0**-60, 1]))
        # child masses 1 + 2^-59 and 1: neither halves nor a dyadic ratio
        three_one = Partition(np.array([0, 0, 0, 1]), space)
        assert haar_kind(Filtration(*stacked(trivial_partition(space), three_one))) == "general"
        halves = Partition(np.array([0, 0, 1, 1]), space)
        assert haar_kind(Filtration(*stacked(trivial_partition(space), halves))) == "standard"

    def test_deterministic(self):
        space = AtomicMeasureSpace(np.full(8, 0.125))
        a = random_haar_filtration(space, 5, seed=11)
        b = random_haar_filtration(space, 5, seed=11)
        assert all(x == y for x, y in zip(a.levels, b.levels))


class TestConditionalExpectation:
    def test_identity_on_atoms(self):
        base = AtomicMeasureSpace(np.array([0.5, 0.25, 0.25]))
        f = scalar_f(base, [1.0, -2.0, 3.0])
        out = conditional_expectation(f, atom_partition(base))
        np.testing.assert_array_equal(out.values, f.values)

    def test_global_mean_on_trivial(self):
        base = AtomicMeasureSpace(np.array([0.5, 0.5]))
        f = scalar_f(base, [1.0, 3.0])
        out = conditional_expectation(f, trivial_partition(base))
        np.testing.assert_allclose(out.values, 2.0)

    def test_weighted_average(self):
        base = AtomicMeasureSpace(np.array([0.25, 0.75]))
        f = scalar_f(base, [4.0, 0.0])
        out = conditional_expectation(f, trivial_partition(base))
        np.testing.assert_allclose(out.values, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 9999), n=st.integers(1, 40), nb=st.integers(1, 6))
    def test_matches_atom_order_reference(self, seed, n, nb):
        # block sums accumulated atom by atom, as a plain loop would
        rng = np.random.default_rng(seed)
        base = AtomicMeasureSpace(rng.uniform(0.1, 1, n))
        f = random_step_function(base, lp_space(2, 3), seed)
        pi = Partition(rng.integers(0, nb, n), base)
        want = np.empty_like(f.values)
        for atoms in pi.blocks():
            mass, total = 0.0, np.zeros(3)
            for a in atoms:
                mass += base.masses[a]
                total += base.masses[a] * f.values[a]
            want[atoms] = total / mass
        np.testing.assert_array_equal(conditional_expectation(f, pi).values, want)
        weighted = base.masses[:, None] * f.values
        np.testing.assert_array_equal(block_averages(weighted, pi), want[pi.first_atoms()])

    def test_block_masses_summed_once(self):
        rng = np.random.default_rng(9)
        base = AtomicMeasureSpace(rng.uniform(0.1, 1, 40))
        pi = Partition(rng.integers(0, 6, 40), base)
        masses = pi.block_masses()
        np.testing.assert_array_equal(masses, pi.block_sums(base.masses))
        assert pi.block_masses() is masses
        assert not masses.flags.writeable

    def test_block_integrals_preserved(self):
        rng = np.random.default_rng(0)
        base = AtomicMeasureSpace(rng.uniform(0.1, 1, 12))
        space = lp_space(2, 3)
        f = random_step_function(base, space, 1)
        pi = Partition(np.array([0, 0, 1, 1, 1, 2, 2, 0, 1, 2, 2, 0]), base)
        out = conditional_expectation(f, pi)
        for atoms in pi.blocks():
            got = np.sum(base.masses[atoms, None] * out.values[atoms], axis=0)
            want = np.sum(base.masses[atoms, None] * f.values[atoms], axis=0)
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_contraction(self, p):
        rng = np.random.default_rng(2)
        base = AtomicMeasureSpace(rng.uniform(0.1, 1, 10))
        f = random_step_function(base, lp_space(1.5, 3), 4)
        pi = Partition(rng.integers(0, 3, 10), base)
        out = conditional_expectation(f, pi)
        assert lp_norm(out, p, base) <= lp_norm(f, p, base) + 1e-10

    def test_tower(self):
        rng = np.random.default_rng(3)
        base = AtomicMeasureSpace(rng.uniform(0.1, 1, 8))
        f = random_step_function(base, lp_space(2, 2), 5)
        coarse = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), base)
        fine = Partition(np.array([0, 0, 1, 1, 2, 2, 3, 3]), base)
        via_fine = conditional_expectation(conditional_expectation(f, fine), coarse)
        direct = conditional_expectation(f, coarse)
        np.testing.assert_allclose(via_fine.values, direct.values, atol=1e-12)

    def test_jensen_atomwise(self):
        rng = np.random.default_rng(6)
        base = AtomicMeasureSpace(rng.uniform(0.1, 1, 9))
        f = random_step_function(base, lp_space(1, 4), 7)
        pi = Partition(rng.integers(0, 2, 9), base)
        ce_f = conditional_expectation(f, pi)
        norm_f = scalar_f(base, f.atom_norms())
        ce_norms = conditional_expectation(norm_f, pi)
        assert np.all(ce_f.atom_norms() <= ce_norms.values[:, 0] + 1e-12)

    def test_mismatched_base_rejected(self):
        base = AtomicMeasureSpace(np.array([0.5, 0.5]))
        other = AtomicMeasureSpace(np.array([0.25, 0.75]))
        f = scalar_f(base, [1.0, 2.0])
        with pytest.raises(ValueError):
            conditional_expectation(f, trivial_partition(other))

    def test_sigma_finite_patching(self):
        # components fixed at level 1: masking commutes with conditioning
        space, filt = make_dyadic_filtration(3)
        f = random_step_function(space, lp_space(2, 2), 9)
        half = filt.levels[1].block_of == 0
        for j in range(1, len(filt.levels)):
            masked = StepFunction(f.values * half[:, None], f.space, space)
            lhs = conditional_expectation(masked, filt.levels[j]).values
            rhs = conditional_expectation(f, filt.levels[j]).values * half[:, None]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestRefinement:
    def test_identity(self):
        base = AtomicMeasureSpace(np.ones(4))
        pi = Partition(np.array([0, 0, 1, 1]), base)
        assert is_refinement(pi, pi)

    def test_anything_refines_trivial(self):
        base = AtomicMeasureSpace(np.ones(4))
        pi = Partition(np.array([0, 1, 2, 1]), base)
        assert is_refinement(pi, trivial_partition(base))

    def test_crossing_blocks(self):
        base = AtomicMeasureSpace(np.ones(4))
        a = Partition(np.array([0, 0, 1, 1]), base)
        b = Partition(np.array([0, 1, 1, 0]), base)
        assert not is_refinement(a, b)
        with pytest.raises(ValueError):
            Filtration(*stacked(b, a))

    @settings(max_examples=300, deadline=None)
    @given(
        fine=st.lists(st.integers(-40, 40), min_size=1, max_size=30),
        ids=st.lists(st.integers(-3, 3), min_size=81, max_size=81),
        merged=st.booleans(),
    )
    def test_labels_and_refinement_match_reference(self, fine, ids, merged):
        # merged: the coarse label is a function of the fine one, so the
        # fine partition refines it; otherwise the coarse labels are free
        coarse = [ids[b + 40] for b in fine] if merged else ids[: len(fine)]
        base = AtomicMeasureSpace(np.ones(len(fine)))
        f = Partition(np.array(fine), base)
        c = Partition(np.array(coarse), base)
        assert f.block_of.tolist() == first_occurrence_numbering(fine)
        assert c.block_of.tolist() == first_occurrence_numbering(coarse)
        pairs = set(zip(fine, coarse))
        assert is_refinement(f, c) == (len({a for a, _ in pairs}) == len(pairs))
        if merged:
            assert is_refinement(f, c)


class TestCanonicalLabels:
    @settings(max_examples=300, deadline=None)
    # a check without the sign guard would pass [0, -1] through unchanged
    @example(labels=[0, -1], form="raw")
    @example(labels=[0, 2, 1], form="raw")
    # unsorted: its label changes count as many as a canonical vector's
    @example(labels=[0, 2, 1, 3], form="raw")
    @example(labels=[1, 0], form="raw")
    @example(labels=[0, 0, 2], form="raw")
    @given(
        labels=st.lists(st.integers(-5, 40), min_size=1, max_size=40),
        form=st.sampled_from(["raw", "canonical", "sorted"]),
    )
    def test_matches_sort_form(self, labels, form):
        # canonical labels, sorted or not, pass in linear time; others
        # (negative, non-contiguous or out of order) are sorted
        x = np.array(labels, dtype=np.int64)
        if form == "canonical":
            x = np.array(first_occurrence_numbering(labels), dtype=np.int64)
        elif form == "sorted":
            x = np.sort(x)
        got, want = _canonical_labels(x), unique_canonical_labels(x)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_partition_owns_its_labels(self):
        labels = np.array([0, 0, 1, 1])
        pi = Partition(labels, AtomicMeasureSpace(np.ones(4)))
        labels[:] = 1
        assert pi.block_of.tolist() == [0, 0, 1, 1]

    def test_partition_keeps_read_only_labels(self):
        space = AtomicMeasureSpace(np.ones(4))
        labels = np.array([0, 0, 1, 0])
        labels.flags.writeable = False
        pi = Partition(labels, space)
        assert np.shares_memory(pi.block_of, labels)
        # renumbered and copied labels are read-only too, so the block
        # masses cached from them cannot go stale
        for given in ([1, 1, 0, 0], np.array([0, 1, 1, 0])):
            block_of = Partition(given, space).block_of
            with pytest.raises(ValueError):
                block_of[0] = 1

    def test_top_label_does_not_overflow(self):
        space = AtomicMeasureSpace(np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Partition([0, 2**63 - 1], space).block_of.tolist() == [0, 1]


class TestLabelMatrix:
    """A filtration is one read-only (levels, atoms) label matrix, and its
    levels are partitions on views of its rows."""

    def test_every_builder_shares_one_read_only_matrix(self):
        for name, (filt, _) in _builder_outputs().items():
            labels = filt.labels
            assert labels.dtype == np.int64, name
            assert labels.shape == (len(filt), filt.space.n_atoms), name
            assert not labels.flags.writeable, name
            for j, part in enumerate(filt.levels):
                assert np.shares_memory(part.block_of, labels), (name, j)
                assert part.space is filt.space
                with pytest.raises(ValueError):
                    part.block_of[0] = 1

    def test_writeable_matrix_is_copied(self):
        space = AtomicMeasureSpace(np.full(4, 0.25))
        labels = np.array([[0, 0, 0, 0], [0, 0, 1, 1]])
        filt = Filtration(labels, space)
        labels[1] = 0
        assert filt.labels.tolist() == [[0, 0, 0, 0], [0, 0, 1, 1]]
        assert not np.shares_memory(filt.labels, labels)

    def test_column_major_matrix_is_copied_row_major(self):
        space, dyadic = make_dyadic_filtration(3)
        filt = Filtration(np.asfortranarray(dyadic.labels), space)
        assert filt.labels.flags.c_contiguous and filt == dyadic
        assert all(np.shares_memory(part.block_of, filt.labels) for part in filt.levels)

    def test_read_only_canonical_matrix_is_kept(self):
        space, dyadic = make_dyadic_filtration(3)
        filt = Filtration(dyadic.labels, space)
        assert filt.labels is dyadic.labels and filt == dyadic

    def test_rows_renumbered_by_first_occurrence(self):
        space = AtomicMeasureSpace(np.full(4, 0.25))
        labels = np.array([[5, 5, 5, 5], [1, 1, 0, 2]])
        labels.flags.writeable = False
        filt = Filtration(labels, space)
        assert filt.labels.tolist() == [[0, 0, 0, 0], [0, 0, 1, 2]]
        assert not filt.labels.flags.writeable
        assert all(np.shares_memory(part.block_of, filt.labels) for part in filt.levels)

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 0, 1, 1], "matrix"),
            (np.zeros((0, 4), dtype=np.int64), "matrix"),
            ([[0, 0, 0]], "label count must match atom count"),
            ([[0, 0, 1, 1], [0, 1, 1, 0]], "each level must refine its predecessor"),
        ],
        ids=["one-row-vector", "no-levels", "wrong-width", "non-refining"],
    )
    def test_bad_matrix_rejected(self, labels, message):
        with pytest.raises(ValueError, match=message):
            Filtration(labels, AtomicMeasureSpace(np.full(4, 0.25)))

    def test_equality_is_labels_and_space(self):
        space, filt = make_dyadic_filtration(2)
        assert Filtration(np.array(filt.labels), space) == filt
        assert hash(Filtration(np.array(filt.labels), space)) == hash(filt)
        assert Filtration(filt.labels, AtomicMeasureSpace(np.ones(4))) != filt
        assert Filtration(filt.labels[:2], space) != filt

class TestHaarEmbed:
    def test_already_haar_fixed_point(self):
        space = AtomicMeasureSpace(np.full(8, 0.125))
        filt = random_haar_filtration(space, 5, seed=13)
        embedded, index_map = haar_embed(filt)
        assert index_map == list(range(len(filt.levels)))
        assert all(a == b for a, b in zip(embedded.levels, filt.levels))

    def test_dyadic_k2_index_map(self):
        _, filt = make_dyadic_filtration(2)
        embedded, index_map = haar_embed(filt)
        assert index_map == [0, 1, 3]
        assert is_haar(embedded)
        for j, k in enumerate(index_map):
            assert embedded.levels[k] == filt.levels[j]

    def test_one_block_per_level(self):
        _, filt = make_dyadic_filtration(3)
        embedded, _ = haar_embed(filt)
        assert [p.n_blocks for p in embedded.levels] == list(
            range(1, len(embedded.levels) + 1)
        )


def _non_dyadic_haar_on_grid(k=6):
    """Haar filtration on 2^k atoms with one non-dyadic split (1/3 of a block)."""
    space = AtomicMeasureSpace(np.full(1 << k, 2.0**-k))
    n = 1 << k
    l0 = trivial_partition(space)
    labels1 = np.zeros(n, dtype=np.int64)
    labels1[3 * n // 4 :] = 1
    l1 = Partition(labels1, space)  # split 3/4 | 1/4 (dyadic)
    labels2 = labels1.copy()
    labels2[: n // 4] = 2  # splits the 3/4 block in ratio 1/3 (non-dyadic)
    l2 = Partition(labels2, space)
    return space, Filtration(*stacked(l0, l1, l2))


class TestDyadicApproximation:
    def test_dyadic_input_returned_exactly(self):
        space = AtomicMeasureSpace(np.full(64, 1 / 64))
        filt = random_haar_filtration(space, 6, kind="dyadic", seed=21)
        approx = dyadic_haar_approximate(filt, eps=0.125)
        assert approx.max_symdiff == 0.0
        assert all(a == b for a, b in zip(approx.filtration.levels, filt.levels))

    def test_non_dyadic_split_approximated(self):
        _, filt = _non_dyadic_haar_on_grid(6)
        assert haar_kind(filt) == "general"
        eps = 0.125
        approx = dyadic_haar_approximate(filt, eps)
        assert is_dyadic_haar(approx.filtration)
        assert approx.max_symdiff < eps

    def test_perturbed_dyadic_inputs(self):
        space = AtomicMeasureSpace(np.full(64, 1 / 64))
        for seed in range(8):
            filt = perturb_last_split(
                random_haar_filtration(space, 6, kind="dyadic", seed=seed)
            )
            approx = dyadic_haar_approximate(filt, eps=0.125)
            assert is_dyadic_haar(approx.filtration)
            assert approx.max_symdiff < 0.125

    @pytest.mark.parametrize(
        "labels", [[[0, 1, 1, 1]], [[0, 0, 0, 0], [0, 1, 1, 2]], [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]]
    )
    def test_reductions_reject_a_non_haar_filtration(self, labels):
        filt = Filtration(labels, AtomicMeasureSpace(np.full(4, 0.25)))
        assert not is_haar(filt)
        for construction in (perturb_last_split, boolean_isomorphism, lambda f: dyadic_haar_approximate(f, 0.9)):
            with pytest.raises(ValueError, match="input must be a Haar filtration"):
                construction(filt)

    def test_perturbing_a_trivial_filtration_keeps_it(self):
        filt = make_dyadic_filtration(2)[1]
        trivial = Filtration(filt.labels[:1], filt.space)
        assert perturb_last_split(trivial) is trivial

    def test_random_general_inputs_never_silently_wrong(self):
        # hostile inputs may exceed the grid resolution; the contract is
        # either a valid approximation or a ResolutionError, never a bad one
        space = AtomicMeasureSpace(np.full(64, 1 / 64))
        outcomes = set()
        for seed in range(10):
            filt = random_haar_filtration(space, 3, kind="general", seed=seed)
            try:
                approx = dyadic_haar_approximate(filt, eps=0.5)
            except ResolutionError as err:
                assert err.required_k > 6
                outcomes.add("raise")
                continue
            assert is_dyadic_haar(approx.filtration)
            assert approx.max_symdiff < 0.5
            outcomes.add("ok")
        assert "ok" in outcomes

    def test_unachievable_eps_names_resolution(self):
        _, filt = _non_dyadic_haar_on_grid(3)
        with pytest.raises(ResolutionError) as err:
            dyadic_haar_approximate(filt, eps=1e-6)
        assert err.value.required_k > 3


class TestBooleanIsomorphism:
    def test_trivial_filtration(self):
        space = AtomicMeasureSpace(np.array([1.0]))
        filt = Filtration(*stacked(trivial_partition(space)))
        iso = boolean_isomorphism(filt)
        assert iso.filtration.levels[0].n_blocks == 1
        assert np.all(iso.pullback == 0)

    def test_standard_haar_block_structure(self):
        space = AtomicMeasureSpace(np.full(8, 0.125))
        filt = random_haar_filtration(space, 5, kind="standard", seed=31)
        iso = boolean_isomorphism(filt)
        for j, part in enumerate(iso.filtration.levels):
            assert part.n_blocks == j + 1
            # counting bound: j+1 blocks need at least ceil(log2(j+1)) levels
            assert iso.dyadic_levels[j] >= math.ceil(math.log2(j + 1))
            # every block is a union of level-K_j dyadic intervals
            dy = iso.dyadic_level_partition(j)
            assert is_refinement(dy, part)

    def test_conditional_expectations_coincide(self):
        space = AtomicMeasureSpace(np.full(16, 1 / 16))
        for seed in range(4):
            filt = random_haar_filtration(space, 6, kind="dyadic", seed=seed)
            iso = boolean_isomorphism(filt)
            raw = random_step_function(space, lp_space(2, 3), 100 + seed)
            f = conditional_expectation(raw, filt.levels[-1])
            g = iso.push_function(f)
            for j in range(len(filt.levels)):
                ce_in = conditional_expectation(f, filt.levels[j])
                ce_out = conditional_expectation(g, iso.dyadic_level_partition(j))
                np.testing.assert_allclose(
                    ce_out.values, ce_in.values[iso.pullback], atol=1e-12
                )

    def test_masses_preserved(self):
        space = AtomicMeasureSpace(np.full(16, 1 / 16))
        filt = random_haar_filtration(space, 5, kind="dyadic", seed=41)
        iso = boolean_isomorphism(filt)
        for part_in, part_out in zip(filt.levels, iso.filtration.levels):
            np.testing.assert_allclose(
                np.sort(part_in.block_masses()),
                np.sort(part_out.block_masses()),
                atol=1e-15,
            )

    def test_non_dyadic_rejected(self):
        _, filt = _non_dyadic_haar_on_grid(4)
        with pytest.raises(ValueError):
            boolean_isomorphism(filt)

    def test_unequal_dyadic_masses(self):
        masses = np.array([1 / 2, 1 / 8, 1 / 8, 1 / 4])
        space = AtomicMeasureSpace(masses)
        # split ratios 1/2, 1/2, 1/2 and 1/2, 1/4; three steps must split
        # the 1/2 atom off first, so every seed needs the capacity filter
        for steps, seed in [(steps, seed) for steps in (2, 3) for seed in range(20)]:
            filt = random_haar_filtration(space, steps, kind="dyadic", seed=seed)
            iso = boolean_isomorphism(filt)
            # each atom covers mass * 2^k grid atoms, the first atom several
            np.testing.assert_array_equal(
                np.bincount(iso.pullback, minlength=4), masses * 2**iso.grid_exponent
            )
            for part_in, part_out in zip(filt.levels, iso.filtration.levels):
                np.testing.assert_allclose(
                    np.sort(part_in.block_masses()),
                    np.sort(part_out.block_masses()),
                    atol=1e-15,
                )
            raw = random_step_function(space, lp_space(2, 2), 200 + seed)
            f = conditional_expectation(raw, filt.levels[-1])
            g = iso.push_function(f)
            for j in range(len(filt.levels)):
                ce_in = conditional_expectation(f, filt.levels[j])
                ce_out = conditional_expectation(g, iso.dyadic_level_partition(j))
                np.testing.assert_allclose(
                    ce_out.values, ce_in.values[iso.pullback], atol=1e-12
                )

    def test_too_fine_grid_rejected_before_any_work(self):
        # the input of `reduce --seed 1 --grid-exponent 8 --steps 16 --perturb`
        space = AtomicMeasureSpace(np.full(256, 2.0**-8))
        filt = random_haar_filtration(space, 16, kind="dyadic", seed=1)
        embedded, _ = haar_embed(perturb_last_split(filt))
        approx = dyadic_haar_approximate(embedded, 0.125)
        start = time.perf_counter()
        with pytest.raises(ResolutionError) as err:
            boolean_isomorphism(approx.filtration)
        assert time.perf_counter() - start < 5.0
        assert err.value.required_k == 27


class TestJson:
    def test_roundtrip(self):
        space = AtomicMeasureSpace(np.full(8, 0.125))
        filt = random_haar_filtration(space, 4, kind="dyadic", seed=61)
        back = filtration_from_json(filtration_to_json(filt))
        assert all(a == b for a, b in zip(back.levels, filt.levels))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), k=st.integers(1, 4))
def test_dyadic_partitions_form_filtration(seed, k):
    space, filt = make_dyadic_filtration(k)
    for j in range(k + 1):
        assert dyadic_partition(space, j, k) == filt.levels[j]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999))
def test_haar_embed_preserves_measurability(seed):
    space = AtomicMeasureSpace(np.full(8, 0.125))
    filt = random_haar_filtration(space, 4, kind="general", seed=seed)
    # drop intermediate levels to get a non-Haar filtration of finite algebras
    sub = Filtration(*stacked(filt.levels[0], filt.levels[2], filt.levels[4]))
    embedded, index_map = haar_embed(sub)
    f = random_step_function(space, lp_space(2, 2), seed)
    for j, k in enumerate(index_map):
        a = conditional_expectation(f, sub.levels[j]).values
        b = conditional_expectation(f, embedded.levels[k]).values
        np.testing.assert_allclose(a, b, atol=1e-12)


def _builder_outputs():
    """One seeded output of every filtration builder, by name: the
    filtration and any arrays the builder returns beside it."""
    from rmflab import concave
    from rmflab.martingale import from_function, random_haar_martingale

    out = {f"dyadic-{k}": (make_dyadic_filtration(k)[1], []) for k in range(1, 7)}
    rng = np.random.default_rng(7)
    uneven = AtomicMeasureSpace(rng.integers(1, 9, size=12) / 64.0)
    grid = AtomicMeasureSpace(np.full(32, 1 / 32))
    out["haar-general"] = (random_haar_filtration(uneven, 7, kind="general", seed=5), [])
    out["haar-dyadic"] = (random_haar_filtration(grid, 6, kind="dyadic", seed=5), [])
    out["haar-standard"] = (random_haar_filtration(grid, 6, kind="standard", seed=5), [])

    # the reduce chain of `reduce --subsample 2 --perturb` on one input
    perturbed = perturb_last_split(out["haar-dyadic"][0])
    obj = filtration_to_json(perturbed)
    obj["levels"] = obj["levels"][::2] + obj["levels"][-1:]
    sub = filtration_from_json(obj)
    embedded, index_map = haar_embed(sub)
    approx = dyadic_haar_approximate(embedded, 0.5)
    iso = boolean_isomorphism(approx.filtration)
    out["perturb"] = (perturbed, [])
    out["from-json"] = (sub, [])
    out["haar-embed"] = (embedded, [np.array(index_map)])
    out["dyadic-approx"] = (approx.filtration, approx.symdiff)
    out["boolean-iso"] = (iso.filtration, [iso.pullback, np.array(iso.dyadic_levels)])

    # the splices and their helpers carry values too
    x1 = random_haar_martingale(lp_space(2, 2), 4, 5, seed=3)
    x2 = random_haar_martingale(lp_space(2, 2), 3, 2, seed=4)
    rebased = from_function(
        random_step_function(uneven, lp_space(2, 2), 9), out["haar-general"][0]
    )
    for name, x in [
        ("from-function", rebased),
        ("splice", concave.splice(x1, x2, 0.25)),
        ("haar-splice", concave.haar_splice(x1, x2)),
        ("extend-haar", concave.extend_standard_haar(x2, 3)),
        ("pad-levels", concave._pad_levels(x2, 5)),
    ]:
        out[name] = (x.filtration, [x.values_stack()])
    return out


# sha256 of labels, masses, conditional expectations of one seeded function
# and extra arrays of every builder, pinned before filtrations were stored
# as one label matrix
BUILDER_DIGESTS = {
    "boolean-iso": "0755e98772d8db65b3ee41b50b62bcefe31d82c4d3ecca34ee7dbe6cb5d07283",
    "dyadic-1": "a1b95ad9a46693e4d37d603c25fabc723e49a911e06e2a1de8e9e9397a3d71ef",
    "dyadic-2": "138f3722ac28c9ea56f84a4d2a0314f8fea8d4fc66a3538911054eb6af5d5a69",
    "dyadic-3": "e06d06e4e783fd2b1af2073605ce77a7d4a0dd336563a8be58867e3781b163c7",
    "dyadic-4": "0271d9943ebab28e734a1c01d05d0ee5aa6b2209f7c96e8586f673e3eb1ea8d0",
    "dyadic-5": "e7fc4926c41edb4559b769abb869f6dd740109b41f36dd7c62ce8779bb95d134",
    "dyadic-6": "a45b64a33b517ab45273b795777d17720fcf954a30b70ac6253a793d46ea2baa",
    "dyadic-approx": "eb95b7fdbbd3b68e2a445aaf32e56ba42b981864bf3dde4f7024bfb73ce4a7b7",
    "extend-haar": "8f857aab16d1c4ba709de3f1170f8460257377522ff0645240cc227f36114bfe",
    "from-function": "0dd28b1269c7f717b8184ae2d849ee9fa3197acfa50f6932a69daef557d57e70",
    "from-json": "57b816e7bf141eadb4842bd7f74d4c08bc90bb265cfa35c5382a00a1855ecd3b",
    "haar-dyadic": "c17ab181a9e0ded096d30389ccfaa45b2e0d1fe28afa9d55cbee2b811abefaf0",
    "haar-embed": "7dfe1092832d428f61b63e0c5ecd5559f43f02a1430f8eb8665949af48bd4e2e",
    "haar-general": "416e8064bfd035426f6bc8b16f2cbad35dd1abb0b5c947f7746a7938784693fc",
    "haar-splice": "0c67fa06e5f9bbc3139e28d911506dc4076ff73dbebd11bcb2012b570060ed0e",
    "haar-standard": "b9b674a5831b76430e725830129970650e2084708fdf9d46ad24e31d79fcf5ab",
    "pad-levels": "09252d280e96a05e5a810644334c86e4d8b95d71b284634c5495b5a7efa58469",
    "perturb": "87182411c8ea01463588c3f8e97bd065ca72094261fd0ad2b122b4dfcd8c4f87",
    "splice": "173c702327b3db3f53c372e1114e0ec52c112e649f76faa1a46dc2bc89237039",
}


@pytest.mark.parametrize("name", sorted(BUILDER_DIGESTS))
def test_builder_outputs_are_pinned_and_canonical(name):
    filt, extras = _builder_outputs()[name]
    space = filt.space
    f = random_step_function(space, lp_space(1, 2), 11)
    h = hashlib.sha256(space.masses.tobytes())
    for j, part in enumerate(filt.levels):
        row = part.block_of
        assert row.dtype == np.int64
        assert np.array_equal(row, _canonical_labels(row)[0])
        if j:
            assert is_refinement(part, filt.levels[j - 1])
        h.update(row.tobytes())
        h.update(conditional_expectation(f, part).values.tobytes())
    for arr in extras:
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == BUILDER_DIGESTS[name]


def test_embedding_and_approximation_write_canonical_rows_without_a_sort(monkeypatch):
    # subsampled Haar filtrations: embedding carves every parent's first
    # child, and the approximation splits blocks out of input order
    inputs = []
    for seed in range(40):
        for kind in ("general", "dyadic"):
            filt = random_haar_filtration(dyadic_grid(6), 7, kind=kind, seed=seed)
            inputs.append(Filtration(filt.labels[[0, 2, 4, 6, 7]], filt.space))

    def linear_only(labels):
        # the linear path hands back the labels it was given
        canonical, first = _canonical_labels(labels)
        assert canonical is labels, "a row was renumbered"
        return canonical, first

    monkeypatch.setattr(filtration, "_canonical_labels", linear_only)
    approximated = 0
    for filt in inputs:
        embedded, _ = haar_embed(filt)
        try:
            dyadic_haar_approximate(embedded, 0.5)
        except ResolutionError:
            continue
        approximated += 1
    assert approximated >= 20
