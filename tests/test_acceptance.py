"""Acceptance gate: one test per criterion, each timed against its budget
and printing a PASS line (run with -s to see them)."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rmflab.cli import main as cli_main
from rmflab.concave import (
    VCandidate,
    check_v_candidate,
    expected_u_along,
    haar_splice,
    splice,
    u_values,
)
from rmflab.filtration import (
    AtomicMeasureSpace,
    StepFunction,
    boolean_isomorphism,
    conditional_expectation,
    dyadic_haar_approximate,
    make_dyadic_filtration,
    perturb_last_split,
    random_haar_filtration,
    random_step_function,
)
from rmflab.martingale import (
    SimpleMartingale,
    alpha_of,
    good_lambda_experiment,
    gundy_decompose,
    random_haar_martingale,
    strong_type_constant,
)
from rmflab.maximal import doob_maximal, lp_norm, rademacher_maximal, rmf_ratio
from rmflab.rademacher import EnumConfig, type_cotype_estimate
from rmflab.rbound import rbound_certify_grid, rbound_scalar
from rmflab.spaces import Vector, dual_exponent, lp_space

CFG = EnumConfig(seed=0, restarts=6)


@contextmanager
def budget(criterion: int, seconds: float, description: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (
        f"criterion {criterion} exceeded its {seconds}s budget: {elapsed:.1f}s"
    )
    print(f"[ACCEPTANCE {criterion:2d}] PASS {description} ({elapsed:.2f}s)")


def l1_basis(n):
    space = lp_space(1, n)
    return [Vector(np.eye(n)[j], space) for j in range(n)]


def test_criterion_01_hilbert_collapse():
    with budget(1, 10, "Hilbert range collapses Rademacher maximal to Doob"):
        for seed in range(100):
            k = 2 + seed % 5
            base, filt = make_dyadic_filtration(k)
            f = random_step_function(base, lp_space(2, 4), seed)
            doob = doob_maximal(f, filt)
            rad = rademacher_maximal(f, filt, CFG)
            assert rad.mode == "hilbert_exact"
            assert np.max(np.abs(rad.pointwise - doob.pointwise)) <= 1e-9


def test_criterion_02_l1_basis_rbound():
    with budget(2, 5, "R-bound of the l1 basis is sqrt(n)"):
        for n in (2, 3, 4):
            bracket = rbound_scalar(l1_basis(n), 2, cfg=CFG)
            assert math.sqrt(n) - 1e-3 <= bracket.lower <= math.sqrt(n) + 1e-9
        grid = rbound_certify_grid(l1_basis(2), 2, grid_step=1e-3)
        opt = rbound_scalar(l1_basis(2), 2, cfg=CFG)
        assert opt.lower >= grid.lower - 1e-3
        assert opt.lower <= grid.lower + grid.sup_gap + 1e-9


def test_criterion_03_telescoping_unboundedness():
    from rmflab.maximal import telescoping_function

    with budget(3, 30, "telescoping function defeats L-infinity bounds"):
        for n in (4, 8, 16):
            targets = l1_basis(n)
            f = telescoping_function(targets)
            _, filt = make_dyadic_filtration(n - 1)
            for level in range(n):
                ce = conditional_expectation(f, filt.levels[level])
                assert (
                    np.max(np.abs(ce.values[0] - targets[n - 1 - level].coords))
                    <= 1e-12
                )
            assert lp_norm(f, math.inf, f.base) <= 3.0 + 1e-12
            rep = rademacher_maximal(f, filt, CFG, atom_indices=[0])
            assert rep.pointwise[0] >= math.sqrt(n) - 1e-2


def _gundy_family():
    for seed in range(200):
        space = lp_space(1, 3) if seed % 2 == 0 else lp_space(2, 3)
        yield random_haar_martingale(space, 6, 10, kind="standard", seed=seed)


def test_criterion_04_gundy_constants():
    with budget(4, 60, "decomposition certificates match the stated constants"):
        for x in _gundy_family():
            x_l1 = x.lp_bound(1)
            stack = x.values_stack()
            for mult in (0.25, 1.0, 4.0):
                parts = gundy_decompose(x, mult * x_l1)
                c = parts.certificates
                assert c.g_l1 <= 4 * x_l1 + 1e-10
                assert c.g_sup <= 2 * parts.lam + 1e-10
                assert c.h_variation <= 4 * x_l1 + 1e-10
                assert c.b_positive_probability <= 3 * x_l1 / parts.lam + 1e-10
                total = (
                    np.stack([lvl.values for lvl in parts.g.levels])
                    + np.stack([lvl.values for lvl in parts.h.levels])
                    + np.stack([lvl.values for lvl in parts.b.levels])
                )
                assert np.max(np.abs(total - stack)) <= 1e-10


def _goodlambda_family():
    return [
        random_haar_martingale(lp_space(2, 3), 5, 8, kind="standard", seed=seed)
        for seed in range(100)
    ]


def test_criterion_05_good_lambda_pathwise():
    with budget(5, 60, "good-lambda inclusion and transform bound, zero violations"):
        from rmflab.martingale import prefix_rbounds

        beta, delta = 4.0, 0.1
        for x in _goodlambda_family():
            prefixes = prefix_rbounds(x, CFG)
            top = float(np.max(prefixes[-1]))
            if top <= 0:
                continue
            for t in range(1, 11):
                lam = top * t / 10
                report = good_lambda_experiment(
                    x, beta, delta, lam, CFG, prefixes=prefixes
                )
                assert report.inclusion_violations == 0
                assert report.transform_sup_slack <= 1e-9
        alpha = alpha_of(delta, beta, 1.0)
        assert alpha == pytest.approx(0.4 / 2.8, abs=1e-12)
        for p in (1.5, 2.0, 3.0):
            for d in (1e-4, 1e-3, 0.01, 0.1):
                a = alpha_of(d, beta, 1.0)
                finite = math.isfinite(strong_type_constant(p, beta, d, 1.0))
                assert finite == (beta**p * a < 1)


def test_criterion_06_doob_bounds():
    with budget(6, 60, "weak and strong Doob bounds on every generated martingale"):
        family = list(_gundy_family()) + _goodlambda_family()
        for x in family:
            norms = np.stack([lvl.atom_norms() for lvl in x.levels[1:]])
            star = np.max(norms, axis=0)
            l1 = x.lp_bound(1)
            for lam in (0.25 * l1, l1, 4 * l1):
                if lam <= 0:
                    continue
                prob = float(np.sum(x.base.masses[star > lam]))
                assert lam * prob <= l1 + 1e-9
            for p in (1.5, 2.0, 3.0):
                e_star = float(np.sum(x.base.masses * star**p))
                assert e_star <= dual_exponent(p) ** p * x.lp_bound(p) ** p + 1e-9


def test_criterion_07_reduction_round_trip():
    with budget(7, 30, "boolean isomorphism and dyadic approximation round-trip"):
        base = AtomicMeasureSpace(np.full(64, 1 / 64))
        for seed in range(50):
            filt = random_haar_filtration(base, 6, kind="dyadic", seed=seed)
            iso = boolean_isomorphism(filt)
            raw = random_step_function(base, lp_space(2, 2), 1000 + seed)
            f = conditional_expectation(raw, filt.levels[-1])
            g = iso.push_function(f)
            for j in range(len(filt.levels)):
                ce_in = conditional_expectation(f, filt.levels[j])
                ce_out = conditional_expectation(g, iso.dyadic_level_partition(j))
                assert (
                    np.max(np.abs(ce_out.values - ce_in.values[iso.pullback]))
                    <= 1e-12
                )
            r_in = rmf_ratio(f, filt, 2, CFG)
            r_out = rmf_ratio(g, iso.filtration, 2, CFG)
            assert abs(r_in - r_out) <= 1e-10

            approx_input = perturb_last_split(filt)
            approx = dyadic_haar_approximate(approx_input, eps=2.0**-3)
            assert approx.max_symdiff < 2.0**-3


def test_criterion_08_type_cotype_growth():
    with budget(8, 60, "type/cotype estimates grow like sqrt(N) and collapse on Hilbert"):
        for n in (2, 4, 8):
            t = type_cotype_estimate("type", lp_space(1, n), 2, n, CFG)
            assert t.value == pytest.approx(math.sqrt(n), abs=1e-6)
            c = type_cotype_estimate("cotype", lp_space(math.inf, n), 2, n, CFG)
            assert c.value == pytest.approx(math.sqrt(n), abs=1e-6)
        t = type_cotype_estimate("type", lp_space(2, 3), 2, 4, CFG)
        c = type_cotype_estimate("cotype", lp_space(2, 3), 2, 4, CFG)
        assert t.value == pytest.approx(1.0, abs=1e-6)
        assert c.value == pytest.approx(1.0, abs=1e-6)


def test_criterion_09_concave_machinery():
    with budget(9, 60, "splicing martingales and flagging candidate majorants"):
        space = lp_space(2, 2)
        rng = np.random.default_rng(12)
        tol = 1e-12

        def starting_at(point, seed):
            x = random_haar_martingale(space, 3, 3, kind="standard", seed=seed)
            delta = point - x.levels[0].values[0]
            levels = tuple(
                StepFunction(lvl.values + delta[None, :], x.space, x.base)
                for lvl in x.levels
            )
            return SimpleMartingale(x.filtration, levels)

        def martingale_defect(x):
            worst = 0.0
            for j in range(x.n_steps):
                ce = conditional_expectation(x.levels[j + 1], x.filtration.levels[j])
                worst = max(worst, float(np.max(np.abs(ce.values - x.levels[j].values))))
            return worst

        for pair in range(100):
            t1 = rng.standard_normal(2)
            t2 = rng.standard_normal(2)
            x1 = starting_at(t1, 2 * pair)
            x2 = starting_at(t2, 2 * pair + 1)
            spliced = splice(x1, x2, 0.25)
            interleaved = haar_splice(x1, x2)
            assert martingale_defect(spliced) <= tol
            assert martingale_defect(interleaved) <= tol

        # change-of-variables identity from the splicing proof, exactly
        members = [Vector(np.array([0.4, -0.2]), space)]
        x1 = starting_at(np.array([1.0, 0.0]), 777)
        x2 = starting_at(np.array([0.0, 1.0]), 778)
        alpha = 0.25
        out = splice(x1, x2, alpha)
        lhs = expected_u_along(out, members, 2, 1.0, CFG, skip_first=1)
        rhs = alpha * expected_u_along(x1, members, 2, 1.0, CFG) + (
            1 - alpha
        ) * expected_u_along(x2, members, 2, 1.0, CFG)
        assert lhs == pytest.approx(rhs, abs=1e-12)

        # candidate checker: positive and negative controls
        samples = []
        for _ in range(6):
            samples.append(
                (
                    [Vector(rng.standard_normal(2), space) for _ in range(2)],
                    Vector(rng.standard_normal(2), space),
                )
            )
        midpoints = [
            (
                [Vector(rng.standard_normal(2), space)],
                Vector(rng.standard_normal(2), space),
                Vector(rng.standard_normal(2), space),
            )
            for _ in range(4)
        ]
        good = VCandidate(lambda queries: [0.0] * len(queries), "zero with huge cost")
        report = check_v_candidate(good, samples, midpoints, 2, 1e8, CFG)
        assert report.all_passed()
        bad = VCandidate(
            lambda queries: [u.value for u in u_values(queries, 2, 0.0, CFG)],
            "penalty, no cost",
        )
        report = check_v_candidate(bad, samples, midpoints, 2, 0.0, CFG)
        assert report.majorizes_penalty.passed
        assert not report.diagonal_nonpositive.passed
        assert not report.absorbs_point.passed


def test_criterion_10_cli_determinism(tmp_path):
    with budget(10, 60, "identical config and seed give byte-identical reports"):
        vectors = tmp_path / "vs.json"
        vectors.write_text(
            json.dumps(
                {"space": {"kind": "lp", "p": 1, "dim": 2}, "vectors": [[1, 0], [0, 1]]}
            )
        )
        samples = tmp_path / "samples.json"
        samples.write_text(
            json.dumps(
                {
                    "space": {"kind": "lp", "p": 2, "dim": 2},
                    "samples": [{"set": [[1, 0]], "point": [0, 1]}],
                    "midpoints": [],
                }
            )
        )
        runs = [
            ["randnorm", "--vectors", str(vectors)],
            ["rbound", "--vectors", str(vectors), "--seed", "1"],
            [
                "typecotype", "--kind", "type", "--space",
                '{"kind":"lp","p":1,"dim":2}', "--exponent", "2", "--count", "2",
                "--seed", "2", "--restarts", "4",
            ],
            [
                "maximal", "--space", '{"kind":"lp","p":2,"dim":2}',
                "--grid-exponent", "3", "--seed", "3", "--format", "csv",
            ],
            [
                "rmf-ratio", "--space", '{"kind":"lp","p":2,"dim":2}',
                "--grid-exponent", "3", "--seed", "4",
            ],
            ["reduce", "--seed", "5", "--steps", "5", "--perturb"],
            ["gundy", "--instances", "3", "--seed", "6", "--format", "csv"],
            [
                "goodlambda", "--instances", "2", "--seed", "7",
                "--lambda-points", "3", "--format", "csv",
            ],
            ["weak-rmf", "--instances", "3", "--seed", "8"],
            ["concave", "--samples", str(samples), "--candidate", "zero", "--c", "100"],
        ]
        for i, argv in enumerate(runs):
            a = tmp_path / f"run{i}a.out"
            b = tmp_path / f"run{i}b.out"
            assert cli_main(argv + ["--out", str(a)]) == 0, argv
            assert cli_main(argv + ["--out", str(b)]) == 0, argv
            assert a.read_bytes() == b.read_bytes(), argv
