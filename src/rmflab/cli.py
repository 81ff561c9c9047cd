"""Experiment runner: seeded generation, schema-checked inputs, and
deterministic JSON/CSV reports for every operation in the package.

Identical configuration and seed produce byte-identical reports: all
randomness is seeded, reports carry no timestamps, JSON keys are sorted,
and CSV columns are fixed.  Schema violations exit with status 2 and a
JSON-path message; violated numerical contracts exit with status 1 and
name the failed invariant.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import concave as concave_mod
from . import martingale as mart
from . import maximal as maximal_mod
from .filtration import (
    AtomicMeasureSpace,
    ResolutionError,
    StepFunction,
    boolean_isomorphism,
    conditional_expectation,
    dyadic_haar_approximate,
    filtration_to_json,
    haar_embed,
    make_dyadic_filtration,
    perturb_last_split,
    random_haar_filtration,
    random_step_function,
)
from .rademacher import EnumConfig, rademacher_moment, type_cotype_estimate
from .rbound import rbound_certify_grid, rbound_scalar
from .schemas import SchemaViolation, validate
from .spaces import Vector, space_from_json

_EXIT_CONTRACT = 1
_EXIT_SCHEMA = 2


def _parse_exponent(text):
    if text == "inf":
        return math.inf
    return float(text)


def _load_json(path: str, schema: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as err:
        raise SchemaViolation(
            f"{path}: malformed JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    validate(obj, schema, source=path)
    return obj


def _space_from_arg(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaViolation(
            f"--space: malformed JSON at column {err.colno}: {err.msg}"
        ) from err
    validate(obj, "space", source="--space")
    return space_from_json(obj)


def _cfg_from_args(args) -> EnumConfig:
    return EnumConfig(
        exact_threshold=args.exact_threshold,
        mc_samples=args.mc_samples,
        seed=args.seed if args.seed is not None else 0,
        restarts=args.restarts,
        tol=args.tol,
    )


def _require_seed(args) -> int:
    if args.seed is None:
        raise SchemaViolation("--seed is mandatory for randomized runs")
    return args.seed


def _vectors_from_file(path: str):
    obj = _load_json(path, "vectorset")
    space = space_from_json(obj["space"])
    return [Vector(np.asarray(v, dtype=float), space) for v in obj["vectors"]], space


def _witness_json(witness):
    if witness is None:
        return None
    return {
        "indices": list(witness.indices),
        "coeffs": np.asarray(witness.coeffs, dtype=float).ravel().tolist(),
    }


def _function_from_args(args):
    """Step function plus the dyadic filtration it lives on."""
    if args.function:
        obj = _load_json(args.function, "step_function")
        space = space_from_json(obj["space"])
        masses = np.asarray(obj["masses"], dtype=float)
        n = masses.size
        k = n.bit_length() - 1
        if (1 << k) != n:
            raise SchemaViolation(f"{args.function}: need a 2^k-atom grid, got {n}")
        base, filt = make_dyadic_filtration(max(k, 1))
        if not np.allclose(base.masses, masses):
            raise SchemaViolation(
                f"{args.function}: masses must be the uniform dyadic grid"
            )
        f = StepFunction(np.asarray(obj["values"], dtype=float), space, base)
        return f, filt
    _require_seed(args)
    space = _space_from_arg(args.space)
    base, filt = make_dyadic_filtration(args.grid_exponent)
    f = random_step_function(base, space, args.seed, scale=args.scale)
    return f, filt


def _maximal_rows(f, filt, cfg, truncation=None):
    doob = maximal_mod.doob_maximal(f, filt, truncation)
    rad = maximal_mod.rademacher_maximal(f, filt, cfg, truncation)
    rows = []
    for a in range(f.base.n_atoms):
        rows.append(
            {
                "atom_index": a,
                "mass": float(f.base.masses[a]),
                "doob": float(doob.pointwise[a]),
                "rademacher_lower": float(rad.pointwise[a]),
                "rademacher_upper": float(rad.pointwise_upper[a]),
            }
        )
    return rows, doob, rad


def cmd_randnorm(args):
    vectors, _ = _vectors_from_file(args.vectors)
    est = rademacher_moment(vectors, _parse_exponent(args.p), _cfg_from_args(args))
    return {
        "subcommand": "randnorm",
        "p": _parse_exponent(args.p),
        "value": est.value,
        "mode": est.mode,
        "samples": est.samples,
        "stderr": est.stderr,
    }, None


def cmd_rbound(args):
    vectors, _ = _vectors_from_file(args.vectors)
    p = _parse_exponent(args.p)
    if args.grid_step is not None:
        bracket = rbound_certify_grid(vectors, p, args.grid_step)
    else:
        bracket = rbound_scalar(
            vectors, p, multiplicity=args.multiplicity, cfg=_cfg_from_args(args)
        )
    return {
        "subcommand": "rbound",
        "p": p,
        "lower": bracket.lower,
        "upper": bracket.upper,
        "mode": bracket.mode,
        "sup_gap": bracket.sup_gap,
        "witness": _witness_json(bracket.witness),
    }, None


def cmd_typecotype(args):
    _require_seed(args)
    space = _space_from_arg(args.space)
    est = type_cotype_estimate(
        args.kind,
        space,
        _parse_exponent(args.exponent),
        args.count,
        _cfg_from_args(args),
    )
    return {
        "subcommand": "typecotype",
        "kind": args.kind,
        "exponent": _parse_exponent(args.exponent),
        "count": args.count,
        "mode": "exact" if args.count <= args.exact_threshold else "monte_carlo",
        "value": est.value,
        "witness": [v.coords.tolist() for v in est.witness],
    }, None


def cmd_maximal(args):
    cfg = _cfg_from_args(args)
    f, filt = _function_from_args(args)
    rows, doob, rad = _maximal_rows(f, filt, cfg, args.truncation)
    payload = {
        "subcommand": "maximal",
        "mode": rad.mode,
        "truncation": args.truncation,
        "doob_lp": {str(k): v for k, v in doob.lp_norms.items()},
        "rademacher_lp": {str(k): v for k, v in rad.lp_norms.items()},
        "rows": rows,
    }
    return payload, rows


def cmd_rmf_ratio(args):
    cfg = _cfg_from_args(args)
    f, filt = _function_from_args(args)
    p = _parse_exponent(args.p)
    fnorm = maximal_mod.lp_norm(f, p, f.base)
    if fnorm == 0:
        raise ValueError("RMF ratio of the zero function is undefined")
    rows, _, rad = _maximal_rows(f, filt, cfg, args.truncation)
    ratio = maximal_mod.lp_norm(rad.pointwise, p, f.base) / fnorm
    payload = {
        "subcommand": "rmf-ratio",
        "p": p,
        "ratio": ratio,
        "mode": rad.mode,
        "rows": rows,
    }
    return payload, rows


def cmd_reduce(args):
    seed = _require_seed(args)
    cfg = _cfg_from_args(args)
    base = AtomicMeasureSpace(np.full(1 << args.grid_exponent, 2.0**-args.grid_exponent))
    filt = random_haar_filtration(base, args.steps, kind="dyadic", seed=seed)
    if args.perturb:
        filt = perturb_last_split(filt)
    if args.subsample > 1:
        # dropping levels leaves a filtration of finite algebras that is no
        # longer Haar, so the embedding stage has actual work to do
        kept = list(filt.levels[:: args.subsample])
        if kept[-1] != filt.levels[-1]:
            kept.append(filt.levels[-1])
        from .filtration import Filtration

        filt = Filtration(tuple(kept))
    embedded, index_map = haar_embed(filt)
    approx = dyadic_haar_approximate(embedded, args.eps)
    iso = boolean_isomorphism(approx.filtration)

    space = _space_from_arg(args.space)
    raw = random_step_function(base, space, seed + 1)
    f = conditional_expectation(raw, approx.filtration.levels[-1])
    g = iso.push_function(f)
    ce_error = 0.0
    for j in range(len(approx.filtration.levels)):
        ce_in = conditional_expectation(f, approx.filtration.levels[j])
        ce_out = conditional_expectation(g, iso.dyadic_level_partition(j))
        ce_error = max(
            ce_error, float(np.max(np.abs(ce_out.values - ce_in.values[iso.pullback])))
        )
    ratio_in = maximal_mod.rmf_ratio(f, approx.filtration, 2.0, cfg)
    ratio_out = maximal_mod.rmf_ratio(g, iso.filtration, 2.0, cfg)
    payload = {
        "subcommand": "reduce",
        "mode": "hilbert_exact" if space.is_hilbert else "optimized",
        "input_filtration": filtration_to_json(filt),
        "haar_index_map": index_map,
        "approximation_symdiff": [s.tolist() for s in approx.symdiff],
        "max_symdiff": approx.max_symdiff,
        "eps": args.eps,
        "dyadic_levels": iso.dyadic_levels,
        "grid_exponent": iso.grid_exponent,
        "conditional_expectation_max_error": ce_error,
        "rmf_ratio_input": ratio_in,
        "rmf_ratio_mapped": ratio_out,
        "rmf_ratio_gap": abs(ratio_in - ratio_out),
    }
    if ce_error > 1e-12:
        raise AssertionError(
            f"conditional expectations disagree across the isomorphism: {ce_error}"
        )
    return payload, None


def _generated_family(args, seed):
    space = _space_from_arg(args.space)
    return [
        mart.random_haar_martingale(
            space,
            args.grid_exponent,
            args.steps,
            kind="standard",
            seed=seed + i,
            scale=args.scale,
        )
        for i in range(args.instances)
    ]


def cmd_gundy(args):
    cfg = _cfg_from_args(args)
    if args.martingale:
        family = [mart.martingale_from_json(_load_json(args.martingale, "martingale"))]
    else:
        family = _generated_family(args, _require_seed(args))
    multipliers = [float(t) for t in args.lambdas.split(",")]
    rows = []
    violations = 0
    for i, x in enumerate(family):
        x_l1 = x.lp_bound(1)
        stack = x.values_stack()
        for mult in multipliers:
            lam = mult * x_l1
            if lam <= 0:
                continue
            parts = mart.gundy_decompose(x, lam)
            total = (
                np.stack([lvl.values for lvl in parts.g.levels])
                + np.stack([lvl.values for lvl in parts.h.levels])
                + np.stack([lvl.values for lvl in parts.b.levels])
            )
            recon = float(np.max(np.abs(total - stack)))
            ok = parts.certificates.within_constants() and recon <= 1e-10
            violations += 0 if ok else 1
            c = parts.certificates
            rows.append(
                {
                    "instance": i,
                    "mode": "hilbert_exact" if x.space.is_hilbert else "optimized",
                    "lambda_multiplier": mult,
                    "lambda": lam,
                    "x_l1": c.x_l1,
                    "g_l1": c.g_l1,
                    "g_sup": c.g_sup,
                    "h_variation": c.h_variation,
                    "b_positive_probability": c.b_positive_probability,
                    "reconstruction_error": recon,
                    "violations": 0 if ok else 1,
                }
            )
    payload = {
        "subcommand": "gundy",
        "instances": len(family),
        "total_violations": violations,
        "rows": rows,
    }
    if violations:
        raise AssertionError(f"{violations} decomposition certificates violated")
    return payload, rows


def cmd_goodlambda(args):
    cfg = _cfg_from_args(args)
    family = _generated_family(args, _require_seed(args))
    rows = []
    total_violations = 0
    worst_slack = -math.inf
    for i, x in enumerate(family):
        prefixes = mart.prefix_rbounds(x, cfg)
        top = float(np.max(prefixes[-1]))
        if top <= 0:
            continue
        for t in range(1, args.lambda_points + 1):
            lam = top * t / args.lambda_points
            report = mart.good_lambda_experiment(
                x, args.beta, args.delta, lam, cfg, prefixes=prefixes
            )
            total_violations += report.inclusion_violations
            worst_slack = max(worst_slack, report.transform_sup_slack)
            rows.append(
                {
                    "instance": i,
                    "lambda": lam,
                    "mode": report.mode,
                    "inclusion_violations": report.inclusion_violations,
                    "transform_sup_slack": report.transform_sup_slack,
                    "lhs_probability": report.lhs_probability,
                    "rhs_probability": report.rhs_probability,
                    "alpha": report.alpha,
                }
            )
    payload = {
        "subcommand": "goodlambda",
        "beta": args.beta,
        "delta": args.delta,
        "alpha": mart.alpha_of(args.delta, args.beta, 1.0),
        "total_inclusion_violations": total_violations,
        "worst_transform_slack": worst_slack,
        "rows": rows,
    }
    # exact-mode violations raise inside the experiment (exit 1); counts
    # surviving to this point are heuristic-mode diagnostics
    return payload, rows


def cmd_weak_rmf(args):
    cfg = _cfg_from_args(args)
    family = _generated_family(args, _require_seed(args))
    p = _parse_exponent(args.p)
    report = mart.weak_rmf_probe(family, cfg, p=p, beta=args.beta, delta=args.delta)
    rows = [
        {
            "instance": r.instance,
            "l1_bound": r.l1_bound,
            "weak_ratio": r.weak_ratio,
            "mode": r.mode,
        }
        for r in report.rows
    ]
    payload = {
        "subcommand": "weak-rmf",
        "constant": report.constant,
        "strong_constant": report.strong_constant,
        "p": p,
        "beta": args.beta,
        "delta": args.delta,
        "rows": rows,
    }
    return payload, rows


def cmd_concave(args):
    cfg = _cfg_from_args(args)
    obj = _load_json(args.samples, "concave_samples")
    space = space_from_json(obj["space"])
    p = _parse_exponent(args.p)

    def vec(coords):
        return Vector(np.asarray(coords, dtype=float), space)

    samples = [
        ([vec(v) for v in s["set"]], vec(s["point"])) for s in obj["samples"]
    ]
    midpoints = [
        ([vec(v) for v in s["set"]], vec(s["a"]), vec(s["b"]))
        for s in obj.get("midpoints", [])
    ]
    if args.candidate == "zero":
        candidate = concave_mod.VCandidate(lambda m, t: 0.0, "identically zero")
    else:
        candidate = concave_mod.VCandidate(
            lambda m, t: concave_mod.u_value(m, t, p, args.c, cfg).value,
            "penalty itself",
        )
    report = concave_mod.check_v_candidate(candidate, samples, midpoints, p, args.c, cfg)
    payload = {
        "subcommand": "concave",
        "candidate": args.candidate,
        "p": p,
        "c": args.c,
        "properties": {
            "majorizes_penalty": {
                "passed": report.majorizes_penalty.passed,
                "worst_slack": report.majorizes_penalty.worst_slack,
            },
            "diagonal_nonpositive": {
                "passed": report.diagonal_nonpositive.passed,
                "worst_slack": report.diagonal_nonpositive.worst_slack,
            },
            "absorbs_point": {
                "passed": report.absorbs_point.passed,
                "worst_slack": report.absorbs_point.worst_slack,
            },
            "midpoint_concave": {
                "passed": report.midpoint_concave.passed,
                "worst_slack": report.midpoint_concave.worst_slack,
            },
        },
        "all_passed": report.all_passed(),
    }
    return payload, None


def _add_common(parser):
    parser.add_argument("--config", help="JSON file with default argument values")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--exact-threshold", type=int, default=20, dest="exact_threshold")
    parser.add_argument("--mc-samples", type=int, default=100_000, dest="mc_samples")
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """Construct the CLI parser, with config-file values as defaults.

    Subparsers parse into a fresh namespace, so config defaults must be
    installed on every subparser rather than on the root parser.
    """
    parser = argparse.ArgumentParser(
        prog="rmflab",
        description="numerical experiments with R-bounds, maximal functions, "
        "filtration reductions and martingale decompositions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers: list[argparse.ArgumentParser] = []

    sp = sub.add_parser("randnorm", help="randomized moment of a vector set")
    sp.add_argument("--vectors", required=True, help="vector-set JSON file")
    sp.add_argument("--p", default="2")
    _add_common(sp)
    sp.set_defaults(handler=cmd_randnorm)
    subparsers.append(sp)

    sp = sub.add_parser("rbound", help="R-bound bracket of a vector set")
    sp.add_argument("--vectors", required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--multiplicity", type=int, default=1)
    sp.add_argument("--grid-step", type=float, default=None, dest="grid_step",
                    help="use the exhaustive grid oracle with this spacing")
    _add_common(sp)
    sp.set_defaults(handler=cmd_rbound)
    subparsers.append(sp)

    sp = sub.add_parser("typecotype", help="type/cotype constant estimate")
    sp.add_argument("--kind", choices=["type", "cotype"], required=True)
    sp.add_argument("--space", required=True, help="inline space JSON")
    sp.add_argument("--exponent", required=True)
    sp.add_argument("--count", type=int, required=True, help="number of vectors")
    _add_common(sp)
    sp.set_defaults(handler=cmd_typecotype)
    subparsers.append(sp)

    for name, handler in (("maximal", cmd_maximal), ("rmf-ratio", cmd_rmf_ratio)):
        sp = sub.add_parser(name, help=f"{name} over a dyadic filtration")
        sp.add_argument("--function", help="step-function JSON file")
        sp.add_argument("--space", help="inline space JSON (generated input)")
        sp.add_argument("--grid-exponent", type=int, default=4, dest="grid_exponent")
        sp.add_argument("--scale", type=float, default=1.0)
        sp.add_argument("--truncation", type=int, default=None)
        if name == "rmf-ratio":
            sp.add_argument("--p", default="2")
        _add_common(sp)
        sp.set_defaults(handler=handler)
        subparsers.append(sp)

    sp = sub.add_parser(
        "reduce",
        help="Haar embedding, dyadic approximation and boolean isomorphism trace",
    )
    sp.add_argument("--grid-exponent", type=int, default=6, dest="grid_exponent")
    sp.add_argument("--steps", type=int, default=6)
    sp.add_argument("--eps", type=float, default=0.125)
    sp.add_argument("--perturb", action="store_true",
                    help="move one atom across the last split first")
    sp.add_argument("--subsample", type=int, default=1,
                    help="keep every n-th level so the embedding is nontrivial")
    sp.add_argument("--space", default='{"kind":"lp","p":2,"dim":2}')
    _add_common(sp)
    sp.set_defaults(handler=cmd_reduce)
    subparsers.append(sp)

    sp = sub.add_parser("gundy", help="decomposition certificates over a family")
    sp.add_argument("--martingale", help="single-instance martingale JSON file")
    sp.add_argument("--instances", type=int, default=20)
    sp.add_argument("--grid-exponent", type=int, default=6, dest="grid_exponent")
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--space", default='{"kind":"lp","p":1,"dim":3}')
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--lambdas", default="0.25,1,4",
                    help="heights as multiples of the L1 bound")
    _add_common(sp)
    sp.set_defaults(handler=cmd_gundy)
    subparsers.append(sp)

    sp = sub.add_parser("goodlambda", help="pathwise good-lambda experiments")
    sp.add_argument("--instances", type=int, default=20)
    sp.add_argument("--grid-exponent", type=int, default=5, dest="grid_exponent")
    sp.add_argument("--steps", type=int, default=8)
    sp.add_argument("--space", default='{"kind":"lp","p":2,"dim":3}')
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=4.0)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--lambda-points", type=int, default=10, dest="lambda_points")
    _add_common(sp)
    sp.set_defaults(handler=cmd_goodlambda)
    subparsers.append(sp)

    sp = sub.add_parser("weak-rmf", help="empirical weak-type constant of a family")
    sp.add_argument("--instances", type=int, default=10)
    sp.add_argument("--grid-exponent", type=int, default=5, dest="grid_exponent")
    sp.add_argument("--steps", type=int, default=8)
    sp.add_argument("--space", default='{"kind":"lp","p":2,"dim":3}')
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--p", default="2")
    sp.add_argument("--beta", type=float, default=4.0)
    sp.add_argument("--delta", type=float, default=0.01)
    _add_common(sp)
    sp.set_defaults(handler=cmd_weak_rmf)
    subparsers.append(sp)

    sp = sub.add_parser("concave", help="check a candidate majorant on samples")
    sp.add_argument("--samples", required=True, help="concave-samples JSON file")
    sp.add_argument("--candidate", choices=["zero", "penalty"], default="zero")
    sp.add_argument("--p", default="2")
    sp.add_argument("--c", type=float, default=1.0)
    _add_common(sp)
    sp.set_defaults(handler=cmd_concave)
    subparsers.append(sp)

    if config:
        for s in subparsers:
            s.set_defaults(**config)
    return parser


def _sanitize(obj):
    """Replace non-finite floats so the report is strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _render_json(payload) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # load config defaults first so explicit flags still win
    cfg_obj = None
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            print("--config needs a path", file=sys.stderr)
            return _EXIT_SCHEMA
        try:
            cfg_obj = _load_json(argv[idx + 1], "config")
        except SchemaViolation as err:
            print(str(err), file=sys.stderr)
            return _EXIT_SCHEMA
    parser = build_parser(cfg_obj)
    args = parser.parse_args(argv)

    try:
        payload, rows = args.handler(args)
    except SchemaViolation as err:
        print(str(err), file=sys.stderr)
        return _EXIT_SCHEMA
    except ResolutionError as err:
        print(f"resolution contract violated: {err}", file=sys.stderr)
        return _EXIT_CONTRACT
    except (AssertionError, ValueError) as err:
        print(f"numerical contract violated: {err}", file=sys.stderr)
        return _EXIT_CONTRACT

    if args.format == "csv":
        if not rows:
            print("no tabular data for csv output", file=sys.stderr)
            return _EXIT_SCHEMA
        text = _render_csv(rows)
    else:
        text = _render_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
