"""Experiment runner: seeded generation, schema-checked inputs, and
deterministic JSON/CSV reports for every operation in the package.

Identical configuration and seed produce byte-identical reports: all
randomness is seeded, reports carry no timestamps, JSON keys are sorted,
and CSV columns are fixed.  Per-atom and per-instance rows are rendered
from numpy columns, each distinct value formatted once.  Schema violations
exit with status 2 and a JSON-path message; violated numerical contracts
exit with status 1 and name the failed invariant.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import concave as concave_mod
from . import martingale as mart
from . import maximal as maximal_mod
from .filtration import (
    Filtration,
    ResolutionError,
    StepFunction,
    boolean_isomorphism,
    conditional_expectation,
    dyadic_grid,
    dyadic_haar_approximate,
    filtration_to_json,
    haar_embed,
    make_dyadic_filtration,
    perturb_last_split,
    random_haar_filtration,
    random_step_function,
)
from .rademacher import EnumConfig, rademacher_moment, type_cotype_estimate
from .rbound import HILBERT_EXACT, rbound_certify_grid, rbound_scalar
from .schemas import SchemaViolation, validate
from .spaces import Vector, space_from_json

_EXIT_CONTRACT = 1
_EXIT_SCHEMA = 2


def _parse_exponent(text):
    if text == "inf":
        return math.inf
    return float(text)


def _positive(text: str) -> float:
    """A finite number > 0; argparse names the flag of a bad one."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _heights(text: str) -> list[float]:
    """Comma-separated finite numbers > 0; argparse names the flag of a bad one."""
    try:
        return [_positive(entry) for entry in text.split(",")]
    except argparse.ArgumentTypeError as err:
        raise argparse.ArgumentTypeError(f"entry {err}") from None


def _finite(text: str) -> float:
    """A finite number; argparse names the flag of a bad one."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _at_least(minimum: int):
    """Type of an integer flag that must be >= ``minimum``."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {minimum}")
        return value

    return count


def _load_json(path: str, schema: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as err:
        raise SchemaViolation(
            f"{path}: malformed JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except OSError as err:
        raise SchemaViolation(f"{schema} file {path!r}: {err.strerror}") from err
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


def _columns(names: str, records):
    """Table (name -> column array, csv order) of one tuple per row; names space-separated."""
    columns = list(zip(*records)) or [()] * len(names.split())
    return {name: np.array(column) for name, column in zip(names.split(), columns)}


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
    if args.space is None:
        raise SchemaViolation("--space is mandatory without --function")
    _require_seed(args)
    space = _space_from_arg(args.space)
    base, filt = make_dyadic_filtration(args.grid_exponent)
    f = random_step_function(base, space, args.seed, scale=args.scale)
    return f, filt


def _maximal_rows(f, filt, cfg, truncation=None, norm_exponents=maximal_mod.DEFAULT_NORM_EXPONENTS):
    """Table of both maximal functions, plus the Doob and Rademacher reports,
    each with its Lp norms at ``norm_exponents``."""
    if truncation is not None and truncation < 0:
        raise SchemaViolation("--truncation must be >= 0")
    rad = maximal_mod.rademacher_maximal(f, filt, cfg, truncation, norm_exponents=norm_exponents)
    # in exact mode the Rademacher report is the Doob one, bit for bit
    if rad.mode == HILBERT_EXACT:
        doob = rad
    else:
        doob = maximal_mod.doob_maximal(f, filt, truncation, norm_exponents)
    return {
        "atom_index": np.arange(f.base.n_atoms),
        "mass": f.base.masses,
        "doob": doob.pointwise,
        "rademacher_lower": rad.pointwise,
        "rademacher_upper": rad.pointwise_upper,
    }, doob, rad


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
        "mode": est.mode,
        "value": est.value,
        "witness": [v.coords.tolist() for v in est.witness],
    }, None


def cmd_maximal(args):
    cfg = _cfg_from_args(args)
    f, filt = _function_from_args(args)
    table, doob, rad = _maximal_rows(f, filt, cfg, args.truncation)
    return {
        "subcommand": "maximal",
        "mode": rad.mode,
        "truncation": args.truncation,
        "doob_lp": {str(k): v for k, v in doob.lp_norms.items()},
        "rademacher_lp": {str(k): v for k, v in rad.lp_norms.items()},
    }, table


def cmd_rmf_ratio(args):
    cfg = _cfg_from_args(args)
    f, filt = _function_from_args(args)
    p = _parse_exponent(args.p)
    fnorm = maximal_mod.lp_norm(f, p, f.base)
    if fnorm == 0:
        raise ValueError("RMF ratio of the zero function is undefined")
    table, _, rad = _maximal_rows(f, filt, cfg, args.truncation, (p,))
    ratio = rad.lp_norms[p] / fnorm
    return {"subcommand": "rmf-ratio", "p": p, "ratio": ratio, "mode": rad.mode}, table


def cmd_reduce(args):
    seed = _require_seed(args)
    cfg = _cfg_from_args(args)
    base = dyadic_grid(args.grid_exponent)
    filt = random_haar_filtration(base, args.steps, kind="dyadic", seed=seed)
    if args.perturb:
        filt = perturb_last_split(filt)
    if args.subsample > 1:
        # dropping levels leaves a filtration of finite algebras that is no
        # longer Haar, so the embedding stage has actual work to do
        kept = sorted({*range(0, len(filt), args.subsample), len(filt) - 1})
        filt = Filtration(filt.labels[kept], filt.space)
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
    rows = []
    violations = 0
    for i, x in enumerate(family):
        x_l1 = x.lp_bound(1)
        multiples = [mult for mult in args.lambdas if mult * x_l1 > 0]  # none for X = 0
        lams = [mult * x_l1 for mult in multiples]
        for mult, lam, height in zip(multiples, lams, mart.gundy_heights(x, lams)):
            c, recon = height.certificates, height.reconstruction_error
            ok = c.within_constants() and recon <= 1e-10
            violations += 0 if ok else 1
            rows.append((
                i, "hilbert_exact" if x.space.is_hilbert else "optimized", mult, lam,
                c.x_l1, c.g_l1, c.g_sup, c.h_variation, c.b_positive_probability,
                recon, 0 if ok else 1,
            ))
    payload = {"subcommand": "gundy", "instances": len(family), "total_violations": violations}
    if violations:
        raise AssertionError(f"{violations} decomposition certificates violated")
    return payload, _columns(
        "instance mode lambda_multiplier lambda x_l1 g_l1 g_sup h_variation "
        "b_positive_probability reconstruction_error violations", rows
    )


def cmd_goodlambda(args):
    cfg = _cfg_from_args(args)
    family = _generated_family(args, _require_seed(args))
    rows = []
    total_violations = 0
    worst_slack = -math.inf
    for i, (x, prefixes) in enumerate(zip(family, mart.family_prefix_rbounds(family, cfg))):
        top = float(np.max(prefixes[-1]))
        if top <= 0:
            continue
        # one transform search per instance, so only one instance's
        # transforms are held at a time
        lams = [top * t / args.lambda_points for t in range(1, args.lambda_points + 1)]
        reports = mart.good_lambda_experiments(
            [(x, lam, prefixes) for lam in lams], args.beta, args.delta, cfg
        )
        for report in reports:
            total_violations += report.inclusion_violations
            worst_slack = max(worst_slack, report.transform_sup_slack)
            rows.append((
                i, report.lam, report.mode, report.inclusion_violations,
                report.transform_sup_slack, report.lhs_probability,
                report.rhs_probability, report.alpha,
            ))
    payload = {
        "subcommand": "goodlambda",
        "beta": args.beta,
        "delta": args.delta,
        "alpha": mart.alpha_of(args.delta, args.beta, 1.0),
        "total_inclusion_violations": total_violations,
        "worst_transform_slack": worst_slack,
    }
    # exact-mode violations raise inside the experiment (exit 1); counts
    # surviving to this point are heuristic-mode diagnostics
    return payload, _columns(
        "instance lambda mode inclusion_violations transform_sup_slack "
        "lhs_probability rhs_probability alpha", rows
    )


def cmd_weak_rmf(args):
    cfg = _cfg_from_args(args)
    family = _generated_family(args, _require_seed(args))
    p = _parse_exponent(args.p)
    report = mart.weak_rmf_probe(family, cfg, p=p, beta=args.beta, delta=args.delta)
    return {
        "subcommand": "weak-rmf",
        "constant": report.constant,
        "strong_constant": report.strong_constant,
        "p": p,
        "beta": args.beta,
        "delta": args.delta,
    }, _columns("instance l1_bound weak_ratio mode", map(dataclasses.astuple, report.rows))


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
        candidate = concave_mod.VCandidate(lambda queries: [0.0] * len(queries), "identically zero")
    else:
        candidate = concave_mod.penalty_candidate(p, args.c, cfg)
    report = concave_mod.check_v_candidate(candidate, samples, midpoints, p, args.c, cfg)
    payload = {
        "subcommand": "concave",
        "candidate": args.candidate,
        "p": p,
        "c": args.c,
        "properties": dataclasses.asdict(report),
        "all_passed": report.all_passed(),
    }
    return payload, None


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of flag values; explicit flags win")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--exact-threshold", type=_at_least(1), default=20, dest="exact_threshold")
    parser.add_argument("--mc-samples", type=_at_least(1), default=100_000, dest="mc_samples")
    parser.add_argument("--restarts", type=_at_least(0), default=8)
    parser.add_argument("--tol", type=_positive, default=1e-9)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="rmflab",
        description="numerical experiments with R-bounds, maximal functions, "
        "filtration reductions and martingale decompositions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("randnorm", help="randomized moment of a vector set")
    sp.add_argument("--vectors", required=True, help="vector-set JSON file")
    sp.add_argument("--p", default="2")
    _add_common(sp)

    sp = sub.add_parser("rbound", help="R-bound bracket of a vector set")
    sp.add_argument("--vectors", required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--multiplicity", type=_at_least(1), default=1)
    sp.add_argument("--grid-step", type=_positive, default=None, dest="grid_step",
                    help="use the exhaustive grid oracle with this spacing")
    _add_common(sp)

    sp = sub.add_parser("typecotype", help="type/cotype constant estimate")
    sp.add_argument("--kind", choices=["type", "cotype"], required=True)
    sp.add_argument("--space", required=True, help="inline space JSON")
    sp.add_argument("--exponent", required=True)
    sp.add_argument("--count", type=_at_least(1), required=True, help="number of vectors")
    _add_common(sp)

    for name in ("maximal", "rmf-ratio"):
        sp = sub.add_parser(name, help=f"{name} over a dyadic filtration")
        sp.add_argument("--function", help="step-function JSON file")
        sp.add_argument("--space", help="inline space JSON (generated input)")
        sp.add_argument("--grid-exponent", type=_at_least(1), default=4, dest="grid_exponent")
        sp.add_argument("--scale", type=_finite, default=1.0)
        sp.add_argument("--truncation", type=int, default=None)
        if name == "rmf-ratio":
            sp.add_argument("--p", default="2")
        _add_common(sp)

    sp = sub.add_parser(
        "reduce",
        help="Haar embedding, dyadic approximation and boolean isomorphism trace",
    )
    sp.add_argument("--grid-exponent", type=_at_least(1), default=6, dest="grid_exponent")
    sp.add_argument("--steps", type=_at_least(0), default=6)
    sp.add_argument("--eps", type=_positive, default=0.125)
    sp.add_argument("--perturb", action="store_true",
                    help="move one atom across the last split first")
    sp.add_argument("--subsample", type=_at_least(1), default=1,
                    help="keep every n-th level so the embedding is nontrivial")
    sp.add_argument("--space", default='{"kind":"lp","p":2,"dim":2}')
    _add_common(sp)

    sp = sub.add_parser("gundy", help="decomposition certificates over a family")
    sp.add_argument("--martingale", help="single-instance martingale JSON file")
    sp.add_argument("--instances", type=_at_least(0), default=20)
    sp.add_argument("--grid-exponent", type=_at_least(1), default=6, dest="grid_exponent")
    sp.add_argument("--steps", type=_at_least(0), default=10)
    sp.add_argument("--space", default='{"kind":"lp","p":1,"dim":3}')
    sp.add_argument("--scale", type=_finite, default=1.0)
    sp.add_argument("--lambdas", type=_heights, default="0.25,1,4",
                    help="heights as multiples of the L1 bound: comma-separated finite numbers > 0")
    _add_common(sp)

    sp = sub.add_parser("goodlambda", help="pathwise good-lambda experiments")
    sp.add_argument("--instances", type=_at_least(0), default=20)
    sp.add_argument("--grid-exponent", type=_at_least(1), default=5, dest="grid_exponent")
    sp.add_argument("--steps", type=_at_least(1), default=8)
    sp.add_argument("--space", default='{"kind":"lp","p":2,"dim":3}')
    sp.add_argument("--scale", type=_finite, default=1.0)
    sp.add_argument("--beta", type=_finite, default=4.0)
    sp.add_argument("--delta", type=_finite, default=0.1)
    sp.add_argument("--lambda-points", type=_at_least(1), default=10, dest="lambda_points")
    _add_common(sp)

    sp = sub.add_parser("weak-rmf", help="empirical weak-type constant of a family")
    sp.add_argument("--instances", type=_at_least(0), default=10)
    sp.add_argument("--grid-exponent", type=_at_least(1), default=5, dest="grid_exponent")
    sp.add_argument("--steps", type=_at_least(0), default=8)
    sp.add_argument("--space", default='{"kind":"lp","p":2,"dim":3}')
    sp.add_argument("--scale", type=_finite, default=1.0)
    sp.add_argument("--p", default="2")
    sp.add_argument("--beta", type=_finite, default=4.0)
    sp.add_argument("--delta", type=_finite, default=0.01)
    _add_common(sp)

    sp = sub.add_parser("concave", help="check a candidate majorant on samples")
    sp.add_argument("--samples", required=True, help="concave-samples JSON file")
    sp.add_argument("--candidate", choices=["zero", "penalty"], default="zero")
    sp.add_argument("--p", default="2")
    sp.add_argument("--c", type=float, default=1.0)
    _add_common(sp)

    return parser


def _csv_field(text: str) -> str:
    """``text`` quoted as ``csv.writer`` quotes a field inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


# below this many rows a column's cells are formatted one by one: the sort
# that finds its distinct values costs more than it saves
_DEDUPE_ROWS = 64


def _table_cells(table: dict, quote) -> list[list[str]]:
    """Cell texts of each column, each distinct bit pattern formatted once.

    Floats take ``float.__repr__``, as json and csv do, a non-finite one
    quoted as a string (``_json_scalar``); ints take ``str``, strings ``quote``.
    Int columns are formatted cell by cell: ``str`` of an int costs less
    than the sort that finds the distinct ones.  A float column of one bit
    pattern (a mix of -0.0 and 0.0, or of NaN payloads, is two) formats
    it once.  A column equal bit for bit to an earlier one reuses its text.
    """
    keys = [(column.dtype.str, column.tobytes()) for column in table.values()]
    done = {}
    for key, column in zip(keys, table.values()):
        if key in done:
            continue
        floats, ints = column.dtype.kind == "f", column.dtype.kind in "iu"
        values, inverse = column, None
        if column.size >= _DEDUPE_ROWS and not ints:
            bits = column.view(np.uint64) if floats else column
            if floats and (bits == bits[0]).all():
                values = column[:1]  # one text, repeated below
            else:
                uniq, inverse = np.unique(bits, return_inverse=True)
                values = uniq.view(column.dtype)
        fmt = float.__repr__ if floats else str if ints else quote
        text = list(map(fmt, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)) if floats else ():
            text[i] = quote(text[i])
        if inverse is not None:
            text = np.array(text, dtype=object)[inverse].tolist()
        done[key] = text if len(text) == column.size else text * column.size
    return [done[key] for key in keys]


# scalar types one json.dumps call writes as indent=2 would write them
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_scalar(value) -> str:
    """A scalar as json writes it, a non-finite float quoted as a string."""
    if isinstance(value, float) and not math.isfinite(value):
        value = float.__repr__(value)
    return json.dumps(value)


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` at
    nesting ``indent``, byte for byte, with every non-finite float written
    as a quoted ``float.__repr__`` so the report is strict JSON.

    Dict keys are strings.  A list or tuple of plain scalars goes to json's
    C encoder in one call, its separator carrying the newline and indent.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if not isinstance(obj, (list, tuple)):
        return _json_scalar(obj)
    if not obj:
        return "[]"
    if set(map(type, obj)) <= _JSON_SCALARS:
        try:
            body = json.dumps(obj, separators=(",\n" + inner, ": "), allow_nan=False)[1:-1]
        except ValueError:  # a non-finite float
            body = (",\n" + inner).join(map(_json_scalar, obj))
    else:
        body = (",\n" + inner).join(_json_text(v, inner) for v in obj)
    return "[\n" + inner + body + "\n" + indent + "]"


def _render_json(payload, table=None) -> str:
    """Sorted keys at indent 2; ``table`` goes under the top-level key ``rows``.

    The table's text is one join over a flat list: cell ``j`` of row ``i``
    sits at ``2 * (i * width + j) + 1``, after the key (and braces) before
    it, and each column's cells and keys go in by one slice assignment.
    """
    if table is None:
        return _json_text(payload) + "\n"
    slot = "\0rows\0"
    head, _, tail = _render_json({**payload, "rows": slot}).partition(json.dumps(slot))
    names = sorted(table)
    cells = _table_cells({n: table[n] for n in names}, json.dumps)
    n_rows = len(cells[0]) if cells else 0
    if not n_rows:
        return head + "[]" + tail
    keys = [f",\n      {json.dumps(n)}: " for n in names]
    opening = "{" + keys[0][1:]
    keys[0] = "\n    },\n    " + opening
    step = 2 * len(names)
    parts = [""] * (step * n_rows)
    for j, (key, column) in enumerate(zip(keys, cells)):
        parts[2 * j::step] = [key] * n_rows
        parts[2 * j + 1::step] = column
    parts[0] = head + "[\n    " + opening
    parts.append("\n    }\n  ]" + tail)
    return "".join(parts)


def _render_csv(table) -> str:
    cells = _table_cells(table, _csv_field)
    return "\n".join([",".join(table), *map(",".join, zip(*cells))]) + "\n"


def _flags_of(subcommand: str) -> dict:
    """Option string -> action of ``subcommand``, empty for an unknown name.

    argparse keeps a subcommand's flags only in private tables.
    """
    sub = build_parser()._subparsers._group_actions[0].choices.get(subcommand)
    return sub._option_string_actions if sub else {}


def _config_path(argv: list[str]) -> str | None:
    """Path given to the config flag as argparse reads it, or None.

    The flag is ``--config PATH``, ``--config=PATH`` or an abbreviation no
    other flag of the subcommand shares (``--conf``); an exact flag such as
    ``concave --c`` keeps its own meaning.  The last one given wins, as in
    argparse.  Without a path argparse reports it.
    """
    flags = _flags_of(argv[0]) if argv else {}
    path = None
    for idx, token in enumerate(argv[1:], 1):
        name, eq, value = token.partition("=")
        if ([name] if name in flags else [f for f in flags if f.startswith(name)]) == ["--config"]:
            path = value if eq else (argv[idx + 1] if idx + 1 < len(argv) else None)
    return path


def _config_flags(subcommand: str, config: dict) -> list[str]:
    """Config entries as ``--flag=value`` tokens for the flags ``subcommand`` takes.

    Dicts become JSON text, ``true`` the bare flag and ``false`` no token, so
    argparse applies each flag's type, choices and required check as it does
    to typed flags.
    """
    flags = _flags_of(subcommand)
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags or value is False:
            continue
        if value is True:
            tokens.append(flag)
        else:
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    path = _config_path(argv)
    if path is not None:
        try:
            config = _load_json(path, "config")
        except SchemaViolation as err:
            print(str(err), file=sys.stderr)
            return _EXIT_SCHEMA
        # right after the subcommand name, so explicit flags still win
        argv[1:1] = _config_flags(argv[0], config)
    args = build_parser().parse_args(argv)
    # looked up at call time, so a rebinding of a handler (tracing) is seen
    handler = globals()["cmd_" + args.subcommand.replace("-", "_")]

    try:
        payload, table = handler(args)
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
        if table is None or not any(map(len, table.values())):
            print("no tabular data for csv output", file=sys.stderr)
            return _EXIT_SCHEMA
        text = _render_csv(table)
    else:
        text = _render_json(payload, table)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
