"""Seeded op mixes for the four benchmark workloads, and the check of every op.

An op is one in-process call of ``rmflab.cli.main(argv)`` or of a library
function.  ``build`` turns a workload name, a seed and a pass number into
a list of ops (one pass) and writes the input files the argv lists name;
every pass draws its own values, so no timed input repeats an earlier
one.  ``warmup`` gives a short list of ops drawn from a stream of their
own.  Sizes are fixed per workload and only the values come from the
seed, so every pass does the same kind of work under every seed.

Each op's check reads the report the program produced and returns
``(ok, reason, lower)``.  ``lower`` is the lower value the op reports
(``rbound.lower``, ``typecotype.value``, ``rmf-ratio.ratio``,
``weak-rmf.constant``, ``reduce.rmf_ratio_input``) or None.  Reference
values are recomputed here with numpy, independently of rmflab.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("search", "atoms", "family", "grid")

# rbound on the l1^4 basis with Monte Carlo sign tables: the searched
# "lower" bound exceeds the closed form R = 2, so this op fails its check
# until Monte Carlo values stop being reported as lower bounds
KNOWN_DEFECT_MC_LOWER = "monte-carlo value reported as a lower bound"


@dataclass
class Op:
    """One closed-loop request: a CLI argv or a library call, plus its check."""

    label: str
    check: Callable
    argv: list[str] | None = None
    call: Callable | None = None
    known_defect: str | None = None


def digest(report) -> str:
    """sha256 of a report: CLI text, or the arrays of a library result."""
    h = hashlib.sha256()
    if isinstance(report, str):
        h.update(report.encode("utf-8"))
    else:
        h.update(np.ascontiguousarray(report.base.masses).tobytes())
        for part, level in zip(report.filtration.levels, report.levels):
            h.update(np.ascontiguousarray(part.block_of).tobytes())
            h.update(np.ascontiguousarray(level.values).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------- numpy refs
def _exponent(p) -> float:
    return math.inf if p == "inf" else float(p)


def _norms(rows: np.ndarray, space: dict) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if space["kind"] == "lp":
        return np.linalg.norm(rows, ord=_exponent(space["p"]), axis=1)
    sv = np.linalg.svd(rows.reshape(-1, space["rows"], space["cols"]), compute_uv=False)
    return np.sum(sv ** space["p"], axis=1) ** (1.0 / space["p"])


def _signs(n: int) -> np.ndarray:
    idx = np.arange(1 << (n - 1))[:, None]
    bits = (idx >> np.arange(n - 1)[None, :]) & 1
    return np.hstack([np.ones((idx.shape[0], 1)), 1.0 - 2.0 * bits])


def _moment(rows: np.ndarray, space: dict, p: float) -> float:
    """(E ||sum eps_j x_j||^p)^(1/p) by full enumeration."""
    vals = _norms(_signs(rows.shape[0]) @ rows, space)
    return float(np.mean(vals**p) ** (1.0 / p))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------------ checks
def _check_rbound(vectors, space, closed_form=None):
    vmat = np.asarray(vectors, dtype=float)
    norms = _norms(vmat, space)

    def check(report):
        out = json.loads(report)
        lower, upper = out["lower"], out["upper"]
        if out["mode"] != "optimized":
            return False, f"mode {out['mode']}", None
        if not lower <= upper + 1e-9:
            return False, f"lower {lower} > upper {upper}", None
        if not _close(upper, float(np.sum(norms))):
            return False, f"upper {upper} is not the summability bound", None
        if lower < float(np.max(norms)) - 1e-9:
            return False, f"lower {lower} below the largest member norm", None
        wit = out["witness"]
        sel = vmat[wit["indices"]]
        coeffs = np.asarray(wit["coeffs"], dtype=float)
        ratio = _moment(coeffs[:, None] * sel, space, out["p"]) / _moment(
            coeffs[:, None], {"kind": "lp", "p": 1, "dim": 1}, out["p"]
        )
        if not _close(ratio, lower):
            return False, f"witness gives {ratio}, report says lower {lower}", None
        if closed_form is not None:
            if not closed_form - 1e-3 <= lower <= closed_form + 1e-9:
                return False, f"lower {lower} vs closed form {closed_form}", None
            if upper < closed_form - 1e-9:
                return False, f"upper {upper} below closed form {closed_form}", None
        return True, "", lower

    return check


def _check_typecotype(space, kind, exponent, count, closed_form=None):
    e = _exponent(exponent)

    def check(report):
        out = json.loads(report)
        wit = np.asarray(out["witness"], dtype=float)
        if out["mode"] != "exact" or wit.shape[0] != count:
            return False, f"mode {out['mode']} with {wit.shape[0]} witnesses", None
        norms = _norms(wit, space)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            return False, "witness vectors are not unit vectors", None
        m2 = _moment(wit, space, 2.0)
        s = float(np.max(norms)) if e == math.inf else float(np.sum(norms**e) ** (1 / e))
        ratio = m2 / s if kind == "type" else s / m2
        value = out["value"]
        if not _close(ratio, value):
            return False, f"witness gives {ratio}, report says {value}", None
        if not 0 < value <= math.sqrt(count) + 1e-9:
            return False, f"value {value} outside (0, sqrt(N)]", None
        if closed_form is not None and abs(value - closed_form) > 1e-6:
            return False, f"value {value} vs closed form {closed_form}", None
        return True, "", value

    return check


def _check_randnorm(vectors, space, p):
    ref = _moment(np.asarray(vectors, dtype=float), space, p)
    n = len(vectors)

    def check(report):
        out = json.loads(report)
        if out["mode"] != "exact" or out["samples"] != 1 << (n - 1):
            return False, f"mode {out['mode']} with {out['samples']} samples", None
        if not _close(out["value"], ref, 1e-10):
            return False, f"value {out['value']} vs enumeration {ref}", None
        return True, "", None

    return check


def _check_rmf_rows(rows, hilbert):
    for r in rows:
        doob, lo, up = r["doob"], r["rademacher_lower"], r["rademacher_upper"]
        if hilbert:
            if not doob == lo == up:
                return f"atom {r['atom_index']}: Rademacher {lo}/{up} differs from Doob {doob}"
        elif lo < doob - 1e-12 or lo > up + 1e-9:
            return f"atom {r['atom_index']}: bracket {lo}..{up} against Doob {doob}"
    return ""


def _check_rmf_ratio(k, hilbert):
    def check(report):
        out = json.loads(report)
        want = "hilbert_exact" if hilbert else "optimized"
        if out["mode"] != want or len(out["rows"]) != 1 << k:
            return False, f"mode {out['mode']} with {len(out['rows'])} rows", None
        bad = _check_rmf_rows(out["rows"], hilbert)
        if bad:
            return False, bad, None
        if not out["ratio"] >= 1 - 1e-12:
            return False, f"ratio {out['ratio']} below 1", None
        return True, "", out["ratio"]

    return check


def _check_maximal_csv(k):
    header = ["atom_index", "mass", "doob", "rademacher_lower", "rademacher_upper"]

    def check(report):
        reader = csv.reader(io.StringIO(report))
        if next(reader) != header:
            return False, "csv header", None
        n = 0
        for n, row in enumerate(reader, start=1):
            if int(row[0]) != n - 1 or float(row[1]) != 2.0**-k:
                return False, f"row {n}: atom index or mass", None
            if not row[2] == row[3] == row[4]:
                return False, f"row {n}: Rademacher {row[3]}/{row[4]} differs from Doob {row[2]}", None
        if n != 1 << k:
            return False, f"{n} rows for 2^{k} atoms", None
        return True, "", None

    return check


def _check_goodlambda(instances, points, beta, delta):
    alpha = 4.0 * delta / (beta - 2 * delta - 1)

    def check(report):
        out = json.loads(report)
        if len(out["rows"]) != instances * points:
            return False, f"{len(out['rows'])} rows", None
        if not out["worst_transform_slack"] <= 1e-9:
            return False, f"transform slack {out['worst_transform_slack']}", None
        if not _close(out["alpha"], alpha, 1e-12):
            return False, f"alpha {out['alpha']}", None
        for r in out["rows"]:
            if r["lhs_probability"] > r["rhs_probability"] + 1e-12:
                return False, "P(lhs event) exceeds P(X_R* > lambda)", None
        return True, "", None

    return check


def _check_weak_rmf(instances):
    def check(report):
        out = json.loads(report)
        ratios = [r["weak_ratio"] for r in out["rows"]]
        if len(ratios) != instances:
            return False, f"{len(ratios)} rows", None
        if not (out["constant"] > 0 and out["constant"] == max(ratios)):
            return False, f"constant {out['constant']} vs rows {ratios}", None
        return True, "", out["constant"]

    return check


def _check_concave(c):
    def check(report):
        props = json.loads(report)["properties"]
        for name, prop in props.items():
            if prop["passed"] != (prop["worst_slack"] <= 1e-9):
                return False, f"{name}: passed flag disagrees with its slack", None
        if not props["majorizes_penalty"]["passed"]:
            return False, "the penalty does not majorize itself", None
        # V({t}, t) = ||t||^p (1 - c): nonpositive exactly when c >= 1
        if props["diagonal_nonpositive"]["passed"] != (c >= 1):
            return False, f"diagonal property at c = {c}", None
        return True, "", None

    return check


def _check_gundy(instances):
    def check(report):
        out = json.loads(report)
        if out["total_violations"] != 0 or len(out["rows"]) != 3 * instances:
            return False, f"{out['total_violations']} violations, {len(out['rows'])} rows", None
        for r in out["rows"]:
            x1, lam = r["x_l1"], r["lambda"]
            if not (
                r["reconstruction_error"] <= 1e-10
                and r["g_l1"] <= 4 * x1 + 1e-10
                and r["g_sup"] <= 2 * lam + 1e-10
                and r["h_variation"] <= 4 * x1 + 1e-10
                and r["b_positive_probability"] <= 3 * x1 / lam + 1e-10
            ):
                return False, f"instance {r['instance']} at lambda {lam}", None
        return True, "", None

    return check


def _check_reduce(eps):
    def check(report):
        out = json.loads(report)
        if not out["conditional_expectation_max_error"] <= 1e-12:
            return False, f"ce error {out['conditional_expectation_max_error']}", None
        if not out["rmf_ratio_gap"] <= 1e-10:
            return False, f"rmf gap {out['rmf_ratio_gap']}", None
        if not out["max_symdiff"] < eps:
            return False, f"symdiff {out['max_symdiff']} >= eps {eps}", None
        return True, "", out["rmf_ratio_input"]

    return check


def _check_splice(mean):
    def check(x):
        masses = x.base.masses
        if np.max(np.abs(x.levels[0].values - mean[None, :])) > 1e-12:
            return False, "starting value is not the weighted mean", None
        worst = 0.0
        for j in range(len(x.levels) - 1):
            labels = x.filtration.levels[j].block_of
            nxt = x.levels[j + 1].values
            block_mass = np.bincount(labels, weights=masses)
            for d in range(nxt.shape[1]):
                avg = np.bincount(labels, weights=masses * nxt[:, d]) / block_mass
                worst = max(worst, float(np.max(np.abs(avg[labels] - x.levels[j].values[:, d]))))
        if worst > 1e-12:
            return False, f"martingale property off by {worst}", None
        return True, "", None

    return check


# ---------------------------------------------------------------- builders
def _interleave(groups: list[list[Op]]) -> list[Op]:
    out: list[Op] = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


class _Inputs:
    """Writes the input files of one workload into a directory."""

    def __init__(self, workdir, rng: np.random.Generator):
        self.workdir = workdir
        self.rng = rng
        self.count = 0

    def seed(self) -> str:
        return str(int(self.rng.integers(0, 2**31 - 1)))

    def write(self, stem: str, obj: dict) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)


def _rbound_op(inp, space, vectors, closed_form=None, extra=()):
    path = inp.write("vectors", {"space": space, "vectors": vectors})
    argv = ["rbound", "--vectors", path, *extra]
    return Op("rbound", _check_rbound(vectors, space, closed_form), argv=argv)


def _unit_rows(rng, n: int, space: dict) -> list:
    """n random directions scaled to norm 1 in ``space``."""
    dim = space["dim"] if space["kind"] == "lp" else space["rows"] * space["cols"]
    rows = rng.standard_normal((n, dim))
    return (rows / _norms(rows, space)[:, None]).tolist()


def _search(inp: _Inputs):
    # op counts are chosen so that the median and the tail rank both fall
    # inside the group of 3-vector lp searches, which keeps the percentiles
    # off the boundary between groups of very different cost; the Schatten
    # ops, where singular values are computed, lie above the tail rank and
    # show in ops_per_s only
    rng = inp.rng
    lp3 = {p: {"kind": "lp", "p": p, "dim": 3} for p in (1, 3, "inf")}
    schatten = {"kind": "schatten", "p": 1, "rows": 2, "cols": 2}

    def search(space, n):
        return _rbound_op(inp, space, _unit_rows(rng, n, space), extra=["--seed", inp.seed()])

    small = [search(lp3[p], 3) for _ in range(7) for p in lp3]
    large = [search(lp3[1], 4), search(lp3["inf"], 4), search(schatten, 3)]
    basis = [
        _rbound_op(inp, {"kind": "lp", "p": 1, "dim": n}, np.eye(n).tolist(), math.sqrt(n),
                   ["--seed", inp.seed()])
        for n in (2, 3, 4)
    ]
    # the reproduction of the Monte Carlo lower-bound defect, kept as an
    # ordinary op with its own fixed arguments
    defect = _rbound_op(
        inp, {"kind": "lp", "p": 1, "dim": 4}, np.eye(4).tolist(), 2.0,
        ["--exact-threshold", "2", "--mc-samples", "64", "--seed", "1", "--restarts", "2"],
    )
    defect.known_defect = KNOWN_DEFECT_MC_LOWER
    typecotype = []
    for space, kind, count, closed in (
        ({"kind": "lp", "p": 1, "dim": 4}, "type", 4, 2.0),
        ({"kind": "lp", "p": "inf", "dim": 4}, "cotype", 4, 2.0),
        (schatten, "cotype", 2, None),
    ):
        argv = ["typecotype", "--kind", kind, "--space", json.dumps(space), "--exponent", "2",
                "--count", str(count), "--seed", inp.seed(), "--restarts", "4"]
        typecotype.append(Op("typecotype", _check_typecotype(space, kind, "2", count, closed), argv=argv))
    randnorm = []
    for n in (12, 14, 16, 18):
        space = {"kind": "lp", "p": 1, "dim": 3}
        vectors = rng.standard_normal((n, 3)).tolist()
        path = inp.write("vectors", {"space": space, "vectors": vectors})
        randnorm.append(Op("randnorm", _check_randnorm(vectors, space, 3.0),
                           argv=["randnorm", "--vectors", path, "--p", "3"]))
    ops = _interleave([small, large + typecotype, basis + randnorm + [defect]])
    warmup = [basis[0], randnorm[0]]
    return ops, warmup


_L1_PLANE = '{"kind":"lp","p":1,"dim":2}'


def _atoms(inp: _Inputs):
    rng = inp.rng
    rmf = []
    # rmf-ratio and weak-rmf ops cost about the same; counts put the median
    # and the tail rank inside that group
    for _ in range(12):
        argv = ["rmf-ratio", "--space", _L1_PLANE, "--grid-exponent", "2",
                "--seed", inp.seed(), "--restarts", "2"]
        rmf.append(Op("rmf-ratio", _check_rmf_ratio(2, hilbert=False), argv=argv))
    goodlambda = []
    for grid, steps in [(3, 3)] * 6 + [(4, 4)] * 2:
        argv = ["goodlambda", "--space", _L1_PLANE, "--instances", "2", "--grid-exponent", str(grid),
                "--steps", str(steps), "--lambda-points", "3", "--seed", inp.seed(), "--restarts", "2"]
        goodlambda.append(Op("goodlambda", _check_goodlambda(2, 3, 4.0, 0.1), argv=argv))
    weak = []
    for _ in range(6):
        argv = ["weak-rmf", "--space", _L1_PLANE, "--instances", "3", "--grid-exponent", "3",
                "--steps", "4", "--seed", inp.seed(), "--restarts", "2"]
        weak.append(Op("weak-rmf", _check_weak_rmf(3), argv=argv))
    concave = []
    for c in (0.0, 0.5, 1.0, 2.0, 4.0, 0.25):
        obj = {
            "space": {"kind": "lp", "p": 1, "dim": 2},
            "samples": [
                {"set": rng.standard_normal((2, 2)).tolist(), "point": rng.standard_normal(2).tolist()}
                for _ in range(3)
            ],
            "midpoints": [
                {"set": rng.standard_normal((1, 2)).tolist(), "a": rng.standard_normal(2).tolist(),
                 "b": rng.standard_normal(2).tolist()}
                for _ in range(2)
            ],
        }
        path = inp.write("samples", obj)
        argv = ["concave", "--samples", path, "--candidate", "penalty", "--c", repr(c),
                "--seed", inp.seed(), "--restarts", "2"]
        concave.append(Op("concave", _check_concave(c), argv=argv))
    ops = _interleave([rmf, goodlambda + weak, concave])
    warmup = [
        Op("rmf-ratio", _check_rmf_ratio(1, hilbert=False),
           argv=["rmf-ratio", "--space", _L1_PLANE, "--grid-exponent", "1", "--seed", "0", "--restarts", "2"]),
        concave[0],
    ]
    return ops, warmup


def _splice_op(kind: str, rng: np.random.Generator, seed: int):
    # module attributes are looked up at call time, so a traced pass sees
    # the wrapped functions
    from rmflab import concave, martingale
    from rmflab.filtration import StepFunction
    from rmflab.spaces import lp_space

    space = lp_space(2, 2)
    t1, t2 = rng.standard_normal(2), rng.standard_normal(2)
    alpha = 0.25 if kind == "splice" else 0.5

    def starting_at(point, s):
        x = martingale.random_haar_martingale(space, 3, 3, kind="standard", seed=s)
        delta = point - x.levels[0].values[0]
        levels = tuple(StepFunction(v.values + delta[None, :], x.space, x.base) for v in x.levels)
        return martingale.SimpleMartingale(x.filtration, levels)

    def call():
        x1, x2 = starting_at(t1, seed), starting_at(t2, seed + 1)
        if kind == "splice":
            return concave.splice(x1, x2, alpha)
        return concave.haar_splice(x1, x2)

    return Op(kind, _check_splice(alpha * t1 + (1 - alpha) * t2), call=call)


def _family(inp: _Inputs):
    rng = inp.rng
    gundy = []
    for i in range(74):
        space = '{"kind":"lp","p":%d,"dim":3}' % (1 if i % 2 == 0 else 2)
        argv = ["gundy", "--space", space, "--instances", "1", "--seed", inp.seed()]
        gundy.append(Op("gundy", _check_gundy(1), argv=argv))
    # four steps keep the cost of a perturbed reduction from swinging with
    # the seed; with six it varied almost threefold between seeds
    perturbed = []
    for _ in range(50):
        argv = ["reduce", "--seed", inp.seed(), "--perturb", "--steps", "4"]
        perturbed.append(Op("reduce", _check_reduce(0.125), argv=argv))
    # two kept levels of a two-step filtration: the embedding inserts a
    # split, and every seed stays within the resolution contract
    subsampled = []
    for _ in range(16):
        argv = ["reduce", "--seed", inp.seed(), "--steps", "2", "--subsample", "2",
                "--grid-exponent", "7", "--eps", "0.5"]
        subsampled.append(Op("reduce", _check_reduce(0.5), argv=argv))
    splices = []
    for _ in range(30):
        splices.append(_splice_op("splice", rng, int(inp.seed())))
        splices.append(_splice_op("haar_splice", rng, int(inp.seed())))
    # counts put the median in the middle of the perturbed reductions and
    # the tail rank inside the gundy ops, the costliest group
    ops = _interleave([gundy, perturbed, subsampled, splices])
    warmup = [gundy[0], perturbed[0], subsampled[0], splices[0], splices[1]]
    return ops, warmup


_HILBERT_PLANE = '{"kind":"lp","p":2,"dim":2}'


def _grid(inp: _Inputs):
    # fifteen rmf-ratio ops on 2^11 atoms hold the median and the tail rank;
    # smaller maximal ops sit below them and the 2^13 and 2^16 ops above.
    # One 2^16 op per pass, the CSV maximal function, keeps a pass short
    # enough that several fit in a run
    def maximal(k):
        argv = ["maximal", "--space", _HILBERT_PLANE, "--grid-exponent", str(k),
                "--seed", inp.seed(), "--format", "csv"]
        return Op("maximal", _check_maximal_csv(k), argv=argv)

    def rmf(k):
        argv = ["rmf-ratio", "--space", _HILBERT_PLANE, "--grid-exponent", str(k), "--seed", inp.seed()]
        return Op("rmf-ratio", _check_rmf_ratio(k, hilbert=True), argv=argv)

    small = [maximal(k) for k in (9, 10, 11) for _ in range(3)]
    middle = [rmf(11) for _ in range(15)]
    large = [maximal(13), rmf(13), maximal(16)]
    ops = _interleave([middle, small, large])
    warmup = [
        Op("maximal", _check_maximal_csv(4),
           argv=["maximal", "--space", _HILBERT_PLANE, "--grid-exponent", "4", "--seed", "0", "--format", "csv"]),
        Op("rmf-ratio", _check_rmf_ratio(4, hilbert=True),
           argv=["rmf-ratio", "--space", _HILBERT_PLANE, "--grid-exponent", "4", "--seed", "0"]),
    ]
    return ops, warmup


_BUILDERS = {"search": _search, "atoms": _atoms, "family": _family, "grid": _grid}

# the random stream of the warm-up ops, apart from those of the passes
_WARMUP_STREAM = 2**32 - 1


def _draw(workload: str, seed: int, stream: int, workdir):
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode()), stream])
    workdir.mkdir(parents=True)
    return _BUILDERS[workload](_Inputs(workdir, rng))


def build(workload: str, seed: int, index: int, workdir) -> list[Op]:
    """Pass ``index`` of the workload, ops in order; inputs go to ``workdir``."""
    ops, _ = _draw(workload, seed, index, workdir)
    listing = [op.argv if op.argv is not None else [op.label] for op in ops]
    (workdir / "ops.json").write_text(json.dumps(listing), encoding="utf-8")
    return ops


def warmup(workload: str, seed: int, workdir) -> list[Op]:
    """Ops that fill caches and finish lazy imports before the timed passes."""
    return _draw(workload, seed, _WARMUP_STREAM, workdir)[1]
