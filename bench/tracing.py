"""Per-layer tracing of rmflab, applied from outside the package.

A layer is one module of ``src/rmflab``.  ``Tracer.install`` wraps every
public function of each layer at its binding in every rmflab module that
holds it (``from .x import y`` copies the name, so patching ``x`` alone
would miss callers in other modules), public methods and ``__post_init__``
of the dataclasses each layer defines, the moment-evaluator closures
returned by ``make_moment_evaluator`` and the objectives handed to
``maximize_on_spheres``.

A layer's self time is the time inside its wrapped calls minus the time in
wrapped calls nested directly under them, so time in a nested call of the
same layer is counted once and time in another layer's call is charged
to that layer.  Calls of the boundaries in ``SPAN_FUNCTIONS`` are kept as
spans (name, start, end, parent, op); every other wrapped call is
accumulated as a count and a time per enclosing span, because the
evaluators and norms run millions of times per pass.  Spans and
accumulations stay in memory until ``write``.  The counters run inside
the wrapped call they count, so their own cost is part of that layer's
self time and of the tracing overhead the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "spaces",
    "rademacher",
    "optim",
    "rbound",
    "maximal",
    "martingale",
    "filtration",
    "concave",
    "schemas",
    "cli",
)

SPAN_FUNCTIONS = frozenset(
    {
        "cli.main",
        "cli.cmd_randnorm",
        "cli.cmd_rbound",
        "cli.cmd_typecotype",
        "cli.cmd_maximal",
        "cli.cmd_rmf_ratio",
        "cli.cmd_reduce",
        "cli.cmd_gundy",
        "cli.cmd_goodlambda",
        "cli.cmd_weak_rmf",
        "cli.cmd_concave",
        "schemas.validate",
        "optim.maximize_on_spheres",
        "optim.ascend",
        "rbound.optimized_scalar_lower",
        "rbound.rbound_scalar",
        "rademacher.type_cotype_estimate",
        "rademacher.rademacher_moment",
        "maximal.rademacher_maximal",
        "maximal.doob_maximal",
        "maximal.rmf_ratio",
        "martingale.random_haar_martingale",
        "martingale.gundy_decompose",
        "martingale.prefix_rbounds",
        "martingale.good_lambda_experiment",
        "martingale.maximal_stars",
        "martingale.weak_rmf_probe",
        "filtration.make_dyadic_filtration",
        "filtration.random_haar_filtration",
        "filtration.haar_embed",
        "filtration.dyadic_haar_approximate",
        "filtration.boolean_isomorphism",
        "concave.splice",
        "concave.haar_splice",
        "concave.check_v_candidate",
        "concave.u_value",
    }
)

# the per-layer metrics, in report order; units follow the names
PER_LAYER_METRICS = (
    ("spaces.self_s", "s"),
    ("spaces.norm_rows", "count"),
    ("spaces.svd_calls", "count"),
    ("spaces.svd_s", "s"),
    ("rademacher.self_s", "s"),
    ("rademacher.evals", "count"),
    ("rademacher.patterns", "count"),
    ("rademacher.mc_evals", "count"),
    ("optim.self_s", "s"),
    ("optim.ascents", "count"),
    ("optim.objective_calls", "count"),
    ("rbound.self_s", "s"),
    ("rbound.searches", "count"),
    ("rbound.selections", "count"),
    ("rbound.repeat_ratio", "ratio"),
    ("maximal.self_s", "s"),
    ("maximal.calls", "count"),
    ("maximal.atom_searches", "count"),
    ("martingale.self_s", "s"),
    ("martingale.validations", "count"),
    ("martingale.validation_s", "s"),
    ("martingale.stopping_times", "count"),
    ("filtration.self_s", "s"),
    ("filtration.partitions", "count"),
    ("filtration.partition_atoms", "count"),
    ("filtration.cond_exps", "count"),
    ("filtration.cond_exp_s", "s"),
    ("concave.self_s", "s"),
    ("concave.splices", "count"),
    ("concave.u_values", "count"),
    ("schemas.self_s", "s"),
    ("schemas.validations", "count"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
)

_NORMS = ("spaces.norm_of", "spaces.norms_of")


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) == 2 and parts[0] == "rmflab" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Spans, per-span accumulations, layer self times and counters."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.accumulated: dict[tuple[int, str], list] = {}  # (span, name) -> [calls, s]
        self.calls: Counter = Counter()
        self.inclusive_s: defaultdict = defaultdict(float)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self._frames: list[list] = []  # [child seconds, name] per open wrapped call
        self._open_spans = [-1]
        self._active: Counter = Counter()
        self._op = -1
        self._searched: set = set()
        self._replaced: list[tuple] = []  # (namespace, attribute, original)

    # ----------------------------------------------------------- op spans
    def begin_op(self, label: str) -> None:
        self._op += 1
        self._searched = set()
        self.spans.append([f"op:{label}", time.perf_counter() - self.origin, None, -1, self._op])
        self._open_spans.append(len(self.spans) - 1)

    def end_op(self, report_bytes: int) -> None:
        idx = self._open_spans.pop()
        self.spans[idx][2] = time.perf_counter() - self.origin
        self.counts["report_bytes"] += report_bytes

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, name: str, layer: str):
        perf = time.perf_counter
        frames = self._frames
        self_s = self.self_s
        calls = self.calls
        inclusive = self.inclusive_s
        accumulated = self.accumulated
        open_spans = self._open_spans
        spans = self.spans
        active = self._active
        origin = self.origin

        if name in SPAN_FUNCTIONS:

            def traced(*args, **kwargs):
                frame = [0.0, name]
                spans.append([name, 0.0, 0.0, open_spans[-1], self._op])
                idx = len(spans) - 1
                open_spans.append(idx)
                active[name] += 1
                frames.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf()
                    frames.pop()
                    open_spans.pop()
                    active[name] -= 1
                    d = end - start
                    self_s[layer] += d - frame[0]
                    if frames:
                        frames[-1][0] += d
                    calls[name] += 1
                    inclusive[name] += d
                    span = spans[idx]
                    span[1] = start - origin
                    span[2] = end - origin

        else:

            def traced(*args, **kwargs):
                frame = [0.0, name]
                frames.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf() - start
                    frames.pop()
                    self_s[layer] += d - frame[0]
                    if frames:
                        frames[-1][0] += d
                    calls[name] += 1
                    inclusive[name] += d
                    key = (open_spans[-1], name)
                    acc = accumulated.get(key)
                    if acc is None:
                        accumulated[key] = [1, d]
                    else:
                        acc[0] += 1
                        acc[1] += d

        functools.update_wrapper(traced, fn)
        return traced

    def _caller(self) -> str | None:
        """Name of the wrapped call enclosing the one being counted.

        Counters run inside their own call's frame, so the caller is the
        frame below the top.
        """
        return self._frames[-2][1] if len(self._frames) > 1 else None

    def _counting(self, name: str, fn):
        """The function with this layer's counters added before the call."""
        counts = self.counts

        if name in _NORMS:

            def counted(values, *args, **kwargs):
                if self._caller() not in _NORMS:
                    shape = np.shape(values)
                    counts["norm_rows"] += shape[0] if len(shape) == 2 else 1
                return fn(values, *args, **kwargs)

        elif name == "filtration.Partition.__post_init__":

            def counted(part):
                counts["partition_atoms"] += int(np.size(part.block_of))
                return fn(part)

        elif name == "rademacher.moment_from_matrix":

            def counted(*args, **kwargs):
                est = fn(*args, **kwargs)
                counts["evals"] += 1
                counts["patterns"] += int(est.samples)
                if est.mode != "exact":
                    counts["mc_evals"] += 1
                return est

        elif name == "rademacher.make_moment_evaluator":

            def counted(n, *args, **kwargs):
                return self._evaluator(fn(n, *args, **kwargs), n)

        elif name == "optim.maximize_on_spheres":

            def counted(objective, *args, **kwargs):
                if self._caller() in ("rbound.optimized_scalar_lower", "rbound.rbound_operator"):
                    counts["selections"] += 1
                return fn(self._objective(objective), *args, **kwargs)

        elif name == "rbound.optimized_scalar_lower":

            def counted(vectors, p, multiplicity, cfg, warm_start=None, selection_mode="exhaustive"):
                key = (
                    np.vstack([v.coords for v in vectors]).tobytes(),
                    len(vectors),
                    vectors[0].space,
                    p,
                    multiplicity,
                    cfg,
                    selection_mode,
                    None if warm_start is None else (warm_start.indices, np.asarray(warm_start.coeffs).tobytes()),
                )
                if key in self._searched:
                    counts["repeat_searches"] += 1
                self._searched.add(key)
                if self._active["maximal.rademacher_maximal"]:
                    counts["atom_searches"] += 1
                return fn(vectors, p, multiplicity, cfg, warm_start, selection_mode)

        else:
            return fn
        functools.update_wrapper(counted, fn)
        return counted

    def _evaluator(self, evaluate, n: int):
        """Wrap a moment-evaluator closure; its sign table is read off the closure."""
        rows = 0
        for cell in evaluate.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray) and value.ndim == 2:
                rows = value.shape[0]
        monte_carlo = "mc" in evaluate.__name__ or rows != 1 << (n - 1)
        counts = self.counts

        def counted(vmat):
            counts["evals"] += 1
            counts["patterns"] += rows
            if monte_carlo:
                counts["mc_evals"] += 1
            return evaluate(vmat)

        return self._wrap(counted, "rademacher.evaluate", "rademacher")

    def _objective(self, objective):
        layer = _layer_of(getattr(objective, "__module__", "") or "") or "optim"
        return self._wrap(objective, "optim.objective", layer)

    def install(self) -> None:
        """Replace every traced callable of the package with its wrapper."""
        modules = {layer: importlib.import_module(f"rmflab.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("rmflab")]
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = self._wrap(self._counting(name, obj), name, layer)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if meth.startswith("_") and meth != "__post_init__":
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._replace(obj, meth, self._wrap(self._counting(name, fn), name, layer))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in replacements:
                    self._replace(ns, attr, replacements[id(obj)])

    def _replace(self, namespace, attr: str, wrapper) -> None:
        self._replaced.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every callable ``install`` replaced."""
        for namespace, attr, original in reversed(self._replaced):
            setattr(namespace, attr, original)
        self._replaced.clear()

    # ------------------------------------------------------------- results
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit), in report order."""
        c, s, k = self.calls, self.inclusive_s, self.counts
        searches = c["rbound.optimized_scalar_lower"]
        values = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        values.update(
            {
                "spaces.norm_rows": k["norm_rows"],
                "spaces.svd_calls": c["spaces.singular_values"],
                "spaces.svd_s": s["spaces.singular_values"],
                "rademacher.evals": k["evals"],
                "rademacher.patterns": k["patterns"],
                "rademacher.mc_evals": k["mc_evals"],
                "optim.ascents": c["optim.ascend"],
                "optim.objective_calls": c["optim.objective"],
                "rbound.searches": searches,
                "rbound.selections": k["selections"],
                "rbound.repeat_ratio": k["repeat_searches"] / searches if searches else 0.0,
                "maximal.calls": c["maximal.doob_maximal"] + c["maximal.rademacher_maximal"],
                "maximal.atom_searches": k["atom_searches"],
                "martingale.validations": c["martingale.SimpleMartingale.__post_init__"],
                "martingale.validation_s": s["martingale.SimpleMartingale.__post_init__"],
                "martingale.stopping_times": c["martingale.stopping_time_first"],
                "filtration.partitions": c["filtration.Partition.__post_init__"],
                "filtration.partition_atoms": k["partition_atoms"],
                "filtration.cond_exps": c["filtration.conditional_expectation"],
                "filtration.cond_exp_s": s["filtration.conditional_expectation"],
                "concave.splices": c["concave.splice"] + c["concave.haar_splice"],
                "concave.u_values": c["concave.u_value"],
                "schemas.validations": c["schemas.validate"],
                "cli.report_bytes": k["report_bytes"],
            }
        )
        return {name: (values[name], unit) for name, unit in PER_LAYER_METRICS}

    def write(self, path, header: dict) -> None:
        """Write spans and accumulations as one JSON document."""
        doc = dict(header)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = self.spans
        doc["accumulated_fields"] = ["parent", "name", "calls", "seconds"]
        doc["accumulated"] = [[p, n, a[0], a[1]] for (p, n), a in self.accumulated.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
