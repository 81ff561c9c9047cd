"""End-to-end and per-layer benchmark of rmflab.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

One process per workload runs one client in a closed loop: the next op
starts only after the previous one returns.  Ops are in-process calls of
``rmflab.cli.main(argv)`` and of a few library functions, built by
``workloads.build`` from ``--seed``.  The loop runs passes, at least two,
and starts another pass while the time used so far plus two more passes
fits in ``--seconds``; the last of the two is the repeat described below.
Every pass has the same op kinds and sizes but draws its own input
values, and the warm-up ops draw theirs from a stream of their own, so no
timed op repeats an input run before it, save the Monte Carlo defect
reproduction of ``search``, whose arguments are fixed.  An op's report is
checked after its pass ends; a non-zero exit, an exception and a failed
output check fail the op.  After the timed passes the ops of the first
pass run once more, untimed, and a report that differs from the first
run fails that op too.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to
one nominal machine speed, read off a reference kernel timed between ops
(``speed.py``); the unscaled values are printed on a line before them.

- ``setup_s``: median over five fresh processes of the time to start,
  import rmflab and write the warm-up's and the first pass's inputs;
- ``ops_per_s``: completed ops over the sum of their latencies, which
  leaves out the output checks and input writing between passes and the
  readings of the reference kernel;
- ``op_p50_ms`` and ``op_tail_ms``: percentiles of the latencies of all
  timed ops; the tail is the highest whole percentile with at least ten
  of one pass's ops beyond it.  Every pass has the same make-up, so the
  percentile falls in the same group of ops in every run;
- ``peak_rss_mb``: ``ru_maxrss`` of the benchmark process;
- ``lower_bound_sum``: the sum of the lower values reported by the ops of
  the first two passes that passed every check (``rbound.lower``,
  ``typecotype.value``, ``rmf-ratio.ratio``, ``weak-rmf.constant``,
  ``reduce.rmf_ratio_input``); it depends on the seed only.

``--trace 1`` runs the first pass with ``tracing.Tracer`` installed and
then once more untraced, prints the per-layer metrics of the traced pass
and the tracing overhead (traced minus untraced ``ops_per_s``, both
scaled to the nominal speed), and writes the spans to
``bench/out/``.  The names of the per-layer metrics must be the keys of
``bench/map.json``, which records what each of them should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when an op fails that is not a known defect
(``workloads.KNOWN_DEFECT_*``); known-defect failures still count in
``failed``.  The lines before it print every metric with its unit, the
failed share of ops and a digest of the first pass's reports.

The package is imported from ``src/`` of the checkout this file lives in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread: the client is single-threaded, and more threads would only
# compete with it for cores
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER_METRICS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 2
SETUP_REPEATS = 5


def _import_package():
    if not (SRC / "rmflab" / "__init__.py").is_file():
        print(f"rmflab sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rmflab.cli

    if Path(rmflab.__file__).resolve().parent != SRC / "rmflab":
        print(f"imported rmflab from {rmflab.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return rmflab.cli


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", dest="setup_into", default=None,
                    help=argparse.SUPPRESS)  # one timed set-up, run in a child process
    return ap.parse_args(argv)


def _set_up(workload: str, seed: int, inputs: Path):
    """Warm-up ops and the first pass, with their inputs written under ``inputs``."""
    warm = workloads.warmup(workload, seed, inputs / "warmup")
    return warm, workloads.build(workload, seed, 0, inputs / "pass0")


def _measure_setup(workload: str, seed: int, scratch: Path) -> tuple[list[float], list[float]]:
    """Times of fresh processes that import rmflab and write the inputs.

    Returns the raw times and the times at the nominal speed, each scaled
    by the speed read just before and just after its process.
    """
    raw, scaled = [], []
    before = speed.reading()
    for i in range(SETUP_REPEATS):
        target = scratch / f"setup{i}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-into", str(target)]
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        after = speed.reading()
        scaled.append(raw[-1] * speed.NOMINAL_S / ((before + after) / 2))
        before = after
        shutil.rmtree(target)
    return raw, scaled


class Client:
    """Runs ops one at a time and keeps their outcomes, keyed by (pass, op)."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[tuple, str] = {}
        self.failures: dict[tuple, str] = {}
        self.lower: dict[tuple, float] = {}
        self.attempted = 0

    def execute(self, op, tracer=None):
        """Run one op; returns (latency seconds, result, exit code, error text)."""
        out, err = io.StringIO(), io.StringIO()
        result, code, error = None, 0, ""
        if tracer is not None:
            tracer.begin_op(op.label)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if op.argv is not None:
                    code = self.cli.main(list(op.argv))
                else:
                    result = op.call()
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an op that raises is a failed op, not a failed run
                code, error = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
        if op.argv is not None:
            result = out.getvalue()
        if tracer is not None:
            tracer.end_op(len(result.encode("utf-8")) if isinstance(result, str) else 0)
        return latency, result, code, error or err.getvalue()

    def record(self, key, op, outcome) -> None:
        """Check one op's outcome and keep the reason when it failed."""
        _, result, code, error = outcome
        self.attempted += 1
        if code != 0:
            lines = error.strip().splitlines() or [""]
            self.failures[key] = f"exit {code}: {lines[-1]}"
            return
        self.digests[key] = workloads.digest(result)
        try:
            ok, reason, lower = op.check(result)
        except Exception as exc:  # a report the check cannot read fails the op
            ok, reason, lower = False, f"unreadable report: {exc!r}", None
        if not ok:
            self.failures[key] = reason
        elif lower is not None:
            self.lower[key] = lower

    def repeat(self, key, outcome) -> None:
        """Compare a repeat run's report with the op's first run."""
        _, result, code, _ = outcome
        if key in self.failures:
            return
        if code != 0 or workloads.digest(result) != self.digests[key]:
            self.failures[key] = "report differs from its first run"


def _run_pass(client, ops, index, tracer=None, meter=None) -> float:
    """One pass over the ops; returns its wall time.

    The reports are checked once the pass has ended.  ``meter`` gets every
    op's latency and reads the machine's speed between ops.
    """
    start = time.perf_counter()
    outcomes = []
    for op in ops:
        outcomes.append(client.execute(op, tracer))
        if meter is not None:
            meter.after_op(outcomes[-1][0])
    wall = time.perf_counter() - start
    for i, (op, outcome) in enumerate(zip(ops, outcomes)):
        client.record((index, i), op, outcome)
    return wall


def _repeat_pass(client, ops, index, meter=None) -> float:
    """Run the ops of pass ``index`` again and compare their reports; returns the wall time."""
    start = time.perf_counter()
    outcomes = []
    for op in ops:
        outcomes.append(client.execute(op))
        if meter is not None:
            meter.after_op(outcomes[-1][0])
    wall = time.perf_counter() - start
    for i, outcome in enumerate(outcomes):
        client.repeat((index, i), outcome)
    return wall


def _tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least ten of ``n_ops`` latencies beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n_ops)))


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_package()
    if args.setup_into:
        _set_up(args.workload, args.seed, Path(args.setup_into))
        return 0

    scratch = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        setup_times = ([], []) if args.trace else _measure_setup(args.workload, args.seed, scratch)
        warm, first = _set_up(args.workload, args.seed, scratch / "inputs")
        client = Client(cli)
        for op in warm:  # first calls fill caches and finish lazy imports
            client.execute(op)
        if args.trace:
            metrics = _traced(client, first, args)
        else:
            metrics = _untraced(client, first, args, setup_times, scratch / "inputs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # every pass has the same make-up, so op i is the same kind of op in each
    unexpected = [key for key in client.failures if not first[key[1]].known_defect]
    for key, reason in sorted(client.failures.items()):
        op = first[key[1]]
        tag = f"known defect ({op.known_defect})" if op.known_defect else "FAILED"
        print(f"pass {key[0]} op {key[1]} {op.label} {tag}: {reason}")
    digest = hashlib.sha256("".join(client.digests.get((0, i), "-") for i in range(len(first))).encode())
    print(f"report_digest {digest.hexdigest()} (first pass, {len(first)} ops)")
    print(f"failed_frac {len(client.failures) / client.attempted:.6f} ratio "
          f"({len(client.failures)} of {client.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:7s} {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _untraced(client, first, args, setup_times, inputs):
    walls: list[float] = []
    meter = speed.Meter()
    ops = first
    start = time.perf_counter()
    while True:
        index = len(walls)
        walls.append(_run_pass(client, ops, index, meter=meter))
        if index > 0:
            shutil.rmtree(inputs / f"pass{index}")
        done = len(walls)
        if done >= MIN_PASSES and (time.perf_counter() - start) * (done + 2) / done > args.seconds:
            break
        ops = workloads.build(args.workload, args.seed, done, inputs / f"pass{done}")
        gc.collect()  # the last pass's cyclic garbage, collected between passes
    elapsed = time.perf_counter() - start
    op_ms = [1000 * t for t in meter.scaled()]
    raw_ms = [1000 * t for t in meter.raw]
    repeat_wall = _repeat_pass(client, first, 0)
    q = _tail_percentile(len(first))

    def tail(values):
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    setup_raw, setup_scaled = setup_times
    readings = [r for _, r in meter.readings]
    print(f"passes {done} of {len(first)} ops in {elapsed:.2f} s, pass walls "
          f"{[round(w, 3) for w in walls]} s, repeat of pass 0 {repeat_wall:.3f} s; "
          f"op_tail_ms is p{q} of {len(op_ms)} op latencies; "
          f"setup runs {[round(t, 4) for t in setup_raw]} s")
    print(f"speed: {len(readings)} readings of the reference kernel, median "
          f"{1000 * statistics.median(readings):.3f} ms, range {1000 * min(readings):.3f}.."
          f"{1000 * max(readings):.3f} ms, nominal {1000 * speed.NOMINAL_S:g} ms")
    print(f"unscaled: setup_s {statistics.median(setup_raw):.6g} s, ops_per_s "
          f"{len(raw_ms) / math.fsum(meter.raw):.6g} ops/s, op_p50_ms {statistics.median(raw_ms):.6g} ms, "
          f"op_tail_ms {tail(raw_ms):.6g} ms")
    lower = [v for key, v in sorted(client.lower.items())
             if key[0] < MIN_PASSES and key not in client.failures]
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (1000 * len(op_ms) / math.fsum(op_ms), "ops/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_tail_ms": (tail(op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "lower_bound_sum": (math.fsum(lower), "1"),
    }


def _traced(client, first, args):
    layer_map = json.loads((BENCH / "map.json").read_text(encoding="utf-8"))["per_layer"]
    names = [name for name, _ in PER_LAYER_METRICS] + ["trace.overhead_ops_per_s"]
    if sorted(layer_map) != sorted(names):
        print("bench/map.json and tracing.PER_LAYER_METRICS name different metrics", file=sys.stderr)
        sys.exit(2)
    tracer = Tracer()
    tracer.install()
    traced = speed.Meter()
    traced_wall = _run_pass(client, first, 0, tracer, meter=traced)
    tracer.uninstall()
    plain = speed.Meter()
    plain_wall = _repeat_pass(client, first, 0, meter=plain)
    overhead = len(first) / math.fsum(traced.scaled()) - len(first) / math.fsum(plain.scaled())
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed})
    print(f"traced pass {traced_wall:.2f} s, untraced repeat {plain_wall:.2f} s; spans in {path}")
    metrics = tracer.metrics()
    metrics["trace.overhead_ops_per_s"] = (overhead, "ops/s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
