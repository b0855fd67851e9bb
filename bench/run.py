"""altpd benchmark: one workload, closed loop, from a single process.

    python3 bench/run.py --workload memory_n --seed 7 --seconds 15 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, and the run fails without printing a result if it is missing.
The workload's seed makes one fixed pass of operations (see workloads.py);
the pass is repeated until ``--seconds`` have elapsed, at least once, and
every operation's result is checked against its paired route.

With ``--trace 0`` the end-to-end metrics are measured untraced. With
``--trace 1`` passes alternate untraced and traced (spans around every
call into a package layer), the per-layer metrics come from the traced
passes, the tracing overhead is the traced minus the untraced pass time,
and the spans are written to ``.bench_out/`` when the run ends.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

# Pin BLAS/OpenMP threads before numpy is imported, here and in every
# child process: the matrices are at most 64 x 64, where extra threads
# only add scheduling noise. One thread is never more than nproc.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = THREADS

from recorder import Recorder, write_spans  # noqa: E402
from speed import REF_S, Speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cube_flow", "memory_n", "oracle_mc", "cli_session")
SETUP_PROBES = 3
IMPORT_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
}

# The end-to-end figures of single operation families. Each exists only on
# the workloads that run that family, so they are printed by name on those
# workloads and carried in the traced run's per-layer set (0 elsewhere).
FAMILY = {
    "rk4_steps_per_s": "1/s",
    "batch_row_steps_per_s": "1/s",
    "n1_pairs_per_s": "1/s",
    "n3_pairs_per_s": "1/s",
    "field_evals_per_s": "1/s",
    "mc_rounds_per_s": "1/s",
    "cli_matrix_s": "s",
    "cli_integrate_s": "s",
    "cli_integrate_rk45_s": "s",
    "cli_torus_s": "s",
    "cli_verify_s": "s",
    "ops_failed_frac": "1",
}

# family metric -> (op kind prefix, counters holding the work; none = ops)
RATES = {
    "rk4_steps_per_s": ("start", ("dynamics.rk4.steps", "torus.rk4.steps")),
    "batch_row_steps_per_s": ("drift", ("dynamics.drift.row_steps",)),
    "n1_pairs_per_s": ("pair_n1", ()),
    "n3_pairs_per_s": ("pair_n3", ()),
    "field_evals_per_s": ("field_n", ()),
    "mc_rounds_per_s": ("mc_n", ("oracle.rounds",)),
}
CLI_KINDS = ("matrix", "integrate", "integrate_rk45", "torus", "verify")

# Per-layer metric -> unit. Calls and busy time come from spans, the rest
# from counters; us_* and *_per_s are derived from both.
LAYER = {
    "chain.direct.calls": "count",
    "chain.direct.busy_s": "s",
    "chain.direct.us_n1": "us",
    "chain.direct.us_n3": "us",
    "chain.recursive.busy_s": "s",
    "chain.stationary.calls": "count",
    "chain.stationary.busy_s": "s",
    "chain.stationary.nonunique": "count",
    "payoff.determinant.calls": "count",
    "payoff.determinant.busy_s": "s",
    "payoff.determinant.singular": "count",
    "payoff.stationary.busy_s": "s",
    "payoff.route_gap_max": "1",
    "dynamics.rk4.steps": "count",
    "dynamics.rk4.busy_s": "s",
    "dynamics.rk4.us_per_step": "us",
    "dynamics.halts.boundary": "count",
    "dynamics.halts.singular": "count",
    "dynamics.drift.row_steps": "count",
    "dynamics.drift.busy_s": "s",
    "dynamics.drift.over_1e-8": "count",
    "dynamics.field_numeric.calls": "count",
    "dynamics.field_numeric.busy_s": "s",
    "torus.rk4.steps": "count",
    "torus.rk4.busy_s": "s",
    "torus.rk4.us_per_step": "us",
    "torus.commute_err_max": "1",
    "torus.field_grid.busy_s": "s",
    "torus.contour.busy_s": "s",
    "torus.equilibria.busy_s": "s",
    "oracle.rounds": "count",
    "oracle.busy_s": "s",
    "oracle.rounds_per_s": "1/s",
    "oracle.z_max": "sigma",
    "symmetry.verify.calls": "count",
    "symmetry.verify.busy_s": "s",
    "cli.import_s": "s",
    **{f"cli.{kind}.bytes_out": "B" for kind in CLI_KINDS},
    "verify.run_suite.busy_s": "s",
    **{f"cli.{kind}.other_s": "s" for kind in CLI_KINDS},
}
TRACE = {"trace.overhead_s": "s", "trace.spans_per_pass": "count"}
PER_LAYER = {**LAYER, **FAMILY, **TRACE}


@dataclass(frozen=True)
class OpRecord:
    kind: str
    label: str
    start: float
    wall: float
    cause: str  # None when the operation passed its gate
    seconds: float = 0.0  # wall at the reference host speed, see speed.py


@dataclass(frozen=True)
class Pass:
    traced: bool
    wall: float
    records: list
    spans: list
    counts: dict


@dataclass(frozen=True)
class Measured:
    setup: list  # seconds of each fresh set-up
    passes: list
    replay: Pass  # in-process replays of the CLI layer calls, or None
    origin: float  # perf_counter() when the timed phase began
    speed: object


def run_ops(rec, ops, speed):
    """Run operations in order; a failing one is recorded, never fatal."""
    records = []
    for op in ops:
        cause = None
        speed.mark()
        start = perf_counter()
        try:
            with rec.span(op.kind):
                op.run(rec)
        except Exception as exc:  # noqa: BLE001 - every failure is named and counted
            where = traceback.extract_tb(exc.__traceback__)[-1]
            cause = f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
        records.append(OpRecord(op.kind, op.label, start, perf_counter() - start, cause))
        speed.mark()
    return records


def scale(records, speed):
    return [replace(r, seconds=speed.scaled(r.wall, r.start, r.start + r.wall)) for r in records]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def set_up(workload, seed, workdir):
    """Generate the inputs and run one untimed warm-up per layer."""
    from workloads import BUILDERS

    built = BUILDERS[workload](seed, workdir, child_env())
    run_ops(Recorder(), built.warmup, Speed())
    return built


def timed_probe(argv, speed):
    """Wall time of a fresh process, at the reference host speed."""
    speed.mark(force=True)
    start = perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, env=child_env())
    end = perf_counter()
    speed.mark(force=True)
    return speed.scaled(end - start, start, end)


def measure(workload, seed, seconds, trace):
    """Set up, run passes until the deadline, return everything measured."""
    # One CPU for this process and every child, so that the speed probes
    # taken while a child runs measure the CPU the child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    speed = Speed()
    setup = [timed_probe(probe, speed) for _ in range(SETUP_PROBES)]
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        built = set_up(workload, seed, workdir)
        rec = Recorder(idle=speed.mark)
        passes = []
        origin = perf_counter()
        deadline = origin + seconds
        while True:
            rec.tracing = trace and len(passes) % 2 == 1
            start = perf_counter()
            with rec.span("pass"):
                records = run_ops(rec, built.ops, speed)
            wall = perf_counter() - start
            passes.append(Pass(rec.tracing, wall, records, *rec.take()))
            if perf_counter() >= deadline and not (trace and len(passes) % 2):
                break
        replay = None
        if trace and built.replays:
            rec.tracing = True
            records = run_ops(rec, built.replays, speed)
            replay = Pass(True, 0.0, records, *rec.take())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = [replace(p, records=scale(p.records, speed)) for p in passes]
    if replay is not None:
        replay = replace(replay, records=scale(replay.records, speed))
    return Measured(setup, passes, replay, origin, speed)


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def peak_rss_mb():
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return usage / 1024.0


def op_medians(passes):
    """(kind, median seconds) of each operation of the pass.

    Every pass runs the same operations, so each one is timed once per
    pass; its median over the passes discards the passes in which the
    host stalled it, and summing the medians gives a steady pass time.
    """
    return [
        (records[0].kind, median(r.seconds for r in records))
        for records in zip(*(p.records for p in passes))
    ]


def end_to_end(setup, passes):
    ops = op_medians([p for p in passes if not p.traced])
    return {
        "setup_s": median(setup),
        "wall_s": sum(seconds for _, seconds in ops),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": 1e3 * median(seconds for _, seconds in ops),
    }


def family(passes):
    """Per-family figures from the untraced passes."""
    untraced = [p for p in passes if not p.traced]
    ops = op_medians(untraced)
    counts = untraced[0].counts
    out = {}
    for name, (prefix, counters) in RATES.items():
        times = [seconds for kind, seconds in ops if kind.startswith(prefix)]
        work = sum(counts.get(c, 0) for c in counters) if counters else len(times)
        out[name] = work / sum(times) if times else 0.0
    for kind in CLI_KINDS:
        out[f"cli_{kind}_s"] = median(seconds for k, seconds in ops if k == f"cli_{kind}")
    return out


def layer_values(spans, counts):
    """Per-layer metrics of one traced pass."""
    calls, busy = {}, {}
    for _, name, start, end, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)

    def summed(table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    out = {
        "chain.direct.calls": summed(calls, "chain.direct"),
        "chain.direct.busy_s": summed(busy, "chain.direct"),
        "chain.direct.us_n1": per(busy.get("chain.direct.n1", 0), calls.get("chain.direct.n1"), 1e6),
        "chain.direct.us_n3": per(busy.get("chain.direct.n3", 0), calls.get("chain.direct.n3"), 1e6),
        "chain.recursive.busy_s": busy.get("chain.recursive", 0.0),
        "chain.stationary.calls": calls.get("chain.stationary", 0),
        "chain.stationary.busy_s": busy.get("chain.stationary", 0.0),
        "payoff.determinant.calls": calls.get("payoff.determinant", 0),
        "payoff.determinant.busy_s": busy.get("payoff.determinant", 0.0),
        "payoff.stationary.busy_s": busy.get("payoff.stationary", 0.0),
        "dynamics.rk4.busy_s": busy.get("dynamics.rk4", 0.0),
        "dynamics.drift.busy_s": busy.get("dynamics.drift", 0.0),
        "dynamics.field_numeric.calls": calls.get("dynamics.field_numeric", 0),
        "dynamics.field_numeric.busy_s": busy.get("dynamics.field_numeric", 0.0),
        "torus.rk4.busy_s": busy.get("torus.rk4", 0.0),
        "torus.field_grid.busy_s": busy.get("torus.field_grid", 0.0),
        "torus.contour.busy_s": busy.get("torus.contour", 0.0),
        "torus.equilibria.busy_s": busy.get("torus.equilibria", 0.0),
        "oracle.busy_s": busy.get("oracle.simulate", 0.0),
        "symmetry.verify.calls": calls.get("symmetry.verify", 0),
        "symmetry.verify.busy_s": busy.get("symmetry.verify", 0.0),
        "verify.run_suite.busy_s": busy.get("verify.run_suite", 0.0),
    }
    for name in LAYER:
        if name not in out and not name.startswith("cli."):
            out[name] = counts.get(name, 0)
    out["dynamics.rk4.us_per_step"] = per(
        out["dynamics.rk4.busy_s"], out["dynamics.rk4.steps"], 1e6
    )
    out["torus.rk4.us_per_step"] = per(out["torus.rk4.busy_s"], out["torus.rk4.steps"], 1e6)
    out["oracle.rounds_per_s"] = per(out["oracle.rounds"], out["oracle.busy_s"])
    for kind in CLI_KINDS:
        out[f"cli.{kind}.bytes_out"] = counts.get(f"cli.{kind}.bytes_out", 0)
    return out


def cli_layers(passes, replay, import_s):
    """cli.import_s and, per command, the wall time left after the import
    and the layer calls replayed in-process with the same inputs."""
    untraced = [p for p in passes if not p.traced]
    out = {"cli.import_s": import_s}
    for kind in CLI_KINDS:
        wall = median(seconds for k, seconds in op_medians(untraced) if k == f"cli_{kind}")
        layers = median(r.seconds for r in replay.records if r.kind == f"replay_{kind}")
        out[f"cli.{kind}.other_s"] = wall - import_s - layers if wall else 0.0
    return out


def per_layer(passes, replay, import_s, families):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    rows = []
    for p in traced:
        spans, counts = list(p.spans), dict(p.counts)
        if replay is not None:
            spans += replay.spans
            for name, value in replay.counts.items():
                counts[name] = counts.get(name, 0) + value
        rows.append(layer_values(spans, counts))
    out = {name: median(row[name] for row in rows) for name in rows[0]}
    out.update({f"cli.{kind}.other_s": 0.0 for kind in CLI_KINDS})
    out["cli.import_s"] = 0.0
    if replay is not None:
        out.update(cli_layers(passes, replay, import_s))
    out.update(families)
    out["trace.overhead_s"] = sum(t for _, t in op_medians(traced)) - sum(
        t for _, t in op_medians(untraced)
    )
    out["trace.spans_per_pass"] = median(len(p.spans) for p in traced)
    return {name: out[name] for name in PER_LAYER}


def import_seconds(speed):
    probe = [sys.executable, "-c", "import altpd.cli"]
    return median(timed_probe(probe, speed) for _ in range(IMPORT_PROBES))


def versions():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(THREADS),
    }


def tail_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    values = sorted(values)
    best = None
    for pct, cuts in ((90, 10), (99, 100), (99.9, 1000)):
        if len(values) >= 10 * cuts:
            best = (pct, statistics.quantiles(values, n=cuts)[-1])
    return best


def report(args, run):
    setup, passes, replay, speed = run.setup, run.passes, run.replay, run.speed
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    records = [r for p in passes for r in p.records]
    if replay is not None:
        records += replay.records
    failures = {}
    for r in records:
        if r.cause is not None:
            failures[(r.label, r.cause)] = failures.get((r.label, r.cause), 0) + 1
    attempted, failed = len(records), sum(failures.values())

    untraced = [p for p in passes if not p.traced]
    print(f"# workload {workload} seed {seed} seconds {args.seconds} trace {args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in versions().items()))
    print(f"# passes {len(passes)} ({len(passes) - len(untraced)} traced),"
          f" {attempted} ops, {failed} failed")
    print("# pass walls " + " ".join(f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes))
    probes = sorted(speed.probes)
    print(f"# reference snippet {1e3 * median(probes):.3f} ms median, {1e3 * probes[0]:.3f}"
          f"-{1e3 * probes[-1]:.3f} ms over {len(probes)} probes (REF_S {1e3 * REF_S:g} ms)")
    for (label, cause), count in failures.items():
        print(f"failed {label}: {cause} (x{count})")

    metrics = end_to_end(setup, passes)
    families = {**family(passes), "ops_failed_frac": failed / attempted}
    per_op = f" (n={len(untraced[0].records)} ops x {len(untraced)} passes)"
    notes = {"setup_s": f" (n={len(setup)})", "wall_s": per_op, "op_p50_ms": per_op}
    for name, value in {**metrics, **families}.items():
        if value or name in END_TO_END or name == "ops_failed_frac":
            unit = END_TO_END.get(name) or FAMILY[name]
            print(f"metric {name} {value:.6g} {unit}{notes.get(name, '')}")
    tail = tail_percentile(t for _, t in op_medians(untraced))
    if tail:
        print(f"metric op_p{tail[0]:g}_ms {1e3 * tail[1]:.6g} ms{per_op}")

    if trace:
        import_s = import_seconds(speed) if replay is not None else 0.0
        metrics = per_layer(passes, replay, import_s, families)
        for name in [*LAYER, *TRACE]:
            print(f"layer {name} {metrics[name]:.6g} {PER_LAYER[name]}")
        buckets = [(f"pass{i}", p.spans) for i, p in enumerate(passes) if p.traced]
        if replay is not None:
            buckets.append(("replay", replay.spans))
        path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        write_spans(path, buckets, run.origin)
        print(f"# spans written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        units = END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "altpd" / "__init__.py").is_file():
        sys.stderr.write(f"altpd sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import altpd

    if Path(altpd.__file__).resolve().parent != SRC / "altpd":
        sys.stderr.write(f"imported altpd from {altpd.__file__}, not from {SRC}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(dir=OUT))
        try:
            set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    report(args, measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
