"""Seeded inputs, operations and correctness gates of the four workloads.

Each workload turns its seed into one fixed list of operations, a pass.
The benchmark repeats that pass, so every pass of a run does identical
work. The package receives only the generated inputs, never the seed.

Every operation checks its result against the paired route, at the
tolerances the repository already uses:

* direct vs recursive transition matrix: 1e-15 (max abs entry);
* determinant vs stationary payoff: 1e-9;
* cube vs torus endpoint, when both orbits completed: 1e-6;
* general-memory field vs closed form: 1e-5. At N = 2 and 3 the state is
  the lift of a memory-1 state (each history reacts to the last round
  only), so the field entries that share a last round sum to the
  memory-1 closed-form component;
* Monte Carlo vs stationary payoff: 5 standard errors. The standard error
  is the asymptotic one of the dependent chain, built from the
  fundamental matrix as in the acceptance suite, because the oracle's own
  iid estimate understates it by up to ~2.6x on slowly mixing pairs.

A failed gate raises GateError. Boundary halts of the cube integrator
and a non-unique stationary distribution on the reducible preset pairs
are expected outcomes and are only counted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import altpd

PARAMS = altpd.PayoffParams(b=1.0, c=0.3)
DT = 1e-3

DIRECT_VS_RECURSIVE_TOL = 1e-15
PAYOFF_ROUTES_TOL = 1e-9
CUBE_VS_TORUS_TOL = 1e-6
FIELD_NUMERIC_TOL = 1e-5
MC_SIGMAS = 5.0
# Criterion-4 drift bound; excess is reported as a count, never gated.
DRIFT_BOUND = 1e-8
# An integrated equilibrium must stay where it started.
EQUILIBRIUM_MOVE_TOL = 1e-9
CLI_TIMEOUT_S = 120
IDLE_S = 0.05

README_POINT = "0.71,0.5,0.41,0.2"
PRESETS = {"allc": altpd.all_c, "alld": altpd.all_d, "tft": altpd.tit_for_tat}


class GateError(Exception):
    """A result disagreed with its paired route beyond the gate tolerance."""


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    fn: object
    args: tuple

    def run(self, rec):
        self.fn(rec, *self.args)


@dataclass
class Workload:
    ops: list
    warmup: list
    # In-process replays of the layer calls behind each CLI invocation.
    replays: list = field(default_factory=list)


def _gate(ok, message):
    if not ok:
        raise GateError(message)


def _steps(times, status):
    """RK4 steps computed: the recorded ones plus the step that halted."""
    return len(times) - 1 + (status != "completed")


# ---------------------------------------------------------------- memory_n


def _pair(rec, memory, p, q, preset):
    direct = rec.call(f"chain.direct.n{memory}", altpd.build_matrix_direct, p, q)
    if memory >= 2:
        recursive = rec.call("chain.recursive", altpd.build_matrix_recursive, p, q)
        gap = float(np.max(np.abs(direct.entries - recursive.entries)))
        _gate(gap <= DIRECT_VS_RECURSIVE_TOL, f"direct vs recursive differ by {gap:.3g}")
    try:
        rec.call("chain.stationary", altpd.stationary, direct)
    except altpd.NonUniqueStationaryError:
        if not preset:
            raise
        rec.add("chain.stationary.nonunique")
        _degenerate_payoffs(rec, p, q, direct)
        return
    det = rec.call("payoff.determinant", altpd.payoff_by_determinant, p, q, PARAMS, direct)
    stat = rec.call("payoff.stationary", altpd.payoff_by_stationary, p, q, PARAMS)
    gap = abs(det - stat)
    rec.peak("payoff.route_gap_max", gap)
    _gate(gap <= PAYOFF_ROUTES_TOL, f"payoff routes differ by {gap:.3g}")


def _degenerate_payoffs(rec, p, q, matrix):
    # Without a unique stationary distribution the payoff is undefined, so
    # both routes must refuse rather than return a number.
    try:
        value = rec.call("payoff.determinant", altpd.payoff_by_determinant, p, q, PARAMS, matrix)
    except altpd.SingularPayoffError:
        rec.add("payoff.determinant.singular")
    else:
        raise GateError(f"determinant payoff {value!r} on a non-unique chain")
    try:
        value = rec.call("payoff.stationary", altpd.payoff_by_stationary, p, q, PARAMS)
    except altpd.NonUniqueStationaryError:
        return
    raise GateError(f"stationary payoff {value!r} on a non-unique chain")


def _symmetry(rec, j, p, q):
    report = rec.call("symmetry.verify", altpd.verify_admissibility, j, p, q, PARAMS)
    _gate(
        report.admissible,
        f"symmetry rejected (structure {report.structure_error:.3g},"
        f" payoff {report.payoff_error:.3g})",
    )


def _field(rec, x, base):
    got = rec.call("dynamics.field_numeric", altpd.field_numeric, x, PARAMS)
    want = rec.call("dynamics.field_closed_form", altpd.field_closed_form, base, PARAMS)
    summed = np.bincount(np.arange(x.size) & 3, weights=got, minlength=4)
    err = float(np.max(np.abs(summed - want)))
    _gate(err <= FIELD_NUMERIC_TOL, f"field_numeric vs closed form differ by {err:.3g}")


def lift(x, memory):
    """Memory-N strategy that reacts only to the last round, as x does."""
    return np.asarray(x)[np.arange(4**memory) & 3]


# Per pass: random pairs per memory, every 10th of them at N = 1, 2 also
# checked for symmetry, and field evaluations per memory.
PAIRS = {1: 1200, 2: 400, 3: 160}
SYMMETRY_EVERY = 10
FIELDS = {1: 10, 2: 16, 3: 4}


def build_memory_n(seed, workdir=None, env=None):
    rng = np.random.default_rng(seed)
    ops = []
    for memory, count in PAIRS.items():
        admissible = altpd.build_admissible(memory)
        for k in range(count):
            p = altpd.Strategy(rng.random(4**memory))
            q = altpd.Strategy(rng.random(4**memory))
            ops.append(Op(f"pair_n{memory}", f"pair N={memory} #{k}", _pair, (memory, p, q, False)))
            if memory <= 2 and k % SYMMETRY_EVERY == 0:
                j = admissible[2 + (k // SYMMETRY_EVERY) % 3]
                ops.append(Op(f"sym_n{memory}", f"symmetry N={memory} #{k}", _symmetry, (j, p, q)))
        for a, make_p in PRESETS.items():
            for b, make_q in PRESETS.items():
                ops.append(
                    Op(f"pair_n{memory}", f"pair N={memory} {a}/{b}", _pair,
                       (memory, make_p(memory), make_q(memory), True))
                )
    for memory, count in FIELDS.items():
        for k in range(count):
            base = rng.uniform(0.1, 0.9, 4)
            ops.append(
                Op(f"field_n{memory}", f"field N={memory} #{k}", _field, (lift(base, memory), base))
            )
    return Workload(ops, _first_of_each_kind(ops))


# --------------------------------------------------------------- cube_flow


def _start(rec, x0, t_final):
    cube = rec.call("dynamics.rk4", altpd.integrate, x0, PARAMS, t_final, DT)
    rec.add("dynamics.rk4.steps", _steps(cube.times, cube.status))
    if cube.status == "boundary":
        rec.add("dynamics.halts.boundary")
    elif cube.status == "singular":
        rec.add("dynamics.halts.singular")
        raise GateError("cube orbit halted on a singular field")
    pt = rec.call("torus.to_torus", altpd.to_torus, x0)
    times, path, status = rec.call("torus.rk4", altpd.torus_trajectory, pt, PARAMS, t_final, DT)
    rec.add("torus.rk4.steps", _steps(times, status))
    if cube.status != "completed":
        return
    _gate(status == "completed", f"torus orbit {status} where the cube orbit completed")
    end = rec.call(
        "torus.to_cube", altpd.to_cube, altpd.TorusPoint(path[-1, 0], path[-1, 1], pt.level)
    )
    err = float(np.max(np.abs(end - cube.final)))
    rec.peak("torus.commute_err_max", err)
    _gate(err <= CUBE_VS_TORUS_TOL, f"cube vs torus endpoints differ by {err:.3g}")


def _drift(rec, rows, t_final):
    d1, d2 = rec.call("dynamics.drift", altpd.conservation_drift, rows, PARAMS, t_final, DT)
    worst = np.maximum(d1, d2)
    _gate(bool(np.all(np.isfinite(worst))), "non-finite invariant drift")
    # Rows frozen after leaving the cube are included: the count is the
    # work requested, which is the same at every commit.
    rec.add("dynamics.drift.row_steps", rows.shape[0] * int(round(t_final / DT)))
    rec.add("dynamics.drift.over_1e-8", int(np.sum(worst > DRIFT_BOUND)))


def _torus_start(rng, low, high):
    """Interior state on a torus with both levels in [low, high)."""
    level = altpd.TorusLevel(rng.uniform(low, high), rng.uniform(low, high))
    rect = altpd.admissible_rectangle(level)
    phi, psi = (
        lo + (hi - lo) * rng.uniform(0.15, 0.85) for lo, hi in (rect.phi_interval, rect.psi_interval)
    )
    return altpd.to_cube(altpd.TorusPoint(phi, psi, level))


def _edge_start(rng):
    """Interior state with one coordinate within 1e-4 of a face."""
    x = rng.uniform(0.1, 0.9, 4)
    gap = rng.uniform(1e-6, 1e-4)
    x[rng.integers(4)] = gap if rng.random() < 0.5 else 1.0 - gap
    return x


# Starts run for T_START; edge starts, which often halt at once, run for a
# short T_EDGE so that how many of them halt barely changes the work.
T_START = 0.15
T_EDGE = 0.05
T_DRIFT = 0.5
DRIFT_ROWS = 64


def build_cube_flow(seed, workdir=None, env=None):
    rng = np.random.default_rng(seed)
    starts = [("generic", rng.uniform(0.1, 0.9, 4)) for _ in range(4)]
    starts += [("torus<=1", _torus_start(rng, 0.1, 0.95)) for _ in range(2)]
    starts += [("torus>1", _torus_start(rng, 1.05, 1.6)) for _ in range(2)]
    ops = [
        Op("start", f"start {tag} #{k}", _start, (x0, T_START))
        for k, (tag, x0) in enumerate(starts)
    ]
    ops += [Op("start", f"start edge #{k}", _start, (_edge_start(rng), T_EDGE)) for k in range(2)]
    rows = rng.uniform(0.05, 0.95, (DRIFT_ROWS, 4))
    ops.append(Op("drift", f"drift {DRIFT_ROWS} rows", _drift, (rows, T_DRIFT)))
    return Workload(ops, _first_of_each_kind(ops))


# --------------------------------------------------------------- oracle_mc


def _asymptotic_std_error(m, nu, f, rounds):
    """Standard error of a time average over the chain (Kemeny-Snell Z)."""
    n = m.shape[0]
    fc = f - nu @ f
    z = np.linalg.inv(np.eye(n) - m + np.outer(np.ones(n), nu))
    sigma2 = nu @ (fc * fc) + 2.0 * (nu @ (fc * (z @ (m @ fc))))
    return float(np.sqrt(sigma2 / rounds))


def _monte_carlo(rec, p, q, rounds, seed, f):
    result = rec.call("oracle.simulate", altpd.simulate, p, q, PARAMS, rounds, seed=seed)
    rec.add("oracle.rounds", result.rounds + result.burn_in)
    exact = rec.call("payoff.stationary", altpd.payoff_by_stationary, p, q, PARAMS)
    matrix = rec.call(f"chain.direct.n{p.memory}", altpd.build_matrix_direct, p, q)
    nu = rec.call("chain.stationary", altpd.stationary, matrix)
    z = abs(result.mean_payoff - exact) / _asymptotic_std_error(matrix.entries, nu, f, rounds)
    rec.peak("oracle.z_max", z)
    _gate(z <= MC_SIGMAS, f"Monte Carlo off by {z:.2f} standard errors")


MC_PAIRS_PER_MEMORY = 4
MC_ROUNDS = 200_000


def build_oracle_mc(seed, workdir=None, env=None):
    rng = np.random.default_rng(seed)
    ops = []
    for memory in (1, 2, 3):
        f = altpd.build_payoff_vector(PARAMS, memory)
        for k in range(MC_PAIRS_PER_MEMORY):
            p = altpd.Strategy(rng.random(4**memory))
            q = altpd.Strategy(rng.random(4**memory))
            sim_seed = int(rng.integers(2**31))
            ops.append(
                Op(f"mc_n{memory}", f"simulate N={memory} #{k}", _monte_carlo,
                   (p, q, MC_ROUNDS, sim_seed, f))
            )
    return Workload(ops, _first_of_each_kind(ops))


# ------------------------------------------------------------- cli_session


def _cli(rec, kind, argv, check, workdir, env):
    try:
        argv = [sys.executable, "-m", "altpd.cli", *argv]
        proc = rec.call(f"cli.{kind}", _run_child, rec, argv, workdir, env)
    finally:
        files = {}
        for path in sorted(Path(workdir).iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
    rec.add(f"cli.{kind}.bytes_out", len(proc.stdout) + sum(map(len, files.values())))
    stderr = proc.stderr.decode(errors="replace").strip()
    _gate(proc.returncode == 0, f"exit {proc.returncode}: {stderr[-200:]}")
    check(proc.stdout.decode(), files)


def _run_child(rec, argv, workdir, env):
    """One fresh process, started after the previous one exited.

    While it runs, the benchmark process is otherwise idle and calls
    ``rec.idle`` every IDLE_S; the child is killed and reaped on timeout.
    """
    with subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        deadline = perf_counter() + CLI_TIMEOUT_S
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=IDLE_S)
                break
            except subprocess.TimeoutExpired:
                if perf_counter() > deadline:
                    proc.kill()
                    proc.communicate()
                    raise
                rec.idle()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def _check_matrix_json(stdout, files):
    data = json.loads(files["matrix.json"])
    _check_payoffs(data["payoff_determinant"], data["payoff_stationary"])
    m = np.array(data["matrix"])
    nu = np.array(data["stationary"])
    residual = float(np.max(np.abs(nu @ m - nu)))
    _gate(residual <= 1e-10, f"stationary residual {residual:.3g}")


def _check_matrix_csv(stdout, files):
    provenance = files["matrix.csv"].decode().splitlines()[0]
    results = json.loads(provenance[2:])["results"]
    _check_payoffs(results["payoff_determinant"], results["payoff_stationary"])


def _check_payoffs(det, stat):
    gap = abs(det - stat)
    _gate(gap <= PAYOFF_ROUTES_TOL, f"payoff routes differ by {gap:.3g}")


def _check_equilibrium_run(x0, steps):
    def check(stdout, files):
        summary = json.loads(stdout)
        _gate(summary["status"] == "completed", f"status {summary['status']}")
        if steps is not None:
            _gate(summary["steps"] == steps, f"{summary['steps']} steps, expected {steps}")
        moved = float(np.max(np.abs(np.array(summary["final_state"]) - x0)))
        _gate(moved <= EQUILIBRIUM_MOVE_TOL, f"equilibrium moved by {moved:.3g}")
        drift = max(summary["max_drift_f1"], summary["max_drift_f2"])
        _gate(drift <= DRIFT_BOUND, f"invariant drift {drift:.3g}")

    return check


def _check_torus(grid):
    def check(stdout, files):
        rows = files["fig_field.csv"].decode().splitlines()[2:]
        _gate(len(rows) == grid * grid, f"{len(rows)} field rows, expected {grid * grid}")
        listed = json.loads(files["fig_equilibria.json"])["equilibria"]
        _gate(f"({len(listed)} equilibria)" in stdout, "equilibrium count mismatch")
        for entry in listed:
            x = np.array(entry["x"])
            speed = float(np.max(np.abs(altpd.field_closed_form(x, PARAMS))))
            _gate(speed <= 1e-8, f"listed equilibrium has field {speed:.3g}")

    return check


def _check_verify(stdout, files):
    lines = stdout.splitlines()
    _gate(len(lines) >= 7 and all(line.startswith("PASS ") for line in lines),
          "verify did not pass every check")


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def _plane_point(rng):
    """Seeded point on the interior equilibrium plane, inside the cube."""
    c = PARAMS.c / PARAMS.b
    while True:
        p2 = rng.uniform(0.2, 0.8)
        cap = min((1.0 - c) * (1.0 - p2) / c, (1.0 - c * (1.0 - p2)) / (1.0 + c))
        x = altpd.interior_plane_point(p2, rng.uniform(0.1, 0.9) * cap, PARAMS)
        if np.all(x > 0.01) and np.all(x < 0.99):
            return x


T_CLI_RK4 = 1.0
T_CLI_RK45 = 10.0
TORUS_GRID = 40


def _replay_matrix(rec, p, q):
    matrix = rec.call(f"chain.direct.n{p.memory}", altpd.build_matrix_direct, p, q)
    rec.call("chain.stationary", altpd.stationary, matrix)
    rec.call("chain.irreducible", altpd.is_irreducible, matrix)
    rec.call("payoff.determinant", altpd.payoff_by_determinant, p, q, PARAMS, matrix)


def _replay_integrate(rec, x0, t_final, method):
    run = rec.call(f"dynamics.{method}", altpd.integrate, x0, PARAMS, t_final, DT, method)
    if method == "rk4":
        rec.add("dynamics.rk4.steps", _steps(run.times, run.status))


def _replay_torus(rec, level):
    rec.call("torus.field_grid", altpd.field_grid, level, PARAMS, TORUS_GRID)
    rec.call("torus.contour", altpd.denominator_zero_segments, level)
    for pt in rec.call("torus.equilibria", altpd.torus_equilibria, level, PARAMS):
        rec.call("dynamics.classify", altpd.classify_equilibrium, altpd.to_cube(pt), PARAMS)


def _replay_verify(rec):
    rec.call("verify.run_suite", altpd.run_suite)


def build_cli_session(seed, workdir, env):
    rng = np.random.default_rng(seed)
    ops, replays = [], []

    def add(kind, label, argv, check, replay, replay_args):
        ops.append(Op(f"cli_{kind}", label, _cli, (kind, argv, check, workdir, env)))
        replays.append(Op(f"replay_{kind}", label, replay, replay_args))

    for memory, fmt, check in ((1, "json", _check_matrix_json), (3, "csv", _check_matrix_csv)):
        p, q = (altpd.Strategy(rng.uniform(0.02, 0.98, 4**memory)) for _ in range(2))
        argv = ["matrix", "--n", str(memory), "--p", _floats(p.probs), "--q",
                _floats(q.probs), "--format", fmt, "--out", f"matrix.{fmt}"]
        add("matrix", f"matrix N={memory} {fmt}", argv, check, _replay_matrix, (p, q))
    readme = np.array([float(v) for v in README_POINT.split(",")])
    steps = int(round(T_CLI_RK4 / DT))
    for tag, x0 in (("README point", readme), ("plane point", _plane_point(rng))):
        argv = ["integrate", "--p", _floats(x0), "--t", repr(T_CLI_RK4), "--out", "run.csv"]
        add("integrate", f"integrate rk4 {tag}", argv, _check_equilibrium_run(x0, steps),
            _replay_integrate, (x0, T_CLI_RK4, "rk4"))
    argv = ["integrate", "--p", README_POINT, "--t", repr(T_CLI_RK45), "--method", "rk45",
            "--out", "run.csv"]
    add("integrate_rk45", "integrate rk45 README point", argv,
        _check_equilibrium_run(readme, None), _replay_integrate, (readme, T_CLI_RK45, "rk45"))
    for tag, low, high in (("level<=1", 0.2, 0.9), ("level>1", 1.05, 1.6)):
        level = altpd.TorusLevel(rng.uniform(low, high), rng.uniform(low, high))
        argv = ["torus", "--c1", repr(level.c1), "--c2", repr(level.c2),
                "--grid", str(TORUS_GRID), "--out", "fig"]
        add("torus", f"torus {tag}", argv, _check_torus(TORUS_GRID), _replay_torus, (level,))
    add("verify", "verify", ["verify"], _check_verify, _replay_verify, ())
    return Workload(ops, ops[:1], replays)


def _first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


BUILDERS = {
    "cube_flow": build_cube_flow,
    "memory_n": build_memory_n,
    "oracle_mc": build_oracle_mc,
    "cli_session": build_cli_session,
}
