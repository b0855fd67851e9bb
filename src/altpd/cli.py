"""Command-line surface: matrix, integrate, torus, verify.

Every output embeds the effective run configuration (CSV files as a
one-line JSON comment, JSON files under a "config" key) and all floats
are printed with 17 significant digits so runs can be reproduced and
compared bit-for-bit. Exit codes: 0 success, 1 verification failure,
2 mathematical degeneracy, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import build_matrix_direct, is_irreducible, stationary
from .dynamics import classify_equilibrium, integrate, invariants
from .errors import DegeneracyError
from .payoff import build_payoff_vector, payoff_by_determinant
from .strategy import (
    PayoffParams,
    Strategy,
    all_c,
    all_d,
    random_strategy,
    tit_for_tat,
)
from .torus import (
    TorusLevel,
    admissible_rectangle,
    denominator_zero_segments,
    field_grid,
    to_cube,
    torus_equilibria,
)
from .verify import run_suite

__all__ = ["RunConfig", "main"]

_DEFAULTS = {
    "b": 1.0,
    "c": 0.3,
    "n": 1,
    "t": 10.0,
    "dt": 1e-3,
    "method": "rk4",
    "seed": 0,
    "rounds": 1_000_000,
    "c1": 0.5,
    "c2": 0.5,
    "grid": 40,
    "format": None,
    "out": None,
    "p": None,
    "q": None,
}

_CASTS = {
    "b": float,
    "c": float,
    "n": int,
    "t": float,
    "dt": float,
    "method": str,
    "seed": int,
    "rounds": int,
    "c1": float,
    "c2": float,
    "grid": int,
    "format": str,
    "out": str,
    "p": str,
    "q": str,
}


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one command run, after merging defaults,
    config file, and flags (flags win)."""

    command: str
    b: float
    c: float
    memory: int
    t_final: float
    dt: float
    method: str
    seed: int
    rounds: int
    c1: float
    c2: float
    grid: int
    format: str
    out: str
    p: str
    q: str

    def validate(self) -> None:
        if not 0.0 < self.c < self.b:
            raise ValueError("costs must satisfy 0 < c < b")
        if self.memory not in (1, 2, 3):
            raise ValueError("memory must be 1, 2, or 3")
        if not (0.0 < self.t_final < math.inf and 0.0 < self.dt < math.inf):
            raise ValueError("t and dt must be finite and positive")
        if self.method not in ("rk4", "rk45"):
            raise ValueError("method must be rk4 or rk45")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.grid < 2:
            raise ValueError("grid must be at least 2")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "b": self.b,
            "c": self.c,
            "n": self.memory,
            "t": self.t_final,
            "dt": self.dt,
            "method": self.method,
            "seed": self.seed,
            "rounds": self.rounds,
            "c1": self.c1,
            "c2": self.c2,
            "grid": self.grid,
            "p": self.p,
            "q": self.q,
        }

    @property
    def params(self) -> PayoffParams:
        return PayoffParams(b=self.b, c=self.c)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _read_config_file(path: str) -> dict:
    """Flat key-value config: one `name = value` (or `name value`) per line,
    names matching the long flags, `#` starts a comment."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key = key.strip().lstrip("-").replace("-", "_")
        if key not in _CASTS:
            raise ValueError(f"unknown config key: {key}")
        try:
            values[key] = _CASTS[key](value.strip())
        except ValueError:
            raise ValueError(f"bad value for config key {key}: {value.strip()!r}")
    return values


def _effective_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    for key, cast in _CASTS.items():
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = cast(value)
    if merged["format"] is None:
        merged["format"] = "json" if args.command == "matrix" else "csv"
    config = RunConfig(
        command=args.command,
        b=merged["b"],
        c=merged["c"],
        memory=merged["n"],
        t_final=merged["t"],
        dt=merged["dt"],
        method=merged["method"],
        seed=merged["seed"],
        rounds=merged["rounds"],
        c1=merged["c1"],
        c2=merged["c2"],
        grid=merged["grid"],
        format=merged["format"],
        out=merged["out"],
        p=merged["p"],
        q=merged["q"],
    )
    config.validate()
    return config


def _parse_strategy(text: str, memory: int, flag: str) -> Strategy:
    if text is None:
        raise ValueError(f"--{flag} is required for this command")
    if text == "allc":
        return all_c(memory)
    if text == "alld":
        return all_d(memory)
    if text == "tft":
        return tit_for_tat(memory)
    if text.startswith("random:"):
        seed = int(text.partition(":")[2])
        return random_strategy(memory, np.random.default_rng(seed))
    try:
        values = [float(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"--{flag}: expected a preset or comma-separated floats")
    try:
        strategy = Strategy(np.array(values))
    except ValueError as exc:
        raise ValueError(f"--{flag}: {exc}") from None
    if strategy.memory != memory:
        raise ValueError(f"--{flag}: got {len(values)} entries, need {4 ** memory}")
    return strategy


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_value(v, indent + 2)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{_json_value(v, indent + 2)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value) if math.isfinite(value) else "null"
    if value is None:
        return "null"
    return json.dumps(str(value))


def _json_pretty(value) -> str:
    return _json_value(value, 0) + "\n"


def _json_compact(value) -> str:
    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_json_compact(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_compact(v) for v in value) + "]"
    return _json_value(value, 0)


def _csv_text(provenance: dict, header: list, rows) -> str:
    lines = ["# " + _json_compact(provenance), ",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return str(value)


def _write(path: str, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _run_matrix(config: RunConfig) -> int:
    params = config.params
    p = _parse_strategy(config.p, config.memory, "p")
    q = _parse_strategy(config.q, config.memory, "q")
    matrix = build_matrix_direct(p, q)
    nu = stationary(matrix)
    irreducible = is_irreducible(matrix)
    f = build_payoff_vector(params, config.memory)
    labels = matrix.state_labels()
    results = {
        "payoff_determinant": payoff_by_determinant(p, q, params, matrix),
        "payoff_stationary": float(nu @ f),
        "irreducible": irreducible,
        "note": ""
        if irreducible
        else "chain is reducible (some states transient or absorbing); "
        "the stationary distribution shown spans its one-dimensional kernel",
    }
    if config.format == "json":
        payload = {
            "config": config.to_dict(),
            "p": list(p.probs),
            "q": list(q.probs),
            "state_labels": labels,
            "matrix": [list(row) for row in matrix.entries],
            "stationary": list(nu),
            **results,
        }
        _write(config.out, _json_pretty(payload))
    else:
        provenance = {**config.to_dict(), "results": results}
        header = ["state", "label", "stationary"] + [
            f"to_{k}" for k in range(matrix.entries.shape[0])
        ]
        rows = [
            [i, labels[i], nu[i], *matrix.entries[i]]
            for i in range(matrix.entries.shape[0])
        ]
        _write(config.out, _csv_text(provenance, header, rows))
    return 0


def _run_integrate(config: RunConfig) -> int:
    params = config.params
    x0 = _parse_strategy(config.p, config.memory, "p").probs
    trajectory = integrate(
        x0, params, config.t_final, dt=config.dt, method=config.method
    )
    states = trajectory.states
    memory_one = states.shape[1] == 4
    if memory_one:
        pair = invariants(states)
        f1, f2 = np.asarray(pair.f1), np.asarray(pair.f2)
        drift1 = float(np.max(np.abs(f1 - f1[0])))
        drift2 = float(np.max(np.abs(f2 - f2[0])))
        header = ["t", "p1", "p2", "p3", "p4", "F1", "F2"]
        rows = (
            [trajectory.times[k], *states[k], f1[k], f2[k]]
            for k in range(states.shape[0])
        )
    else:
        drift1 = drift2 = math.nan
        header = ["t"] + [f"x{i + 1}" for i in range(states.shape[1])]
        rows = ([trajectory.times[k], *states[k]] for k in range(states.shape[0]))
    summary = {
        "config": config.to_dict(),
        "status": trajectory.status,
        "steps": int(states.shape[0] - 1),
        "t_reached": float(trajectory.times[-1]),
        "max_drift_f1": drift1,
        "max_drift_f2": drift2,
        "final_state": list(trajectory.final),
    }
    text = _csv_text(config.to_dict(), header, rows)
    if config.format == "json":
        states_out = [
            dict(zip(header, (trajectory.times[k], *states[k])))
            for k in range(states.shape[0])
        ] if not memory_one else [
            dict(zip(header, (trajectory.times[k], *states[k], f1[k], f2[k])))
            for k in range(states.shape[0])
        ]
        _write(config.out, _json_pretty({**summary, "trajectory": states_out}))
        if config.out not in (None, "-"):
            sys.stdout.write(_json_pretty(summary))
    elif config.out in (None, "-"):
        sys.stdout.write(text)
        sys.stdout.write("# summary " + _json_compact(summary) + "\n")
    else:
        _write(config.out, text)
        sys.stdout.write(_json_pretty(summary))
    return 0


def _run_torus(config: RunConfig) -> int:
    if config.b != 1.0:
        raise ValueError("torus analysis assumes unit benefit (--b 1)")
    params = config.params
    level = TorusLevel(config.c1, config.c2)
    prefix = config.out or "torus"
    provenance = config.to_dict()

    phi, psi, fphi, fpsi = field_grid(level, params, resolution=config.grid)
    field_rows = (
        [phi[i], psi[i], fphi[i], fpsi[i]] for i in range(phi.size)
    )
    field_path = f"{prefix}_field.csv"
    _write(field_path, _csv_text(provenance, ["phi", "psi", "phi_dot", "psi_dot"], field_rows))

    rect = admissible_rectangle(level)
    (lo1, hi1), (lo2, hi2) = rect.phi_interval, rect.psi_interval
    corners = [
        (lo1, lo2), (hi1, lo2), (hi1, hi2), (lo1, hi2), (lo1, lo2),
    ]
    rect_path = f"{prefix}_rectangle.csv"
    _write(rect_path, _csv_text(provenance, ["phi", "psi"], corners))

    segments = denominator_zero_segments(level)
    contour_path = f"{prefix}_contour.csv"
    _write(
        contour_path,
        _csv_text(provenance, ["phi1", "psi1", "phi2", "psi2"], segments),
    )

    entries = []
    for pt in torus_equilibria(level, params):
        x = to_cube(pt)
        point = classify_equilibrium(x, params)
        entries.append(
            {
                "phi": pt.phi,
                "psi": pt.psi,
                "x": list(x),
                "classification": point.classification,
                "eigenvalues": [
                    {"re": float(ev.real), "im": float(ev.imag)}
                    for ev in point.eigenvalues
                ],
            }
        )
    eq_path = f"{prefix}_equilibria.json"
    _write(eq_path, _json_pretty({"config": provenance, "equilibria": entries}))

    sys.stdout.write(
        "wrote {}, {}, {}, {} ({} equilibria)\n".format(
            field_path, rect_path, contour_path, eq_path, len(entries)
        )
    )
    return 0


def _run_verify(config: RunConfig, corrupt_payoff: bool) -> int:
    results = run_suite(
        memory=config.memory,
        seed=config.seed,
        params=config.params,
        corrupt_payoff=corrupt_payoff,
    )
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        sys.stdout.write(
            f"{status} {r.name}: measured {_fmt(r.measured)}"
            f" tolerance {_fmt(r.tolerance)}{detail}\n"
        )
    failing = [r.name for r in results if not r.passed]
    if failing:
        sys.stderr.write(f"verification failed: {failing[0]}\n")
        return 1
    return 0


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--b", type=float, help="benefit of receiving a donation")
    shared.add_argument("--c", type=float, help="cost of making a donation")
    shared.add_argument("--n", type=int, help="memory length (1, 2, or 3)")
    shared.add_argument("--p", help="leader strategy: floats, allc, alld, tft, random:SEED")
    shared.add_argument("--q", help="follower strategy, same forms as --p")
    shared.add_argument("--t", type=float, help="integration horizon")
    shared.add_argument("--dt", type=float, help="integrator step")
    shared.add_argument("--method", help="integrator: rk4 or rk45")
    shared.add_argument("--seed", type=int, help="random seed")
    shared.add_argument("--rounds", type=int, help="simulated rounds")
    shared.add_argument("--c1", type=float, help="first invariant level")
    shared.add_argument("--c2", type=float, help="second invariant level")
    shared.add_argument("--grid", type=int, help="field grid resolution")
    shared.add_argument("--out", help="output path (matrix/integrate) or prefix (torus)")
    shared.add_argument("--format", help="output format: csv or json")
    shared.add_argument("--config", help="flat key-value config file; flags override")

    parser = _Parser(
        prog="altpd",
        description="Alternating-game adaptive dynamics toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "matrix",
        parents=[shared],
        help="transition matrix, stationary distribution, both payoffs",
    )
    sub.add_parser(
        "integrate", parents=[shared], help="integrate the adaptive dynamics"
    )
    sub.add_parser(
        "torus", parents=[shared], help="reduced field, rectangle, contour, equilibria"
    )
    verify = sub.add_parser("verify", parents=[shared], help="run the property suite")
    verify.add_argument(
        "--corrupt-payoff",
        action="store_true",
        dest="corrupt_payoff",
        help=argparse.SUPPRESS,
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _effective_config(args)
        if args.command == "matrix":
            return _run_matrix(config)
        if args.command == "integrate":
            return _run_integrate(config)
        if args.command == "torus":
            return _run_torus(config)
        return _run_verify(config, getattr(args, "corrupt_payoff", False))
    except DegeneracyError as exc:
        sys.stderr.write(f"degeneracy: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 64


if __name__ == "__main__":
    sys.exit(main())
