"""Command-line surface: matrix, integrate, torus, verify.

Every output embeds the effective run configuration (CSV files as a
one-line JSON comment, JSON files under a "config" key) and all floats
are printed as their shortest round-trip repr, so runs can be reproduced
and compared bit-for-bit. Exit codes: 0 success, 1 verification failure
or closed output pipe, 2 mathematical degeneracy, 64 usage error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DegeneracyError
from .strategy import (
    PayoffParams,
    Strategy,
    _step_count,
    all_c,
    all_d,
    random_strategy,
    tit_for_tat,
)

# Only what parsing and RunConfig.validate need is imported above; each
# _run_* imports the modules its subcommand runs, so a process loads no
# other code.

__all__ = ["RunConfig", "main"]


# At this grid `altpd torus` took 4.8-6.6 s and peaked at 65 MB RSS on a
# 2-vCPU x86 host (1,000,000 field samples, a 76 MB field CSV written line
# by line); both grow with grid^2.
_MAX_GRID = 1000


def _option(default, help_text):
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one command run, after merging defaults,
    config file, and flags (flags win).

    The one option table: every field but `command` is a `--flag` and a
    config-file key of the same name, parsed with the field's type (so the
    annotations must stay real types, not strings).
    """

    command: str
    b: float = _option(1.0, "benefit of receiving a donation; it only rescales time")
    c: float = _option(0.3, "cost of making a donation")
    n: int = _option(1, "memory length (1, 2, or 3)")
    t: float = _option(10.0, "integration horizon")
    dt: float = _option(1e-3, "integrator step")
    method: str = _option("rk4", "integrator: rk4 or rk45")
    seed: int = _option(0, "random seed (a non-negative integer)")
    c1: float = _option(0.5, "first invariant level")
    c2: float = _option(0.5, "second invariant level")
    grid: int = _option(
        40,
        f"field grid resolution, 2 to {_MAX_GRID} (grid^2 field samples; "
        f"{_MAX_GRID} takes about 5 s and 65 MB)",
    )
    p: str = _option(None, "leader strategy: floats, allc, alld, tft, random:SEED")
    q: str = _option(None, "follower strategy, same forms as --p")
    format: str = _option(
        None,
        "output format of matrix and integrate: csv or json (default: json for "
        "matrix, csv for integrate); torus and verify ignore it",
    )
    out: str = _option(None, "output path (matrix/integrate) or prefix (torus); verify ignores it")

    def validate(self) -> None:
        self.params  # PayoffParams raises unless 0 < c < b
        if self.n not in (1, 2, 3):
            raise ValueError("memory must be 1, 2, or 3")
        _step_count(self.t, self.dt)  # raises unless t, dt, t / dt are finite, > 0
        if self.method not in ("rk4", "rk45"):
            raise ValueError("method must be rk4 or rk45")
        if self.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {self.seed}")
        if not 2 <= self.grid <= _MAX_GRID:
            raise ValueError(f"--grid must lie in [2, {_MAX_GRID}], got {self.grid}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def to_dict(self) -> dict:
        """Provenance: every field except where the output went."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("format", "out")
        }

    @property
    def params(self) -> PayoffParams:
        return PayoffParams(b=self.b, c=self.c)


_OPTIONS = [f for f in fields(RunConfig) if f.name != "command"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _read_config_file(path: str) -> dict:
    """Flat key-value config: one `name = value` (or `name value`, split at
    any whitespace) per line, names matching the long flags, `#` starts a
    comment."""
    types = {f.name: f.type for f in _OPTIONS}
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
            key, value = (line.split(None, 1) + [""])[:2]
        key = key.strip().lstrip("-").replace("-", "_")
        if key not in types:
            raise ValueError(f"unknown config key: {key}")
        try:
            values[key] = types[key](value.strip())
        except ValueError:
            raise ValueError(f"bad value for config key {key}: {value.strip()!r}")
    return values


def _effective_config(args: argparse.Namespace) -> RunConfig:
    merged = _read_config_file(args.config) if args.config else {}
    for f in _OPTIONS:
        value = getattr(args, f.name)
        if value is not None:
            merged[f.name] = value
    merged.setdefault("format", "json" if args.command == "matrix" else "csv")
    config = RunConfig(command=args.command, **merged)
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
        try:
            rng = np.random.default_rng(int(text[len("random:"):]))
        except ValueError:
            raise ValueError(
                f"--{flag}: random strategy needs a non-negative integer seed"
            ) from None
        return random_strategy(memory, rng)
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


def _plain(value):
    """Copy of value that json can encode: numpy scalars and arrays become
    Python values and lists, and non-finite floats become None (null)."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_pretty(value):
    """The indented JSON document of value, as chunks for _write: the
    whole text is never joined into one string."""
    yield from json.JSONEncoder(indent=2).iterencode(_plain(value))
    yield "\n"


def _json_table(head: dict, key: str, header: list, columns):
    """The chunks of _json_pretty({**head, key: rows}), where rows holds one
    {header[j]: row[j]} object per row of the side-by-side columns. The
    rows are formatted as the encoder would, from _rows' chunks, so no list
    of row objects is held; the columns must have at least one row."""
    before, after = "".join(_json_pretty({**head, key: []})).rsplit("[]", 1)
    names = ["\n      " + json.dumps(name) + ": " for name in header]
    separator = "[\n    {"
    yield before
    for row in _rows(columns):
        # repr is the encoder's float format; _plain writes non-finite as null.
        values = (repr(v) if math.isfinite(v) else "null" for v in row)
        yield separator + ",".join(map(str.__add__, names, values)) + "\n    }"
        separator = ",\n    {"
    yield "\n  ]" + after


def _json_compact(value) -> str:
    return json.dumps(_plain(value))


def _csv_lines(provenance: dict, header: list, rows):
    yield "# " + _json_compact(provenance) + "\n"
    yield ",".join(header) + "\n"
    for row in rows:
        # str of a float or a numpy float64 is its shortest round-trip repr.
        yield ",".join(map(str, row)) + "\n"


def _rows(columns):
    """Rows of the side-by-side columns (1-D arrays, or 2-D blocks of
    several columns) as lists of Python floats, stacked and converted 4096
    rows at a time, so no copy of the whole table is made."""
    for start in range(0, len(columns[0]), 4096):
        chunk = [column[start : start + 4096] for column in columns]
        yield from np.column_stack(chunk).tolist()


def _write(path: str, chunks) -> None:
    """Write each chunk (a CSV line or a piece of a JSON document) to
    stdout (path None or "-") or to the file at path as soon as it is
    produced, so no copy of a whole table or document is held. A path that
    cannot be opened is a usage error, as an unreadable config file is."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        out = open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
    with out:
        out.writelines(chunks)


def _run_matrix(config: RunConfig) -> int:
    from .chain import build_matrix_direct, is_irreducible, stationary
    from .payoff import build_payoff_vector, payoff_by_determinant

    params = config.params
    p = _parse_strategy(config.p, config.n, "p")
    q = _parse_strategy(config.q, config.n, "q")
    matrix = build_matrix_direct(p, q)
    nu = stationary(matrix)
    irreducible = is_irreducible(matrix)
    f = build_payoff_vector(params, config.n)
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
            "p": p.probs,
            "q": q.probs,
            "state_labels": labels,
            "matrix": matrix.entries,
            "stationary": nu,
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
        _write(config.out, _csv_lines(provenance, header, rows))
    return 0


def _run_integrate(config: RunConfig) -> int:
    from .dynamics import integrate, invariants

    params = config.params
    x0 = _parse_strategy(config.p, config.n, "p").probs
    trajectory = integrate(x0, params, config.t, dt=config.dt, method=config.method)
    states = trajectory.states
    columns = [trajectory.times, states]
    if states.shape[1] == 4:
        pair = invariants(states)
        f1, f2 = np.asarray(pair.f1), np.asarray(pair.f2)
        drift1 = float(np.max(np.abs(f1 - f1[0])))
        drift2 = float(np.max(np.abs(f2 - f2[0])))
        header = ["t", "p1", "p2", "p3", "p4", "F1", "F2"]
        columns += [f1, f2]
    else:
        drift1 = drift2 = math.nan
        header = ["t"] + [f"x{i + 1}" for i in range(states.shape[1])]
    summary = {
        "config": config.to_dict(),
        "status": trajectory.status,
        "steps": int(states.shape[0] - 1),
        "t_reached": float(trajectory.times[-1]),
        "max_drift_f1": drift1,
        "max_drift_f2": drift2,
        "final_state": trajectory.final,
    }
    if config.format == "json":
        chunks = _json_table(summary, "trajectory", header, columns)
    else:
        chunks = _csv_lines(config.to_dict(), header, _rows(columns))
    _write(config.out, chunks)
    if config.out not in (None, "-"):
        _write(None, _json_pretty(summary))
    elif config.format == "csv":
        sys.stdout.write("# summary " + _json_compact(summary) + "\n")
    return 0


def _run_torus(config: RunConfig) -> int:
    from .dynamics import classify_equilibrium
    from .torus import (
        TorusLevel,
        admissible_rectangle,
        denominator_zero_segments,
        field_grid,
        to_cube,
        torus_equilibria,
    )

    params = config.params
    level = TorusLevel(config.c1, config.c2)
    prefix = config.out or "torus"
    provenance = config.to_dict()

    samples = field_grid(level, params, resolution=config.grid)
    field_path = f"{prefix}_field.csv"
    header = ["phi", "psi", "phi_dot", "psi_dot"]
    _write(field_path, _csv_lines(provenance, header, _rows(samples)))

    rect = admissible_rectangle(level)
    (lo1, hi1), (lo2, hi2) = rect.phi_interval, rect.psi_interval
    corners = [
        (lo1, lo2), (hi1, lo2), (hi1, hi2), (lo1, hi2), (lo1, lo2),
    ]
    rect_path = f"{prefix}_rectangle.csv"
    _write(rect_path, _csv_lines(provenance, ["phi", "psi"], corners))

    segments = denominator_zero_segments(level)
    contour_path = f"{prefix}_contour.csv"
    header = ["phi1", "psi1", "phi2", "psi2"]
    _write(contour_path, _csv_lines(provenance, header, _rows([segments])))

    entries = []
    for pt in torus_equilibria(level, params):
        x = to_cube(pt)
        point = classify_equilibrium(x, params)
        entries.append(
            {
                "phi": pt.phi,
                "psi": pt.psi,
                "x": x,
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


def _run_verify(config: RunConfig) -> int:
    from .verify import run_suite

    results = run_suite(memory=config.n, seed=config.seed, params=config.params)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        sys.stdout.write(
            f"{status} {r.name}: measured {r.measured}"
            f" tolerance {r.tolerance}{detail}\n"
        )
    failing = [r.name for r in results if not r.passed]
    if failing:
        sys.stderr.write(f"verification failed: {failing[0]}\n")
        return 1
    return 0


# The one subcommand table: name -> (help text, runner), in help order.
_COMMANDS = {
    "matrix": ("transition matrix, stationary distribution, both payoffs", _run_matrix),
    "integrate": ("integrate the adaptive dynamics", _run_integrate),
    "torus": ("reduced field, rectangle, contour, equilibria", _run_torus),
    "verify": ("run the property suite", _run_verify),
}


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    for f in _OPTIONS:
        shared.add_argument(f"--{f.name}", type=f.type, help=f.metadata["help"])
    shared.add_argument("--config", help="flat key-value config file; flags override")

    parser = _Parser(
        prog="altpd",
        description="Alternating-game adaptive dynamics toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=help_text)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command][1](_effective_config(args))
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (`altpd integrate ... | head`). Point stdout
        # at devnull so the exit-time flush cannot fail again; this is the
        # recipe from the Python `signal` documentation.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DegeneracyError as exc:
        sys.stderr.write(f"degeneracy: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 64


if __name__ == "__main__":
    sys.exit(main())
