"""Adaptive dynamics of the resident strategy in the alternating game.

The state is a single strategy x in [0,1]^{4^N}: the resident plays both
roles, and the field is the gradient of the mutant leader's long-run payoff
in the mutant coordinates, evaluated at the resident (mutant = resident).
For memory 1 the field has an explicit rational closed form; for general
memory it is obtained by finite differences of the determinant payoff.

The memory-1 field is singular where its common denominator A vanishes,
which happens on and just past the cube's faces. One rule decides it: a
point with abs(A) < 1e-14 (the modulus on the Jacobian's complex-step
input), or with A not finite, is refused. The two kernel entry points
apply it, _field_scalar by raising FieldSingularError and _field_array by
returning NaN, and every route obeys them: the field, the Jacobian and the
torus field raise, an integrator halts "singular", a drift row freezes and
a field grid sample is NaN (many real points run on _field_array).

Memory-1 trajectories conserve (x1-1)^2 + x3^2 and (x2-1)^2 + x4^2, so the
flow lives on two-dimensional tori inside the cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chain import _fill_rows, build_matrix_direct
from .errors import FieldSingularError, NotAnEquilibriumError
from .payoff import _determinant_ratio, build_payoff_vector
from .strategy import PayoffParams, Strategy, _step_count

__all__ = [
    "InvariantPair",
    "Trajectory",
    "EquilibriumFamily",
    "EquilibriumPoint",
    "field_closed_form",
    "field_numeric",
    "jacobian",
    "integrate",
    "conservation_drift",
    "invariants",
    "win_loss_exchange",
    "equilibrium_families",
    "interior_plane_point",
    "interior_plane_grid",
    "plane_eigenvalues",
    "classify_equilibrium",
]

_DENOMINATOR_TOL = 1e-14
_BOUNDARY_LO = 1e-9
_BOUNDARY_HI = 1.0 - 1e-9
_ZERO_EIG_TOL = 1e-8
_FIELD_ZERO_TOL = 1e-8
_COMPLEX_STEP = 1e-20
_STENCIL_STEP = 1e-6
_JACOBIAN_STEP = 1e-5
# The field kernel's constants 1, 2 and -2: Python floats for one point
# given as floats, 0-d arrays for numpy inputs (see _field_components).
# Floats, not ints: CPython 3.11 specialises a float operation only when
# both operands are floats, and these values convert exactly.
_CONSTS = (1.0, 2.0, -2.0)
_ARRAY_CONSTS = tuple(np.array(v) for v in _CONSTS)
# conservation_drift steps its rows as one numpy block only while more than
# this many are live. A block RK4 step costs as much as 31 to 32 scalar row
# steps at 1 to 64 rows (each stage is ~75 ufunc calls whose cost hardly
# depends on the row count; medians of 25 repeats, 2-vCPU x86 host). The
# switch point changes the cost, never the result.
_DRIFT_SCALAR_ROWS = 32
# The block writes each step's state into a buffer of this many float64
# values (256 KiB) and reads exits and invariant maxima once per buffer. A
# 1 MiB buffer ran no faster and raised the benchmark's peak RSS by 2 MB.
_DRIFT_BUFFER = 1 << 15
# A straggler is marched this many steps at a time, so the states kept for
# its drift stay near 1 MB however long the run.
_DRIFT_CHUNK = 4096
# Dormand-Prince 5(4) tableau (Dormand & Prince 1980), scipy's RK45
# step-size controller constants, and the tolerances integrate runs it at.
_DP_A = np.array(
    [
        [0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    ]
)
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array(
    [-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40]
)
_DP_SAFETY = 0.9
_DP_MIN_FACTOR = 0.2
_DP_MAX_FACTOR = 10
_DP_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_DP_RTOL = 1e-9
_DP_ATOL = 1e-12


def _field_components(x1, x2, x3, x4, b, c, consts):
    """Common denominator and the four numerators of the memory-1 field.

    Pure arithmetic, so the inputs may be Python floats or complex numbers
    (complex ones carry the derivative for the complex step) or arrays,
    real or complex. consts holds the constants (1, 2, -2) in the caller's
    type, and b and c take that type too: Python floats for the scalar
    path, 0-d float arrays for numpy inputs (_field_array). Either
    gives the same bits; on 64-row arrays numpy combines an array with a
    0-d array in about half the time it takes to convert a Python number.
    Each repeated subexpression is computed once, as the same expression
    tree at every use, and the squared denominator factor is a product, so
    floats and arrays take the same operations.
    """
    one, two, minus_two = consts
    x2_x4 = x2 - x4
    x2_1 = x2 - one
    k = x1 * x2 - x2 * x3 - one
    two_x2_x3 = two * x2 * x3
    two_x4 = two * x4
    x3_x4 = x3 * x4
    x1_x4 = x1 * x4
    e13 = (
        b * x2_x4 * (x1 - x1_x4 + x2 * (x3 - one) - x3 + x4)
        + b * (x2 - x1)
        + c
        * (
            x4 * (minus_two * x1 * x2 + two_x2_x3 + x2 + one)
            + x2_1 * k
            + x4 * x4 * (x1 - x3 - one)
        )
    )
    e2 = (
        b * (x3 * k + x1_x4 * (x3 - x1) + x4)
        + c
        * (
            x1 * x1 * (x2_x4 - one)
            + x1 * x3 * (minus_two * x2 + two_x4 + one)
            + x3 * (x3 + one) * x2_x4
            - x2
            + x4
            + one
        )
    )
    square = x1 * (x2 - two_x4 - one) - x2 + (x3 + two) * x4 + one
    denom = (x1 * x2_1 - two_x2_x3 + x2 + x3_x4 - one) * (square * square)
    one_x1 = one - x1
    one_x1_x4 = one_x1 * x4
    return (
        denom,
        x3_x4 * e13,
        one_x1_x4 * e2,
        one_x1_x4 * e13,
        -one_x1 * x2_1 * e2,
    )


def _field_scalar(x1, x2, x3, x4, b, c):
    """Memory-1 field (g1, g2, g3, g4) at one point given as Python numbers.

    Applies the singularity rule: raises FieldSingularError where the
    common denominator A has abs(A) < 1e-14 (the modulus on jacobian's
    complex input) or is not finite. It takes the operations of
    _field_array in the same order, so the two agree bit for bit wherever
    neither refuses.
    """
    denom, n1, n2, n3, n4 = _field_components(x1, x2, x3, x4, b, c, _CONSTS)
    if not _DENOMINATOR_TOL <= abs(denom) < math.inf:
        raise FieldSingularError("field denominator vanishes or is not finite")
    return n1 / denom, n2 / denom, n3 / denom, n4 / denom


def _field_numerators(x1, x2, x3, x4, b, c):
    """The field's numerators, undivided (A times the field), with no
    singularity rule: floats, complex numbers or arrays."""
    return _field_components(x1, x2, x3, x4, b, c, _CONSTS)[1:]


def _field_array(y, b, c):
    """Memory-1 field on real coordinate-first arrays y of shape (4, ...).

    Applies the singularity rule of _field_scalar point by point and
    returns the field with NaN in every column it refuses. b and c may be
    floats or 0-d float arrays (see _field_components).
    """
    denom, *numerators = _field_components(
        *(y[i, ...] for i in range(4)), b, c, _ARRAY_CONSTS
    )
    size = np.abs(denom)
    denom = np.where((size >= _DENOMINATOR_TOL) & (size < math.inf), denom, math.nan)
    field = np.array(numerators)
    return np.divide(field, denom, out=field)


def field_closed_form(x, params: PayoffParams) -> np.ndarray:
    """Memory-1 field in closed form; broadcasts over leading axes of x.

    Raises FieldSingularError where the kernel's singularity rule refuses
    a state (the denominator is nonzero on the open cube, where the
    underlying chain is irreducible). A single state runs on the scalar
    kernel, a batch on the array kernel; they agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("closed form requires memory 1 (four coordinates)")
    if x.ndim == 1:
        return np.array(_field_scalar(*x.tolist(), params.b, params.c))
    field = np.moveaxis(_field_array(np.moveaxis(x, -1, 0), params.b, params.c), 0, -1)
    if np.isnan(field).any():
        raise FieldSingularError("field denominator vanishes or is not finite")
    return field


def _central_differences(f, x, h):
    """(f(x + h e_j, j) - f(x - h e_j, j)) / 2h for each coordinate j of x,
    stacked along a new first axis."""
    rows = []
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += h
        lo[j] -= h
        rows.append((f(hi, j) - f(lo, j)) / (2.0 * h))
    return np.array(rows)


def field_numeric(x, params: PayoffParams) -> np.ndarray:
    """Field for any memory: central differences of the determinant payoff.

    Differentiates the mutant leader's payoff in each leader coordinate
    with the resident follower held fixed at x, with step h = 1e-6.

    The leader's probability y_j enters row j of M(y, x) and no other row,
    so M(x, x) is built once per call. At each stencil point x +- h e_j,
    row j alone is rewritten by the direct build's own _fill_rows for the
    payoff's determinant ratio, then written back with x_j. A row's products
    depend on its probabilities alone, so every patched matrix, and so every
    payoff, has the bytes that a full build_matrix_direct there gives.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("field_numeric takes a single state vector")
    h = _STENCIL_STEP
    if not np.all((x > h) & (x < 1.0 - h)):  # also False for NaN entries
        raise ValueError(f"state must lie in (h, 1-h) for the stencil, h = {h:g}")
    follower = Strategy(x)
    matrix = build_matrix_direct(follower, follower)
    m, q_probs, memory = matrix.entries, follower.probs.tolist(), matrix.memory
    f = build_payoff_vector(params, memory)

    def payoff(y, j):
        _fill_rows(m, (j,), y.tolist(), q_probs, memory)
        value = _determinant_ratio(m, f)
        _fill_rows(m, (j,), q_probs, q_probs, memory)  # M(x, x) again
        return value

    return _central_differences(payoff, x, h)


def jacobian(x, params: PayoffParams) -> np.ndarray:
    """Jacobian of the field at x.

    At memory 1, column j is the complex step of the closed form: the
    imaginary part of _field_scalar at x + 1e-20i e_j (Python complex
    numbers) over 1e-20. It is exact to roundoff for a rational field and
    the only scheme accurate enough to certify eigenvalues at the 1e-8
    scale. At general memory it takes central differences (step 1e-5) of
    field_numeric, so x needs room for both steps.
    """
    x = np.asarray(x, dtype=float)
    if x.size != 4:
        room = _JACOBIAN_STEP + _STENCIL_STEP
        if not np.all((x > room) & (x < 1.0 - room)):
            raise ValueError(f"state must lie in (r, 1-r) for the Jacobian, r = {room:g}")
        return _central_differences(lambda y, j: field_numeric(y, params), x, _JACOBIAN_STEP).T
    rows = []
    for j in range(4):
        point = x.tolist()
        point[j] = complex(point[j], _COMPLEX_STEP)
        rows.append([g.imag / _COMPLEX_STEP for g in _field_scalar(*point, params.b, params.c)])
    return np.array(rows).T


@dataclass(frozen=True)
class InvariantPair:
    """Values of the two conserved quantities of the memory-1 flow."""

    f1: float
    f2: float


def _levels(x):
    # The two conserved quantities over the last axis of memory-1 states.
    return (
        (x[..., 0] - 1.0) ** 2 + x[..., 2] ** 2,
        (x[..., 1] - 1.0) ** 2 + x[..., 3] ** 2,
    )


def invariants(x) -> InvariantPair:
    """(x1-1)^2 + x3^2 and (x2-1)^2 + x4^2 (memory 1)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("invariants are defined for memory 1")
    f1, f2 = _levels(x)
    return InvariantPair(float(f1), float(f2)) if x.ndim == 1 else InvariantPair(f1, f2)


def win_loss_exchange(x) -> np.ndarray:
    """Swap the notions of winning and losing: complement and reverse.

    If x(t) is a trajectory, the exchanged state traces the same orbit with
    time reversed; at field level G(exchange(x)) equals the reversed G(x).
    """
    x = np.asarray(x, dtype=float)
    return 1.0 - x[..., ::-1]


@dataclass(frozen=True)
class Trajectory:
    """Integration record: times, matching states, and a final status.

    status is "completed" (reached the final time), "boundary" (a
    coordinate left [1e-9, 1-1e-9]; the exiting state is not recorded), or
    "singular" (the memory-1 field kernel refused a stage point with
    FieldSingularError, as torus_trajectory halts; a memory-N stage left
    the stencil's room; or the rk45 step size fell below its minimum; the
    record up to the last good step).
    """

    times: np.ndarray
    states: np.ndarray
    status: str

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _interior(x) -> bool:
    # Chained comparisons are False for NaN, so NaN states count as exits.
    lo, hi = _BOUNDARY_LO, _BOUNDARY_HI
    if len(x) == 4:
        x1, x2, x3, x4 = x
        return lo <= x1 <= hi and lo <= x2 <= hi and lo <= x3 <= hi and lo <= x4 <= hi
    return all(lo <= v <= hi for v in x)


def _rk4_step(rates, x, dt, out=None):
    """One classical RK4 step on numpy arrays (broadcasts over batches).

    The step's constants are 0-d arrays, which give the bits of Python
    floats at a lower cost per call (see _field_components). The new state
    is written to out when it is given.
    """
    half, step, sixth, two = (np.array(v) for v in (0.5 * dt, dt, dt / 6.0, 2.0))
    k1 = rates(x)
    k2 = rates(x + half * k1)
    k3 = rates(x + half * k2)
    k4 = rates(x + step * k3)
    return np.add(x, sixth * (k1 + two * k2 + two * k3 + k4), out=out)


def _cube_step(params):
    """Memory-1 RK4 step on a tuple of floats.

    Each stage runs on _field_scalar, so a refused stage point raises
    FieldSingularError. The stages and the combination are written out on
    named floats with the expressions of _rk4_step, element by element and
    in the same order, so the step agrees with it bit for bit without
    numpy's per-call overhead on short states.
    """
    b, c = params.b, params.c

    def step(x, dt):
        x1, x2, x3, x4 = x
        a1, a2, a3, a4 = _field_scalar(x1, x2, x3, x4, b, c)
        half = 0.5 * dt
        p1, p2, p3, p4 = _field_scalar(
            x1 + half * a1, x2 + half * a2, x3 + half * a3, x4 + half * a4, b, c
        )
        q1, q2, q3, q4 = _field_scalar(
            x1 + half * p1, x2 + half * p2, x3 + half * p3, x4 + half * p4, b, c
        )
        r1, r2, r3, r4 = _field_scalar(
            x1 + dt * q1, x2 + dt * q2, x3 + dt * q3, x4 + dt * q4, b, c
        )
        sixth = dt / 6.0
        return (
            x1 + sixth * (a1 + 2.0 * p1 + 2.0 * q1 + r1),
            x2 + sixth * (a2 + 2.0 * p2 + 2.0 * q2 + r2),
            x3 + sixth * (a3 + 2.0 * p3 + 2.0 * q3 + r3),
            x4 + sixth * (a4 + 2.0 * p4 + 2.0 * q4 + r4),
        )

    return step


def _march(step, y0, n_steps, dt, caught, inside):
    """Fixed-step loop: (times, states, status) over n_steps steps from y0.

    Every state is recorded. The loop halts with "singular" when step
    raises one of `caught` and with "boundary" when a new state fails
    `inside`; the failing state is not recorded.
    """
    y = y0
    states = [y]
    status = "completed"
    for _ in range(n_steps):
        try:
            y = step(y, dt)
        except caught:
            status = "singular"
            break
        if not inside(y):
            status = "boundary"
            break
        states.append(y)
    return np.arange(len(states)) * dt, np.asarray(states, dtype=float), status


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _dp45_first_step(f, y0, f0, t_final):
    """Initial step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4)."""
    scale = _DP_ATOL + np.abs(y0) * _DP_RTOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_final)
    f1 = f(y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_DP_EXPONENT
    return min(100 * h0, h1, t_final)


def _dp45(f, y0, t_final, caught):
    """Adaptive Dormand-Prince 5(4) loop from t = 0: (times, states, status).

    A port of scipy's RK45 as solve_ivp drives it (scipy 1.17), with the
    same numpy operations in the same order, so the steps agree with it
    bit for bit: the initial step of _dp45_first_step, the fifth-order
    solution (local extrapolation), the RMS norm of the embedded error
    estimate, and the controller h *= SAFETY * err**(-1/5) clipped to
    [MIN_FACTOR, MAX_FACTOR], with no growth on the step after a
    rejection. f(y) is the right-hand side, which here does not depend on t.

    Every accepted state is recorded. The loop halts with "singular" when
    f raises one of `caught` or the step falls below 10 ulps of t, and
    with "boundary" when an accepted state fails _interior; the failing
    state is not recorded. solve_ivp's terminal event halted instead on
    the first state with a coordinate at or beyond 1e-9 or 1 - 1e-9, so
    the two differ only when a coordinate lands exactly on one of them.
    """
    t, y = 0.0, y0
    times, states = [t], [y]
    stages = np.empty((_DP_A.shape[0] + 1, y0.size))
    try:
        fy = f(y)
        h_abs = _dp45_first_step(f, y, fy, t_final)
        while True:
            min_step = 10 * (np.nextafter(t, np.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while h_abs >= min_step:
                t_new = min(t + h_abs, t_final)
                h = t_new - t
                h_abs = np.abs(h)
                stages[0] = fy
                for s in range(1, _DP_A.shape[0]):
                    dy = np.dot(stages[:s].T, _DP_A[s, :s]) * h
                    stages[s] = f(y + dy)
                y_new = y + h * np.dot(stages[:-1].T, _DP_B)
                f_new = f(y_new)
                stages[-1] = f_new
                scale = _DP_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _DP_RTOL
                error = _rms(np.dot(stages.T, _DP_E) * h / scale)
                if error < 1:
                    if error == 0:
                        factor = _DP_MAX_FACTOR
                    else:
                        factor = min(_DP_MAX_FACTOR, _DP_SAFETY * error**_DP_EXPONENT)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_DP_MIN_FACTOR, _DP_SAFETY * error**_DP_EXPONENT)
                rejected = True
            else:
                status = "singular"
                break
            t, y, fy = t_new, y_new, f_new
            if not _interior(y):
                status = "boundary"
                break
            times.append(t)
            states.append(y)
            if t >= t_final:
                status = "completed"
                break
    except caught:
        status = "singular"
    return np.asarray(times), np.asarray(states), status


def integrate(
    x0, params: PayoffParams, t_final: float, dt: float = 1e-3, method: str = "rk4"
) -> Trajectory:
    """Integrate the field from an interior start.

    "rk4" is fixed-step (every step recorded); "rk45" is adaptive
    Dormand-Prince 5(4) at rtol 1e-9, atol 1e-12 (solver-chosen steps,
    every accepted step recorded), an in-package stepper that follows
    scipy's RK45 step-size controller step for step. Integration halts,
    without recording the exiting state, when any coordinate leaves
    [1e-9, 1-1e-9] (clamping would silently break the conserved
    quantities), and halts "singular" as Trajectory says. Raises
    ValueError for a start that is not a strategy vector (Strategy's rule)
    or lies outside that range, or unless t_final, dt and
    t_final / dt are finite and positive (for "rk45" too, although it
    chooses its own steps).
    """
    x0 = np.asarray(x0, dtype=float)
    Strategy(x0)  # refuses a start that is not a 4^N vector in [0, 1]
    if not _interior(x0):
        raise ValueError("initial state must be interior")
    n_steps = _step_count(t_final, dt)  # the step rule, for either method
    if x0.size == 4:
        field, caught = field_closed_form, FieldSingularError
        y0, step = tuple(x0.tolist()), _cube_step(params)
    else:
        # field_numeric raises ValueError once a stage leaves its stencil room.
        field, caught = field_numeric, ValueError
        y0, step = x0, partial(_rk4_step, lambda y: field_numeric(y, params))
    if method == "rk4":
        return Trajectory(*_march(step, y0, n_steps, dt, caught, _interior))
    if method == "rk45":
        return Trajectory(*_dp45(lambda y: field(y, params), x0, t_final, caught))
    raise ValueError("method must be 'rk4' or 'rk45'")


def _read_chunk(states, rows, start1, start2, drift1, drift2):
    """Read a chunk of block states (steps, 4, live rows) into the drifts.

    Raises drift_i[rows] to the largest |F_i - F_i(0)| over the steps
    before each row's first exit from [1e-9, 1-1e-9]; a row's later states
    are not read. Returns the mask of rows still inside after the last step.
    """
    inside = ((states >= _BOUNDARY_LO) & (states <= _BOUNDARY_HI)).all(axis=1)
    alive = np.logical_and.accumulate(inside, axis=0)
    for drift, level, start in zip(
        (drift1, drift2), _levels(np.moveaxis(states, 1, -1)), (start1, start2)
    ):
        worst = np.abs(level - start[rows]).max(axis=0, initial=0.0, where=alive)
        drift[rows] = np.maximum(drift[rows], worst)
    return alive[-1]


def conservation_drift(
    x0_batch, params: PayoffParams, t_final: float, dt: float = 1e-3
):
    """Max drift of both conserved quantities along fixed-step RK4 runs.

    Integrates every row of x0_batch (memory 1 only) and tracks the running
    maximum of |F_i(t) - F_i(0)| per trajectory. Rows that exit
    [1e-9, 1-1e-9] are frozen at their last interior state. Returns
    (drift_f1, drift_f2), each of shape (n_trajectories,). Raises
    ValueError under the same step rule as integrate.

    The live rows are stepped together as one C-contiguous (4, n) block,
    one coordinate per row, and each step's state goes into a buffer of
    256 KiB (at least one step). When the buffer is full, or the run ends,
    each row's first exit is found, its invariant maxima are taken over the
    steps before that exit, and the rows that left are dropped from the
    block. Until then a row that has left keeps stepping with the others;
    those values are never read. A stage point the field kernel refuses
    makes the row NaN, which counts as an exit, so the row freezes at its
    last state as integrate halts "singular". When at most 32 rows are live
    at a buffer's end, each finishes on the scalar kernel of integrate,
    which takes the same operations as the block
    (test_drift_matches_the_batch_loop_bit_for_bit pins the drift against
    an all-batch loop).
    """
    x = np.asarray(x0_batch, dtype=float)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ValueError("x0_batch must have shape (n, 4)")
    if not _interior(x.ravel()):
        raise ValueError("initial states must be interior")
    n_steps = _step_count(t_final, dt)
    b, c = np.asarray(params.b, dtype=float), np.asarray(params.c, dtype=float)

    def rates(y):
        return _field_array(y, b, c)

    drift1 = np.zeros(x.shape[0])
    drift2 = np.zeros(x.shape[0])
    rows = np.arange(x.shape[0])
    start1, start2 = _levels(x)
    block = np.ascontiguousarray(x.T)
    buffer = np.empty(max(block.size, min(_DRIFT_BUFFER, n_steps * block.size)))
    done = 0
    while done < n_steps and rows.size > _DRIFT_SCALAR_ROWS:
        count = min(n_steps - done, buffer.size // block.size)
        states = buffer[: count * block.size].reshape(count, 4, rows.size)
        y = block
        with np.errstate(all="ignore"):
            for t in range(count):
                y = _rk4_step(rates, y, dt, out=states[t])
        keep = _read_chunk(states, rows, start1, start2, drift1, drift2)
        done += count
        rows = rows[keep]
        block = np.compress(keep, states[-1], axis=1)
    step = _cube_step(params)
    for row, state in zip(rows[:, None], block.T.tolist()):
        y, left, status = tuple(state), n_steps - done, "completed"
        while left and status == "completed":
            count = min(left, _DRIFT_CHUNK)
            _, s, status = _march(step, y, count, dt, FieldSingularError, _interior)
            _read_chunk(s[:, :, None], row, start1, start2, drift1, drift2)
            y, left = tuple(s[-1].tolist()), left - count
    return drift1, drift2


@dataclass(frozen=True)
class EquilibriumFamily:
    """One parametrized family of memory-1 equilibria.

    point(**free) evaluates the family map at the given free coordinates.
    tag records where the family meets the cube: "interior" (crosses the
    open cube), "boundary" (lies in a face), "exterior" (strictly outside
    for admissible free values), or "degenerate" (its cube intersection
    collapses to the single corner (1,1,0,0)).
    """

    name: str
    tag: str
    free: tuple
    _map: callable

    def point(self, **free) -> np.ndarray:
        if set(free) != set(self.free):
            raise ValueError(f"family '{self.name}' expects parameters {self.free}")
        return np.asarray(self._map(**free), dtype=float)


def interior_plane_point(p2: float, p4: float, params: PayoffParams) -> np.ndarray:
    """Point of the interior equilibrium family at free coordinates (p2, p4)."""
    b, c = params.b, params.c
    return np.array(
        [
            ((b - c) * p2 + c * (p4 + 1.0)) / b,
            p2,
            (c * (1.0 - p2) + p4 * (b + c)) / b,
            p4,
        ]
    )


def equilibrium_families(params: PayoffParams) -> list:
    """All five equilibrium families of the memory-1 field.

    Only the two-parameter plane family crosses the open cube; the others
    sit in faces, outside the cube, or collapse to the corner (1,1,0,0).
    """
    b, c = params.b, params.c

    def face_p1(p2, p4):
        denom = b * (p2 - 1.0) * (p2 - p4) - c * (
            -2.0 * p2 * p4 + (p2 - 1.0) * p2 + p4 * p4
        )
        return np.array(
            [1.0, p2, (p2 - 1.0) * (b - c) * (p2 - p4 - 1.0) / denom, p4]
        )

    def face_p4(p1, p3):
        denom = b * p3 * (p1 - p3) + c * ((p1 - p3) ** 2 + p3 - 1.0)
        return np.array(
            [p1, (b * p3 + c * (p1 * p1 - p1 * p3 - 1.0)) / denom, p3, 0.0]
        )

    def outside(p4):
        return np.array([c * p4 / b + 1.0, 1.0, p4 * (b + c) / b, p4])

    def corner(p1):
        return np.array([p1, c * (p1 - 1.0) / b + p1, 0.0, c * (p1 - 1.0) / b])

    return [
        EquilibriumFamily("p1=1 face", "boundary", ("p2", "p4"), face_p1),
        EquilibriumFamily(
            "interior plane",
            "interior",
            ("p2", "p4"),
            lambda p2, p4: interior_plane_point(p2, p4, params),
        ),
        EquilibriumFamily("p4=0 face", "boundary", ("p1", "p3"), face_p4),
        EquilibriumFamily("p1>1 branch", "exterior", ("p4",), outside),
        EquilibriumFamily("corner branch", "degenerate", ("p1",), corner),
    ]


def interior_plane_grid(params: PayoffParams, count: int = 200) -> np.ndarray:
    """Deterministic grid of interior-plane points strictly inside (0,1)^4.

    Covers the admissible (p2, p4) region: for each p2, p4 ranges over
    fixed fractions of the largest value keeping p1 < 1 and p3 < 1. The
    grid leans toward the p1 -> 1 edge, where the smaller nonzero
    eigenvalue approaches zero.
    """
    c = params.c / params.b
    n2 = 20
    n4 = (count + n2 - 1) // n2
    p2_values = np.linspace(0.04, 0.96, n2)
    fractions = np.linspace(0.05, 0.98, n4)
    points = []
    for p2 in p2_values:
        p4_cap = min((1.0 - c) * (1.0 - p2) / c, (1.0 - c * (1.0 - p2)) / (1.0 + c))
        for t in fractions:
            x = interior_plane_point(p2, t * p4_cap, params)
            if np.all(x > 0.0) and np.all(x < 1.0):
                points.append(x)
            if len(points) == count:
                return np.asarray(points)
    return np.asarray(points)


def plane_eigenvalues(p2: float, p4: float, params: PayoffParams):
    """The two nonzero eigenvalues at an interior-plane point.

    Closed forms in (p2, p4) and the cost ratio; returned as
    (lambda_1, lambda_2) with lambda_1 >= lambda_2. Inside the open cube
    the discriminant is positive, lambda_1 > 0, and lambda_2 < 0; the
    smaller eigenvalue reaches zero only on the p1 = 1 face and becomes
    positive on the exterior side of it.
    """
    c = params.c / params.b
    d_term = (
        2.0
        * c**2
        * (p2 - p4 - 1.0)
        * (p2**2 * (p4 - 1.0) - 2.0 * p2 * (p4**2 + p4 - 1.0) + p4**3 + p4 - 1.0)
    )
    square_root_base = (
        c * (p2 - 1.0) ** 2 * p4 * (c**2 - 2.0 * c * p2 - 3.0)
        + (c - 1.0) * (p2 - 1.0) ** 3 * (-(c**2) + c + p2 + 1.0)
        - p4**3 * (c * (c * (c + 6.0 * p2 - 2.0) + 4.0 * p2 + 1.0) + 2.0)
        + c * (p2 - 1.0) * p4**2 * (c * (c + 6.0 * p2 - 2.0) + 3.0)
        + (c + 1.0) * (2.0 * c + 1.0) * p4**4
    )
    discriminant = square_root_base**2 - 8.0 * c * (c**2 - 1.0) * p4 * (
        p2 - p4 + 1.0
    ) * (-p2 + p4 + 1.0) ** 2 * ((c - 1.0) * (p2 - 1.0) - c * p4) * (
        c * ((p2 - 1.0) ** 2 - p4**2) - 2.0 * (p2 - 1.0) * p4
    )
    e_term = (
        c**3 * (-p2 + p4 + 1.0) ** 2 * (p2 + p4 - 1.0)
        - c
        * (
            -(4.0 * p2 + 1.0) * p4**3
            + 3.0 * (p2 - 1.0) * p4**2
            - 3.0 * (p2 - 1.0) ** 2 * p4
            + (p2 - 1.0) ** 3 * p2
            + 3.0 * p4**4
        )
        + p2**4
        - 2.0 * p2**3
        + 2.0 * p2
        - p4**4
        + 2.0 * p4**3
        - 1.0
    )
    f_term = (
        2.0 * (c - 1.0) ** 2 * (c + 1.0) * (p2 - p4 - 1.0) ** 5 * (p2 - p4 + 1.0)
    )
    root = np.sqrt(discriminant) if discriminant >= 0 else np.sqrt(complex(discriminant))
    lam1 = -(d_term + root + e_term) / f_term
    lam2 = (-d_term + root - e_term) / f_term
    scale = params.b
    return scale * lam1, scale * lam2


@dataclass(frozen=True)
class EquilibriumPoint:
    """A classified equilibrium: state, Jacobian spectrum, and label.

    classification is "degenerate-saddle" or "degenerate-source" when the
    spectrum splits into two near-zero eigenvalues plus a real pair with
    the respective sign pattern, "boundary" when the point touches a cube
    face, and "other" otherwise.
    """

    x: tuple
    eigenvalues: tuple
    classification: str


def classify_equilibrium(x, params: PayoffParams) -> EquilibriumPoint:
    """Classify a memory-1 equilibrium by its Jacobian spectrum.

    The field and its spectrum scale by b (see altpd.torus), so x is
    judged at (1, c/b), where they neither overflow nor underflow: the
    field's norm there must lie below 1e-8, and an eigenvalue of the
    complex-step Jacobian of the closed form counts as near zero below
    1e-8. The complex step resolves the near-zero pair at machine
    precision. The eigenvalues returned are b times those at (1, c/b).
    """
    x = np.asarray(x, dtype=float)
    if x.size != 4:
        raise ValueError("classification requires memory 1")
    unit = PayoffParams(1.0, params.c / params.b)
    if np.linalg.norm(field_closed_form(x, unit)) >= _FIELD_ZERO_TOL:
        raise NotAnEquilibriumError("not an equilibrium")
    eigenvalues = np.linalg.eigvals(jacobian(x, unit))
    order = np.argsort(-eigenvalues.real)
    eigenvalues = eigenvalues[order]
    on_face = bool(
        np.any(np.abs(x) < _BOUNDARY_LO) or np.any(np.abs(x - 1.0) < _BOUNDARY_LO)
    )
    if on_face:
        label = "boundary"
    else:
        near_zero = np.abs(eigenvalues) < _ZERO_EIG_TOL
        nonzero = eigenvalues[~near_zero]
        if near_zero.sum() == 2 and np.all(np.abs(nonzero.imag) < _ZERO_EIG_TOL):
            lam1, lam2 = sorted(nonzero.real, reverse=True)
            if lam1 > 0.0 and lam2 > 0.0:
                label = "degenerate-source"
            elif lam1 > 0.0 > lam2:
                label = "degenerate-saddle"
            else:
                label = "other"
        else:
            label = "other"
    return EquilibriumPoint(
        tuple(float(v) for v in x),
        tuple(complex(params.b * v.real, params.b * v.imag) for v in eigenvalues),
        label,
    )
