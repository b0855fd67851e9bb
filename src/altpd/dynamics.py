"""Adaptive dynamics of the resident strategy in the alternating game.

The state is a single strategy x in [0,1]^{4^N}: the resident plays both
roles, and the field is the gradient of the mutant leader's long-run payoff
in the mutant coordinates, evaluated at the resident (mutant = resident).
For memory 1 the field has an explicit rational closed form; for general
memory it is obtained by finite differences of the determinant payoff.

Memory-1 trajectories conserve (x1-1)^2 + x3^2 and (x2-1)^2 + x4^2, so the
flow lives on two-dimensional tori inside the cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import FieldSingularError, NotAnEquilibriumError
from .payoff import payoff_by_determinant
from .strategy import PayoffParams, Strategy

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
# conservation_drift steps its rows as one numpy batch only while more than
# this many are live. A batch RK4 step costs about 200 us whatever the row
# count (each stage is ~100 ufunc calls on short arrays) and a scalar row
# step about 9 us, so the two cross near 20 rows (2-vCPU x86 host).
_DRIFT_SCALAR_ROWS = 16
# A straggler is marched this many steps at a time, so the states kept for
# its drift stay near 1 MB however long the run.
_DRIFT_CHUNK = 4096


def _field_components(x1, x2, x3, x4, b, c):
    """Numerator blocks and common denominator of the memory-1 field.

    Pure arithmetic, so the inputs may be floats, arrays, or complex
    (complex inputs carry derivative information for the complex step).
    """
    e13 = (
        b * (x2 - x4) * (x1 * (-x4) + x1 + x2 * (x3 - 1) - x3 + x4)
        + b * (x2 - x1)
        + c
        * (
            x4 * (-2 * x1 * x2 + 2 * x2 * x3 + x2 + 1)
            + (x2 - 1) * (x1 * x2 - x2 * x3 - 1)
            + x4 * x4 * (x1 - x3 - 1)
        )
    )
    e2 = (
        b * (x3 * (x1 * x2 - x2 * x3 - 1) + x1 * x4 * (x3 - x1) + x4)
        + c
        * (
            x1 * x1 * (x2 - x4 - 1)
            + x1 * x3 * (-2 * x2 + 2 * x4 + 1)
            + x3 * (x3 + 1) * (x2 - x4)
            - x2
            + x4
            + 1
        )
    )
    denom = (x1 * (x2 - 1) - 2 * x2 * x3 + x2 + x3 * x4 - 1) * (
        x1 * (x2 - 2 * x4 - 1) - x2 + (x3 + 2) * x4 + 1
    ) ** 2
    return e13, e2, denom


def _field_scalar(x1, x2, x3, x4, b, c):
    """Memory-1 field at one point given as plain floats.

    Returns (denom, (g1, g2, g3, g4)) with the same operations, in the same
    order, as _field_raw, so results agree bit for bit with
    field_closed_form on a single state. Callers apply their own |denom| threshold; an exactly zero
    denominator raises FieldSingularError here instead of dividing, and so
    does a squared factor beyond the float range (float ** 2 raises
    OverflowError where numpy would return inf).
    """
    try:
        e13, e2, denom = _field_components(x1, x2, x3, x4, b, c)
    except OverflowError:
        raise FieldSingularError("field denominator overflows") from None
    if denom == 0.0:
        raise FieldSingularError("field denominator vanishes")
    return denom, (
        x3 * x4 * e13 / denom,
        (1 - x1) * x4 * e2 / denom,
        -(x1 - 1) * x4 * e13 / denom,
        -(1 - x1) * (x2 - 1) * e2 / denom,
    )


def _field_raw(x, b, c):
    """(denom, field) on arrays, without a denominator check."""
    x1, x2, x3, x4 = (x[..., i] for i in range(4))
    e13, e2, denom = _field_components(x1, x2, x3, x4, b, c)
    out = np.stack(
        [
            x3 * x4 * e13,
            (1 - x1) * x4 * e2,
            -(x1 - 1) * x4 * e13,
            -(1 - x1) * (x2 - 1) * e2,
        ],
        axis=-1,
    )
    return denom, out / denom[..., np.newaxis]


def field_closed_form(x, params: PayoffParams) -> np.ndarray:
    """Memory-1 field in closed form; broadcasts over leading axes of x.

    Raises FieldSingularError where the common rational denominator
    vanishes (it is nonzero on the open cube, where the underlying chain
    is irreducible).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("closed form requires memory 1 (four coordinates)")
    with np.errstate(divide="ignore", invalid="ignore"):
        denom, field = _field_raw(x, params.b, params.c)
    if np.any(np.abs(denom) < _DENOMINATOR_TOL):
        raise FieldSingularError("field denominator vanishes")
    return field


def _memory_from_size(d: int) -> int:
    memory = round(math.log(d, 4))
    if 4**memory != d:
        raise ValueError("state length must be a power of four")
    return memory


def field_numeric(x, params: PayoffParams, h: float = 1e-6) -> np.ndarray:
    """Field for any memory: central differences of the determinant payoff.

    Differentiates the mutant leader's payoff in each leader coordinate
    with the resident follower held fixed at x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("field_numeric takes a single state vector")
    if np.any(x <= h) or np.any(x >= 1.0 - h):
        raise ValueError("state must lie in (h, 1-h) for the stencil")
    _memory_from_size(x.size)
    follower = Strategy(tuple(x))
    out = np.empty(x.size)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        a_hi = payoff_by_determinant(Strategy(tuple(hi)), follower, params)
        a_lo = payoff_by_determinant(Strategy(tuple(lo)), follower, params)
        out[i] = (a_hi - a_lo) / (2.0 * h)
    return out


def jacobian(
    x, params: PayoffParams, method: str = "complex-step", step: float = 1e-5
) -> np.ndarray:
    """Jacobian of the field at x.

    "complex-step" (memory 1 only) differentiates the closed form through
    complex arguments, which is exact to roundoff for a rational field and
    is the only scheme accurate enough to certify eigenvalues at the 1e-8
    scale. "central" uses finite differences of the closed form (memory 1)
    or of field_numeric (general memory).
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    if method == "complex-step":
        if d != 4:
            raise ValueError("complex-step differentiation requires memory 1")
        field_closed_form(x, params)  # raises where the denominator vanishes
        jac = np.empty((4, 4))
        for j in range(4):
            xc = x.astype(complex)
            xc[j] += 1j * _COMPLEX_STEP
            jac[:, j] = _field_raw(xc, params.b, params.c)[1].imag / _COMPLEX_STEP
        return jac
    if method == "central":
        base = field_closed_form if d == 4 else field_numeric
        jac = np.empty((d, d))
        for j in range(d):
            hi = x.copy()
            lo = x.copy()
            hi[j] += step
            lo[j] -= step
            jac[:, j] = (
                np.asarray(base(hi, params)) - np.asarray(base(lo, params))
            ) / (2.0 * step)
        return jac
    raise ValueError("method must be 'complex-step' or 'central'")


@dataclass(frozen=True)
class InvariantPair:
    """Values of the two conserved quantities of the memory-1 flow."""

    f1: float
    f2: float


def invariants(x) -> InvariantPair:
    """(x1-1)^2 + x3^2 and (x2-1)^2 + x4^2 (memory 1)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("invariants are defined for memory 1")
    f1 = (x[..., 0] - 1.0) ** 2 + x[..., 2] ** 2
    f2 = (x[..., 1] - 1.0) ** 2 + x[..., 3] ** 2
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
    "singular" (field evaluation failed mid-step; partial record).
    """

    times: np.ndarray
    states: np.ndarray
    status: str

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _interior(x) -> bool:
    # Chained comparisons are False for NaN, so NaN states count as exits.
    return all(_BOUNDARY_LO <= v <= _BOUNDARY_HI for v in x)


def _rk4_step(rates, x, dt):
    """One classical RK4 step on numpy arrays (broadcasts over batches)."""
    k1 = rates(x)
    k2 = rates(x + 0.5 * dt * k1)
    k3 = rates(x + 0.5 * dt * k2)
    k4 = rates(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_tuple(rates, y, dt, k1):
    """One classical RK4 step on a tuple of floats; k1 is rates(y).

    Same arithmetic as _rk4_step, element by element, without numpy's
    per-call overhead on short states. The caller evaluates k1 so it can
    inspect the start-of-step field before stepping.
    """
    half = 0.5 * dt
    k2 = rates(tuple(v + half * k for v, k in zip(y, k1)))
    k3 = rates(tuple(v + half * k for v, k in zip(y, k2)))
    k4 = rates(tuple(v + dt * k for v, k in zip(y, k3)))
    sixth = dt / 6.0
    return tuple(
        v + sixth * (a + 2.0 * p + 2.0 * q + r)
        for v, a, p, q, r in zip(y, k1, k2, k3, k4)
    )


def _cube_step(params):
    """Memory-1 RK4 step on tuples, guarded by the start-of-step denominator."""
    b, c = params.b, params.c

    def rates(y):
        return _field_scalar(*y, b, c)[1]

    def step(x, dt):
        denom, k1 = _field_scalar(*x, b, c)
        if abs(denom) < _DENOMINATOR_TOL:
            raise FieldSingularError("field denominator vanishes")
        return _rk4_tuple(rates, x, dt, k1)

    return step


def _step_count(t_final: float, dt: float) -> int:
    """Number of fixed steps of size dt that reach t_final (at least one).

    Raises ValueError unless t_final, dt and t_final / dt are all finite
    and positive.
    """

    def positive(v):
        return math.isfinite(v) and v > 0.0

    if not (positive(t_final) and positive(dt) and positive(t_final / dt)):
        raise ValueError(
            "t and dt must be finite and positive, and so must t / dt; "
            f"got t_final={t_final!r}, dt={dt!r}"
        )
    return max(1, int(round(t_final / dt)))


def _march(step, y0, n_steps, dt, caught, inside):
    """Fixed-step loop: (times, states, status) over n_steps steps from y0.

    Every state is recorded. The loop halts with "singular" when step
    raises one of `caught` and with "boundary" when a new state fails
    `inside`; the failing state is not recorded.
    """
    y = y0
    times = [0.0]
    states = [y]
    status = "completed"
    for k in range(1, n_steps + 1):
        try:
            y = step(y, dt)
        except caught:
            status = "singular"
            break
        if not inside(y):
            status = "boundary"
            break
        times.append(k * dt)
        states.append(y)
    return np.asarray(times), np.asarray(states, dtype=float), status


def _integrate_rk4(x0, params, n_steps, dt):
    if x0.size == 4:
        y0, step, caught = tuple(x0.tolist()), _cube_step(params), FieldSingularError
    else:
        # field_numeric raises ValueError once a stage leaves its stencil room.
        y0, caught = x0.copy(), (FieldSingularError, ValueError)
        step = partial(_rk4_step, lambda y: field_numeric(y, params))
    return Trajectory(*_march(step, y0, n_steps, dt, caught, _interior))


def _integrate_rk45(x0, params, t_final):
    from scipy.integrate import solve_ivp  # loaded only when rk45 is asked for

    def rhs(_t, y):
        return field_closed_form(y, params) if y.size == 4 else field_numeric(y, params)

    def exit_event(_t, y):
        return min(float(np.min(y)) - _BOUNDARY_LO, _BOUNDARY_HI - float(np.max(y)))

    exit_event.terminal = True
    # field_numeric raises ValueError once a stage leaves its stencil room.
    caught = FieldSingularError if x0.size == 4 else (FieldSingularError, ValueError)
    try:
        sol = solve_ivp(
            rhs,
            (0.0, t_final),
            x0,
            method="RK45",
            rtol=1e-9,
            atol=1e-12,
            events=exit_event,
            dense_output=False,
        )
    except caught:
        return Trajectory(np.zeros(1), x0[np.newaxis].copy(), "singular")
    times = sol.t
    states = sol.y.T
    if sol.status == 1:  # terminated by the boundary event
        if times.size > 1:
            times, states = times[:-1], states[:-1]
        return Trajectory(times, states, "boundary")
    return Trajectory(times, states, "completed" if sol.success else "singular")


def integrate(
    x0, params: PayoffParams, t_final: float, dt: float = 1e-3, method: str = "rk4"
) -> Trajectory:
    """Integrate the field from an interior start.

    "rk4" is fixed-step (every step recorded); "rk45" is adaptive
    Dormand-Prince at relative tolerance 1e-9 (solver-chosen steps).
    Integration halts, without recording the exiting state, when any
    coordinate leaves [1e-9, 1-1e-9]: clamping would silently break the
    conserved quantities. Raises ValueError for a start outside that
    range, or unless t_final, dt and t_final / dt are finite and positive
    (for "rk45" too, although it chooses its own steps).
    """
    x0 = np.asarray(x0, dtype=float)
    if not _interior(x0):
        raise ValueError("initial state must be interior")
    n_steps = _step_count(t_final, dt)  # the step rule, for either method
    if method == "rk4":
        return _integrate_rk4(x0, params, n_steps, dt)
    if method == "rk45":
        return _integrate_rk45(x0, params, t_final)
    raise ValueError("method must be 'rk4' or 'rk45'")


def conservation_drift(
    x0_batch, params: PayoffParams, t_final: float, dt: float = 1e-3
):
    """Max drift of both conserved quantities along fixed-step RK4 runs.

    Integrates every row of x0_batch (memory 1 only) and tracks the running
    maximum of |F_i(t) - F_i(0)| per trajectory. Rows that exit
    [1e-9, 1-1e-9] are frozen at their last interior state. Returns
    (drift_f1, drift_f2), each of shape (n_trajectories,). Raises
    ValueError under the same step rule as integrate.

    The rows are stepped together as one numpy batch while more than 16 of
    them are live; each row still live after that finishes on the scalar
    kernel of integrate, with the same arithmetic, so the result does not
    depend on where the switch falls. A row finishing on the scalar kernel
    also freezes, as integrate halts, when its start-of-step field
    denominator is below 1e-14 in magnitude.
    """
    x = np.array(x0_batch, dtype=float)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ValueError("x0_batch must have shape (n, 4)")
    if not _interior(x.ravel()):
        raise ValueError("initial states must be interior")
    n_steps = _step_count(t_final, dt)
    b, c = params.b, params.c

    def rates(y):
        return _field_raw(y, b, c)[1]

    f1_0 = (x[:, 0] - 1.0) ** 2 + x[:, 2] ** 2
    f2_0 = (x[:, 1] - 1.0) ** 2 + x[:, 3] ** 2
    drift1 = np.zeros(x.shape[0])
    drift2 = np.zeros(x.shape[0])
    active = np.ones(x.shape[0], dtype=bool)
    done = 0
    while done < n_steps and np.count_nonzero(active) > _DRIFT_SCALAR_ROWS:
        stepped = _rk4_step(rates, x[active], dt)
        inside = np.all((stepped >= _BOUNDARY_LO) & (stepped <= _BOUNDARY_HI), axis=1)
        idx = np.flatnonzero(active)
        x[idx[inside]] = stepped[inside]
        active[idx[~inside]] = False
        live = idx[inside]
        f1 = (x[live, 0] - 1.0) ** 2 + x[live, 2] ** 2
        f2 = (x[live, 1] - 1.0) ** 2 + x[live, 3] ** 2
        drift1[live] = np.maximum(drift1[live], np.abs(f1 - f1_0[live]))
        drift2[live] = np.maximum(drift2[live], np.abs(f2 - f2_0[live]))
        done += 1
    step = _cube_step(params)
    for i in np.flatnonzero(active):
        y, left, status = tuple(x[i].tolist()), n_steps - done, "completed"
        while left and status == "completed":
            count = min(left, _DRIFT_CHUNK)
            _, s, status = _march(step, y, count, dt, FieldSingularError, _interior)
            f1 = (s[:, 0] - 1.0) ** 2 + s[:, 2] ** 2
            f2 = (s[:, 1] - 1.0) ** 2 + s[:, 3] ** 2
            drift1[i] = max(drift1[i], np.max(np.abs(f1 - f1_0[i])))
            drift2[i] = max(drift2[i], np.max(np.abs(f2 - f2_0[i])))
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

    The field must vanish at x (norm below 1e-8). Eigenvalues come from
    the complex-step Jacobian of the closed form, so the near-zero pair is
    resolved at machine precision.
    """
    x = np.asarray(x, dtype=float)
    if x.size != 4:
        raise ValueError("classification requires memory 1")
    norm = float(np.linalg.norm(field_closed_form(x, params)))
    if norm >= _FIELD_ZERO_TOL:
        raise NotAnEquilibriumError("not an equilibrium")
    eigenvalues = np.linalg.eigvals(jacobian(x, params))
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
        if near_zero.sum() == 2 and np.all(
            np.abs(nonzero.imag) < _ZERO_EIG_TOL
        ):
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
        tuple(complex(v) for v in eigenvalues),
        label,
    )
