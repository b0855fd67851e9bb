"""Reduction of the memory-1 flow to angle coordinates on a two-torus.

Each trajectory conserves C1 = (p1-1)^2 + p3^2 and C2 = (p2-1)^2 + p4^2,
so the motion takes place on the torus

    p1 = 1 + sqrt(C1) sin(phi),  p3 = sqrt(C1) cos(phi),
    p2 = 1 + sqrt(C2) sin(psi),  p4 = sqrt(C2) cos(psi).

The cube intersects such a torus only for levels in (0, 2), and its image
is an open rectangle of angles near (3pi/2, 2pi). The torus reads the field
only through the memory-1 kernels: the reduced field is the pushforward of
the cube field, and pushing the kernel's numerators forward instead gives
the reduced field times the cube denominator A, which has no poles. As
C1 -> 0 its psi-rate vanishes like C1, with the coefficient slow_coefficient;
a level C1 = 0 is refused. A torus carries at most one interior equilibrium.

The benefit b only rescales time: the payoffs are linear in (b, c) and the
field's denominator A reads neither, so G(x; b, c) = b G(x; 1, c/b). The
closed forms below read the cost ratio c/b and multiply each rate by b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _COMPLEX_STEP, _field_array, _field_numerators, _field_scalar, _levels,
    _march, interior_plane_point,
)
from .errors import DegenerateTorusError, FieldSingularError
from .strategy import PayoffParams, _step_count

__all__ = [
    "TorusLevel",
    "TorusPoint",
    "AdmissibleRectangle",
    "to_cube",
    "to_torus",
    "admissible_rectangle",
    "torus_field",
    "toric_denominator",
    "desingularized_field",
    "slow_coefficient",
    "averaged_slow_field",
    "torus_equilibria",
    "torus_trajectory",
    "field_grid",
    "denominator_zero_segments",
]

_TWO_PI = 2.0 * math.pi
_DEGENERATE_TOL = 1e-14
_CONTOUR_CELLS = 200


def _wrap(angle: float) -> float:
    # float % equals np.mod here (same sign rule); the result lies in [0, 2pi].
    return float(angle) % _TWO_PI


@dataclass(frozen=True)
class TorusLevel:
    """Level values of the two conserved quantities."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (0.0 < self.c1 <= 2.0 and 0.0 < self.c2 <= 2.0):
            raise ValueError("torus levels must lie in (0, 2]")


@dataclass(frozen=True)
class TorusPoint:
    """Angles in [0, 2pi) on the torus of the given level."""

    phi: float
    psi: float
    level: TorusLevel

    def __post_init__(self):
        object.__setattr__(self, "phi", _wrap(self.phi))
        object.__setattr__(self, "psi", _wrap(self.psi))


@dataclass(frozen=True)
class AdmissibleRectangle:
    """Open angle rectangle that the cube cuts out of the torus."""

    phi_interval: tuple
    psi_interval: tuple

    def contains(self, phi: float, psi: float) -> bool:
        lo1, hi1 = self.phi_interval
        lo2, hi2 = self.psi_interval
        return bool(lo1 < phi < hi1 and lo2 < psi < hi2)


def to_cube(pt: TorusPoint) -> np.ndarray:
    """Cube coordinates of a torus point (may land outside the cube)."""
    r1 = math.sqrt(pt.level.c1)
    r2 = math.sqrt(pt.level.c2)
    return np.array(
        [
            1.0 + r1 * math.sin(pt.phi),
            1.0 + r2 * math.sin(pt.psi),
            r1 * math.cos(pt.phi),
            r2 * math.cos(pt.psi),
        ]
    )


def to_torus(x) -> TorusPoint:
    """Angles and levels of a memory-1 state.

    phi is the angle of (x3, x1 - 1) on its circle, in [0, 2pi); same for
    psi with (x4, x2 - 1). Raises for points on a degenerate torus, where
    the angle is undefined.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("torus coordinates are defined for memory 1")
    c1, c2 = _levels(x)
    if c1 < _DEGENERATE_TOL or c2 < _DEGENERATE_TOL:
        raise DegenerateTorusError("point on a degenerate torus")
    phi = math.atan2(x[0] - 1.0, x[2])
    psi = math.atan2(x[1] - 1.0, x[3])
    return TorusPoint(phi, psi, TorusLevel(c1, c2))


def _angle_interval(level_value: float) -> tuple:
    if level_value <= 1.0:
        return (1.5 * math.pi, _TWO_PI)
    bound = 1.0 / math.sqrt(level_value)
    return (_TWO_PI - math.asin(bound), _TWO_PI - math.acos(bound))


def admissible_rectangle(level: TorusLevel) -> AdmissibleRectangle:
    """Open rectangle of angles whose image lies in the cube.

    For a level value at most 1 the interval is (3pi/2, 2pi); above 1 both
    circle arcs leave the unit square earlier and the interval shrinks to
    (2pi - arcsin(1/sqrt(C)), 2pi - arccos(1/sqrt(C))), collapsing to the
    point 7pi/4 at C = 2.
    """
    return AdmissibleRectangle(
        _angle_interval(level.c1), _angle_interval(level.c2)
    )


def toric_denominator(phi, psi, level: TorusLevel):
    """Common denominator G of the reduced field, as a trig polynomial.

    G = 4 A / (C1 C2) for the cube-field denominator A; the division is
    exact because A carries the factor C1 C2 on the torus, so G stays
    finite on degenerate tori. Accepts scalars or arrays.
    It stays typed out: 4 A / (C1 C2) from the kernel moved the contour
    segments' bytes, and dividing by C1 C2 loses precision on thin tori.
    """
    s1, c1 = np.sin(phi), np.cos(phi)
    s2, c2 = np.sin(psi), np.cos(psi)
    u, v = math.sqrt(level.c1), math.sqrt(level.c2)
    first = 2.0 * v * s2 + u * (v * s1 * s2 - 2.0 * c1 - 2.0 * v * c1 * s2 + v * c1 * c2)
    second = s1 * (s2 - 2.0 * c2) + c1 * c2
    return 4.0 * first * second**2


def _pushforward(s1, c1, s2, c2, u, v, g):
    """(phi_dot, psi_dot) from the cube field g at angles with sines s1, s2,
    cosines c1, c2: numbers for one point, arrays for many (a field_grid row).
    Given the kernel's numerators for g it returns A (phi_dot, psi_dot)."""
    g1, g2, g3, g4 = g
    return (c1 * g1 - s1 * g3) / u, (c2 * g2 - s2 * g4) / v


def _angle_rates(phi, psi, u, v, b, c, kernel):
    """_pushforward of kernel(x1, x2, x3, x4, b, c) at wrapped angles on the
    torus of radii (u, v). On _field_numerators it gives A (phi_dot, psi_dot);
    on _field_scalar, (phi_dot, psi_dot) with its FieldSingularError. As
    G = 4 A / (C1 C2) with C1, C2 <= 2, |A| <= |G| and that refusal covers
    every point where |G| < 1e-14.
    """
    s1, c1 = math.sin(phi), math.cos(phi)
    s2, c2 = math.sin(psi), math.cos(psi)
    g = kernel(1.0 + u * s1, 1.0 + v * s2, u * c1, v * c2, b, c)
    return _pushforward(s1, c1, s2, c2, u, v, g)


def torus_field(pt: TorusPoint, params: PayoffParams) -> tuple:
    """(phi_dot, psi_dot): pushforward of the cube field to the angles.

    Raises FieldSingularError where the memory-1 field kernel refuses the
    cube point, which includes every point where the toric denominator
    vanishes.
    """
    return _angle_rates(
        pt.phi, pt.psi, math.sqrt(pt.level.c1), math.sqrt(pt.level.c2),
        params.b, params.c, _field_scalar,
    )


def desingularized_field(pt: TorusPoint, params: PayoffParams) -> tuple:
    """Reduced field times the cube denominator A, with no division by A.

    Pushes the memory-1 kernel's numerators forward to the angles, which
    gives A * (phi_dot, psi_dot) wherever the raw field is defined and stays
    finite where A vanishes. Every psi-term carries sqrt(C1), so as C1 -> 0
    the psi-motion freezes at rate C1 * slow_coefficient and only the
    phi-motion (the fast angle) survives.
    """
    return _angle_rates(
        pt.phi, pt.psi, math.sqrt(pt.level.c1), math.sqrt(pt.level.c2),
        params.b, params.c, _field_numerators,
    )


def slow_coefficient(phi, psi, level: TorusLevel, params: PayoffParams):
    """C1-coefficient of psi_dot in the desingularized system.

    psi_dot is a polynomial in u = sqrt(C1) with no order 0 or 1, so this
    coefficient drives the psi-motion on almost degenerate tori. At the
    imaginary radius u = 1e-20i the odd orders are imaginary, so it is
    -Re(psi_dot) / 1e-40 from the numerators at (1, c/b), times b after the
    division so that nothing underflows. Accepts scalar or array phi.
    """
    s1, c1 = np.sin(phi), np.cos(phi)
    s2, c2 = math.sin(psi), math.cos(psi)
    u, v = complex(0.0, _COMPLEX_STEP), math.sqrt(level.c2)
    g = _field_numerators(
        1.0 + u * s1, 1.0 + v * s2, u * c1, v * c2, 1.0, params.c / params.b
    )
    _, psi_rate = _pushforward(s1, c1, s2, c2, u, v, g)
    return -params.b * (psi_rate.real / _COMPLEX_STEP**2)


def averaged_slow_field(psi: float, level: TorusLevel, params: PayoffParams) -> float:
    """Integral of the slow coefficient over one full phi-revolution.

    Periodic trapezoid rule on 1024 equispaced points; the integrand is a
    trigonometric polynomial in phi, for which this rule is exact to
    roundoff. The exact value is 2 pi b sqrt(C2) ((r+1) cos(psi) - r sin(psi))
    with r = c/b, so a nonzero result means the slow psi-drift does not
    stall and the motion is aperiodic.
    """
    n_points = 1024
    grid = np.linspace(0.0, _TWO_PI, n_points, endpoint=False)
    values = slow_coefficient(grid, psi, level, params)
    return float(np.sum(values) * (_TWO_PI / n_points))


def _psi_candidates(level: TorusLevel, c: float) -> list:
    scale = 2.0 * c * math.sqrt(1.0 + c * c)
    s = (level.c2 + 2.0 * level.c2 * c * c - level.c1) / (scale * level.c2)
    if abs(s) > 1.0:
        return []
    alpha = math.acos(c / math.sqrt(1.0 + c * c))
    asin_s = math.asin(s)
    bases = ((alpha + asin_s) / 2.0, (alpha + math.pi - asin_s) / 2.0)
    return [_wrap(base + k * math.pi) for base in bases for k in (0, 1)]


def torus_equilibria(level: TorusLevel, params: PayoffParams) -> list:
    """Equilibria of the reduced field inside the admissible rectangle.

    They are the points where the interior plane meets the torus. psi
    solves sin(2 psi - alpha) = s: two arcsine roots and their pi-shifts,
    four roots mod 2pi. At each root, (x2, x4) is the torus point of angle
    psi, and dynamics.interior_plane_point gives the plane's (x1, x3)
    there; s is derived so that (x1 - 1)^2 + x3^2 = C1, so phi is the
    angle of that point, as in to_torus, and each psi has one phi. Every
    pair in the open rectangle is kept, and at most one is: on the arc of
    the circle inside the cube the plane point's C1 rises strictly with
    psi (README, "One equilibrium per torus"). The plane is read at the
    cost ratio, so the equilibria at (b, c) are those at (1, c/b).
    """
    rect = admissible_rectangle(level)
    unit = PayoffParams(1.0, params.c / params.b)
    r2 = math.sqrt(level.c2)
    found = []
    for psi in _psi_candidates(level, unit.c):
        x1, _, x3, _ = interior_plane_point(
            1.0 + r2 * math.sin(psi), r2 * math.cos(psi), unit
        )
        phi = _wrap(math.atan2(x1 - 1.0, x3))
        if rect.contains(phi, psi):
            found.append(TorusPoint(phi, psi, level))
    return found


def torus_trajectory(
    pt: TorusPoint, params: PayoffParams, t_final: float, dt: float = 1e-3
):
    """Fixed-step RK4 integration of the reduced field on the angles.

    Returns (times, angle array of shape (n, 2), status); status is
    "singular" if the memory-1 field kernel refused a stage's cube point
    (as a cube trajectory halts), else "completed". Angles are left
    unwrapped so paths are continuous.
    Raises ValueError under the same step rule as dynamics.integrate.
    """
    n_steps = _step_count(t_final, dt)
    u, v = math.sqrt(pt.level.c1), math.sqrt(pt.level.c2)
    b, c = params.b, params.c

    def rates(phi, psi):
        return _angle_rates(phi % _TWO_PI, psi % _TWO_PI, u, v, b, c, _field_scalar)

    def step(y, dt):
        # Classical RK4 written out on the two angles, with the expressions
        # of dynamics._cube_step.
        phi, psi = y
        a1, a2 = rates(phi, psi)
        half = 0.5 * dt
        p1, p2 = rates(phi + half * a1, psi + half * a2)
        q1, q2 = rates(phi + half * p1, psi + half * p2)
        r1, r2 = rates(phi + dt * q1, psi + dt * q2)
        sixth = dt / 6.0
        return (
            phi + sixth * (a1 + 2.0 * p1 + 2.0 * q1 + r1),
            psi + sixth * (a2 + 2.0 * p2 + 2.0 * q2 + r2),
        )

    return _march(
        step, (pt.phi, pt.psi), n_steps, dt, FieldSingularError, lambda y: True
    )


def field_grid(level: TorusLevel, params: PayoffParams, resolution: int):
    """Reduced field sampled on a regular resolution x resolution angle grid
    over [0, 2pi)^2 (the CLI's --grid sets resolution).

    Returns (phi, psi, phi_dot, psi_dot) flat arrays of length
    resolution^2, phi varying slowest. Each row runs on the array kernel,
    so samples match torus_field bit for bit and carry NaN where it raises.
    """
    ticks = np.linspace(0.0, _TWO_PI, resolution, endpoint=False)
    sines = np.array([math.sin(t) for t in ticks.tolist()])
    cosines = np.array([math.cos(t) for t in ticks.tolist()])
    u, v = math.sqrt(level.c1), math.sqrt(level.c2)
    y = np.empty((4, resolution))
    y[1], y[3] = 1.0 + v * sines, v * cosines
    fphi, fpsi = np.empty((2, resolution, resolution))
    for i, (s1, c1) in enumerate(zip(sines.tolist(), cosines.tolist())):
        y[0], y[2] = 1.0 + u * s1, u * c1
        g = _field_array(y, params.b, params.c)
        fphi[i], fpsi[i] = _pushforward(s1, c1, sines, cosines, u, v, g)
    phi_grid, psi_grid = np.meshgrid(ticks, ticks, indexing="ij")
    return phi_grid.ravel(), psi_grid.ravel(), fphi.ravel(), fpsi.ravel()


def denominator_zero_segments(level: TorusLevel) -> np.ndarray:
    """Sampled G = 0 contour as line segments (phi1, psi1, phi2, psi2).

    Marching-squares on a regular 200 x 200 cell grid: each cell
    contributes a segment per pair of sign-change edge crossings (linear
    interpolation).
    """
    ticks = np.linspace(0.0, _TWO_PI, _CONTOUR_CELLS + 1)
    phi_grid, psi_grid = np.meshgrid(ticks, ticks, indexing="ij")
    return _march_cells(ticks, toric_denominator(phi_grid, psi_grid, level))


# Corner offsets (di, dj) of a cell, in its walking order.
_CELL_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _march_cells(ticks, g) -> np.ndarray:
    """Marching squares over the cells of g sampled at (ticks[i], ticks[j]).

    Walks each cell's edges from corner a to corner a + 1 in the order of
    _CELL_CORNERS. An edge crosses where its start value is exactly zero
    (at that corner) or where the values at its ends have opposite signs
    (interpolated linearly). The crossings are gathered edge by edge over
    all cells, ordered by (cell, edge), and paired first with second and
    third with fourth within each cell, so no per-cell stack is built.
    """
    n = len(ticks) - 1
    cells, edges, xs, ys = [], [], [], []
    for edge in range(4):
        (ia, ja), (ib, jb) = _CELL_CORNERS[edge], _CELL_CORNERS[(edge + 1) % 4]
        ga = g[ia:ia + n, ja:ja + n]
        gb = g[ib:ib + n, jb:jb + n]
        cell = np.flatnonzero((ga == 0.0) | (ga * gb < 0.0))
        i, j = np.divmod(cell, n)
        ga, gb = g[i + ia, j + ja], g[i + ib, j + jb]
        xa, xb, ya, yb = ticks[i + ia], ticks[i + ib], ticks[j + ja], ticks[j + jb]
        zero = ga == 0.0
        t = ga / np.where(zero, 1.0, ga - gb)
        xs.append(np.where(zero, xa, xa + t * (xb - xa)))
        ys.append(np.where(zero, ya, ya + t * (yb - ya)))
        cells.append(cell)
        edges.append(np.full(cell.size, edge))
    cells, edges = np.concatenate(cells), np.concatenate(edges)
    order = np.lexsort((edges, cells))
    cells = cells[order]
    xs, ys = np.concatenate(xs)[order], np.concatenate(ys)[order]
    rank = np.arange(cells.size) - np.searchsorted(cells, cells)
    first = np.flatnonzero(rank[:-1] % 2 == 0)
    first = first[cells[first + 1] == cells[first]]
    return np.column_stack([xs[first], ys[first], xs[first + 1], ys[first + 1]])
