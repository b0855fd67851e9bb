"""Reduction of the memory-1 flow to angle coordinates on a two-torus.

Each trajectory conserves C1 = (p1-1)^2 + p3^2 and C2 = (p2-1)^2 + p4^2,
so the motion takes place on the torus

    p1 = 1 + sqrt(C1) sin(phi),  p3 = sqrt(C1) cos(phi),
    p2 = 1 + sqrt(C2) sin(psi),  p4 = sqrt(C2) cos(psi).

The cube intersects such a torus only for levels in (0, 2), and its image
is an open rectangle of angles near (3pi/2, 2pi). The reduced field is the
pushforward of the cube field; multiplying it by the common rational
denominator gives a field of trigonometric polynomials that is defined
everywhere, including on degenerate (C1 -> 0) tori, where the psi-motion
is governed by the C1-coefficient of psi_dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _field_scalar, _march, _rk4_tuple, _step_count
from .errors import (
    DegenerateTorusError,
    FieldSingularError,
    ToricDenominatorError,
)
from .strategy import PayoffParams

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
_DENOMINATOR_TOL = 1e-14
_EQUILIBRIUM_FIELD_TOL = 1e-8
_ANGLE_DEDUPE_TOL = 1e-7


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

    def contains(self, phi: float, psi: float, tol: float = 0.0) -> bool:
        lo1, hi1 = self.phi_interval
        lo2, hi2 = self.psi_interval
        return bool(
            lo1 - tol < phi < hi1 + tol and lo2 - tol < psi < hi2 + tol
        )


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
    c1 = (x[0] - 1.0) ** 2 + x[2] ** 2
    c2 = (x[1] - 1.0) ** 2 + x[3] ** 2
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


def _trig(pt: TorusPoint):
    return (
        math.sin(pt.phi),
        math.cos(pt.phi),
        math.sin(pt.psi),
        math.cos(pt.psi),
        math.sqrt(pt.level.c1),
        math.sqrt(pt.level.c2),
    )


def toric_denominator(phi, psi, level: TorusLevel):
    """Common denominator G of the reduced field, as a trig polynomial.

    G = 4 A / (C1 C2) for the cube-field denominator A; the division is
    exact because A carries the factor C1 C2 on the torus, so G stays
    finite on degenerate tori. Accepts scalars or arrays.
    """
    return _toric_denominator_trig(
        np.sin(phi), np.cos(phi), np.sin(psi), np.cos(psi),
        math.sqrt(level.c1), math.sqrt(level.c2),
    )


def _toric_denominator_trig(s1, c1, s2, c2, u, v):
    first = 2.0 * v * s2 + u * (v * s1 * s2 - 2.0 * c1 - 2.0 * v * c1 * s2 + v * c1 * c2)
    second = s1 * (s2 - 2.0 * c2) + c1 * c2
    return 4.0 * first * second**2


def _angle_rates(phi, psi, u, v, b, c):
    """(phi_dot, psi_dot) at wrapped angles on the torus of radii (u, v).

    Maps the angles to the cube, evaluates the scalar memory-1 kernel
    there and pushes the field forward. Raises ToricDenominatorError where
    the toric denominator or the cube denominator falls below 1e-14.
    """
    s1, c1 = math.sin(phi), math.cos(phi)
    s2, c2 = math.sin(psi), math.cos(psi)
    if abs(_toric_denominator_trig(s1, c1, s2, c2, u, v)) < _DENOMINATOR_TOL:
        raise ToricDenominatorError("toric denominator vanishes")
    try:
        denom, (g1, g2, g3, g4) = _field_scalar(
            1.0 + u * s1, 1.0 + v * s2, u * c1, v * c2, b, c
        )
    except FieldSingularError:
        raise ToricDenominatorError("toric denominator vanishes") from None
    if abs(denom) < _DENOMINATOR_TOL:
        raise ToricDenominatorError("toric denominator vanishes")
    return (c1 * g1 - s1 * g3) / u, (c2 * g2 - s2 * g4) / v


def torus_field(pt: TorusPoint, params: PayoffParams) -> tuple:
    """(phi_dot, psi_dot): pushforward of the cube field to the angles.

    The toric denominator G equals the cube denominator up to the factor
    4/(C1 C2), so a cube-side singularity that slips between the two
    absolute thresholds is reported as the same toric degeneracy.
    """
    return _angle_rates(
        pt.phi, pt.psi, math.sqrt(pt.level.c1), math.sqrt(pt.level.c2),
        params.b, params.c,
    )


def _e13_on_torus(s1, c1, s2, c2, u, v, c):
    """E13 numerator block in angle coordinates: affine in u = sqrt(C1)."""
    order0 = (1.0 - c) * v * v * s2 * (c2 - s2)
    cos_part = v * (
        -c * c2 * c2 * v
        + 2.0 * c * c2 * s2 * v
        + 2.0 * c * c2
        - c * s2 * s2 * v
        - c * s2
        - c2 * s2 * v
        + s2 * s2 * v
        + s2
    )
    sin_part = v * (
        c * c2 * c2 * v
        - 2.0 * c * c2 * s2 * v
        - 2.0 * c * c2
        + c * s2 * s2 * v
        + c * s2
        + c2 * c2 * v
        - c2 * s2 * v
        - 2.0 * c2
        + s2
    )
    return order0 + u * (c1 * cos_part + s1 * sin_part)


def _e2_linear_coefficient(s1, c1, s2, c2, v, c):
    """Coefficient of u in E2 on the torus (the constant order vanishes)."""
    return v * (
        c1 * ((c + 1.0) * c2 + (1.0 - c) * s2)
        - 2.0 * s1 * ((c + 1.0) * c2 - c * s2)
    )


def _e2_quadratic_coefficient(s1, c1, s2, c2, v, c):
    return (
        c1 * c1 * (-c * c2 * v + c * s2 * v + c - s2 * v - 1.0)
        + c1 * s1 * (2.0 * c * c2 * v - 2.0 * c * s2 * v - c + c2 * v + s2 * v + 1.0)
        + s1 * s1 * v * (-c * c2 + c * s2 - c2)
    )


def desingularized_field(pt: TorusPoint, params: PayoffParams) -> tuple:
    """Reduced field times the denominator: trig polynomials, no poles.

    Equals A * (phi_dot, psi_dot) wherever the raw field is defined, and
    extends it to degenerate tori: every psi-term carries sqrt(C1), so on
    C1 = 0 the psi-motion freezes and only the phi-motion (the fast angle)
    survives. Requires the unit-benefit normalization.
    """
    if params.b != 1.0:
        raise ValueError("desingularized form assumes unit benefit")
    s1, c1, s2, c2, u, v = _trig(pt)
    c = params.c
    e13 = _e13_on_torus(s1, c1, s2, c2, u, v, c)
    e2 = u * _e2_linear_coefficient(s1, c1, s2, c2, v, c) + u * u * (
        _e2_quadratic_coefficient(s1, c1, s2, c2, v, c)
    )
    return float(v * c2 * e13), float(-u * s1 * e2)


def slow_coefficient(phi, psi, level: TorusLevel, params: PayoffParams):
    """C1-coefficient of psi_dot in the desingularized system.

    The order-sqrt(C1) part of psi_dot vanishes identically, so this
    coefficient drives the psi-motion on almost degenerate tori. Accepts
    scalar or array phi. The level enters only through C2.
    """
    if params.b != 1.0:
        raise ValueError("slow coefficient assumes unit benefit")
    s1, c1 = np.sin(phi), np.cos(phi)
    s2, c2 = math.sin(psi), math.cos(psi)
    v = math.sqrt(level.c2)
    return -s1 * _e2_linear_coefficient(s1, c1, s2, c2, v, params.c)


def averaged_slow_field(psi: float, level: TorusLevel, params: PayoffParams) -> float:
    """Integral of the slow coefficient over one full phi-revolution.

    Periodic trapezoid rule on 1024 equispaced points; the integrand is a
    trigonometric polynomial in phi, for which this rule is exact to
    roundoff. The exact value is 2 pi sqrt(C2) ((C+1) cos(psi) - C sin(psi)),
    so a nonzero result means the slow psi-drift does not stall and the
    motion is aperiodic.
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
    out = []
    for base in ((alpha + asin_s) / 2.0, (alpha + math.pi - asin_s) / 2.0):
        for k in (-1, 0, 1):
            out.append(_wrap(base + k * math.pi))
    return out


def _phi_candidates(psi: float, level: TorusLevel) -> list:
    ratio = math.sqrt(level.c2 / level.c1) * math.sin(psi - math.pi / 4.0)
    if abs(ratio) > 1.0:
        return []
    asin_r = math.asin(ratio)
    out = []
    for base in (math.pi / 4.0 + asin_r, math.pi / 4.0 + math.pi - asin_r):
        for k in (-1, 0, 1):
            out.append(_wrap(base + 2.0 * k * math.pi))
    return out


def _angle_close(a: float, b: float) -> bool:
    d = abs(a - b) % _TWO_PI
    return min(d, _TWO_PI - d) < _ANGLE_DEDUPE_TOL


def torus_equilibria(level: TorusLevel, params: PayoffParams) -> list:
    """Equilibria of the reduced field inside the admissible rectangle.

    psi solves a shifted double-angle equation with two branches; for each
    psi there are two phi-branches from sin(phi - pi/4) proportional to
    sin(psi - pi/4). Branches whose arcsine argument leaves [-1, 1] carry
    no equilibrium. Candidates are kept when they fall in the open
    rectangle and annihilate the reduced field; at most four survive.
    """
    if params.b != 1.0:
        raise ValueError("equilibrium enumeration assumes unit benefit")
    rect = admissible_rectangle(level)
    found = []
    for psi in _psi_candidates(level, params.c):
        for phi in _phi_candidates(psi, level):
            if not rect.contains(phi, psi):
                continue
            pt = TorusPoint(phi, psi, level)
            try:
                f = torus_field(pt, params)
            except ToricDenominatorError:
                continue
            if max(abs(f[0]), abs(f[1])) >= _EQUILIBRIUM_FIELD_TOL:
                continue
            if any(
                _angle_close(pt.phi, q.phi) and _angle_close(pt.psi, q.psi)
                for q in found
            ):
                continue
            found.append(pt)
    return found


def torus_trajectory(
    pt: TorusPoint, params: PayoffParams, t_final: float, dt: float = 1e-3
):
    """Fixed-step RK4 integration of the reduced field on the angles.

    Returns (times, angle array of shape (n, 2), status); status is
    "singular" if the toric denominator vanished mid-run, else
    "completed". Angles are left unwrapped so paths are continuous.
    Raises ValueError under the same step rule as dynamics.integrate.
    """
    n_steps = _step_count(t_final, dt)
    u, v = math.sqrt(pt.level.c1), math.sqrt(pt.level.c2)
    b, c = params.b, params.c

    def rates(angles):
        return _angle_rates(_wrap(angles[0]), _wrap(angles[1]), u, v, b, c)

    def step(y, dt):
        return _rk4_tuple(rates, y, dt, rates(y))

    return _march(
        step, (pt.phi, pt.psi), n_steps, dt, ToricDenominatorError, lambda y: True
    )


def field_grid(level: TorusLevel, params: PayoffParams, resolution: int = 40):
    """Reduced field sampled on a regular angle grid over [0, 2pi)^2.

    Returns (phi, psi, phi_dot, psi_dot) flat arrays of length
    resolution^2; samples where the toric denominator vanishes carry NaN.
    """
    ticks = np.linspace(0.0, _TWO_PI, resolution, endpoint=False)
    phi_grid, psi_grid = np.meshgrid(ticks, ticks, indexing="ij")
    phi_flat = phi_grid.ravel()
    psi_flat = psi_grid.ravel()
    fphi = np.empty(phi_flat.size)
    fpsi = np.empty(phi_flat.size)
    u, v = math.sqrt(level.c1), math.sqrt(level.c2)
    for i, (ph, ps) in enumerate(zip(phi_flat.tolist(), psi_flat.tolist())):
        try:
            fphi[i], fpsi[i] = _angle_rates(ph, ps, u, v, params.b, params.c)
        except ToricDenominatorError:
            fphi[i] = fpsi[i] = math.nan
    return phi_flat, psi_flat, fphi, fpsi


def denominator_zero_segments(level: TorusLevel, resolution: int = 200) -> np.ndarray:
    """Sampled G = 0 contour as line segments (phi1, psi1, phi2, psi2).

    Marching-squares on a regular grid: each cell contributes a segment
    per pair of sign-change edge crossings (linear interpolation).
    """
    ticks = np.linspace(0.0, _TWO_PI, resolution + 1)
    phi_grid, psi_grid = np.meshgrid(ticks, ticks, indexing="ij")
    g = toric_denominator(phi_grid, psi_grid, level)
    segments = []
    for i in range(resolution):
        for j in range(resolution):
            corners = (
                (ticks[i], ticks[j], g[i, j]),
                (ticks[i + 1], ticks[j], g[i + 1, j]),
                (ticks[i + 1], ticks[j + 1], g[i + 1, j + 1]),
                (ticks[i], ticks[j + 1], g[i, j + 1]),
            )
            crossings = []
            for a in range(4):
                xa, ya, ga = corners[a]
                xb, yb, gb = corners[(a + 1) % 4]
                if ga == 0.0:
                    crossings.append((xa, ya))
                elif ga * gb < 0.0:
                    t = ga / (ga - gb)
                    crossings.append((xa + t * (xb - xa), ya + t * (yb - ya)))
            for a in range(0, len(crossings) - 1, 2):
                (x1, y1), (x2, y2) = crossings[a], crossings[a + 1]
                segments.append((x1, y1, x2, y2))
    return np.asarray(segments) if segments else np.empty((0, 4))
