"""Torus reduction: coordinates, rectangles, reduced field, equilibria."""

import math
import tracemalloc

import numpy as np
import pytest

from altpd.dynamics import (
    _field_scalar,
    _march,
    _step_count,
    field_closed_form,
    integrate,
    interior_plane_point,
    invariants,
)
from altpd.errors import DegenerateTorusError, FieldSingularError
from altpd.strategy import PayoffParams
from altpd.torus import (
    _angle_rates,
    _march_cells,
    _psi_candidates,
    _wrap,
    AdmissibleRectangle,
    TorusLevel,
    TorusPoint,
    admissible_rectangle,
    averaged_slow_field,
    denominator_zero_segments,
    desingularized_field,
    field_grid,
    slow_coefficient,
    to_cube,
    to_torus,
    toric_denominator,
    torus_equilibria,
    torus_field,
    torus_trajectory,
)

TWO_PI = 2.0 * math.pi

# Figure parameter sets: (C, C1, C2).
PANEL_A = (0.31, 0.355, 0.314)
PANEL_B = (0.4, 1.16422, 1.158)

# (b, c) pairs off the unit benefit, for the scale rule
# G(x; b, c) = b G(x; 1, c/b).
SCALED = ((2.0, 0.6), (3.7, 1.1), (0.5, 0.2))


def cube_denominator(x, b, c):
    """Reference denominator of the rational memory-1 field."""
    x1, x2, x3, x4 = x
    return (x1 * (x2 - 1) - 2 * x2 * x3 + x2 + x3 * x4 - 1) * (
        x1 * (x2 - 2 * x4 - 1) - x2 + (x3 + 2) * x4 + 1
    ) ** 2


def e2_linear_coefficient(s1, c1, s2, c2, v, c):
    """Reference coefficient of u = sqrt(C1) in the kernel's E2 on the torus
    at (1, c), typed out in angles (the constant order vanishes)."""
    return v * (
        c1 * ((c + 1.0) * c2 + (1.0 - c) * s2)
        - 2.0 * s1 * ((c + 1.0) * c2 - c * s2)
    )


def reference_slow_coefficient(phi, psi, level, params):
    """slow_coefficient from the typed E2 form: the desingularized psi-rate
    is -u sin(phi) E2, so its C1-coefficient is -b sin(phi) times that of u
    in E2 at (1, c/b)."""
    s1, c1 = np.sin(phi), np.cos(phi)
    s2, c2 = math.sin(psi), math.cos(psi)
    e2 = e2_linear_coefficient(s1, c1, s2, c2, math.sqrt(level.c2), params.c / params.b)
    return -params.b * s1 * e2


def random_admissible_point(rng, level, margin=0.02):
    rect = admissible_rectangle(level)
    lo1, hi1 = rect.phi_interval
    lo2, hi2 = rect.psi_interval
    phi = rng.uniform(lo1 + margin * (hi1 - lo1), hi1 - margin * (hi1 - lo1))
    psi = rng.uniform(lo2 + margin * (hi2 - lo2), hi2 - margin * (hi2 - lo2))
    return TorusPoint(phi, psi, level)


def reference_rates(phi, psi, level, params):
    """Angle rates through to_cube and field_closed_form on numpy arrays."""
    pt = TorusPoint(phi, psi, level)
    if abs(toric_denominator(pt.phi, pt.psi, level)) < 1e-14:
        raise FieldSingularError("toric denominator vanishes")
    xdot = field_closed_form(to_cube(pt), params)
    return np.array(
        [
            (math.cos(pt.phi) * xdot[0] - math.sin(pt.phi) * xdot[2])
            / math.sqrt(level.c1),
            (math.cos(pt.psi) * xdot[1] - math.sin(pt.psi) * xdot[3])
            / math.sqrt(level.c2),
        ]
    )


def reference_trajectory(pt, params, t_final, dt):
    """Fixed-step RK4 on the angle array with reference_rates."""
    y = np.array([pt.phi, pt.psi])
    path = [y]

    def rates(angles):
        return reference_rates(angles[0], angles[1], pt.level, params)

    for _ in range(int(round(t_final / dt))):
        try:
            k1 = rates(y)
            k2 = rates(y + 0.5 * dt * k1)
            k3 = rates(y + 0.5 * dt * k2)
            k4 = rates(y + dt * k3)
        except FieldSingularError:
            return np.asarray(path), "singular"
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(y)
    return np.asarray(path), "completed"


def tuple_rk4_trajectory(pt, params, t_final, dt):
    """The generic tuple RK4 over _angle_rates, driven by _march.

    Each stage rebuilds the state with a tuple generator, as torus_trajectory
    stepped before its stages were written out on the two angles.
    """
    u, v = math.sqrt(pt.level.c1), math.sqrt(pt.level.c2)

    def rates(y):
        return _angle_rates(_wrap(y[0]), _wrap(y[1]), u, v, params.b, params.c, _field_scalar)

    def step(y, dt):
        k1 = rates(y)
        half = 0.5 * dt
        k2 = rates(tuple(w + half * k for w, k in zip(y, k1)))
        k3 = rates(tuple(w + half * k for w, k in zip(y, k2)))
        k4 = rates(tuple(w + dt * k for w, k in zip(y, k3)))
        sixth = dt / 6.0
        return tuple(
            w + sixth * (a + 2.0 * p + 2.0 * q + r)
            for w, a, p, q, r in zip(y, k1, k2, k3, k4)
        )

    n_steps = _step_count(t_final, dt)
    return _march(
        step, (pt.phi, pt.psi), n_steps, dt, FieldSingularError, lambda y: True
    )


def per_cell_segments(ticks, g):
    """Marching squares one cell at a time, walking each cell's four edges."""
    resolution = len(ticks) - 1
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


class TestLevelAndPoint:
    def test_level_bounds(self):
        TorusLevel(2.0, 1e-9)
        for c1, c2 in [(0.0, 0.5), (0.5, 0.0), (2.0001, 0.5), (0.5, -0.1)]:
            with pytest.raises(ValueError):
                TorusLevel(c1, c2)

    def test_level_rejects_non_finite_values(self):
        for c1, c2 in [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf)]:
            with pytest.raises(ValueError):
                TorusLevel(c1, c2)

    def test_angles_wrap_into_base_interval(self):
        pt = TorusPoint(-0.5, TWO_PI + 0.25, TorusLevel(1.0, 1.0))
        assert pt.phi == pytest.approx(TWO_PI - 0.5, abs=1e-15)
        assert pt.psi == pytest.approx(0.25, abs=1e-15)


class TestCoordinates:
    def test_diagonal_point_on_unit_levels(self):
        pt = TorusPoint(1.75 * math.pi, 1.75 * math.pi, TorusLevel(1.0, 1.0))
        x = to_cube(pt)
        half = math.sqrt(2.0) / 2.0
        expect = np.array([1 - half, 1 - half, half, half])
        np.testing.assert_allclose(x, expect, atol=1e-15)

    def test_cube_image_recovers_levels(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            level = TorusLevel(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
            pt = TorusPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), level)
            pair = invariants(to_cube(pt))
            assert abs(pair.f1 - level.c1) < 1e-14
            assert abs(pair.f2 - level.c2) < 1e-14

    def test_round_trip_from_cube(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(0.01, 0.99, size=4)
            back = to_cube(to_torus(x))
            assert np.max(np.abs(back - x)) < 1e-12

    def test_round_trip_from_torus(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            level = TorusLevel(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
            pt = TorusPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), level)
            again = to_torus(to_cube(pt))
            d_phi = abs(again.phi - pt.phi) % TWO_PI
            d_psi = abs(again.psi - pt.psi) % TWO_PI
            assert min(d_phi, TWO_PI - d_phi) < 1e-12
            assert min(d_psi, TWO_PI - d_psi) < 1e-12
            assert abs(again.level.c1 - level.c1) < 1e-12
            assert abs(again.level.c2 - level.c2) < 1e-12

    def test_single_state_levels_keep_the_bits_of_the_array_formula(self):
        # On one state the array formula calls pow on the numpy scalar
        # x1 - 1 but squares the 0-d array x3 (v * v); the two round
        # differently on some inputs, which lead the 200 states when the
        # platform's pow shows any.
        rng = np.random.default_rng(8)
        pool = rng.uniform(0.01, 0.99, size=(20000, 4))
        split = [
            any(math.pow(v, 2) != v * v for v in (x[0] - 1.0, x[1] - 1.0, x[2], x[3]))
            for x in pool
        ]
        states = np.vstack([pool[split], pool[np.logical_not(split)]])[:200]
        for x in states:
            c1 = (x[..., 0] - 1.0) ** 2 + x[..., 2] ** 2
            c2 = (x[..., 1] - 1.0) ** 2 + x[..., 3] ** 2
            want = TorusPoint(
                math.atan2(x[0] - 1.0, x[2]),
                math.atan2(x[1] - 1.0, x[3]),
                TorusLevel(c1, c2),
            )
            got = to_torus(x)
            for a, b in [
                (got.phi, want.phi),
                (got.psi, want.psi),
                (got.level.c1, want.level.c1),
                (got.level.c2, want.level.c2),
            ]:
                assert float(a).hex() == float(b).hex()

    def test_degenerate_point_rejected(self):
        with pytest.raises(DegenerateTorusError):
            to_torus([1.0, 0.5, 0.0, 0.5])
        with pytest.raises(DegenerateTorusError):
            to_torus([0.5, 1.0, 0.5, 0.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            to_torus([0.5, 0.5, 0.5])


class TestAdmissibleRectangle:
    def test_small_levels_give_last_quarter(self):
        rect = admissible_rectangle(TorusLevel(0.5, 1.0))
        assert rect.phi_interval == (1.5 * math.pi, TWO_PI)
        assert rect.psi_interval == (1.5 * math.pi, TWO_PI)

    def test_large_level_interval(self):
        rect = admissible_rectangle(TorusLevel(1.5, 0.5))
        lo, hi = rect.phi_interval
        assert lo == pytest.approx(TWO_PI - math.asin(1 / math.sqrt(1.5)), abs=1e-15)
        assert hi == pytest.approx(TWO_PI - math.acos(1 / math.sqrt(1.5)), abs=1e-15)
        assert lo < hi
        assert rect.psi_interval == (1.5 * math.pi, TWO_PI)

    def test_interval_continuous_at_unit_level(self):
        rect = admissible_rectangle(TorusLevel(1.0 + 1e-6, 1.0))
        lo, hi = rect.phi_interval
        # arccos(1/sqrt(C)) ~ sqrt(C-1) near C=1, so 1e-6 moves the
        # endpoints by about 1e-3.
        assert abs(lo - 1.5 * math.pi) < 5e-3
        assert abs(hi - TWO_PI) < 5e-3

    def test_interval_collapses_at_top_level(self):
        rect = admissible_rectangle(TorusLevel(2.0, 2.0))
        lo, hi = rect.phi_interval
        assert lo == pytest.approx(1.75 * math.pi, abs=1e-12)
        assert hi == pytest.approx(1.75 * math.pi, abs=1e-12)

    def test_interior_points_map_into_rectangle(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            x = rng.uniform(1e-3, 1.0 - 1e-3, size=4)
            pt = to_torus(x)
            rect = admissible_rectangle(pt.level)
            assert rect.contains(pt.phi, pt.psi)
            # phi + pi maps x1 to 2 - x1 > 1, outside the cube.
            flipped = TorusPoint(pt.phi + math.pi, pt.psi, pt.level)
            assert not rect.contains(flipped.phi, flipped.psi)

    def test_rectangle_points_map_into_cube(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            level = TorusLevel(rng.uniform(0.05, 1.95), rng.uniform(0.05, 1.95))
            pt = random_admissible_point(rng, level, margin=0.0)
            x = to_cube(pt)
            assert np.all(x > -1e-9) and np.all(x < 1.0 + 1e-9)


class TestToricDenominator:
    def test_matches_scaled_cube_denominator(self):
        # G = 4 A / (C1 C2) with C1, C2 <= 2, so |A| <= |G|: the cube-side
        # guard of _angle_rates fires wherever |G| falls below its threshold.
        rng = np.random.default_rng(8)
        edges = (1e-6, 1e-3, 2.0)
        levels = [TorusLevel(c1, c2) for c1 in edges for c2 in edges]
        levels += [
            TorusLevel(*10.0 ** rng.uniform(-6.0, math.log10(2.0), 2))
            for _ in range(200)
        ]
        for level in levels:
            for _ in range(20):
                phi, psi = rng.uniform(0, TWO_PI, 2)
                g = toric_denominator(phi, psi, level)
                a = cube_denominator(to_cube(TorusPoint(phi, psi, level)), 1.0, 0.3)
                expect = 4.0 * a / (level.c1 * level.c2)
                assert abs(g - expect) < 1e-10 * max(1.0, abs(expect))
                assert abs(a) <= abs(g) * (1.0 + 1e-9)

    def test_accepts_arrays(self):
        level = TorusLevel(0.5, 0.5)
        phi = np.linspace(0, TWO_PI, 7)
        psi = np.linspace(0, TWO_PI, 7)
        g = toric_denominator(phi, psi, level)
        assert g.shape == (7,)
        for k in range(7):
            assert g[k] == pytest.approx(
                toric_denominator(float(phi[k]), float(psi[k]), level), abs=1e-14
            )


class TestTorusField:
    def test_zero_at_plane_equilibrium_image(self):
        params = PayoffParams(1.0, 0.3)
        x = interior_plane_point(0.8, 0.4, params)
        pt = to_torus(x)
        f = torus_field(pt, params)
        assert max(abs(f[0]), abs(f[1])) < 1e-8

    def test_matches_angle_derivative_of_cube_flow(self):
        # Finite-difference the angle path of a short cube integration.
        params = PayoffParams(1.0, 0.31)
        level = TorusLevel(*PANEL_A[1:])
        rng = np.random.default_rng(9)
        dt = 1e-4
        for _ in range(10):
            pt = random_admissible_point(rng, level, margin=0.1)
            traj = integrate(to_cube(pt), params, t_final=2 * dt, dt=dt, method="rk4")
            ahead = to_torus(traj.states[2])
            behind = to_torus(traj.states[0])
            rate_phi = (ahead.phi - behind.phi) / (2 * dt)
            rate_psi = (ahead.psi - behind.psi) / (2 * dt)
            f = torus_field(to_torus(traj.states[1]), params)
            assert abs(f[0] - rate_phi) < 1e-5 * max(1.0, abs(rate_phi))
            assert abs(f[1] - rate_psi) < 1e-5 * max(1.0, abs(rate_psi))

    def test_denominator_zero_raises(self):
        # phi = 0 and psi = pi/2 annihilate the squared factor of G.
        level = TorusLevel(0.5, 0.5)
        assert abs(toric_denominator(0.0, math.pi / 2, level)) < 1e-14
        with pytest.raises(FieldSingularError):
            torus_field(TorusPoint(0.0, math.pi / 2, level), PayoffParams(1.0, 0.3))


class TestDesingularizedField:
    def test_equals_cube_denominator_times_field(self):
        rng = np.random.default_rng(10)
        for b, c in ((1.0, 0.1), (1.0, 0.4), (1.0, 0.8), *SCALED):
            params = PayoffParams(b, c)
            for _ in range(50):
                level = TorusLevel(rng.uniform(0.05, 1.95), rng.uniform(0.05, 1.95))
                pt = random_admissible_point(rng, level)
                f = np.array(torus_field(pt, params))
                d = np.array(desingularized_field(pt, params))
                a = cube_denominator(to_cube(pt), params.b, params.c)
                np.testing.assert_allclose(d, a * f, rtol=1e-9, atol=1e-12)

    def test_zero_at_torus_equilibrium(self):
        c, c1, c2 = PANEL_A
        params = PayoffParams(1.0, c)
        for pt in torus_equilibria(TorusLevel(c1, c2), params):
            d = desingularized_field(pt, params)
            assert max(abs(d[0]), abs(d[1])) < 1e-12

    def test_degenerate_level_freezes_slow_angle(self):
        # Every psi-term carries sqrt(C1): on an almost degenerate torus
        # the psi-rate from the kernel is C1 times the closed-form
        # slow_coefficient, up to a relative O(sqrt(C1)) remainder. At
        # these angles the remainder measured at most 1.97 sqrt(C1).
        params = PayoffParams(1.0, 0.3)
        for tiny in (1e-6, 1e-10, 1e-14):
            level = TorusLevel(tiny, 0.5)
            for phi, psi in [(5.0, 5.3), (4.9, 5.8), (0.3, 2.0)]:
                d = desingularized_field(TorusPoint(phi, psi, level), params)
                slow = float(slow_coefficient(phi, psi, level, params))
                assert abs(d[1] / tiny - slow) <= 2.5 * math.sqrt(tiny) * abs(slow)


class TestSlowAveraging:
    def test_slow_coefficient_matches_the_typed_e2_form(self):
        # The coefficient is read from the kernel by a complex step; the
        # typed E2 form is the independent reference. The bound, fixed
        # before this test was written, is 1e-14 b sqrt(C2); these draws
        # measured at most 2.6e-15 b sqrt(C2).
        rng = np.random.default_rng(19)
        for _ in range(5000):
            b = math.exp(rng.uniform(-3.0, 3.0))
            params = PayoffParams(b, rng.uniform(0.02, 0.98) * b)
            level = TorusLevel(*rng.uniform(0.05, 1.95, 2))
            phi, psi = rng.uniform(0.0, TWO_PI, 2)
            got = slow_coefficient(phi, psi, level, params)
            want = reference_slow_coefficient(phi, psi, level, params)
            assert abs(got - want) <= 1e-14 * b * math.sqrt(level.c2)
        # Arrays of phi, and benefits at the ends of the float range, where
        # the coefficient stays finite and nonzero.
        grid = np.linspace(0.0, TWO_PI, 64, endpoint=False) + 0.01
        level = TorusLevel(0.5, 0.7)
        for b in (1.0, 1e-300, 1e300):
            params = PayoffParams(b, 0.3 * b)
            got = slow_coefficient(grid, 5.0, level, params)
            assert np.all(np.isfinite(got)) and np.all(got != 0.0)
            want = reference_slow_coefficient(grid, 5.0, level, params)
            assert np.max(np.abs(got - want)) <= 1e-14 * b * math.sqrt(level.c2)

    def test_frozen_average_value(self):
        params = PayoffParams(1.0, 0.3)
        level = TorusLevel(1.0, 0.5)
        value = averaged_slow_field(0.0, level, params)
        assert value == pytest.approx(5.775747819605877, abs=1e-8)

    def test_matches_closed_formula(self):
        # 2 pi b sqrt(C2) ((r+1) cos(psi) - r sin(psi)) with r = c/b.
        rng = np.random.default_rng(11)
        for b in (1.0, 2.7):
            for _ in range(50):
                c = rng.uniform(0.05, 0.95) * b
                c2 = rng.uniform(0.05, 1.95)
                psi = rng.uniform(0, TWO_PI)
                params = PayoffParams(b, c)
                level = TorusLevel(1.0, c2)
                r = c / b
                expect = (
                    TWO_PI
                    * b
                    * math.sqrt(c2)
                    * ((r + 1.0) * math.cos(psi) - r * math.sin(psi))
                )
                assert averaged_slow_field(psi, level, params) == pytest.approx(
                    expect, abs=1e-8
                )

    def test_zero_at_formula_root(self):
        params = PayoffParams(1.0, 0.3)
        level = TorusLevel(1.0, 0.5)
        root = math.atan2(1.0 + params.c, params.c)
        assert abs(averaged_slow_field(root, level, params)) < 1e-10

    def test_average_ignores_fast_level(self):
        params = PayoffParams(1.0, 0.3)
        a = averaged_slow_field(0.7, TorusLevel(0.1, 0.8), params)
        b = averaged_slow_field(0.7, TorusLevel(1.9, 0.8), params)
        assert a == pytest.approx(b, abs=1e-14)


def _gap(a, b):
    """Distance between two angles mod 2 pi."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _two_branch_equilibria(level, params):
    """Reference enumeration with the interior plane stated in angles: each
    psi root gives the two arcsine branches of
    sin(phi - pi/4) = sqrt(C2/C1) sin(psi - pi/4), and a branch is kept
    where the reduced field reads below 1e-8 b."""
    rect = admissible_rectangle(level)
    found = []
    for psi in _psi_candidates(level, params.c / params.b):
        ratio = math.sqrt(level.c2 / level.c1) * math.sin(psi - math.pi / 4.0)
        if abs(ratio) > 1.0:
            continue
        asin_r = math.asin(ratio)
        for phi in (_wrap(math.pi / 4.0 + asin_r), _wrap(math.pi / 4.0 + math.pi - asin_r)):
            if not rect.contains(phi, psi):
                continue
            pt = TorusPoint(phi, psi, level)
            try:
                rates = torus_field(pt, params)
            except FieldSingularError:
                continue
            if max(map(abs, rates)) >= 1e-8 * params.b:
                continue
            if not any(_gap(pt.phi, q.phi) < 1e-7 and _gap(pt.psi, q.psi) < 1e-7 for q in found):
                found.append(pt)
    return found


class TestTorusEquilibria:
    def test_count_bounded_by_four(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            params = PayoffParams(1.0, rng.uniform(0.05, 0.95))
            level = TorusLevel(rng.uniform(0.05, 1.95), rng.uniform(0.05, 1.95))
            assert len(torus_equilibria(level, params)) <= 4

    def test_solutions_annihilate_cube_field_and_lie_on_plane(self):
        from altpd.dynamics import field_closed_form

        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(200):
            c = rng.uniform(0.05, 0.95)
            params = PayoffParams(1.0, c)
            level = TorusLevel(rng.uniform(0.05, 1.95), rng.uniform(0.05, 1.95))
            rect = admissible_rectangle(level)
            for pt in torus_equilibria(level, params):
                assert rect.contains(pt.phi, pt.psi)
                x = to_cube(pt)
                assert np.max(np.abs(field_closed_form(x, params))) < 1e-10
                p1, p2, p3, p4 = x
                assert abs(p1 - ((1 - c) * p2 + c * (p4 + 1))) < 1e-9
                assert abs(p3 - (c * (1 - p2) + p4 * (1 + c))) < 1e-9
                seen += 1
        # Random levels carry an equilibrium only a fraction of the time.
        assert seen >= 20

    def test_first_figure_level(self):
        c, c1, c2 = PANEL_A
        eqs = torus_equilibria(TorusLevel(c1, c2), PayoffParams(1.0, c))
        assert len(eqs) == 1
        assert eqs[0].phi == pytest.approx(5.8950178833771574, abs=1e-9)
        assert eqs[0].psi == pytest.approx(5.2999423462203081, abs=1e-9)
        np.testing.assert_allclose(
            to_cube(eqs[0]),
            [0.77448688081432893, 0.5336151794739834,
             0.55149236900899112, 0.3106206676686456],
            atol=1e-9,
        )

    def test_second_figure_level(self):
        c, c1, c2 = PANEL_B
        eqs = torus_equilibria(TorusLevel(c1, c2), PayoffParams(1.0, c))
        assert len(eqs) == 1
        assert eqs[0].phi == pytest.approx(5.8816371632990752, abs=1e-9)
        assert eqs[0].psi == pytest.approx(5.1206333769848484, abs=1e-9)
        np.testing.assert_allclose(
            to_cube(eqs[0]),
            [0.57828333240679652, 0.012331000651491841,
             0.99316416179505984, 0.42721183003975494],
            atol=1e-9,
        )

    def test_empty_level_has_no_grid_zero(self):
        # No candidate survives here; a sign-change scan of the
        # desingularized field over the rectangle confirms nothing was
        # missed (inside the open rectangle the desingularized field
        # vanishes exactly where the reduced field does).
        params = PayoffParams(1.0, 0.3)
        level = TorusLevel(1.9, 0.2)
        assert torus_equilibria(level, params) == []
        rect = admissible_rectangle(level)
        n = 60
        phis = np.linspace(*rect.phi_interval, n)
        psis = np.linspace(*rect.psi_interval, n)
        f1 = np.empty((n, n))
        f2 = np.empty((n, n))
        for i, ph in enumerate(phis):
            for j, ps in enumerate(psis):
                f1[i, j], f2[i, j] = desingularized_field(
                    TorusPoint(ph, ps, level), params
                )
        for i in range(n - 1):
            for j in range(n - 1):
                cell1 = f1[i : i + 2, j : j + 2]
                cell2 = f2[i : i + 2, j : j + 2]
                both_change = (
                    cell1.min() < 0 < cell1.max()
                    and cell2.min() < 0 < cell2.max()
                )
                assert not both_change

    def test_depend_on_the_cost_ratio_alone(self):
        # The plane is read at the cost ratio, so the equilibria at (b, c)
        # are those at (1, c/b), angle for angle, from b = 1e-300 to 1e300.
        def angles(level, params):
            return [(pt.phi, pt.psi) for pt in torus_equilibria(level, params)]

        benefits = (2.0, 3.7, 0.5, 1e8, 1e-300, 1e300)
        figures = [
            (PayoffParams(b, ratio * b), TorusLevel(c1, c2))
            for ratio, c1, c2 in (PANEL_A, PANEL_B)
            for b in benefits
        ]
        rng = np.random.default_rng(14)
        drawn = [
            (PayoffParams(b, c), TorusLevel(*rng.uniform(0.05, 1.95, 2)))
            for b, c in SCALED
            for _ in range(50)
        ]
        seen = 0
        for params, level in figures + drawn:
            found = angles(level, params)
            assert found == angles(level, PayoffParams(1.0, params.c / params.b))
            seen += len(found)
        assert [len(angles(level, params)) for params, level in figures] == [1] * len(figures)
        assert seen > len(figures)

    def test_one_equilibrium_per_torus(self):
        # On the arc of the circle (x2 - 1, x4) = sqrt(C2) (sin psi, cos psi)
        # inside the cube, the plane point's C1 rises strictly with psi, so
        # at most one psi root of a level lies in the rectangle (README,
        # "One equilibrium per torus"). torus_equilibria keeps every root
        # that does, so a counterexample would show as two entries. The
        # double roots of the psi-tangent levels lie at
        # psi* = 2pi - atan(c/b) / 2, where the plane point has x1 > 1, or
        # at psi* - pi/2 < 3pi/2, so those levels have no equilibrium.
        rng = np.random.default_rng(41)
        n = 50_000
        benefits = np.resize([1.0, 2.0, 1e-6, 1e8], n)
        drawn = zip(
            benefits.tolist(),
            (rng.uniform(0.001, 0.999, n) * benefits).tolist(),
            rng.uniform(1e-6, 2.0, n).tolist(),
            rng.uniform(1e-6, 2.0, n).tolist(),
        )
        levels = [(PayoffParams(b, c), TorusLevel(c1, c2)) for b, c, c1, c2 in drawn]
        # |s| = 1 at C1 = C2 (1 + 2c^2 -+ 2c sqrt(1 + c^2)).
        psi_tangent = []
        while len(psi_tangent) < 1000:
            ratio, c2 = rng.uniform(0.001, 0.999), rng.uniform(1e-6, 2.0)
            sign = (1.0, -1.0)[len(psi_tangent) % 2]
            c1 = c2 * (1.0 + 2.0 * ratio * ratio - sign * 2.0 * ratio * math.sqrt(1.0 + ratio * ratio))
            if c1 <= 2.0:
                psi_tangent.append((PayoffParams(1.0, ratio), TorusLevel(c1, c2)))
        phi_tangent = [
            (PayoffParams(1.0, ratio), TorusLevel(c2 / (1.0 + 4.0 * ratio * ratio), c2))
            for ratio, c2 in zip(rng.uniform(0.001, 0.5, 1000), rng.uniform(1e-6, 2.0, 1000))
        ]
        counts = {"drawn": 0, "psi_tangent_roots": 0, "phi_tangent": 0}
        for k, (params, level) in enumerate(levels + psi_tangent + phi_tangent):
            found = len(torus_equilibria(level, params))
            assert found <= 1, (params, level)
            unit = PayoffParams(1.0, params.c / params.b)
            if k < n:
                counts["drawn"] += found
            elif k < n + len(psi_tangent):
                assert found == 0, (params, level)
                counts["psi_tangent_roots"] += bool(_psi_candidates(level, unit.c))
            else:
                counts["phi_tangent"] += found
            psi_star = TWO_PI - 0.5 * math.atan(unit.c)
            r2 = math.sqrt(level.c2)
            x = interior_plane_point(1.0 + r2 * math.sin(psi_star), r2 * math.cos(psi_star), unit)
            assert x[0] > 1.0, (params, level)
        # Measured: 4,979 equilibria, 682 psi-tangent levels with roots
        # (rounding puts |s| past 1 on the others) and 615 phi-tangent
        # equilibria (the others lie outside the rectangle).
        assert counts["drawn"] > 4000 and counts["phi_tangent"] > 500
        assert counts["psi_tangent_roots"] > 500

    def test_each_root_is_enumerated_once(self):
        # sin(2 psi - alpha) = s has four roots mod 2 pi, each generated
        # once, and each psi root gives one phi, so a level has at most
        # four candidates.
        rng = np.random.default_rng(15)
        sizes = set()
        for _ in range(2000):
            c = rng.uniform(0.001, 0.999)
            level = TorusLevel(*rng.uniform(1e-6, 2.0, 2))
            hyp = math.sqrt(1.0 + c * c)
            s = (level.c2 * (1.0 + 2.0 * c * c) - level.c1) / (2.0 * c * hyp * level.c2)
            alpha = math.acos(c / hyp)
            psis = _psi_candidates(level, c)
            sizes.add(len(psis))
            assert len(psis) in (0, 4)
            for psi in psis:
                assert abs(math.sin(2.0 * psi - alpha) - s) <= 1e-12
            if psis and abs(s) < 0.999:
                assert min(_gap(a, b) for i, a in enumerate(psis) for b in psis[:i]) > 1e-3
        assert sizes == {0, 4}

    def test_find_every_phi_tangent_equilibrium(self):
        # On C1 = C2 / (1 + 4c^2) the psi root 5pi/4 + atan(1/2c) has its
        # equilibrium at phi = 7pi/4, where sin(phi - pi/4) = -1 and the two
        # arcsine branches of _two_branch_equilibria meet: on these 1,257
        # levels that enumeration loses the point on 476 and places it up to
        # 3.0e-8 rad off on the others, 331 of them beyond 1e-12.
        rng = np.random.default_rng(17)
        seen = 0
        for ratio, c2 in zip(rng.uniform(0.001, 0.499, 2000), rng.uniform(1e-6, 2.0, 2000)):
            params = PayoffParams(1.0, ratio)
            level = TorusLevel(c2 / (1.0 + 4.0 * ratio * ratio), c2)
            phi, psi = 1.75 * math.pi, 1.25 * math.pi + math.atan(0.5 / ratio)
            if not admissible_rectangle(level).contains(phi, psi):
                continue
            seen += 1
            near = [
                pt
                for pt in torus_equilibria(level, params)
                if _gap(pt.phi, phi) < 1e-12 and _gap(pt.psi, psi) < 1e-12
            ]
            assert len(near) == 1, (ratio, c2)
            assert np.max(np.abs(field_closed_form(to_cube(near[0]), params))) < 1e-10
        assert seen > 1000

    def test_match_the_two_branch_enumeration(self):
        # Wherever _two_branch_equilibria finds a point, the plane finds it
        # at the same psi bits, with phi within 1e-13 (3.0e-14 measured);
        # on the phi-tangent levels the arcsine is ill-conditioned and its
        # branches are off by up to 3.3e-8. Each point only the plane finds
        # lies on the plane and on its level.
        rng = np.random.default_rng(16)
        regimes = (
            lambda: rng.uniform(1e-6, 2.0),
            lambda: rng.uniform(1e-9, 1e-3),
            lambda: 2.0 - rng.uniform(0.0, 1e-3),
        )
        drawn = []
        for i in range(6000):
            b = (1.0, 2.0, 1e-6, 1e8)[i % 4]
            c1, c2 = (regimes[rng.integers(3)]() for _ in range(2))
            params = PayoffParams(b, rng.uniform(0.001, 0.999) * b)
            drawn.append((params, TorusLevel(c1, c2)))
        # s = sign (|s| = 1) at C1 = C2 (1 + 2c^2 - sign 2c sqrt(1 + c^2)).
        psi_tangent = []
        while len(psi_tangent) < 1000:
            ratio, c2 = rng.uniform(0.001, 0.999), rng.uniform(1e-6, 2.0)
            sign = (1.0, -1.0)[len(psi_tangent) % 2]
            c1 = c2 * (1.0 + 2.0 * ratio * ratio - sign * 2.0 * ratio * math.sqrt(1.0 + ratio * ratio))
            if c1 <= 2.0:
                psi_tangent.append((PayoffParams(1.0, ratio), TorusLevel(c1, c2)))
        phi_tangent = [
            (PayoffParams(1.0, ratio), TorusLevel(c2 / (1.0 + 4.0 * ratio * ratio), c2))
            for ratio, c2 in zip(rng.uniform(0.001, 0.5, 1000), rng.uniform(1e-6, 2.0, 1000))
        ]
        counts = {"branch": 0, "plane": 0}
        for k, (params, level) in enumerate(drawn + psi_tangent + phi_tangent):
            bound = 1e-13 if k < len(drawn) + len(psi_tangent) else 1e-7
            plane = {pt.psi: pt for pt in torus_equilibria(level, params)}
            branch = _two_branch_equilibria(level, params)
            for pt in branch:
                assert _gap(plane.pop(pt.psi).phi, pt.phi) < bound
            unit = PayoffParams(1.0, params.c / params.b)
            for pt in plane.values():
                x = to_cube(pt)
                assert np.max(np.abs(x - interior_plane_point(x[1], x[3], unit))) < 1e-14
                drift = invariants(x)
                assert abs(drift.f1 - level.c1) < 1e-14 and abs(drift.f2 - level.c2) < 1e-14
            counts["branch"] += len(branch)
            counts["plane"] += len(branch) + len(plane)
        assert counts["branch"] > 600 and counts["plane"] > counts["branch"] + 200


class TestTrajectory:
    def test_commutes_with_cube_integration(self):
        # Same fixed step on both sides; compare at shared sample times
        # up to the earlier stop (the cube integrator halts at faces).
        rng = np.random.default_rng(14)
        c, c1, c2 = PANEL_A
        params = PayoffParams(1.0, c)
        level = TorusLevel(c1, c2)
        for _ in range(5):
            pt = random_admissible_point(rng, level, margin=0.05)
            times, path, status = torus_trajectory(pt, params, 5.0, dt=1e-3)
            traj = integrate(to_cube(pt), params, t_final=5.0, dt=1e-3, method="rk4")
            n = min(len(times), len(traj.times))
            assert n > 10
            np.testing.assert_allclose(times[:n], traj.times[:n], atol=1e-12)
            mapped = np.stack(
                [to_cube(TorusPoint(a, b, level)) for a, b in path[:n]]
            )
            assert np.max(np.abs(mapped - traj.states[:n])) < 1e-6

    def test_angles_recorded_unwrapped(self):
        c, c1, c2 = PANEL_A
        params = PayoffParams(1.0, c)
        pt = TorusPoint(5.6, 5.2, TorusLevel(c1, c2))
        _, path, _ = torus_trajectory(pt, params, 2.0, dt=1e-3)
        steps = np.abs(np.diff(path, axis=0))
        assert steps.max() < 1.0

    def test_singular_start_reports_status(self):
        times, path, status = torus_trajectory(
            TorusPoint(0.0, math.pi / 2, TorusLevel(0.5, 0.5)),
            PayoffParams(1.0, 0.3),
            1.0,
        )
        assert status == "singular"
        assert path.shape == (1, 2)
        assert times.shape == (1,)


    def test_reproduces_the_numpy_route_bit_for_bit(self):
        rng = np.random.default_rng(22)
        # The first start sits on the G = 0 curve; a third of the rest
        # start anywhere on the torus, the others inside the rectangle.
        singular = TorusPoint(0.0, math.pi / 2, TorusLevel(0.5, 0.5))
        starts = [(PayoffParams(1.0, 0.3), singular)]
        for k in range(23):
            params = PayoffParams(1.0, rng.uniform(0.1, 0.9))
            level = TorusLevel(rng.uniform(0.05, 1.95), rng.uniform(0.05, 1.95))
            if k % 3:
                pt = random_admissible_point(rng, level)
            else:
                pt = TorusPoint(*rng.uniform(0.0, TWO_PI, 2), level)
            starts.append((params, pt))
        statuses = []
        for params, pt in starts:
            times, path, status = torus_trajectory(pt, params, 1.0, dt=1e-2)
            want, want_status = reference_trajectory(pt, params, 1.0, 1e-2)
            assert status == want_status
            assert np.array_equal(path, want)
            assert np.array_equal(times, np.arange(len(want)) * 1e-2)
            statuses.append(status)
        assert statuses.count("singular") >= 1 and statuses.count("completed") >= 20

    def test_written_out_step_matches_the_tuple_route_bit_for_bit(self):
        rng = np.random.default_rng(31)
        # The first start sits on the G = 0 curve and halts "singular".
        singular = TorusPoint(0.0, math.pi / 2, TorusLevel(0.5, 0.5))
        starts = [(PayoffParams(1.0, 0.3), singular)]
        for k in range(40):
            params = PayoffParams(1.0, rng.uniform(0.1, 0.9))
            level = TorusLevel(rng.uniform(0.05, 1.95), rng.uniform(0.05, 1.95))
            if k % 2:
                pt = random_admissible_point(rng, level)
            else:
                pt = TorusPoint(*rng.uniform(0.0, TWO_PI, 2), level)
            starts.append((params, pt))
        statuses = []
        for params, pt in starts:
            times, path, status = torus_trajectory(pt, params, 3.0)
            want_times, want_path, want_status = tuple_rk4_trajectory(
                pt, params, 3.0, 1e-3
            )
            assert status == want_status
            assert np.array_equal(times, want_times)
            assert np.array_equal(path, want_path)
            statuses.append(status)
        assert statuses[0] == "singular" and statuses.count("completed") >= 30

    @pytest.mark.parametrize(
        "t_final, dt",
        [(1.0, math.inf), (1.0, math.nan), (1.0, -1e-3), (1.0, 0.0),
         (math.inf, 1e-3), (math.nan, 1e-3), (-1.0, 1e-3), (1e300, 1e-10)],
    )
    def test_bad_step_sizes_rejected(self, t_final, dt):
        pt = TorusPoint(5.6, 5.2, TorusLevel(*PANEL_A[1:]))
        with pytest.raises(ValueError):
            torus_trajectory(pt, PayoffParams(1.0, PANEL_A[0]), t_final, dt=dt)


class TestGridExports:
    def test_field_grid_matches_pointwise_pushforward(self):
        # Bit for bit, NaN positions included, at two levels and two
        # resolutions, so a slip at a row edge or a wrong tick shows.
        params = PayoffParams(1.0, PANEL_B[0])
        refused = 0
        for level in (TorusLevel(*PANEL_B[1:]), TorusLevel(1.3, 1.1)):
            for resolution in (40, 97):
                phi, psi, f1, f2 = field_grid(level, params, resolution=resolution)
                ticks = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
                assert np.array_equal(phi, np.repeat(ticks, resolution))
                assert np.array_equal(psi, np.tile(ticks, resolution))
                want = np.empty((phi.size, 2))
                for k in range(phi.size):
                    try:
                        want[k] = reference_rates(phi[k], psi[k], level, params)
                    except FieldSingularError:
                        want[k] = math.nan
                refused += int(np.isnan(want[:, 0]).sum())
                assert np.array_equal(f1, want[:, 0], equal_nan=True)
                assert np.array_equal(f2, want[:, 1], equal_nan=True)
        assert refused > 0

    def test_field_grid_shapes_and_masking(self):
        c, c1, c2 = PANEL_B
        params = PayoffParams(1.0, c)
        phi, psi, f1, f2 = field_grid(TorusLevel(c1, c2), params, resolution=40)
        assert phi.shape == psi.shape == f1.shape == f2.shape == (1600,)
        assert np.all((phi >= 0) & (phi < TWO_PI))
        assert np.all((psi >= 0) & (psi < TWO_PI))
        bad = np.isnan(f1)
        np.testing.assert_array_equal(bad, np.isnan(f2))
        # Isolated samples near the denominator curves degrade to NaN;
        # the bulk of the grid stays finite.
        assert bad.mean() < 0.05

    def test_zero_segments_lie_on_contour(self):
        level = TorusLevel(*PANEL_A[1:])
        segs = denominator_zero_segments(level)
        assert segs.ndim == 2 and segs.shape[1] == 4 and len(segs) > 0
        assert segs.min() >= 0.0 and segs.max() <= TWO_PI + 1e-12
        ends = np.vstack([segs[:, :2], segs[:, 2:]])
        g = np.abs(toric_denominator(ends[:, 0], ends[:, 1], level))
        scale = np.max(
            np.abs(
                toric_denominator(
                    np.linspace(0, TWO_PI, 301)[:, None],
                    np.linspace(0, TWO_PI, 301)[None, :],
                    level,
                )
            )
        )
        assert g.max() < 5e-3 * scale

    def test_zero_contour_avoids_admissible_rectangle(self):
        for c, c1, c2 in (PANEL_A, PANEL_B):
            level = TorusLevel(c1, c2)
            rect = admissible_rectangle(level)
            (lo1, hi1), (lo2, hi2) = rect.phi_interval, rect.psi_interval
            # The admissible rectangle shrunk by 0.02 on every side.
            inner = AdmissibleRectangle((lo1 + 0.02, hi1 - 0.02), (lo2 + 0.02, hi2 - 0.02))
            for x1, y1, x2, y2 in denominator_zero_segments(level):
                assert not inner.contains(x1, y1)
                assert not inner.contains(x2, y2)

    def test_gathered_contour_matches_the_per_cell_walk(self, monkeypatch):
        rng = np.random.default_rng(41)
        # Levels on both sides of 1 in each coordinate.
        levels = [
            TorusLevel(rng.uniform(lo1, hi1), rng.uniform(lo2, hi2))
            for lo1, hi1, lo2, hi2 in (
                (0.02, 1.0, 0.02, 1.0),
                (1.0, 2.0, 0.02, 1.0),
                (0.02, 1.0, 1.0, 2.0),
                (1.0, 2.0, 1.0, 2.0),
            )
            for _ in range(8)
        ]
        for resolution in (3, 17, 200):
            monkeypatch.setattr("altpd.torus._CONTOUR_CELLS", resolution)
            ticks = np.linspace(0.0, TWO_PI, resolution + 1)
            phi, psi = np.meshgrid(ticks, ticks, indexing="ij")
            for level in levels:
                got = denominator_zero_segments(level)
                want = per_cell_segments(ticks, toric_denominator(phi, psi, level))
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_cell_walk_takes_exact_zeros_at_corners(self):
        # Trigonometric grids sample G = 0 exactly only here and there; a
        # synthetic grid puts exact zeros (of either sign) on many corners
        # and along a whole grid line.
        rng = np.random.default_rng(43)
        zeros = 0
        for _ in range(60):
            n = int(rng.integers(1, 9))
            ticks = np.sort(rng.uniform(0.0, 7.0, n + 1))
            g = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.0, 0.5, 3.0], size=(n + 1, n + 1))
            g[int(rng.integers(n + 1)), :] = 0.0
            zeros += int(np.count_nonzero(g == 0.0))
            got = _march_cells(ticks, g)
            want = per_cell_segments(ticks, g)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert zeros > 0

    def test_contour_stays_small_in_memory(self):
        level = TorusLevel(*PANEL_A[1:])
        tracemalloc.start()
        try:
            denominator_zero_segments(level)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
