"""Memory-1 adaptive dynamics: field, flow, conservation, stability."""

import math

import numpy as np
import pytest

from altpd.dynamics import (
    _DRIFT_SCALAR_ROWS,
    _field_raw,
    _field_scalar,
    _interior,
    _rk4_step,
    classify_equilibrium,
    conservation_drift,
    equilibrium_families,
    field_closed_form,
    field_numeric,
    integrate,
    interior_plane_grid,
    interior_plane_point,
    invariants,
    jacobian,
    plane_eigenvalues,
    win_loss_exchange,
)
from altpd.errors import FieldSingularError, NotAnEquilibriumError
from altpd.strategy import PayoffParams

RNG = np.random.default_rng(0)
PARAMS = PayoffParams(b=1.0, c=0.3)

# Interior equilibrium-plane point for C=0.3, (p2, p4) = (0.5, 0.2).
PLANE_POINT = np.array([0.71, 0.5, 0.41, 0.2])
# Same family continued past the p1 = 1 face: a degenerate source.
EXTERIOR_POINT = np.array([1.02, 0.9, 0.42, 0.3])


def _reversal(v):
    return np.asarray(v)[..., ::-1]


# ---- the field ----


def test_plane_point_annihilates_both_routes():
    assert np.max(np.abs(field_closed_form(PLANE_POINT, PARAMS))) < 1e-12
    assert np.max(np.abs(field_numeric(PLANE_POINT, PARAMS))) < 1e-8


def test_closed_form_matches_numeric_gradient():
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        params = PayoffParams(b=1.0, c=c)
        for _ in range(20):
            x = RNG.uniform(0.05, 0.95, 4)
            g = field_closed_form(x, params)
            h = field_numeric(x, params)
            scale = max(np.max(np.abs(g)), 1e-12)
            assert np.max(np.abs(g - h)) / scale < 1e-5


def test_center_of_cube_example():
    x = np.full(4, 0.5)
    g = field_closed_form(x, PARAMS)
    h = field_numeric(x, PARAMS)
    assert np.max(np.abs(g - h)) / np.max(np.abs(g)) < 1e-5


def test_sleeping_follower_freezes_three_components():
    # Every component except the fourth carries a factor p4 (or p3 p4).
    x = np.array([0.3, 0.6, 0.25, 0.0])
    g = field_closed_form(x, PARAMS)
    assert g[0] == 0.0 and g[1] == 0.0 and g[2] == 0.0
    assert g[3] != 0.0


def test_field_broadcasts_over_batches():
    xs = RNG.uniform(0.1, 0.9, (7, 4))
    batch = field_closed_form(xs, PARAMS)
    assert batch.shape == (7, 4)
    for k in range(7):
        assert np.allclose(batch[k], field_closed_form(xs[k], PARAMS))


def test_denominator_vanishes_at_the_cooperation_corner():
    with pytest.raises(FieldSingularError):
        field_closed_form(np.array([1.0, 1.0, 0.0, 0.0]), PARAMS)


def test_numeric_field_requires_room_for_the_stencil():
    with pytest.raises(ValueError):
        field_numeric(np.array([0.5, 0.5, 0.5, 1e-8]), PARAMS)


# ---- symmetry of the field ----


def test_win_loss_exchange_is_an_involution():
    x = RNG.uniform(0.0, 1.0, 4)
    assert np.allclose(win_loss_exchange(win_loss_exchange(x)), x)
    assert np.allclose(win_loss_exchange([1.0, 1.0, 0.0, 0.0]), [1.0, 1.0, 0.0, 0.0])


def test_field_commutes_with_win_loss_exchange():
    # G(1 - reversal(x)) = reversal(G(x)): both orbits trace the same curve
    # with time reversed.
    for _ in range(50):
        x = RNG.uniform(0.05, 0.95, 4)
        lhs = field_closed_form(win_loss_exchange(x), PARAMS)
        rhs = _reversal(field_closed_form(x, PARAMS))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---- invariants ----


def test_invariant_values():
    rest = invariants(np.array([1.0, 1.0, 0.0, 0.0]))
    assert rest.f1 == 0.0 and rest.f2 == 0.0
    pair = invariants(np.array([0.5, 0.3, 0.8, 0.1]))
    assert pair.f1 == pytest.approx(0.89)
    assert pair.f2 == pytest.approx(0.50)
    corner = invariants(np.array([0.0, 0.0, 1.0, 1.0]))
    assert corner.f1 == 2.0 and corner.f2 == 2.0


def test_invariants_apply_along_axes():
    xs = RNG.uniform(0.0, 1.0, (5, 4))
    pair = invariants(xs)
    assert pair.f1.shape == (5,)
    assert np.all((pair.f1 >= 0) & (pair.f1 <= 2))


# ---- integration ----


def test_equilibrium_start_stays_put():
    trajectory = integrate(PLANE_POINT, PARAMS, 10.0)
    assert trajectory.status == "completed"
    assert np.max(np.abs(trajectory.states - PLANE_POINT)) < 1e-7


def test_conservation_along_trajectories():
    starts = RNG.uniform(0.2, 0.8, (5, 4))
    d1, d2 = conservation_drift(starts, PARAMS, 10.0)
    assert d1.max() < 1e-9 and d2.max() < 1e-9


def _batch_drift(x0_batch, t_final, dt=1e-3):
    """Reference: every row stepped as one numpy batch until it exits.

    Also returns, per row, how many rows were live on the step that froze
    it (0 for rows that never froze).
    """
    x = np.array(x0_batch, dtype=float)

    def rates(y):
        return _field_raw(y, PARAMS.b, PARAMS.c)[1]

    f1_0 = (x[:, 0] - 1.0) ** 2 + x[:, 2] ** 2
    f2_0 = (x[:, 1] - 1.0) ** 2 + x[:, 3] ** 2
    drift1 = np.zeros(x.shape[0])
    drift2 = np.zeros(x.shape[0])
    frozen_among = np.zeros(x.shape[0], dtype=int)
    active = np.ones(x.shape[0], dtype=bool)
    for _ in range(int(round(t_final / dt))):
        if not active.any():
            break
        stepped = _rk4_step(rates, x[active], dt)
        inside = np.all((stepped >= 1e-9) & (stepped <= 1.0 - 1e-9), axis=1)
        idx = np.flatnonzero(active)
        frozen_among[idx[~inside]] = idx.size
        x[idx[inside]] = stepped[inside]
        active[idx[~inside]] = False
        live = idx[inside]
        f1 = (x[live, 0] - 1.0) ** 2 + x[live, 2] ** 2
        f2 = (x[live, 1] - 1.0) ** 2 + x[live, 3] ** 2
        drift1[live] = np.maximum(drift1[live], np.abs(f1 - f1_0[live]))
        drift2[live] = np.maximum(drift2[live], np.abs(f2 - f2_0[live]))
    return drift1, drift2, frozen_among


@pytest.mark.parametrize(
    "seed, rows, t_final, low, high, route",
    [
        (7, 64, 0.5, 0.1, 0.9, "batch"),
        (9, 10, 20.0, 0.1, 0.9, "scalar"),
        (10, 24, 2.0, 0.05, 0.95, "both"),
    ],
)
def test_drift_matches_the_batch_loop_bit_for_bit(
    seed, rows, t_final, low, high, route, monkeypatch
):
    starts = np.random.default_rng(seed).uniform(low, high, (rows, 4))
    ref1, ref2, frozen_among = _batch_drift(starts, t_final)
    d1, d2 = conservation_drift(starts, PARAMS, t_final)
    assert np.array_equal(d1, ref1) and np.array_equal(d2, ref2)
    # Stragglers are marched in chunks; many short ones must agree too.
    monkeypatch.setattr("altpd.dynamics._DRIFT_CHUNK", 97)
    d1, d2 = conservation_drift(starts, PARAMS, t_final)
    assert np.array_equal(d1, ref1) and np.array_equal(d2, ref2)
    in_batch = frozen_among > _DRIFT_SCALAR_ROWS
    in_scalar = (frozen_among > 0) & ~in_batch
    if route == "batch":
        # The live count never drops to the switch.
        assert rows - np.count_nonzero(frozen_among) > _DRIFT_SCALAR_ROWS
    elif route == "scalar":
        assert rows <= _DRIFT_SCALAR_ROWS and in_scalar.any()
    else:
        assert in_batch.any() and in_scalar.any()
        assert np.count_nonzero(frozen_among == 0) > 0


def test_boundary_halt_keeps_states_inside():
    trajectory = integrate(np.array([0.62, 0.35, 0.3, 0.45]), PARAMS, 10.0)
    assert trajectory.status == "boundary"
    assert trajectory.times[-1] < 10.0
    assert np.min(trajectory.states) >= -1e-6
    assert np.max(trajectory.states) <= 1.0 + 1e-6


def test_adaptive_and_fixed_step_agree():
    x0 = np.array([0.62, 0.35, 0.3, 0.45])
    fixed = integrate(x0, PARAMS, 3.0, method="rk4")
    adaptive = integrate(x0, PARAMS, 3.0, method="rk45")
    assert fixed.status == adaptive.status == "completed"
    assert np.max(np.abs(fixed.final - adaptive.final)) < 1e-6


def test_reversed_trajectory_retraces_the_mirror():
    x0 = np.array([0.62, 0.35, 0.3, 0.45])
    forward = integrate(x0, PARAMS, 3.0)
    assert forward.status == "completed"
    back = integrate(win_loss_exchange(forward.final), PARAMS, 3.0)
    assert back.status == "completed"
    mirrored = win_loss_exchange(forward.states[::-1])
    assert back.states.shape == mirrored.shape
    assert np.max(np.abs(back.states - mirrored)) < 1e-6


def _reference_rk4(x0, params, t_final, dt):
    """Fixed-step RK4 through field_closed_form on numpy arrays.

    Returns (states, status) with the integrator's halting rules: stop
    before a state leaving [1e-9, 1-1e-9], or on a vanishing denominator.
    """
    x = np.asarray(x0, dtype=float)
    states = [x]
    for _ in range(int(round(t_final / dt))):
        try:
            k1 = field_closed_form(x, params)
            k2 = field_closed_form(x + 0.5 * dt * k1, params)
            k3 = field_closed_form(x + 0.5 * dt * k2, params)
            k4 = field_closed_form(x + dt * k3, params)
        except FieldSingularError:
            return np.asarray(states), "singular"
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (np.all(x >= 1e-9) and np.all(x <= 1.0 - 1e-9)):
            return np.asarray(states), "boundary"
        states.append(x)
    return np.asarray(states), "completed"


def test_scalar_kernel_reproduces_the_numpy_route_bit_for_bit():
    rng = np.random.default_rng(21)
    statuses = []
    for _ in range(24):
        params = PayoffParams(1.0, rng.uniform(0.1, 0.9))
        x0 = rng.uniform(0.02, 0.98, 4)
        trajectory = integrate(x0, params, 2.0, dt=1e-2, method="rk4")
        states, status = _reference_rk4(x0, params, 2.0, 1e-2)
        assert trajectory.status == status
        assert np.array_equal(trajectory.states, states)
        assert np.array_equal(trajectory.times, np.arange(len(states)) * 1e-2)
        statuses.append(status)
    assert statuses.count("boundary") >= 3 and statuses.count("completed") >= 3


def test_scalar_kernel_names_exact_zero_and_overflow():
    # A zero denominator must not surface as ZeroDivisionError, nor an
    # out-of-range square as OverflowError.
    with pytest.raises(FieldSingularError):
        _field_scalar(1.0, 1.0, 0.0, 0.0, 1.0, 0.3)
    with pytest.raises(FieldSingularError):
        _field_scalar(1e200, 0.5, 0.5, 0.5, 1.0, 0.3)


def test_nan_state_is_not_interior():
    assert _interior((0.5, 0.5, 0.5, 0.5))
    for k in range(4):
        state = [0.5, 0.5, 0.5, 0.5]
        state[k] = math.nan
        assert not _interior(tuple(state))


@pytest.mark.parametrize(
    "t_final, dt",
    [
        (1.0, math.inf),
        (1.0, math.nan),
        (1.0, -1e-3),
        (1.0, 0.0),
        (math.inf, 1e-3),
        (math.nan, 1e-3),
        (-1.0, 1e-3),
        (1e300, 1e-10),
    ],
)
@pytest.mark.parametrize("method", ["rk4", "rk45", "drift"])
def test_bad_step_sizes_rejected(t_final, dt, method):
    x0 = np.array([0.62, 0.35, 0.3, 0.45])
    with pytest.raises(ValueError):
        if method == "drift":
            conservation_drift(x0[np.newaxis], PARAMS, t_final, dt=dt)
        else:
            integrate(x0, PARAMS, t_final, dt=dt, method=method)


def test_rk45_lets_field_bugs_through(monkeypatch):
    # Only a vanishing denominator means "singular"; any other error in the
    # memory-1 field must surface instead of passing as a halt status.
    def broken(x, params):
        raise ValueError("bug in the field")

    monkeypatch.setattr("altpd.dynamics.field_closed_form", broken)
    with pytest.raises(ValueError, match="bug in the field"):
        integrate(np.array([0.62, 0.35, 0.3, 0.45]), PARAMS, 1.0, method="rk45")


def test_interior_start_required():
    with pytest.raises(ValueError):
        integrate(np.array([0.5, 0.5, 0.5, 0.0]), PARAMS, 1.0)
    with pytest.raises(ValueError):
        integrate(np.array([0.5, 0.5, 0.5, 1.0]), PARAMS, 1.0, method="rk45")


# ---- equilibria ----


def test_family_catalogue():
    families = {f.name: f for f in equilibrium_families(PARAMS)}
    assert {f.tag for f in families.values()} == {
        "boundary",
        "interior",
        "exterior",
        "degenerate",
    }
    assert families["interior plane"].point(p2=0.5, p4=0.2) == pytest.approx(
        PLANE_POINT
    )
    # The branch beyond the p1 = 1 face never reenters the cube.
    exterior = families["p1>1 branch"].point(p4=0.3)
    assert exterior[0] > 1.0
    # The last family collapses onto the full-cooperation corner.
    assert families["corner branch"].point(p1=1.0) == pytest.approx(
        [1.0, 1.0, 0.0, 0.0]
    )


def test_every_family_annihilates_the_field():
    samples = {
        "p1=1 face": {"p2": 0.8, "p4": 0.4},
        "interior plane": {"p2": 0.5, "p4": 0.2},
        "p4=0 face": {"p1": 0.9, "p3": 0.1},
        "p1>1 branch": {"p4": 0.3},
        "corner branch": {"p1": 0.6},
    }
    for family in equilibrium_families(PARAMS):
        x = family.point(**samples[family.name])
        assert np.max(np.abs(field_closed_form(x, PARAMS))) < 1e-10, family.name


def test_interior_plane_grid_is_interior_and_flat():
    grid = interior_plane_grid(PARAMS)
    assert grid.shape == (200, 4)
    assert np.all((grid > 0.0) & (grid < 1.0))
    residual = np.max(np.abs(field_closed_form(grid, PARAMS)))
    assert residual < 1e-12


def test_interior_plane_point_formula():
    x = interior_plane_point(0.5, 0.2, PARAMS)
    assert x == pytest.approx([0.71, 0.5, 0.41, 0.2])


# ---- stability ----


def test_jacobian_methods_agree():
    x = RNG.uniform(0.2, 0.8, 4)
    j_complex = jacobian(x, PARAMS, method="complex-step")
    j_central = jacobian(x, PARAMS, method="central")
    scale = np.max(np.abs(j_complex))
    assert np.max(np.abs(j_complex - j_central)) / scale < 1e-6


def test_plane_point_is_a_degenerate_saddle():
    point = classify_equilibrium(PLANE_POINT, PARAMS)
    assert point.classification == "degenerate-saddle"
    moduli = np.sort(np.abs(point.eigenvalues))
    assert np.all(moduli[:2] < 1e-8)
    reals = np.sort(np.real(point.eigenvalues))
    assert reals[0] < 0.0 < reals[-1]


def test_continuation_past_the_face_is_a_degenerate_source():
    point = classify_equilibrium(EXTERIOR_POINT, PARAMS)
    assert point.classification == "degenerate-source"
    assert np.real(point.eigenvalues[0]) == pytest.approx(9.18046263977975, rel=1e-9)
    assert np.real(point.eigenvalues[1]) == pytest.approx(
        0.0301927762328268, rel=1e-9
    )


def test_face_equilibria_are_flagged_boundary():
    families = {f.name: f for f in equilibrium_families(PARAMS)}
    x = families["p1=1 face"].point(p2=0.8, p4=0.4)
    assert classify_equilibrium(x, PARAMS).classification == "boundary"


def test_generic_point_is_not_an_equilibrium():
    with pytest.raises(NotAnEquilibriumError):
        classify_equilibrium(np.full(4, 0.5), PARAMS)


def test_eigenvalue_formulas_match_the_jacobian():
    count = 0
    while count < 20:
        p2 = RNG.uniform(0.05, 0.95)
        p4 = RNG.uniform(0.02, 0.5)
        x = interior_plane_point(p2, p4, PARAMS)
        if not np.all((x > 0.02) & (x < 0.98)):
            continue
        count += 1
        lam1, lam2 = plane_eigenvalues(p2, p4, PARAMS)
        eigs = np.linalg.eigvals(jacobian(x, PARAMS))
        order = np.argsort(-np.real(eigs))
        scale = max(abs(lam1), abs(lam2))
        # Interior plane: lambda1 is the largest eigenvalue, lambda2 the
        # smallest; the middle two vanish.
        assert abs(eigs[order[0]] - lam1) / scale < 1e-6
        assert abs(eigs[order[3]] - lam2) / scale < 1e-6


def test_interior_plane_eigen_signs():
    # lambda1 strictly positive, lambda2 strictly negative inside the cube;
    # the sign of lambda2 flips only on the continuation past the p1=1 face.
    for _ in range(50):
        p2 = RNG.uniform(0.05, 0.95)
        p4 = RNG.uniform(0.02, 0.5)
        x = interior_plane_point(p2, p4, PARAMS)
        lam1, lam2 = plane_eigenvalues(p2, p4, PARAMS)
        if np.all((x > 0.0) & (x < 1.0)):
            assert np.real(lam1) > 0.0
            assert np.real(lam2) < 0.0
    lam1, lam2 = plane_eigenvalues(0.9, 0.3, PARAMS)  # p1 = 1.02 > 1
    assert np.real(lam1) > 0.0 and np.real(lam2) > 0.0
