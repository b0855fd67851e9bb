"""Memory-1 adaptive dynamics: field, flow, conservation, stability."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from altpd.dynamics import (
    _BOUNDARY_HI,
    _BOUNDARY_LO,
    _DRIFT_SCALAR_ROWS,
    _dp45,
    _field_array,
    _field_components,
    _field_scalar,
    _interior,
    _march,
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
from altpd.chain import build_matrix_direct, stationary
from altpd.errors import FieldSingularError, NotAnEquilibriumError
from altpd.payoff import _determinant_ratio, payoff_by_determinant
from altpd.strategy import PayoffParams, Strategy, _successor_table
from altpd.torus import to_torus, torus_field

RNG = np.random.default_rng(0)
PARAMS = PayoffParams(b=1.0, c=0.3)

# Interior equilibrium-plane point for C=0.3, (p2, p4) = (0.5, 0.2).
PLANE_POINT = np.array([0.71, 0.5, 0.41, 0.2])
# Same family continued past the p1 = 1 face: a degenerate source.
EXTERIOR_POINT = np.array([1.02, 0.9, 0.42, 0.3])
# Inside the cube near the cooperation corner, where the field's
# denominator is -1.04e-17: nonzero, but refused by the 1e-14 rule.
NEAR_POLE = np.array([0.99975, 0.99975, 1.6e-4, 7.6e-5])


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


def test_memory_n_jacobian_requires_room_for_its_own_steps():
    # The stencil has room at 5e-6, but the Jacobian's 1e-5 steps take
    # field_numeric past the face; each refusal names its own room.
    x = np.full(16, 0.5)
    x[3] = 5e-6
    assert np.isfinite(field_numeric(x, PARAMS)).all()
    with pytest.raises(ValueError, match=r"for the Jacobian, r = 1.1e-05"):
        jacobian(x, PARAMS)
    x[3] = 1e-8
    with pytest.raises(ValueError, match=r"for the stencil, h = 1e-06"):
        field_numeric(x, PARAMS)


def test_a_nan_state_is_refused_by_the_room_rule():
    x = np.full(16, 0.5)
    x[5] = math.nan
    with pytest.raises(ValueError, match="for the stencil"):
        field_numeric(x, PARAMS)
    with pytest.raises(ValueError, match="for the Jacobian"):
        jacobian(x, PARAMS)


def test_numeric_field_rejects_a_length_that_is_not_a_power_of_four():
    with pytest.raises(ValueError):
        field_numeric(np.full(5, 0.5), PARAMS)


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


def _pair_gap(g, x):
    """Largest |G_h nu_h' - G_h' nu_h| over the pairs h' = h + n/2, with nu
    stationary for M(x, x), and the point's scale max|G| max(nu)."""
    resident = Strategy(x)
    nu = stationary(build_matrix_direct(resident, resident))
    half = nu.size // 2
    gap = np.abs(g[:half] * nu[half:] - g[half:] * nu[:half]).max()
    return gap, np.abs(g).max() * nu.max()


def test_pair_identity_on_the_closed_form():
    # Histories h and h + n/2 differ only in the leader's oldest symbol,
    # which no one reads, so the mutant's stationary distribution is flat
    # along nu_h' e_h - nu_h e_h' and G_h nu_h' = G_h' nu_h for every
    # payoff. Worst 9.1e-15 of the scale over 10,000 points of the cube;
    # against the larger product it reached 5.5e-12, where G cancels to a
    # tiny value near a face or an equilibrium.
    rng = np.random.default_rng(16)
    xs = rng.random((1000, 4))
    for x, g in zip(xs, field_closed_form(xs, PARAMS)):
        gap, scale = _pair_gap(g, x)
        assert gap <= 1e-13 * scale, x


def _stencil_points(memory, rng):
    """Random interior points, lifted memory-1 points, and points with
    coordinates 1e-6 (1 + 1e-9) from a face, just inside the stencil's room."""
    n = 4**memory
    near = 1e-6 * (1.0 + 1e-9)
    points = [rng.uniform(0.01, 0.99, n) for _ in range(2)]
    points += [rng.uniform(0.05, 0.95, 4)[np.arange(n) & 3] for _ in range(2)]
    for _ in range(2):
        x = rng.uniform(0.05, 0.95, n)
        x[rng.integers(n, size=max(1, n // 4))] = near
        x[rng.integers(n, size=max(1, n // 8))] = 1.0 - near
        points.append(x)
    return points


def _stencil_by_full_builds(x, params):
    """field_numeric with a whole build_matrix_direct at every stencil point."""
    h = 1e-6
    follower = Strategy(x)
    rows = []
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += h
        lo[j] -= h
        up, down = (
            payoff_by_determinant(leader, follower, params, build_matrix_direct(leader, follower))
            for leader in (Strategy(hi), Strategy(lo))
        )
        rows.append((up - down) / (2.0 * h))
    return np.array(rows)


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_the_row_patched_stencil_matches_full_builds_bit_for_bit(memory, monkeypatch):
    # field_numeric builds M(x, x) once and rewrites row j per stencil
    # point, since y_j enters row j of M(y, x) only. Every patched matrix
    # that reaches the determinant ratio, and so every field component,
    # must have the bytes of a full build.
    rng = np.random.default_rng(37 + memory)
    seen = []

    def spy(m, f):
        seen.append(m.tobytes())
        return _determinant_ratio(m, f)

    monkeypatch.setattr("altpd.dynamics._determinant_ratio", spy)
    h = 1e-6
    for x in _stencil_points(memory, rng):
        seen.clear()
        got = field_numeric(x, PARAMS)
        assert got.tobytes() == _stencil_by_full_builds(x, PARAMS).tobytes(), x
        if memory == 3:
            continue
        follower = Strategy(x)
        want = []
        for j in range(x.size):
            for step in (h, -h):
                y = x.copy()
                y[j] += step
                want.append(build_matrix_direct(Strategy(y), follower).entries.tobytes())
        assert seen == want, x


def test_pair_identity_on_the_memory_two_stencil():
    # The stencil's own error dominates: worst 1.9e-9 over 400 points.
    rng = np.random.default_rng(16)
    for _ in range(40):
        x = rng.random(16)
        gap, _ = _pair_gap(field_numeric(x, PARAMS), x)
        assert gap < 1e-8, x


def _exact_matrix(y, x, memory):
    """M(y, x) in Fractions, built from the successor table: leader y,
    resident follower x, action 0 cooperating."""
    follower, successor = _successor_table(memory)
    n = 4**memory
    m = [[Fraction(0)] * n for _ in range(n)]
    for h in range(n):
        for a in (0, 1):
            p_factor = y[h] if a == 0 else 1 - y[h]
            k = follower[h][a]
            for b in (0, 1):
                q_factor = x[k] if b == 0 else 1 - x[k]
                m[h][successor[h][a][b]] += p_factor * q_factor
    return m


def _row_times(nu, m):
    return [sum(w * row[j] for w, row in zip(nu, m)) for j in range(len(m))]


@pytest.mark.parametrize("memory", [1, 2])
def test_pair_line_leaves_nu_m_unchanged_exactly(memory):
    # Rows h and h' = h + n/2 of M(y, x) share their follower indices and
    # successor columns and differ only through y_h and y_h'. Column j
    # receives nu_h y_h q + nu_h' y_h' q, which moving y along
    # v_h = nu_h' e_h - nu_h e_h' leaves unchanged, for any nu and t.
    rng = np.random.default_rng(18)
    n = 4**memory
    for _ in range(5):
        x = [Fraction(int(k), 97) for k in rng.integers(1, 97, n)]
        nu = [Fraction(int(k), 89) for k in rng.integers(1, 89, n)]
        t = Fraction(int(rng.integers(1, 50)), 101)
        base = _row_times(nu, _exact_matrix(x, x, memory))
        for h in range(n // 2):
            y = list(x)
            y[h] += t * nu[h + n // 2]
            y[h + n // 2] -= t * nu[h]
            assert _row_times(nu, _exact_matrix(y, x, memory)) == base, h


def test_benefit_only_rescales_the_field_and_its_jacobian():
    # The payoffs are linear in (b, c) and the denominator A reads neither,
    # so G(x; b, c) = b G(x; 1, c/b), and the Jacobian scales the same way.
    # Over 200 points per pair the worst gap was 1.7e-15 of the point's
    # max|G| and 6.7e-16 of its max|J|; at (2, 0.6) and (0.5, 0.2), where
    # c/b and the scaling are exact in floats, it was 0.
    rng = np.random.default_rng(5)
    for b, c in ((2.0, 0.6), (3.7, 1.1), (0.5, 0.2)):
        params, unit = PayoffParams(b, c), PayoffParams(1.0, c / b)
        xs = rng.random((200, 4))
        for x, g, g_unit in zip(
            xs, field_closed_form(xs, params), field_closed_form(xs, unit)
        ):
            assert np.abs(g - b * g_unit).max() <= 1e-14 * np.abs(g).max(), x
            j = jacobian(x, params)
            assert np.abs(j - b * jacobian(x, unit)).max() <= 1e-14 * np.abs(j).max(), x


# ---- the kernel's constants and shared subexpressions ----


def _kernel_points(seed, count):
    """Seeded points in [-3, 3]^4, every fourth and every fourth-plus-one
    moved onto a zero of the first or the squared denominator factor
    (solved for x1, kept where the root lies in range), plus the corner
    (1, 1, 0, 0), where the denominator is exactly zero."""
    x = np.random.default_rng(seed).uniform(-3.0, 3.0, (count, 4))
    x1, x2, x3, x4 = x.T.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = (
            (2 * x2 * x3 - x2 - x3 * x4 + 1) / (x2 - 1),
            (x2 - (x3 + 2) * x4 - 1) / (x2 - 2 * x4 - 1),
        )
    for offset, root in enumerate(roots):
        pick = np.zeros(count, dtype=bool)
        pick[offset::4] = True
        pick &= np.abs(root) <= 3.0
        x[pick, 0] = root[pick]
    return np.vstack([x, [1.0, 1.0, 0.0, 0.0]])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _components_as_written(x1, x2, x3, x4, b, c):
    """Denominator and numerators of the memory-1 field with every
    subexpression written out where it is used, on Python numbers. The
    squared denominator factor is a product, as in the kernel."""
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
    square = x1 * (x2 - 2 * x4 - 1) - x2 + (x3 + 2) * x4 + 1
    denom = (x1 * (x2 - 1) - 2 * x2 * x3 + x2 + x3 * x4 - 1) * (square * square)
    return (
        denom,
        x3 * x4 * e13,
        (1 - x1) * x4 * e2,
        -(x1 - 1) * x4 * e13,
        -(1 - x1) * (x2 - 1) * e2,
    )


def _refused(denom):
    """The singularity rule: abs(A) < 1e-14 or A not finite (abs(A) is the
    modulus of a complex-step denominator)."""
    size = np.abs(denom)
    return ~((size >= 1e-14) & (size < np.inf))


def _field_raw_as_written(x, b, c):
    """(denom, field) on arrays from the written-out components, the field
    NaN wherever the rule refuses the denominator."""
    denom, *numerators = _components_as_written(*(x[..., i] for i in range(4)), b, c)
    marked = np.where(_refused(denom), np.nan, denom)
    return denom, np.stack(numerators, axis=-1) / marked[..., np.newaxis]


def _rates_as_written(y):
    return _field_raw_as_written(y, PARAMS.b, PARAMS.c)[1]


def _field_scalar_as_written(x1, x2, x3, x4, b, c):
    """The written-out field on floats; None where the rule refuses the
    denominator."""
    denom, *numerators = _components_as_written(x1, x2, x3, x4, b, c)
    if _refused(denom):
        return None
    return tuple(n / denom for n in numerators)


def _complex_steps(point):
    """The point (a list of floats) with a 1e-20 imaginary step on each
    coordinate in turn, in Python complex numbers, as jacobian builds its
    inputs."""
    for j in range(4):
        stepped = list(point)
        stepped[j] = complex(stepped[j], 1e-20)
        yield stepped


def test_array_kernel_matches_the_written_out_field_bit_for_bit():
    # The kernel runs on 0-d constants, b and c; the reference on Python
    # numbers. A real batch as the drift and field_closed_form pass it
    # (the kernel's only input), near-zero denominators and the exact zero
    # at the corner included.
    x = _kernel_points(31, 100_000)
    with np.errstate(all="ignore"):
        got = _field_array(x.T, PARAMS.b, PARAMS.c).T
        denom, want = _field_raw_as_written(x, PARAMS.b, PARAMS.c)
    assert np.count_nonzero(np.abs(denom) < 1e-12) >= 50
    assert np.array_equal(np.isnan(got).any(axis=-1), _refused(denom))
    assert _same_bits(got, want)


def test_single_state_field_matches_its_batch_row_bit_for_bit():
    # A single state takes the scalar kernel, a batch the array kernel.
    x = _kernel_points(32, 100_000)
    batch = _field_array(x.T, PARAMS.b, PARAMS.c).T
    regular = ~np.isnan(batch).any(axis=1)
    got = np.array([field_closed_form(row, PARAMS) for row in x[regular]])
    assert _same_bits(got, batch[regular])
    assert np.count_nonzero(~regular) >= 1
    for row in x[~regular]:
        with pytest.raises(FieldSingularError):
            field_closed_form(row, PARAMS)


def test_scalar_kernel_matches_the_written_out_field_bit_for_bit():
    # Real points as every single-state route passes them, then the last
    # 5,001 with a 1e-20 imaginary step on each coordinate in turn, as
    # jacobian passes them; near-zero denominators and the exact zero at
    # the corner included.
    def bits(values):
        return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]

    points = _kernel_points(31, 100_000).tolist()
    refused = Counter()
    for state in points + [s for p in points[-5001:] for s in _complex_steps(p)]:
        kind = type(sum(state))
        expected = _field_scalar_as_written(*state, PARAMS.b, PARAMS.c)
        if expected is None:
            refused[kind] += 1
            with pytest.raises(FieldSingularError):
                _field_scalar(*state, PARAMS.b, PARAMS.c)
            continue
        got = _field_scalar(*state, PARAMS.b, PARAMS.c)
        assert all(type(v) is kind for v in got)
        assert bits(got) == bits(expected)
    assert refused[float] >= 1 and refused[complex] >= 4


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


def _rk4_step_as_written(rates, x, dt):
    """Classical RK4 step with its constants as Python floats."""
    k1 = rates(x)
    k2 = rates(x + 0.5 * dt * k1)
    k3 = rates(x + 0.5 * dt * k2)
    k4 = rates(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _batch_drift(x0_batch, t_final, dt=1e-3):
    """Reference: every row stepped as one numpy batch until it exits.

    Also returns, per row, how many rows were live on the step that froze
    it and that step's number (both 0 for rows that never froze).
    """
    x = np.array(x0_batch, dtype=float)
    f1_0 = (x[:, 0] - 1.0) ** 2 + x[:, 2] ** 2
    f2_0 = (x[:, 1] - 1.0) ** 2 + x[:, 3] ** 2
    drift1 = np.zeros(x.shape[0])
    drift2 = np.zeros(x.shape[0])
    frozen_among = np.zeros(x.shape[0], dtype=int)
    frozen_on = np.zeros(x.shape[0], dtype=int)
    active = np.ones(x.shape[0], dtype=bool)
    for step in range(1, int(round(t_final / dt)) + 1):
        if not active.any():
            break
        stepped = _rk4_step_as_written(_rates_as_written, x[active], dt)
        inside = np.all((stepped >= 1e-9) & (stepped <= 1.0 - 1e-9), axis=1)
        idx = np.flatnonzero(active)
        frozen_among[idx[~inside]] = idx.size
        frozen_on[idx[~inside]] = step
        x[idx[inside]] = stepped[inside]
        active[idx[~inside]] = False
        live = idx[inside]
        f1 = (x[live, 0] - 1.0) ** 2 + x[live, 2] ** 2
        f2 = (x[live, 1] - 1.0) ** 2 + x[live, 3] ** 2
        drift1[live] = np.maximum(drift1[live], np.abs(f1 - f1_0[live]))
        drift2[live] = np.maximum(drift2[live], np.abs(f2 - f2_0[live]))
    return drift1, drift2, frozen_among, frozen_on


def _drift_starts(seed, rows, t_final, low, high, route):
    """Seeded starts in [low, high)^4, reshaped for the compaction routes.

    "same-step" repeats each start once, so twins leave on the same step.
    "step-1" moves every third start within 1e-4 of a face. "switch" draws
    a pool, keeps rows - 10 starts whose batch orbit leaves before t_final
    and 10 that stay, so the live count falls through the switch.
    """
    rng = np.random.default_rng(seed)
    if route == "switch":
        pool = rng.uniform(low, high, (2 * rows, 4))
        frozen = _batch_drift(pool, t_final)[2] > 0
        starts = np.vstack([pool[frozen][: rows - 10], pool[~frozen][:10]])
        assert starts.shape == (rows, 4)
        return starts
    starts = rng.uniform(low, high, (rows, 4))
    if route == "same-step":
        starts[rows // 2 :] = starts[: rows // 2]
    elif route == "step-1":
        for i in range(0, rows, 3):
            gap = rng.uniform(1e-6, 1e-4)
            starts[i, rng.integers(4)] = gap if rng.random() < 0.5 else 1.0 - gap
    return starts


@pytest.mark.parametrize(
    "seed, rows, t_final, low, high, route",
    [
        (7, 64, 0.5, 0.1, 0.9, "batch"),
        (9, 10, 20.0, 0.1, 0.9, "scalar"),
        (10, 40, 2.0, 0.05, 0.95, "both"),
        (21, 64, 1.0, 0.05, 0.95, "same-step"),
        (22, 48, 0.5, 0.1, 0.9, "step-1"),
        (23, 200, 3.0, 0.05, 0.95, "switch"),
    ],
)
def test_drift_matches_the_batch_loop_bit_for_bit(
    seed, rows, t_final, low, high, route, monkeypatch
):
    starts = _drift_starts(seed, rows, t_final, low, high, route)
    ref1, ref2, frozen_among, _ = _batch_drift(starts, t_final)
    d1, d2 = conservation_drift(starts, PARAMS, t_final)
    assert np.array_equal(d1, ref1) and np.array_equal(d2, ref2)
    # Stragglers are marched in chunks; many short ones must agree too.
    monkeypatch.setattr("altpd.dynamics._DRIFT_CHUNK", 97)
    marched = []

    def march(*args):
        marched.append(args[2])
        return _march(*args)

    monkeypatch.setattr("altpd.dynamics._march", march)
    d1, d2 = conservation_drift(starts, PARAMS, t_final)
    assert np.array_equal(d1, ref1) and np.array_equal(d2, ref2)
    # Rows frozen while more rows than the switch point were live froze in
    # the block; the scalar route ran if anything was marched.
    in_batch = frozen_among > _DRIFT_SCALAR_ROWS
    in_scalar = (frozen_among > 0) & ~in_batch
    if route == "batch":
        # The live count never drops to the switch.
        assert rows - np.count_nonzero(frozen_among) > _DRIFT_SCALAR_ROWS
        assert not marched
    elif route == "scalar":
        assert rows <= _DRIFT_SCALAR_ROWS and in_scalar.any() and marched
    elif route == "same-step":
        # Some batch step drops at least two rows at once.
        assert np.bincount(frozen_among[in_batch]).max() >= 2
    elif route == "step-1":
        first = _rk4_step_as_written(_rates_as_written, starts, 1e-3)
        gone = ~np.all((first >= _BOUNDARY_LO) & (first <= _BOUNDARY_HI), axis=1)
        assert np.count_nonzero(gone) >= 2 and np.all(frozen_among[gone] == rows)
    else:
        assert in_batch.any() and in_scalar.any() and marched
        assert np.count_nonzero(frozen_among == 0) > 0


def test_drift_memory_does_not_grow_with_steps_times_rows():
    # 20,000 rows for 6 steps. Each step's own arrays peak near 7.6 MB
    # (about 12 times the 0.64 MB of states); keeping every step of every
    # row instead of one buffer-load would add 0.64 MB per step.
    x = np.random.default_rng(5).uniform(0.2, 0.8, (20_000, 4))
    tracemalloc.start()
    try:
        conservation_drift(x, PARAMS, 6e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def _exits_and_returns(x0_batch, t_final, dt=1e-3):
    """Per row: whether its orbit, stepped on past its first exit, is back
    inside [1e-9, 1-1e-9] on some later step."""
    x = np.array(x0_batch, dtype=float)
    left = np.zeros(x.shape[0], dtype=bool)
    back = np.zeros(x.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(int(round(t_final / dt))):
            x = _rk4_step_as_written(_rates_as_written, x, dt)
            inside = np.all((x >= 1e-9) & (x <= 1.0 - 1e-9), axis=1)
            back |= left & inside
            left |= ~inside
    return back


@pytest.mark.parametrize("chunk", ["ends-on-first-exit", "first-exit-plus-3", "whole-run"])
def test_drift_reads_an_exit_anywhere_in_a_chunk(chunk, monkeypatch):
    # The block's buffer is sized so that its first chunk ends on the step
    # on which the first row leaves, or three steps after it, or holds the
    # whole run. The first row to leave comes back into the cube later in
    # the run and must stay frozen at its first exit. Every row that
    # leaves does so while more rows than the switch point are live.
    starts = _drift_starts(25, 64, 0.5, 0.05, 0.95, "batch")
    ref1, ref2, frozen_among, frozen_on = _batch_drift(starts, 0.5)
    first = frozen_on[frozen_on > 0].min()
    assert _exits_and_returns(starts, 0.5)[frozen_on == first].all()
    assert np.all(frozen_among[frozen_on > 0] > _DRIFT_SCALAR_ROWS)
    steps = {"ends-on-first-exit": first, "first-exit-plus-3": first + 3, "whole-run": 500}
    assert steps[chunk] == 500 or 500 % steps[chunk] != 0
    monkeypatch.setattr("altpd.dynamics._DRIFT_BUFFER", steps[chunk] * starts.size)
    d1, d2 = conservation_drift(starts, PARAMS, 0.5)
    assert np.array_equal(d1, ref1) and np.array_equal(d2, ref2)


def test_boundary_halt_keeps_states_inside():
    trajectory = integrate(np.array([0.62, 0.35, 0.3, 0.45]), PARAMS, 10.0)
    assert trajectory.status == "boundary"
    assert trajectory.times[-1] < 10.0
    assert np.min(trajectory.states) >= -1e-6
    assert np.max(trajectory.states) <= 1.0 + 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the memory-N stencil needs 1e-6 of room, so a regular start near a "
    "face halts 'singular'; the exact gradient (ROADMAP item 2) removes it",
)
def test_memory_two_start_near_a_face_takes_steps():
    x0 = np.full(16, 0.5)
    x0[0] = 2e-6
    trajectory = integrate(x0, PARAMS, 0.1, dt=1e-2)
    assert trajectory.status != "singular"
    assert len(trajectory.times) > 1


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

    The field is evaluated on one-row batches, the numpy route (a single
    state would take the scalar kernel). Returns (states, status) with the
    integrator's halting rules: stop before a state leaving
    [1e-9, 1-1e-9], or on a vanishing denominator.
    """

    def rates(y):
        return field_closed_form(y[np.newaxis], params)[0]

    x = np.asarray(x0, dtype=float)
    states = [x]
    for _ in range(int(round(t_final / dt))):
        try:
            k1 = rates(x)
            k2 = rates(x + 0.5 * dt * k1)
            k3 = rates(x + 0.5 * dt * k2)
            k4 = rates(x + dt * k3)
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
    # out-of-range square (inf) or a NaN state as a non-finite field.
    with pytest.raises(FieldSingularError):
        _field_scalar(1.0, 1.0, 0.0, 0.0, 1.0, 0.3)
    with pytest.raises(FieldSingularError):
        _field_scalar(1e200, 0.5, 0.5, 0.5, 1.0, 0.3)
    with pytest.raises(FieldSingularError):
        _field_scalar(math.nan, 0.5, 0.5, 0.5, 1.0, 0.3)
    with pytest.raises(FieldSingularError):
        field_closed_form([1e200, 0.5, 0.5, 0.5], PARAMS)


def test_every_entry_point_refuses_a_state_below_the_threshold():
    denom = _components_as_written(*NEAR_POLE.tolist(), PARAMS.b, PARAMS.c)[0]
    assert 0.0 < abs(denom) < 1e-14
    with pytest.raises(FieldSingularError):
        field_closed_form(NEAR_POLE, PARAMS)
    with pytest.raises(FieldSingularError):
        field_closed_form(np.stack([PLANE_POINT, NEAR_POLE]), PARAMS)
    with pytest.raises(FieldSingularError):
        jacobian(NEAR_POLE, PARAMS)
    with pytest.raises(FieldSingularError):
        torus_field(to_torus(NEAR_POLE), PARAMS)


@pytest.mark.parametrize("stage", [2, 3, 4])
def test_rk4_halts_when_a_later_stage_is_refused(stage, monkeypatch):
    # No start is known whose first stage passes and a later one lands
    # below the threshold, so that stage is moved to NEAR_POLE.
    calls = 0

    def moved(x1, x2, x3, x4, b, c, consts):
        nonlocal calls
        calls += 1
        if calls == stage:
            x1, x2, x3, x4 = NEAR_POLE.tolist()
        return _field_components(x1, x2, x3, x4, b, c, consts)

    monkeypatch.setattr("altpd.dynamics._field_components", moved)
    x0 = np.array([0.62, 0.35, 0.3, 0.45])
    trajectory = integrate(x0, PARAMS, 1.0, dt=1e-2)
    assert trajectory.status == "singular"
    assert np.array_equal(trajectory.states, [x0])


def test_drift_of_a_refused_row_does_not_depend_on_its_batch():
    # Alone the row runs on the scalar route, as one of 33 on the block.
    rows = 33
    assert rows > _DRIFT_SCALAR_ROWS
    alone = conservation_drift(NEAR_POLE[np.newaxis], PARAMS, 0.05)
    shared = conservation_drift(np.tile(NEAR_POLE, (rows, 1)), PARAMS, 0.05)
    for one, many in zip(alone, shared):
        assert np.array_equal(many, np.full(rows, one[0]))


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


@pytest.mark.parametrize("calls", [8, 51, 150])
def test_rk45_keeps_its_record_on_a_singular_halt(monkeypatch, calls):
    # The field fails on call number calls + 1; every step accepted before
    # that stays in the record, as rk4 keeps its steps through _march.
    x0 = np.array([0.62, 0.35, 0.3, 0.45])
    full = integrate(x0, PARAMS, 3.0, method="rk45")
    made = 0

    def failing(x, params):
        nonlocal made
        made += 1
        if made > calls:
            raise FieldSingularError("field denominator vanishes")
        return field_closed_form(x, params)

    monkeypatch.setattr("altpd.dynamics.field_closed_form", failing)
    partial = integrate(x0, PARAMS, 3.0, method="rk45")
    kept = partial.times.size
    assert partial.status == "singular"
    assert 1 < kept < full.times.size
    assert np.array_equal(partial.times, full.times[:kept])
    assert np.array_equal(partial.states, full.states[:kept])


def _scipy_rk45(x0, t_final):
    """The rk45 route as it ran on scipy's solve_ivp: the oracle for _dp45.

    A terminal event ends the run where a coordinate reaches 1e-9 or
    1 - 1e-9, and the event point it appends is dropped.
    """
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def rhs(_t, y):
        return field_closed_form(y, PARAMS) if y.size == 4 else field_numeric(y, PARAMS)

    def exit_event(_t, y):
        return min(float(np.min(y)) - _BOUNDARY_LO, _BOUNDARY_HI - float(np.max(y)))

    exit_event.terminal = True
    sol = solve_ivp(
        rhs, (0.0, t_final), x0, method="RK45", rtol=1e-9, atol=1e-12,
        events=exit_event,
    )
    times, states = sol.t, sol.y.T
    if sol.status == 1:
        return times[:-1], states[:-1], "boundary"
    return times, states, "completed" if sol.success else "singular"


def _assert_same_as_scipy(x0, t_final):
    trajectory = integrate(x0, PARAMS, t_final, method="rk45")
    times, states, status = _scipy_rk45(x0, t_final)
    assert trajectory.status == status
    assert np.array_equal(trajectory.times, times)
    assert np.array_equal(trajectory.states, states)
    return status


@pytest.mark.parametrize("t_final", [3.0, 10.0])
def test_rk45_matches_scipy_bit_for_bit(t_final):
    rng = np.random.default_rng(2024)
    statuses = [
        _assert_same_as_scipy(rng.uniform(0.02, 0.98, 4), t_final)
        for _ in range(40)
    ]
    assert {"completed", "boundary"} <= set(statuses)


def test_rk45_matches_scipy_from_the_readme_point():
    assert _assert_same_as_scipy(np.array([0.71, 0.5, 0.41, 0.2]), 10.0) == "completed"


def test_rk45_matches_scipy_at_memory_two():
    rng = np.random.default_rng(2025)
    for _ in range(3):
        assert _assert_same_as_scipy(rng.uniform(0.2, 0.8, 16), 0.5) == "completed"


def test_rk45_grows_tenfold_from_the_step_floor_on_a_zero_field():
    # A zero field has zero error estimates: the first step takes the
    # 1e-6 floor and every accepted step grows by the maximum factor.
    x0 = np.full(4, 0.5)
    times, states, status = _dp45(np.zeros_like, x0, 1.0, ())
    assert status == "completed"
    assert times.size == 8
    assert np.diff(times)[:6] == pytest.approx(10.0 ** np.arange(-6, 0), rel=1e-12)
    assert times[-1] == 1.0
    assert np.array_equal(states, np.tile(x0, (8, 1)))


def test_rk45_halts_singular_when_the_step_falls_below_its_minimum():
    # y1' = 1 / (0.45 - y1)^2 from y1 = 0.4 blows up at t = 0.05^3 / 3.
    # The field never raises (nothing is caught), so the halt is the
    # minimum-step rule.
    def pole(y):
        rate = np.zeros_like(y)
        rate[0] = 1.0 / (0.45 - y[0]) ** 2
        return rate

    times, states, status = _dp45(pole, np.array([0.4, 0.5, 0.5, 0.5]), 1.0, ())
    assert status == "singular"
    assert times.size == 83
    assert times[-1] == pytest.approx(0.05**3 / 3, rel=1e-6)
    assert 0.4499 < states[-1, 0] < 0.45


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


# The worst equalizer spread over 300 interior-plane points (20 at each of
# c = 0.1, 0.3, 0.7 for five seeds, 30 mutants each) was 1.6e-15 at memory
# 1, 1.4e-15 at memory 2 and 1.3e-15 at memory 3, in units of b.
_EQUALIZER_TOL = 1e-14


def _family_points(family, rng, count):
    """count points of an equilibrium family, free coordinates drawn from
    (0, 1), kept where they lie in the cube."""
    points = []
    while len(points) < count:
        x = family.point(**dict(zip(family.free, rng.random(len(family.free)))))
        if np.all((x >= 0.0) & (x <= 1.0)):
            points.append(x)
    return points


def _payoff_spread(x, params, rng, mutants=30):
    """max |A(y, x) - A(x, x)| / b over random mutant leaders y, by the
    determinant payoff."""
    resident = Strategy(x)
    own = payoff_by_determinant(resident, resident, params)
    return max(
        abs(payoff_by_determinant(Strategy(rng.random(x.size)), resident, params) - own)
        for _ in range(mutants)
    ) / params.b


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_interior_plane_residents_are_equalizers(memory):
    # A conjecture (README): a resident x on the interior plane fixes the
    # mutant leader's payoff, A(y, x) = A(x, x) for every leader y. At
    # memory N the resident is the lift x[arange(4^N) & 3]. The negative
    # control: residents moved up to 0.02 off the plane, and points of the
    # two face families, which are equilibria too. At this seed the plane
    # read at most 1.4e-15, and the two controls at least 2.6e-4 and 1.0e-3.
    rng = np.random.default_rng(22)
    lift = np.arange(4**memory) & 3
    for c in (0.1, 0.3, 0.7):
        params = PayoffParams(1.0, c)
        families = {f.name: f for f in equilibrium_families(params)}
        for x in _family_points(families["interior plane"], rng, 20):
            assert _payoff_spread(x[lift], params, rng) <= _EQUALIZER_TOL, (c, x)
            moved = np.clip(x + rng.uniform(-0.02, 0.02, 4), 1e-3, 1.0 - 1e-3)
            assert _payoff_spread(moved[lift], params, rng) > _EQUALIZER_TOL, (c, moved)
        for name in ("p1=1 face", "p4=0 face"):
            for x in _family_points(families[name], rng, 10):
                assert _payoff_spread(x[lift], params, rng) > _EQUALIZER_TOL, (c, name, x)


# ---- stability ----


def _central_jacobian(field, x, step):
    """Central differences of field at x, one column per coordinate."""
    columns = []
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += step
        lo[j] -= step
        columns.append((field(hi, PARAMS) - field(lo, PARAMS)) / (2.0 * step))
    return np.column_stack(columns)


def test_jacobian_methods_agree():
    # Memory 1: the complex-step Jacobian against central differences of
    # the closed form.
    x = RNG.uniform(0.2, 0.8, 4)
    j_complex = jacobian(x, PARAMS)
    j_central = _central_jacobian(field_closed_form, x, 1e-5)
    scale = np.max(np.abs(j_complex))
    assert np.max(np.abs(j_complex - j_central)) / scale < 1e-6


def test_memory_two_jacobian_is_central_differences_of_the_numeric_field():
    # A memory-1 interior state lifted to memory 2 (only the last round
    # counts); at memory N the Jacobian differences field_numeric with
    # step 1e-5.
    x1 = np.random.default_rng(17).uniform(0.2, 0.8, 4)
    x = x1[np.arange(16) & 3]
    want = _central_jacobian(field_numeric, x, 1e-5)
    assert np.array_equal(jacobian(x, PARAMS), want)


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


def test_classification_depends_on_the_cost_ratio_alone():
    # The field and its spectrum scale by b, so a point is judged at
    # (1, c/b). Against unscaled 1e-8 tests at b itself, b = 1e8 refused the
    # exterior point as no equilibrium and b = 1e-9 labelled both "other";
    # with scaled tests, the field's norm overflowed at b = 1e300 and the
    # complex step underflowed at b = 1e-300. The eigenvalues meet b times
    # the unit ones to 1.2e-16 b at worst.
    unit = PayoffParams(1.0, PARAMS.c)
    for x in (PLANE_POINT, EXTERIOR_POINT):
        want = classify_equilibrium(x, unit)
        for b in (1e-300, 1e-9, 2.0, 1e8, 1e300):
            point = classify_equilibrium(x, PayoffParams(b, PARAMS.c * b))
            assert point.classification == want.classification
            np.testing.assert_allclose(
                point.eigenvalues, b * np.array(want.eigenvalues), rtol=0, atol=1e-13 * b
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
