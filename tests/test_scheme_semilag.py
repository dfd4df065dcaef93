"""Density-variable scheme and semi-Lagrangian congestion transport.

Interpolation and backtracking are checked against closed-form oracles
(polynomial exactness, the exact characteristic of a linear velocity field);
the finite-volume substep against an independent roll-based flux route; the
full step against conservation, column invariance, and the exact fan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_euler import scheme_conservative as zq
from congested_euler import scheme_semilag as sl
from congested_euler.grid import (
    Dirichlet,
    Grid,
    GridState,
    OutflowWindow,
    Periodic,
    Wall,
    l1_error,
    total_mass,
)
from congested_euler.pressure import PressureLaw, singular_pressure
from congested_euler.riemann import PrimState, solve_riemann

LAW = PressureLaw(epsilon=1e-2, alpha=2.0, gamma=2.0)


def smooth_state(grid, base_rho=0.6, amp=0.2, rho_star=None):
    x = grid.centers_x
    rho = base_rho + amp * np.sin(2.0 * np.pi * x)
    v = 0.2 * np.cos(2.0 * np.pi * x)
    rs = 1.2 + 0.1 * np.cos(2.0 * np.pi * x) if rho_star is None else rho_star + 0.0 * x
    if grid.ndim == 2:
        rho, v, rs = (np.tile(f, (grid.ny, 1)) for f in (rho, v, rs))
    return GridState.from_primitives(grid, rho, v, rs)


# ---------------------------------------------------------------- interpolation


def test_lagrange_nodal_queries_return_nodal_values():
    # whole-cell shifts at unit velocity put every foot on a node
    grid = Grid(nx=16)
    rng = np.random.default_rng(3)
    values = 0.5 + rng.random(16)
    v = np.ones(16)
    for r in (0, 1):
        cfg = sl.SemiLagConfig(r=r, time_order=1)
        for k in (1, 5):
            out = sl.semilag_advect(values, v, k * grid.dx, grid, cfg)
            for i in (0, 5, 15):
                assert out[i] == pytest.approx(values[(i - k) % 16], abs=1e-15)


def test_lagrange_r1_reproduces_cubics():
    grid = Grid(nx=32)
    xs = grid.centers_x
    poly = lambda x: 2.0 - x + 3.0 * x**2 - 1.5 * x**3
    cfg = sl.SemiLagConfig(r=1, time_order=1)
    for shift in (0.213, 0.5, 0.731):
        dt = shift * grid.dx
        got = sl.semilag_advect(poly(xs), np.ones(32), dt, grid, cfg)
        # periodic wrap breaks the polynomial at the seam; check inside
        np.testing.assert_allclose(got[3:-3], poly(xs - dt)[3:-3], rtol=0, atol=1e-12)


def test_lagrange_r0_linear_exact_quadratic_second_order():
    # Linear interpolation of x^2 at the midpoint of a cell pair errs by
    # exactly theta (1 - theta) dx^2 = dx^2 / 4.
    cfg = sl.SemiLagConfig(r=0, time_order=1)
    for n in (32, 64):
        grid = Grid(nx=n)
        xs = grid.centers_x
        dt = 0.5 * grid.dx  # theta = 1/2 at unit velocity
        x_mid = (xs - dt)[3:-3]
        v = np.ones(n)
        err = np.abs(sl.semilag_advect(xs**2, v, dt, grid, cfg)[3:-3] - x_mid**2)
        np.testing.assert_allclose(err, 0.25 * grid.dx**2, rtol=1e-12, atol=0)
        got = sl.semilag_advect(0.7 - 0.3 * xs, v, dt, grid, cfg)[3:-3]
        np.testing.assert_allclose(got, 0.7 - 0.3 * x_mid, rtol=0, atol=1e-14)


def test_semilag_zero_velocity_is_identity():
    grid = Grid(nx=20)
    rng = np.random.default_rng(7)
    field = 1.0 + rng.random(20)
    for r in (0, 1):
        cfg = sl.SemiLagConfig(r=r, time_order=1)
        out = sl.semilag_advect(field, np.zeros(20), 0.01, grid, cfg)
        np.testing.assert_array_equal(out, field)


def test_semilag_constant_velocity_shifts_linear_data():
    grid = Grid(nx=32)
    x = grid.centers_x
    field = 2.0 + 0.3 * x
    v = np.full(32, 0.37)
    dt = 0.01
    for r in (0, 1):
        cfg = sl.SemiLagConfig(r=r, time_order=1)
        out = sl.semilag_advect(field, v, dt, grid, cfg)
        expected = 2.0 + 0.3 * (x - 0.37 * dt)
        # periodic wrap corrupts the seam cells; linear data is exact inside
        np.testing.assert_allclose(out[3:-3], expected[3:-3], rtol=0, atol=1e-14)


def test_semilag_integer_cfl_shift_is_exact():
    grid = Grid(nx=16)
    rng = np.random.default_rng(11)
    field = 1.0 + rng.random(16)
    v = np.full(16, 3.0)  # v dt = 3 dx exactly
    dt = 3.0 * grid.dx / 3.0
    for r in (0, 1):
        for time_order in (1, 2):
            cfg = sl.SemiLagConfig(r=r, time_order=time_order)
            out = sl.semilag_advect(field, v, dt, grid, cfg)
            np.testing.assert_allclose(out, np.roll(field, 3), rtol=0, atol=1e-13)


def test_taylor_backtrack_beats_euler_on_linear_velocity():
    # For v(x) = 0.8 x the characteristic foot is exactly x exp(-0.8 dt); the
    # upwind slope is exact on linear velocities, so the error is purely the
    # truncation of the backtracking formula: dt^2 for Euler, dt^3 for Taylor.
    grid = Grid(nx=512)
    x = grid.centers_x
    field = 1.5 + np.exp(-(((x - 0.45) / 0.1) ** 2))
    v = 0.8 * x
    window = slice(64, -64)
    errs = {}
    for time_order in (1, 2):
        cfg = sl.SemiLagConfig(r=1, time_order=time_order)
        errs[time_order] = []
        for dt in (0.02, 0.01):
            foot = x * np.exp(-0.8 * dt)
            exact = 1.5 + np.exp(-(((foot - 0.45) / 0.1) ** 2))
            out = sl.semilag_advect(field, v, dt, grid, cfg)
            errs[time_order].append(float(np.max(np.abs(out - exact)[window])))
    s1 = np.log2(errs[1][0] / errs[1][1])
    s2 = np.log2(errs[2][0] / errs[2][1])
    assert 1.7 <= s1 <= 2.3
    assert s2 >= 2.6
    assert errs[2][0] < 0.1 * errs[1][0]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(min_value=0.1, max_value=3.0),
    time_order=st.sampled_from([1, 2]),
)
def test_donor_interpolation_is_monotone(seed, scale, time_order):
    grid = Grid(nx=24)
    rng = np.random.default_rng(seed)
    field = 0.3 + 1.7 * rng.random(24)
    v = scale * (2.0 * rng.random(24) - 1.0)
    cfg = sl.SemiLagConfig(r=0, time_order=time_order)
    out = sl.semilag_advect(field, v, 0.1 * grid.dx * scale, grid, cfg)
    assert np.all(out >= field.min() - 1e-12)
    assert np.all(out <= field.max() + 1e-12)


def test_semilag_config_validation():
    with pytest.raises(ValueError):
        sl.SemiLagConfig(r=2, time_order=1)
    with pytest.raises(ValueError):
        sl.SemiLagConfig(r=1, time_order=3)


# ---------------------------------------------------------------- relaxation


def test_relaxation_limits_and_contraction():
    grid = Grid(nx=8, ny=8)
    rc = sl.RelaxationConfig.toward_exit(grid, beta=0.1)
    rng = np.random.default_rng(5)
    rho = 0.5 + 0.3 * rng.random(grid.shape)
    q1 = 0.2 * rng.standard_normal(grid.shape)
    q2 = 0.2 * rng.standard_normal(grid.shape)

    n1, n2 = sl.relaxation_update((q1, q2), rho, rc, dt=1e-12)
    np.testing.assert_allclose(n1, q1, rtol=0, atol=1e-10)
    n1, n2 = sl.relaxation_update((q1, q2), rho, rc, dt=1e9)
    np.testing.assert_allclose(n1, rho * rc.w[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(n2, rho * rc.w[1], rtol=0, atol=1e-9)
    # beta = dt gives the plain average
    n1, n2 = sl.relaxation_update((q1, q2), rho, rc, dt=rc.beta)
    np.testing.assert_allclose(n1, 0.5 * (q1 + rho * rc.w[0]), rtol=1e-14)
    # contraction toward rho w with the exact factor 1 / (1 + dt / beta)
    dt = 0.03
    n1, n2 = sl.relaxation_update((q1, q2), rho, rc, dt=dt)
    fac = 1.0 / (1.0 + dt / rc.beta)
    np.testing.assert_allclose(
        n1 - rho * rc.w[0], fac * (q1 - rho * rc.w[0]), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        n2 - rho * rc.w[1], fac * (q2 - rho * rc.w[1]), rtol=0, atol=1e-14
    )


def test_desired_velocity_points_at_exit_center():
    grid = Grid(nx=8, ny=8)
    rc = sl.RelaxationConfig.toward_exit(grid, beta=0.1)
    w1, w2 = rc.w
    X, Y = grid.cell_centers()
    norm = np.hypot(X - 0.5, Y)
    np.testing.assert_allclose(np.hypot(w1, w2), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w1, -(X - 0.5) / norm, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w2, -Y / norm, rtol=0, atol=1e-14)
    # a cell centered exactly on the target is the one singular point
    grid1 = Grid(nx=5)
    rc1 = sl.RelaxationConfig.toward_exit(grid1, beta=0.2)
    assert rc1.w[0][2] == 0.0
    np.testing.assert_array_equal(rc1.w[0][:2], [1.0, 1.0])
    np.testing.assert_array_equal(rc1.w[0][3:], [-1.0, -1.0])


# ---------------------------------------------------------------- FV substep


def roll_faces(arr, order):
    if order == 1:
        return arr, np.roll(arr, -1)
    fwd = np.roll(arr, -1) - arr
    bwd = arr - np.roll(arr, 1)
    mm = np.where(fwd * bwd > 0.0, np.where(np.abs(bwd) < np.abs(fwd), bwd, fwd), 0.0)
    return arr + 0.5 * mm, np.roll(arr - 0.5 * mm, -1)


def roll_fv_substep(grid, st_init, st_flux, dt, law, pi, w_new, order):
    """Flux-form (rho, q) update given the converged pressure, periodic 1D."""
    dx = grid.dx
    nxt = lambda a: np.roll(a, -1)
    prv = lambda a: np.roll(a, 1)

    def bound(r, m, z):
        return np.abs(m / r) + np.sqrt(z / r * law.gamma * z ** (law.gamma - 1.0))

    rl, rr = roll_faces(st_flux.rho, order)
    ql, qr = roll_faces(st_flux.q1, order)
    zl, zr = roll_faces(st_flux.Z, order)
    c = np.maximum(bound(rl, ql, zl), bound(rr, qr, zr))
    mom_flux = 0.5 * (ql * ql / rl + zl ** law.gamma + qr * qr / rr + zr ** law.gamma)
    mom_flux -= 0.5 * c * (qr - ql)
    mt = st_init.q1 - dt * (mom_flux - prv(mom_flux)) / dx
    q_new = mt - dt * (nxt(pi) - prv(pi)) / (2.0 * dx)
    u = (1.0 - w_new) * st_init.q1 + w_new * q_new
    d_r = -0.5 * c * (rr - rl)
    rho_new = st_init.rho - dt * (nxt(u) - prv(u)) / (2.0 * dx)
    rho_new -= dt * (d_r - prv(d_r)) / dx
    return rho_new, q_new


@pytest.mark.parametrize("mode,w_new", [("implicit", 1.0), ("semi", 0.5)])
@pytest.mark.parametrize("order", [1, 2])
def test_periodic_fv_substep_matches_flux_route(mode, w_new, order):
    grid = Grid(nx=32)
    state = smooth_state(grid)
    dt = 0.1 * grid.dx
    res = sl._fv_substep(
        grid, state, state, state.rho_star, dt, LAW, mode, order=order
    )
    rho_o, q_o = roll_fv_substep(grid, state, state, dt, LAW, res.pi, w_new, order)
    np.testing.assert_allclose(res.state.rho, rho_o, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.state.q1, q_o, rtol=0, atol=1e-13)
    # reported pressure is consistent with the law at the updated density
    pi_new = singular_pressure(res.state.rho / state.rho_star, LAW)
    if mode == "implicit":
        np.testing.assert_allclose(res.pi, pi_new, rtol=0, atol=2e-10)
    else:
        po = singular_pressure(state.rho / state.rho_star, LAW)
        np.testing.assert_allclose(res.pi, 0.5 * (po + pi_new), rtol=0, atol=2e-10)


def test_corrector_uses_distinct_flux_state():
    grid = Grid(nx=32)
    state = smooth_state(grid)
    dt = 0.1 * grid.dx
    half = sl._fv_substep(
        grid, state, state, state.rho_star, 0.5 * dt, LAW, "implicit", order=2
    )
    res = sl._fv_substep(
        grid, state, half.state, state.rho_star, dt, LAW, "semi", order=2
    )
    rho_o, q_o = roll_fv_substep(grid, state, half.state, dt, LAW, res.pi, 0.5, 2)
    np.testing.assert_allclose(res.state.rho, rho_o, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.state.q1, q_o, rtol=0, atol=1e-13)


UNIT_CAPACITY_GRIDS = [
    Grid(nx=24),
    Grid(nx=24, bc_x=(Wall(), Wall())),
    Grid(nx=24, bc_x=(Dirichlet(rho=0.5, q1=0.1, Z=0.5), Dirichlet(rho=0.6, q1=0.0, Z=0.6))),
    Grid(nx=10, ny=8),
    Grid(nx=10, ny=8, bc_x=(Wall(), Wall()), bc_y=(OutflowWindow(0.3, 0.7), Wall())),
]


@pytest.mark.parametrize("mode", ["implicit", "semi"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("grid", UNIT_CAPACITY_GRIDS)
def test_substeps_of_both_schemes_agree_at_unit_capacity(grid, order, mode):
    # With rho* = 1 the Z and rho unknowns coincide, so both substeps solve
    # the same condensed system, boundary ghosts included.
    rng = np.random.default_rng(17)
    rho = 0.3 + 0.4 * rng.random(grid.shape)
    v1 = 0.3 * rng.standard_normal(grid.shape)
    v2 = 0.3 * rng.standard_normal(grid.shape) if grid.ndim == 2 else None
    state = GridState.from_primitives(grid, rho, v1, 1.0, v2)
    dt = 0.1 * grid.dx
    pi_old = singular_pressure(state.Z, LAW) if mode == "semi" else None
    a = zq._substep(grid, state, state, dt, LAW, mode, order=order, pi_old=pi_old)
    b = sl._fv_substep(grid, state, state, state.rho_star, dt, LAW, mode, order=order)
    for name in ("rho", "q1", "q2", "Z", "rho_star"):
        got, want = getattr(a.state, name), getattr(b.state, name)
        if want is None:
            assert got is None
            continue
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)


# ---------------------------------------------------------------- full steps


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("scheme", [zq, sl], ids=["zq", "sl"])
@pytest.mark.parametrize(
    "grid", [g for g in UNIT_CAPACITY_GRIDS if not g.has_dirichlet]
)
def test_relaxation_acts_once_after_the_fv_stage(grid, scheme, order):
    # Relaxing inside the step equals relaxing the unrelaxed step's momenta
    # with its density: one relaxation, after the stage, in either scheme.
    # At rho* = 1 the advection of rho* by either velocity stays at 1.
    rng = np.random.default_rng(23)
    rho = 0.3 + 0.4 * rng.random(grid.shape)
    v1 = 0.3 * rng.standard_normal(grid.shape)
    v2 = 0.3 * rng.standard_normal(grid.shape) if grid.ndim == 2 else None
    state = GridState.from_primitives(grid, rho, v1, 1.0, v2)
    rc = sl.RelaxationConfig.toward_exit(grid, 0.1)
    dt = 0.1 * grid.dx
    got, _ = scheme.step(grid, state, dt, LAW, order=order, relaxation=rc)
    want, _ = scheme.step(grid, state, dt, LAW, order=order)
    q = (want.q1,) if want.q2 is None else (want.q1, want.q2)
    q = sl.relaxation_update(q, want.rho, rc, dt)
    np.testing.assert_array_equal(got.rho, want.rho)
    np.testing.assert_array_equal(got.q1, q[0])
    if grid.ndim == 2:
        np.testing.assert_array_equal(got.q2, q[1])
    for name in ("Z", "rho_star"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=0, atol=1e-14, err_msg=name
        )


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("ndim", [1, 2])
def test_constant_state_is_a_fixed_point(order, ndim):
    grid = Grid(nx=12) if ndim == 1 else Grid(nx=8, ny=6)
    state = GridState.from_primitives(grid, 0.7, 0.3, 7.0 / 6.0, 0.1)
    new, info = sl.step(grid, state, 0.1 * grid.dx, LAW, order=order)
    np.testing.assert_allclose(new.rho, state.rho, rtol=0, atol=1e-13)
    np.testing.assert_allclose(new.q1, state.q1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(new.rho_star, state.rho_star, rtol=0, atol=1e-13)
    if ndim == 2:
        np.testing.assert_allclose(new.q2, state.q2, rtol=0, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2])
def test_mass_conservation_periodic(order):
    grid = Grid(nx=48)
    state = smooth_state(grid)
    m0 = total_mass(grid, state.rho)
    dt = 0.1 * grid.dx
    for _ in range(20):
        state, info = sl.step(grid, state, dt, LAW, order=order)
        assert info.clamps == 0
        assert info.newton_iterations <= 30
        assert abs(total_mass(grid, state.rho) - m0) <= 1e-12 * m0
    assert np.all(state.Z < 1.0)


def test_walled_box_conserves_mass_2d():
    bc = (Wall(), Wall())
    grid = Grid(nx=12, ny=12, bc_x=bc, bc_y=bc)
    X, Y = grid.cell_centers()
    rho = 0.5 + 0.2 * np.exp(-40.0 * ((X - 0.5) ** 2 + (Y - 0.4) ** 2))
    state = GridState.from_primitives(grid, rho, 0.0, 1.3, 0.0)
    m0 = total_mass(grid, state.rho)
    dt = 0.1 * grid.dx
    for _ in range(10):
        state, info = sl.step(grid, state, dt, LAW, order=1)
        assert info.newton_iterations <= 30
        assert abs(total_mass(grid, state.rho) - m0) <= 1e-12 * m0


def test_uniform_dirichlet_far_field_is_steady():
    left = Dirichlet(rho=0.7, q1=0.56, Z=7.0 / 12.0)
    grid = Grid(nx=24, bc_x=(left, left))
    state = GridState.from_primitives(grid, 0.7, 0.8, 1.2)
    dt = 0.1 * grid.dx
    for order in (1, 2):
        st_run = state.copy()
        for _ in range(5):
            st_run, _ = sl.step(grid, st_run, dt, LAW, order=order)
        np.testing.assert_allclose(st_run.rho, 0.7, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st_run.q1, 0.56, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st_run.rho_star, 1.2, rtol=0, atol=1e-12)


SIDES = {"periodic": (Periodic(), Periodic()), "wall": (Wall(), Wall())}


def embedded(grid1, state1, axis, width=8):
    """``state1`` repeated over ``width`` lines of a 2D grid, varying along ``axis``.

    Returns the grid, the state, and a map from a state on that grid to its
    fields laid out and named as if ``axis`` were x.
    """
    if axis == "x":
        grid2 = Grid(nx=grid1.nx, bc_x=grid1.bc_x, ny=width)
        rename, lay = {}, np.asarray
    else:
        grid2 = Grid(nx=width, ny=grid1.nx, bc_y=grid1.bc_x)
        rename, lay = {"q1": "q2", "q2": "q1"}, lambda f: np.ascontiguousarray(f.T)
    names = ("rho", "q1", "Z", "rho_star")
    tiled = {n: np.tile(getattr(state1, n), (width, 1)) for n in names}
    tiled["q2"] = np.zeros_like(tiled["rho"])
    state2 = GridState(**{rename.get(n, n): lay(f) for n, f in tiled.items()})

    def as_x(state):
        return {n: lay(getattr(state, rename.get(n, n))) for n in tiled}

    return grid2, state2, as_x


@pytest.mark.parametrize("sides", list(SIDES))
@pytest.mark.parametrize("axis", ["x", "y"])
def test_y_invariant_2d_matches_1d_columns(axis, sides):
    n = 16
    grid1 = Grid(nx=n, bc_x=SIDES[sides])
    state1 = smooth_state(grid1)
    grid2, state2, as_x = embedded(grid1, state1, axis)
    dt = 0.1 * grid1.dx
    for _ in range(8):
        state1, _ = sl.step(grid1, state1, dt, LAW, order=2)
        state2, _ = sl.step(grid2, state2, dt, LAW, order=2)
    fields = as_x(state2)
    for name in ("rho", "q1", "Z", "rho_star"):
        f2 = fields[name]
        assert np.max(np.abs(f2 - f2[0:1, :])) <= 1e-13
        np.testing.assert_allclose(f2[0], getattr(state1, name), rtol=0, atol=1e-12)
    assert np.max(np.abs(fields["q2"])) <= 1e-13


def test_matches_conservative_scheme_under_refinement():
    # Both first-order schemes discretize the same system; their L1 distance
    # on smooth data vanishes with the mesh.
    t_end = 0.02
    dist = {}
    for n in (32, 64, 128):
        grid = Grid(nx=n)
        st_sl = smooth_state(grid)
        st_zq = smooth_state(grid)
        dt = 0.1 * grid.dx
        for _ in range(int(round(t_end / dt))):
            st_sl, _ = sl.step(grid, st_sl, dt, LAW, order=1)
            st_zq, _ = zq.step(grid, st_zq, dt, LAW, order=1)
        dist[n] = l1_error(grid, st_sl.rho, st_zq.rho)
    assert dist[32] > dist[64] > dist[128]


def run_riemann_sl(nx, law, t_end, order):
    left = PrimState(rho=0.7, v=8.0 / 7.0, Z=7.0 / 12.0)
    right = PrimState(rho=0.7, v=-8.0 / 7.0, Z=0.7)
    bc = (
        Dirichlet(rho=left.rho, q1=left.rho * left.v, Z=left.Z),
        Dirichlet(rho=right.rho, q1=right.rho * right.v, Z=right.Z),
    )
    grid = Grid(nx=nx, bc_x=bc)
    x = grid.centers_x
    state = GridState.from_primitives(
        grid,
        np.where(x < 0.5, left.rho, right.rho),
        np.where(x < 0.5, left.v, right.v),
        np.where(x < 0.5, left.rho / left.Z, right.rho / right.Z),
    )
    dt = 0.1 * grid.dx
    iters = 0
    for _ in range(int(round(t_end / dt))):
        state, info = sl.step(grid, state, dt, law, order=order)
        iters = max(iters, info.newton_iterations)
    fan = solve_riemann(left, right, law)
    exact = fan.sample_profile(x, t_end)
    err = float(np.sum(np.abs(state.rho - exact["rho"])) * grid.dx)
    return grid, state, exact, err, iters


def test_shock_tube_approaches_exact_fan():
    _, state_c, _, err_c, it_c = run_riemann_sl(100, LAW, 0.05, order=1)
    grid, state_f, exact, err_f, it_f = run_riemann_sl(200, LAW, 0.05, order=1)
    assert np.all(state_f.Z < 1.0)
    assert max(it_c, it_f) <= 30
    assert err_f < err_c
    assert err_f <= 0.05


def test_momentum_overshoot_exceeds_conservative_scheme():
    # The density-variable route produces larger oscillations around the
    # contact than the conservative route on the colliding tube.
    t_end = 0.1
    grid, state_sl, exact, _, _ = run_riemann_sl(200, LAW, t_end, order=1)
    left = PrimState(rho=0.7, v=8.0 / 7.0, Z=7.0 / 12.0)
    right = PrimState(rho=0.7, v=-8.0 / 7.0, Z=0.7)
    bc = (
        Dirichlet(rho=left.rho, q1=left.rho * left.v, Z=left.Z),
        Dirichlet(rho=right.rho, q1=right.rho * right.v, Z=right.Z),
    )
    grid_zq = Grid(nx=200, bc_x=bc)
    x = grid_zq.centers_x
    state_zq = GridState.from_primitives(
        grid_zq,
        np.where(x < 0.5, left.rho, right.rho),
        np.where(x < 0.5, left.v, right.v),
        np.where(x < 0.5, left.rho / left.Z, right.rho / right.Z),
    )
    dt = 0.1 * grid_zq.dx
    for _ in range(int(round(t_end / dt))):
        state_zq, _ = zq.step(grid_zq, state_zq, dt, LAW, order=1)
    window = (x > 0.42) & (x < 0.56)
    osc_sl = float(np.max(np.abs(state_sl.q1 - exact["q1"])[window]))
    osc_zq = float(np.max(np.abs(state_zq.q1 - exact["q1"])[window]))
    assert osc_sl > osc_zq


def coarsen(f):
    return 0.5 * (f[::2] + f[1::2])


def test_second_order_beats_first_on_smooth_data():
    t_end = 0.05
    errs = {}
    for order in (1, 2):
        fields = {}
        for n in (64, 128, 256):
            grid = Grid(nx=n)
            state = smooth_state(grid, base_rho=0.7, amp=0.1, rho_star=1.0)
            dt = 0.1 * grid.dx
            for _ in range(int(round(t_end / dt))):
                state, _ = sl.step(grid, state, dt, LAW, order=order)
            fields[n] = state.rho
        e_coarse = np.mean(np.abs(coarsen(fields[128]) - fields[64]))
        e_fine = np.mean(np.abs(coarsen(fields[256]) - fields[128]))
        errs[order] = np.log2(e_coarse / e_fine)
    assert 0.5 <= errs[1] <= 1.5
    assert errs[2] >= 1.55


@settings(max_examples=15, deadline=None)
@given(
    base=st.floats(min_value=0.25, max_value=0.7),
    amp=st.floats(min_value=0.0, max_value=0.15),
    v0=st.floats(min_value=-0.8, max_value=0.8),
)
def test_random_smooth_states_conserve_and_stay_admissible(base, amp, v0):
    grid = Grid(nx=16)
    x = grid.centers_x
    state = GridState.from_primitives(
        grid,
        base + amp * np.sin(2.0 * np.pi * x),
        v0 + 0.3 * amp * np.cos(4.0 * np.pi * x),
        1.0 + 0.2 * np.cos(2.0 * np.pi * x),
    )
    m0 = total_mass(grid, state.rho)
    dt = 0.1 * grid.dx
    for _ in range(2):
        state, _ = sl.step(grid, state, dt, LAW, order=2)
    assert abs(total_mass(grid, state.rho) - m0) <= 1e-12 * m0
    assert np.all(state.Z < 1.0)
    assert np.all(np.isfinite(state.q1))
