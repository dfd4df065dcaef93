"""Conservative scheme behavior.

The periodic substep is checked against an independent roll-based
reimplementation of the flux algebra given the converged pressure; the
physical oracles are exact fan solutions, conservation, reflection symmetry,
and column invariance of y-independent two-dimensional runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_euler import scheme_conservative as sc
from congested_euler.grid import (
    Dirichlet,
    Grid,
    GridState,
    Periodic,
    Wall,
    total_mass,
)
from congested_euler.pressure import PressureLaw, singular_pressure
from congested_euler.riemann import PrimState, solve_riemann

LAW = PressureLaw(epsilon=1e-2, alpha=2.0, gamma=2.0)


def smooth_state(grid, base_rho=0.6, amp=0.2):
    x = grid.centers_x
    rho = base_rho + amp * np.sin(2.0 * np.pi * x)
    v = 0.2 * np.cos(2.0 * np.pi * x)
    rho_star = 1.2 + 0.1 * np.cos(2.0 * np.pi * x)
    if grid.ndim == 2:
        rho, v, rho_star = (np.tile(f, (grid.ny, 1)) for f in (rho, v, rho_star))
    return GridState.from_primitives(grid, rho, v, rho_star)


def roll_faces(arr, order):
    """Reconstructed states at faces j+1/2 of a periodic field, by rolls."""
    if order == 1:
        return arr, np.roll(arr, -1)
    fwd = np.roll(arr, -1) - arr
    bwd = arr - np.roll(arr, 1)
    mm = np.where(fwd * bwd > 0.0, np.where(np.abs(bwd) < np.abs(fwd), bwd, fwd), 0.0)
    return arr + 0.5 * mm, np.roll(arr - 0.5 * mm, -1)


def roll_substep(grid, st_init, st_flux, dt, law, pi, w_new, order):
    """Flux-form update given the converged pressure, periodic 1D only."""
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
    au = (st_flux.Z / st_flux.rho) * u
    d_z = -0.5 * c * (zr - zl)
    Z_new = st_init.Z - dt * (nxt(au) - prv(au)) / (2.0 * dx)
    Z_new -= dt * (d_z - prv(d_z)) / dx
    d_r = -0.5 * c * (rr - rl)
    rho_new = st_init.rho - dt * (nxt(u) - prv(u)) / (2.0 * dx)
    rho_new -= dt * (d_r - prv(d_r)) / dx
    return rho_new, q_new, Z_new


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("ndim", [1, 2])
def test_constant_state_is_a_fixed_point(order, ndim):
    grid = Grid(nx=12) if ndim == 1 else Grid(nx=8, ny=6)
    state = GridState.from_primitives(grid, 0.7, 0.3, 7.0 / 6.0, 0.1)
    new, info = sc.step(grid, state, 0.1 * grid.dx, LAW, order=order)
    np.testing.assert_allclose(new.rho, state.rho, rtol=0, atol=1e-13)
    np.testing.assert_allclose(new.q1, state.q1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(new.Z, state.Z, rtol=0, atol=1e-13)
    if ndim == 2:
        np.testing.assert_allclose(new.q2, state.q2, rtol=0, atol=1e-13)
    assert not info.switched


@pytest.mark.parametrize("mode,w_new", [("implicit", 1.0), ("semi", 0.5)])
@pytest.mark.parametrize("order", [1, 2])
def test_periodic_substep_matches_flux_route(mode, w_new, order):
    grid = Grid(nx=32)
    state = smooth_state(grid)
    dt = 0.1 * grid.dx
    pi_old = singular_pressure(state.Z, LAW) if mode == "semi" else None
    res = sc._substep(grid, state, state, dt, LAW, mode, order=order, pi_old=pi_old)
    rho_o, q_o, Z_o = roll_substep(grid, state, state, dt, LAW, res.pi, w_new, order)
    np.testing.assert_allclose(res.state.rho, rho_o, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.state.q1, q_o, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.state.Z, Z_o, rtol=0, atol=1e-13)
    # The condensed update equals the pressure-law value up to the Newton
    # stopping residual.
    if mode == "implicit":
        from congested_euler.pressure import singular_pressure_inverse

        np.testing.assert_allclose(
            res.state.Z, singular_pressure_inverse(res.pi, LAW), rtol=0, atol=2e-10
        )


def test_corrector_uses_distinct_flux_state():
    grid = Grid(nx=32)
    state = smooth_state(grid)
    dt = 0.1 * grid.dx
    half = sc._substep(grid, state, state, 0.5 * dt, LAW, "implicit", order=2)
    pi_old = singular_pressure(state.Z, LAW)
    res = sc._substep(
        grid, state, half.state, dt, LAW, "semi", order=2, pi_old=pi_old
    )
    rho_o, q_o, Z_o = roll_substep(
        grid, state, half.state, dt, LAW, res.pi, 0.5, 2
    )
    np.testing.assert_allclose(res.state.rho, rho_o, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.state.q1, q_o, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.state.Z, Z_o, rtol=0, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2])
def test_mass_conservation_periodic(order):
    grid = Grid(nx=48)
    state = smooth_state(grid)
    m_rho = total_mass(grid, state.rho)
    m_z = total_mass(grid, state.Z)
    dt = 0.1 * grid.dx
    for _ in range(20):
        state, info = sc.step(grid, state, dt, LAW, order=order)
        assert info.clamps == 0
    assert abs(total_mass(grid, state.rho) - m_rho) <= 1e-12
    assert abs(total_mass(grid, state.Z) - m_z) <= 1e-12
    assert np.all(state.Z < 1.0) and np.all(state.Z > 0.0)


def test_mass_conservation_walled_box_2d():
    walls = (Wall(), Wall())
    grid = Grid(nx=12, ny=10, bc_x=walls, bc_y=walls)
    X, Y = grid.cell_centers()
    rho = 0.4 + 0.4 * np.exp(-20.0 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    state = GridState.from_primitives(
        grid, rho, 0.6 * (X - 0.5), 1.1, 0.6 * (Y - 0.5)
    )
    m_rho = total_mass(grid, state.rho)
    m_z = total_mass(grid, state.Z)
    dt = 0.1 * grid.dx
    for _ in range(10):
        state, info = sc.step(grid, state, dt, LAW, order=2)
        assert info.newton_iterations <= 30
    assert abs(total_mass(grid, state.rho) - m_rho) <= 1e-12
    assert abs(total_mass(grid, state.Z) - m_z) <= 1e-12


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
def test_y_invariant_2d_run_matches_1d_columns(axis, sides):
    n = 24
    grid1 = Grid(nx=n, bc_x=SIDES[sides])
    state1 = smooth_state(grid1)
    grid2, state2, as_x = embedded(grid1, state1, axis)
    dt = 0.1 * grid1.dx
    for _ in range(8):
        state1, _ = sc.step(grid1, state1, dt, LAW, order=2)
        state2, _ = sc.step(grid2, state2, dt, LAW, order=2)
    fields = as_x(state2)
    for name in ("rho", "q1", "Z"):
        f2 = fields[name]
        f1 = getattr(state1, name)
        spread = np.max(np.abs(f2 - f2[0]))
        assert spread <= 1e-13, f"{name} rows drifted apart by {spread:.2e}"
        err = np.max(np.abs(f2[3] - f1))
        assert err <= 1e-12, f"{name} 2D/1D mismatch {err:.2e}"
    assert np.max(np.abs(fields["q2"])) <= 1e-13


def test_wall_reflection_keeps_mirror_symmetry():
    grid = Grid(nx=20, bc_x=(Wall(), Wall()))
    x = grid.centers_x
    rho = 0.8 + 0.1 * np.cos(2.0 * np.pi * x)
    v = 0.5 * np.sin(2.0 * np.pi * x)
    state = GridState.from_primitives(grid, rho, v, 1.3)
    dt = 0.1 * grid.dx
    for _ in range(10):
        state, _ = sc.step(grid, state, dt, LAW, order=2)
    np.testing.assert_allclose(state.rho, state.rho[::-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.q1, -state.q1[::-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.Z, state.Z[::-1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_uniform_dirichlet_far_field_is_steady(order):
    bc = Dirichlet(rho=0.7, q1=0.8, Z=7.0 / 12.0)
    grid = Grid(nx=16, bc_x=(bc, bc))
    state = GridState.from_primitives(grid, 0.7, 8.0 / 7.0, 1.2)
    dt = 0.1 * grid.dx
    for _ in range(5):
        state, info = sc.step(grid, state, dt, LAW, order=order)
        assert not info.switched
    np.testing.assert_allclose(state.rho, 0.7, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.q1, 0.8, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.Z, 7.0 / 12.0, rtol=0, atol=1e-12)


def run_riemann(nx, law, t_end, order):
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
    steps = int(round(t_end / dt))
    iters = 0
    for _ in range(steps):
        state, info = sc.step(grid, state, dt, law, order=order)
        iters = max(iters, info.newton_iterations)
    fan = solve_riemann(left, right, law)
    exact = fan.sample_profile(x, t_end)
    err = float(np.sum(np.abs(state.rho - exact["rho"])) * grid.dx)
    return state, err, iters


def test_shock_tube_approaches_exact_fan():
    law = PressureLaw(epsilon=1e-2, alpha=2.0, gamma=2.0)
    state_c, err_c, it_c = run_riemann(100, law, 0.05, order=1)
    state_f, err_f, it_f = run_riemann(200, law, 0.05, order=1)
    assert np.all(state_f.Z < 1.0)
    assert max(it_c, it_f) <= 30
    assert err_f < err_c
    assert err_f <= 0.03


def test_stiff_law_stays_robust():
    law = PressureLaw(epsilon=1e-6, alpha=2.0, gamma=2.0)
    state, err, iters = run_riemann(100, law, 0.02, order=1)
    assert np.all(np.isfinite(state.rho))
    assert np.all(state.Z < 1.0)
    assert iters <= 30


def test_pressure_switch_triggers_on_violent_release():
    # An almost-congested cell between loose neighbors releases its pressure
    # far faster than the time average can track: the implicit diffusion
    # drags the averaged unknown below pi_old / 2, so the corrector aborts.
    grid = Grid(nx=32)
    rho = np.full(32, 0.2)
    rho[16] = 0.999
    state = GridState.from_primitives(grid, rho, 0.0, 1.0)
    dt = 0.1 * grid.dx
    half = sc._substep(grid, state, state, 0.5 * dt, LAW, "implicit", order=2)
    pi_old = singular_pressure(state.Z, LAW)
    with pytest.raises(sc.PressureSwitchTriggered):
        sc._substep(
            grid, state, half.state, dt, LAW, "semi", order=2, pi_old=pi_old
        )
    new, info = sc.step(grid, state, dt, LAW, order=2)
    assert info.switched
    assert np.all(np.isfinite(new.rho)) and np.all(new.Z < 1.0)


def test_smooth_run_never_switches():
    grid = Grid(nx=32)
    state = smooth_state(grid, base_rho=0.7, amp=0.15)
    dt = 0.1 * grid.dx
    for _ in range(30):
        state, info = sc.step(grid, state, dt, LAW, order=2)
        assert not info.switched
        assert info.newton_iterations <= 30
        assert info.clamps == 0


def coarsen(f):
    return 0.5 * (f[::2] + f[1::2])


def test_second_order_beats_first_on_smooth_data():
    # L1 self-convergence; the minmod limiter clips smooth extrema, so the
    # max-norm rate saturates near 1.5 while L1 approaches 2.
    t_end = 0.05
    errs = {}
    for order in (1, 2):
        fields = {}
        for n in (64, 128, 256):
            grid = Grid(nx=n)
            state = smooth_state(grid, base_rho=0.7, amp=0.1)
            dt = 0.1 * grid.dx
            for _ in range(int(round(t_end / dt))):
                state, _ = sc.step(grid, state, dt, LAW, order=order)
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
    z0 = total_mass(grid, state.Z)
    dt = 0.1 * grid.dx
    for _ in range(2):
        state, _ = sc.step(grid, state, dt, LAW, order=2)
    assert abs(total_mass(grid, state.rho) - m0) <= 1e-12
    assert abs(total_mass(grid, state.Z) - z0) <= 1e-12
    assert np.all(state.Z < 1.0) and np.all(np.isfinite(state.q1))


def test_space_only_second_order_is_one_implicit_substep():
    grid = Grid(nx=48)
    state = smooth_state(grid, base_rho=0.7, amp=0.1)
    dt = 0.1 * grid.dx
    new, info = sc.step(grid, state, dt, LAW, order=2, time_order=1)
    want = sc._substep(grid, state, state, dt, LAW, "implicit", order=2)
    assert np.array_equal(new.rho, want.state.rho)
    assert np.array_equal(new.q1, want.state.q1)
    assert np.array_equal(new.Z, want.state.Z)
    assert len(info.reports) == 1 and not info.switched
    # distinct from both matched-order steps
    full1, _ = sc.step(grid, state, dt, LAW, order=1)
    full2, _ = sc.step(grid, state, dt, LAW, order=2)
    assert not np.array_equal(new.q1, full1.q1)
    assert not np.array_equal(new.q1, full2.q1)


def test_step_rejects_bad_order_pairs():
    grid = Grid(nx=8)
    state = smooth_state(grid)
    with pytest.raises(ValueError):
        sc.step(grid, state, 1e-3, LAW, order=1, time_order=2)
    with pytest.raises(ValueError):
        sc.step(grid, state, 1e-3, LAW, order=3)
