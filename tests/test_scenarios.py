"""Scenario definitions, the run harness, and the refinement study."""

import dataclasses
import re

import numpy as np
import pytest

from congested_euler import scenarios, scheme_conservative
from congested_euler.elliptic import NewtonError, NewtonReport
from congested_euler.grid import (
    OutflowWindow,
    Periodic,
    Wall,
    total_mass,
)
from congested_euler.scenarios import Scenario


# ---------------------------------------------------------------------------
# scenario validation


def test_scenario_rejects_bad_fields():
    with pytest.raises(ValueError):
        Scenario(kind="warp5", nx=8)
    with pytest.raises(ValueError):
        Scenario(kind="riemann1d", nx=8, scheme="upwind")
    with pytest.raises(ValueError):
        Scenario(kind="riemann1d", nx=8, order=3)
    with pytest.raises(ValueError):
        Scenario(kind="collide2d", nx=8, case=4)
    with pytest.raises(ValueError):
        Scenario(kind="collide2d", nx=8, ny=0)
    with pytest.raises(ValueError):
        Scenario(kind="evacuate2d", nx=8, profile="bumpy")
    with pytest.raises(ValueError):
        Scenario(kind="riemann1d", nx=8, epsilon=-1.0)
    with pytest.raises(ValueError):
        Scenario(kind="riemann1d", nx=8, order=1, time_order=2)
    with pytest.raises(ValueError):
        Scenario(kind="riemann1d", nx=8, scheme="sl", order=2, time_order=1)
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(gamma=1.0), dict(epsilon=nan), dict(alpha=nan), dict(t_end=nan),
        dict(t_end=inf), dict(dt=nan), dict(dt_factor=nan), dict(seed=-1),
        dict(rho_star_const=nan), dict(nx=1),
    ):
        with pytest.raises(ValueError):
            Scenario(kind="riemann1d", **{"nx": 8, **bad})
    for bad in (
        dict(nx=8, beta=nan), dict(nx=8, beta=inf), dict(nx=8, rho_star_const=nan),
        dict(nx=8, rho_star_const=inf), dict(nx=1), dict(nx=8, ny=1),
    ):
        with pytest.raises(ValueError):
            Scenario(kind="evacuate2d", **bad)
    Scenario(kind="riemann1d", nx=8, order=2, time_order=1)


# ---------------------------------------------------------------------------
# initial states


def test_riemann1d_initial_state():
    s = Scenario(kind="riemann1d", nx=10)
    grid = scenarios.build_grid(s)
    state = scenarios.build_initial_state(s, grid)
    assert grid.ndim == 1
    left = grid.centers_x <= 0.5
    assert np.all(state.rho == 0.7)
    assert np.array_equal(state.q1, np.where(left, 0.8, -0.8))
    assert np.array_equal(state.Z, np.where(left, 0.7 / 1.2, 0.7))
    assert np.array_equal(state.rho_star, np.where(left, 1.2, 1.0))
    # zero-gradient ends: the ghosts repeat the far-field states
    assert grid.bc_x == (OutflowWindow(0.0, 1.0),) * 2
    for name, (lo, hi) in (("rho", (0.7, 0.7)), ("q1", (0.8, -0.8)), ("Z", (0.7 / 1.2, 0.7))):
        padded = state.padded(grid, name)
        assert np.array_equal(padded[[0, 1, -2, -1]], [lo, lo, hi, hi])


def test_smooth1d_peak_values():
    # center cell of an odd grid sits exactly at x = 0.5
    s = Scenario(kind="smooth1d", nx=25)
    grid = scenarios.build_grid(s)
    state = scenarios.build_initial_state(s, grid)
    mid = 12
    assert grid.centers_x[mid] == 0.5
    assert abs(state.rho[mid] - 0.8) < 1e-15
    assert abs(state.q1[mid] - 1.0) < 1e-15
    assert abs(state.rho_star[mid] - 1.2) < 1e-15
    assert all(isinstance(b, Periodic) for b in grid.bc_x)


def test_smooth1d_profile_formulas():
    s = Scenario(kind="smooth1d", nx=64)
    grid = scenarios.build_grid(s)
    state = scenarios.build_initial_state(s, grid)
    x = grid.centers_x
    assert np.array_equal(state.rho, 0.6 + 0.2 * np.exp(-((x - 0.5) ** 2) / 0.01))
    assert np.array_equal(state.q1, np.exp(-((x - 0.5) ** 2) / 0.01))
    assert np.array_equal(
        state.rho_star, 1.2 + 0.2 * (1 - np.cos(8 * np.pi * (x - 0.5)))
    )


def square_mask(grid, cx, cy, side=0.2):
    xx, yy = grid.cell_centers()
    return (np.abs(xx - cx) <= side / 2) & (np.abs(yy - cy) <= side / 2)


def test_collide2d_geometry_and_momentum():
    s = Scenario(kind="collide2d", nx=20, case=1)
    grid = scenarios.build_grid(s)
    state = scenarios.build_initial_state(s, grid)
    assert all(isinstance(b, Periodic) for b in grid.bc_x + grid.bc_y)
    west = square_mask(grid, 0.2, 0.5)
    east = square_mask(grid, 0.8, 0.5)
    south = square_mask(grid, 0.5, 0.2)
    north = square_mask(grid, 0.5, 0.8)
    inside = west | east | south | north
    assert np.all(state.rho[inside] == state.rho[west][0])
    assert np.all(state.rho[~inside] == state.rho[~inside][0])
    assert state.rho[west][0] > state.rho[~inside][0] > 0
    # momentum 0.5 toward the domain center, zero elsewhere
    assert np.all(state.q1[west] == 0.5) and np.all(state.q2[west] == 0.0)
    assert np.all(state.q1[east] == -0.5)
    assert np.all(state.q2[south] == 0.5) and np.all(state.q1[south] == 0.0)
    assert np.all(state.q2[north] == -0.5)
    assert np.all(state.q1[~inside] == 0.0) and np.all(state.q2[~inside] == 0.0)
    assert np.all(state.rho_star == 1.0)


def test_collide2d_case1_fourfold_symmetric():
    s = Scenario(kind="collide2d", nx=128, case=1)
    grid = scenarios.build_grid(s)
    state = scenarios.build_initial_state(s, grid)
    for field in (state.rho, state.rho_star, state.Z):
        assert np.array_equal(field, np.rot90(field))
    # quarter turn maps (q1, q2) to (q2, -q1)
    assert np.array_equal(state.q1, np.rot90(state.q2))
    assert np.array_equal(state.q2, -np.rot90(state.q1))


def test_collide2d_case2_congestion_squares():
    s = Scenario(kind="collide2d", nx=20, case=2)
    grid = scenarios.build_grid(s)
    state = scenarios.build_initial_state(s, grid)
    assert np.all(state.rho_star[square_mask(grid, 0.5, 0.2)] == 1.2)
    assert np.all(state.rho_star[square_mask(grid, 0.5, 0.8)] == 1.2)
    assert np.all(state.rho_star[square_mask(grid, 0.2, 0.5)] == 0.8)
    assert np.all(state.rho_star[square_mask(grid, 0.8, 0.5)] == 0.8)
    xx, yy = grid.cell_centers()
    background = ~(
        square_mask(grid, 0.2, 0.5)
        | square_mask(grid, 0.8, 0.5)
        | square_mask(grid, 0.5, 0.2)
        | square_mask(grid, 0.5, 0.8)
    )
    assert np.all(state.rho_star[background] == 1.0)
    assert np.all(state.Z < 1.0)


def test_collide2d_case3_point_values():
    s = Scenario(kind="collide2d", nx=8, case=3)
    grid = scenarios.build_grid(s)
    state = scenarios.build_initial_state(s, grid)
    xx, yy = grid.cell_centers()

    def at(x, y):
        j = np.argmin(np.abs(grid.centers_y - y))
        i = np.argmin(np.abs(grid.centers_x - x))
        return state.rho_star[j, i]

    assert abs(at(0.0625, 0.0625) - 0.975) < 1e-15
    assert abs(at(0.3125, 0.6875) - 0.9749999999999998) < 1e-15
    assert abs(at(0.9375, 0.4375) - 1.0250000000000001) < 1e-15


def test_evacuate2d_profiles():
    base = dict(kind="evacuate2d", nx=16)
    for profile, check in [
        ("constant", lambda g, rs: np.all(rs == 1.0)),
        (
            "linear",
            lambda g, rs: np.array_equal(rs, 1.1 - 0.2 * g.cell_centers()[1]),
        ),
        (
            "step",
            lambda g, rs: np.array_equal(
                rs, np.where(g.cell_centers()[0] > 0.5, 1.1, 0.9)
            ),
        ),
    ]:
        s = Scenario(profile=profile, **base)
        grid = scenarios.build_grid(s)
        state = scenarios.build_initial_state(s, grid)
        assert np.all(state.rho == 0.6)
        assert np.all(state.q1 == 0.0) and np.all(state.q2 == 0.0)
        assert check(grid, state.rho_star)
    s = Scenario(kind="evacuate2d", nx=16, profile="constant", rho_star_const=0.9)
    state = scenarios.build_initial_state(s, scenarios.build_grid(s))
    assert np.all(state.rho_star == 0.9)


def test_evacuate2d_boundaries():
    s = Scenario(kind="evacuate2d", nx=16)
    grid = scenarios.build_grid(s)
    exit_bc, top = grid.bc_y
    assert isinstance(exit_bc, OutflowWindow)
    assert (exit_bc.lo, exit_bc.hi) == (0.4, 0.6)
    for side in grid.bc_x + (top,):
        assert isinstance(side, Wall)


def test_evacuate2d_random_profile_seeded():
    s1 = Scenario(kind="evacuate2d", nx=128, profile="random", seed=7)
    grid = scenarios.build_grid(s1)
    rs1 = scenarios.build_initial_state(s1, grid).rho_star
    rs1_again = scenarios.build_initial_state(s1, grid).rho_star
    rs2 = scenarios.build_initial_state(
        Scenario(kind="evacuate2d", nx=128, profile="random", seed=8), grid
    ).rho_star
    assert np.array_equal(rs1, rs1_again)
    assert not np.array_equal(rs1, rs2)
    assert np.all((rs1 >= 0.9) & (rs1 <= 1.1))
    assert abs(rs1.mean() - 1.0) < 0.02


# ---------------------------------------------------------------------------
# run harness


def test_run_scenario_riemann_smoke():
    s = Scenario(kind="riemann1d", nx=50, t_end=0.01, frames_every=2)
    res = scenarios.run_scenario(s)
    dt = 0.1 / 50
    steps = 5
    assert len(res.mass) == steps + 1
    assert len(res.newton_max) == steps
    assert np.all(res.newton_max <= 30)
    times = [t for t, _ in res.frames]
    assert times[0] == 0.0
    assert abs(times[-1] - s.t_end) < 1e-12
    assert abs(times[1] - 2 * dt) < 1e-12
    assert np.all(np.isfinite(res.final.rho))
    assert np.all(res.final.Z < 1.0)


def test_run_scenario_truncates_last_step():
    # 1/300 does not divide 0.01 exactly in floats; the final step shrinks
    s = Scenario(kind="smooth1d", nx=30, t_end=0.01)
    res = scenarios.run_scenario(s)
    assert abs(res.frames[-1][0] - 0.01) < 1e-12


def test_run_scenario_conserves_mass_periodic():
    s = Scenario(kind="smooth1d", nx=64, t_end=0.01, scheme="sl")
    res = scenarios.run_scenario(s)
    m0 = res.mass[0]
    assert np.all(np.abs(np.diff(res.mass)) <= 1e-12 * m0)


def test_run_scenario_reports_failing_step(monkeypatch):
    calls = []
    real_step = scheme_conservative.step

    def explode(grid, state, dt, law, **kw):
        calls.append(0)
        if len(calls) == 3:
            report = NewtonReport(iterations=99, residual=1.0, converged=False)
            raise NewtonError("diverged", report)
        return real_step(grid, state, dt, law, order=2)

    monkeypatch.setattr(scheme_conservative, "step", explode)
    s = Scenario(kind="smooth1d", nx=16, t_end=0.1)
    with pytest.raises(scenarios.ScenarioError) as err:
        scenarios.run_scenario(s)
    assert err.value.step == 3
    assert isinstance(err.value.__cause__, NewtonError)


@pytest.mark.parametrize("fail_at", [1, 3])
def test_scenario_error_names_the_background_cfl(monkeypatch, fail_at):
    infos = []
    real_step = scheme_conservative.step

    def explode(grid, state, dt, law, **kw):
        if len(infos) + 1 == fail_at:
            report = NewtonReport(iterations=99, residual=1.0, converged=False)
            raise NewtonError("line search stalled", report)
        new, info = real_step(grid, state, dt, law, **kw)
        infos.append((info, dt, grid.dx))
        return new, info

    monkeypatch.setattr(scheme_conservative, "step", explode)
    s = Scenario(kind="collide2d", nx=12, t_end=0.1)
    with pytest.raises(scenarios.ScenarioError) as err:
        scenarios.run_scenario(s)
    msg = str(err.value)
    assert "line search stalled" in msg
    if fail_at == 1:
        assert msg.endswith("background CFL of the last completed step: no step completed")
    else:
        info, dt, dx = infos[-1]
        cfl = info.max_speed * dt / dx
        assert cfl > 0.0
        assert msg.endswith(f"background CFL of the last completed step: {cfl:.6g}")


def test_run_scenario_stops_when_the_background_cfl_exceeds_one():
    # dt = 0.5 dx on the colliding tube puts the first step's background
    # waves at CFL 1.16; the run must stop there and name the cause.
    s = Scenario(kind="riemann1d", nx=50, order=1, dt_factor=0.5)
    with pytest.raises(scenarios.ScenarioError) as err:
        scenarios.run_scenario(s)
    assert err.value.step == 1
    assert str(err.value) == "step 1 failed at t=0: background CFL 1.16304 exceeds 1"


def test_cfl_stop_prints_a_number_above_one(monkeypatch):
    # a CFL just above 1 must not print as "1": the zq o2 tube at eps 1e-4
    # stops at a CFL of 1.00255
    real_step = scheme_conservative.step

    def overshoot(grid, state, dt, law, **kw):
        new, info = real_step(grid, state, dt, law, **kw)
        return new, dataclasses.replace(info, max_speed=1.0025 * grid.dx / dt)

    monkeypatch.setattr(scheme_conservative, "step", overshoot)
    with pytest.raises(scenarios.ScenarioError) as err:
        scenarios.run_scenario(Scenario(kind="smooth1d", nx=16, t_end=0.1))
    cfl = re.fullmatch(r"step 1 failed at t=0: background CFL (\S+) exceeds 1", str(err.value))
    assert float(cfl.group(1)) > 1.0


def test_scenario_error_keeps_the_steps_that_returned(monkeypatch):
    # the CFL stop keeps the step it stopped on; a solver failure keeps the
    # steps before the failing one
    with pytest.raises(scenarios.ScenarioError) as err:
        scenarios.run_scenario(Scenario(kind="riemann1d", nx=50, order=1, dt_factor=0.5))
    res = err.value.result
    assert len(res.steps) == 1 and len(res.mass) == len(res.times) == 2
    assert res.max_speed[0] * res.times[1] / res.grid.dx == pytest.approx(1.16, abs=5e-3)

    real_step = scheme_conservative.step

    def explode(grid, state, dt, law, **kw):
        if len(calls) == 2:
            report = NewtonReport(iterations=99, residual=1.0, converged=False)
            raise NewtonError("diverged", report)
        calls.append(0)
        return real_step(grid, state, dt, law, **kw)

    calls = []
    monkeypatch.setattr(scheme_conservative, "step", explode)
    with pytest.raises(scenarios.ScenarioError) as err:
        scenarios.run_scenario(Scenario(kind="smooth1d", nx=16, t_end=0.1))
    res = err.value.result
    assert err.value.step == 3 and len(res.steps) == 2
    assert np.array_equal(res.times, [0.0, 0.1 / 16, 2 * 0.1 / 16])


def test_run_scenario_lets_programming_errors_through(monkeypatch):
    def broken(grid, state, dt, law, **kw):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(scheme_conservative, "step", broken)
    with pytest.raises(TypeError):
        scenarios.run_scenario(Scenario(kind="smooth1d", nx=16, t_end=0.1))


def test_run_scenario_evacuation_drains_mass():
    s = Scenario(kind="evacuate2d", nx=24, t_end=0.2, epsilon=1e-2, scheme="sl")
    res = scenarios.run_scenario(s)
    assert res.mass[-1] < res.mass[0]
    assert np.all(res.final.Z < 1.0)


def test_evacuation_keeps_the_seeded_ceiling_in_its_range():
    # An unbounded interpolation of rho* lets the ceiling sink next to the
    # exit until the background CFL passes 1; the clipped one keeps it within
    # the seeded range [0.9, 1.1].
    s = Scenario(kind="evacuate2d", nx=64, t_end=1.0, scheme="sl", order=1,
                 epsilon=1e-4, profile="random", seed=2, frames_every=64)
    res = scenarios.run_scenario(s)
    assert res.frames[-1][0] == pytest.approx(1.0)
    for _, state in res.frames:
        assert 0.9 <= state.rho_star.min() and state.rho_star.max() <= 1.1


# ---------------------------------------------------------------------------
# refinement study


def test_restrict_block_average():
    fine = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(scenarios.restrict(fine, 2), np.array([0.5, 2.5]))
    with pytest.raises(ValueError):
        scenarios.restrict(fine, 3)


def test_convergence_study_requires_three_refinements():
    s = Scenario(kind="smooth1d", nx=16, t_end=0.01)
    with pytest.raises(ValueError):
        scenarios.run_convergence_study(s, [1 / 16, 1 / 32])


def test_convergence_study_self_comparison_is_zero():
    s = Scenario(kind="smooth1d", nx=16, t_end=0.01, scheme="zq", order=2)
    report = scenarios.run_convergence_study(s, [1 / 16, 1 / 32, 1 / 64])
    assert report.ref_dx == 1 / 64
    for name in ("rho", "q1", "Z", "rho_star"):
        errs = report.errors[name]
        # the finest refinement is the reference itself
        assert errs[-1] == 0.0
        assert np.all(errs[:-1] > 0)
        assert np.isfinite(report.slopes[name])
    assert report.dxs == [1 / 16, 1 / 32, 1 / 64]


def test_convergence_study_reports_the_spacings_it_ran():
    # 0.031 runs 32 cells, so the study is the one at 1/32 in every figure
    s = Scenario(kind="smooth1d", nx=16, t_end=0.01, scheme="zq", order=2)
    report = scenarios.run_convergence_study(s, [0.0625, 0.031, 0.015625])
    exact = scenarios.run_convergence_study(s, [1 / 16, 1 / 32, 1 / 64])
    assert report.dxs == exact.dxs == [1 / 16, 1 / 32, 1 / 64]
    assert (report.ref_dx, report.ref_dt) == (exact.ref_dx, exact.ref_dt)
    assert report.slopes == exact.slopes


def test_convergence_study_fixed_dt_plumbing():
    s = Scenario(kind="smooth1d", nx=16, t_end=0.01, order=1, dt=5e-4)
    report = scenarios.run_convergence_study(s, [1 / 16, 1 / 32, 1 / 64])
    assert report.dts == [5e-4] * 3
    assert report.ref_dt == 0.1 / 64


def test_convergence_study_second_order_slope_on_coarse_triple():
    s = Scenario(kind="smooth1d", nx=16, t_end=0.02, scheme="zq", order=2)
    report = scenarios.run_convergence_study(s, [1 / 32, 1 / 64, 1 / 128, 1 / 256])
    for name in ("rho", "q1", "Z"):
        assert report.slopes[name] > 1.2
