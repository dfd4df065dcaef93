"""End-to-end acceptance checks, one test and one printed verdict per criterion.

Module-scoped fixtures share the expensive runs between criteria; run with
`pytest -v -s tests/test_acceptance.py` to see the per-criterion lines as
they complete (total runtime is a few minutes on one core).
"""

import numpy as np
import pytest

from congested_euler import scenarios
from congested_euler.grid import Grid, GridState, l1_error
from congested_euler.pressure import PressureLaw, eigenvalues
from congested_euler.riemann import (
    CongestionLimitError,
    NotCongestedError,
    PrimState,
    limit_congested_solution,
    rh_residuals,
    solve_riemann,
)
from congested_euler.scenarios import Scenario
import congested_euler.scheme_conservative as sc
import congested_euler.scheme_semilag as ssl


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}]: {name}\n  {detail}")
    assert ok, f"criterion {num} failed: {name} ({detail})"


# shock-tube L1 targets at t=0.1, dx=1e-3, dt=0.1dx, second order in space
TABLE_TARGETS = {
    1e-2: {"rho": 8.66e-4, "q1": 1.28e-3, "Z": 3.03e-4, "rho_star": 5.70e-4},
    1e-4: {"rho": 9.75e-4, "q1": 2.11e-3, "Z": 3.70e-4, "rho_star": 5.71e-4},
}


@pytest.fixture(scope="module")
def riemann_runs():
    runs = {}
    for eps in (1e-2, 1e-4, 1e-6):
        s = Scenario(
            kind="riemann1d",
            nx=1000,
            scheme="zq",
            order=2,
            time_order=1,
            epsilon=eps,
            t_end=0.1,
            frames_every=25,
        )
        runs[eps] = scenarios.run_scenario(s)
    return runs


def test_criterion_1_shock_tube_error_table(riemann_runs):
    left, right = scenarios.riemann_states()
    ok = True
    details = []
    for eps, targets in TABLE_TARGETS.items():
        law = PressureLaw(eps, 2.0, 2.0)
        fan = solve_riemann(left, right, law)
        run = riemann_runs[eps]
        prof = fan.sample_profile(run.grid.centers_x, 0.1)
        state = run.final
        for name, target in targets.items():
            err = float(
                np.sum(np.abs(getattr(state, name) - prof[name])) * run.grid.dx
            )
            ratio = err / target
            ok = ok and 0.5 <= ratio <= 2.0
            details.append(f"eps={eps:g} {name}={err:.2e} ({ratio:.2f}x)")
    # the zero-gradient sides are exact only while no wave has reached them
    ends = [0, 1, -2, -1]
    for eps, run in riemann_runs.items():
        start, end = run.frames[0][1], run.final
        for name in ("rho", "q1", "Z", "rho_star"):
            moved = np.max(np.abs(getattr(end, name)[ends] - getattr(start, name)[ends]))
            assert moved <= 1e-12, f"eps={eps:g}: {name} at the tube ends moved by {moved:.2e}"
    _report(1, "shock-tube L1 errors within 2x of the pinned table", ok, " ".join(details))


def test_criterion_2_large_time_step_robustness(riemann_runs):
    ok = True
    details = []
    for eps, run in riemann_runs.items():
        finite = all(
            np.all(np.isfinite(f.rho))
            and np.all(np.isfinite(f.q1))
            and np.all(np.isfinite(f.Z))
            for _, f in run.frames
        )
        zmax = max(float(f.Z.max()) for _, f in run.frames)
        ok = ok and finite and zmax < 1.0
        details.append(f"eps={eps:g}: finite={finite} maxZ={zmax:.6f}")
    # dt = 0.1dx ignores the singular wave speeds on purpose; witness that the
    # congested state really is out of explicit-CFL reach at eps = 1e-4
    law = PressureLaw(1e-4, 2.0, 2.0)
    st = riemann_runs[1e-4].final
    lam = float(np.max(np.abs(eigenvalues(st.rho, st.q1, st.Z, law))))
    cfl = lam * 1e-4 / 1e-3
    ok = ok and cfl > 1.0
    details.append(f"lambda_max={lam:.1f} ({cfl:.1f}x over explicit CFL)")
    _report(2, "fixed dt=0.1dx sweep over eps in {1e-2,1e-4,1e-6}", ok, " ".join(details))


def _fan_l1_rho(run, eps):
    """L1 error of the final density against the exact fan."""
    fan = solve_riemann(*scenarios.riemann_states(), PressureLaw(eps, 2.0, 2.0))
    prof = fan.sample_profile(run.grid.centers_x, run.scenario.t_end)
    return l1_error(run.grid, run.final.rho, prof["rho"])


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_criterion_2_ap_rows_sl_order_1(eps):
    # The AP claim on the colliding shocks at dt = 0.1dx for sl order 1: a
    # run that merely stays finite and below Z = 1 (say, clamped onto the
    # congestion guard) is not enough, so its error must also be no larger
    # than that of zq order 1 on the same grid.
    base = dict(kind="riemann1d", nx=200, order=1, epsilon=eps, t_end=0.1)
    sl_run = scenarios.run_scenario(Scenario(scheme="sl", **base))
    zq_run = scenarios.run_scenario(Scenario(scheme="zq", **base))
    st = sl_run.final
    finite = all(np.all(np.isfinite(getattr(st, n))) for n in ("rho", "q1", "Z"))
    zmax = float(st.Z.max())
    err_sl, err_zq = _fan_l1_rho(sl_run, eps), _fan_l1_rho(zq_run, eps)
    ok = finite and zmax < 1.0 and err_sl <= err_zq
    _report(
        2, f"AP row sl o1 at eps={eps:g}, nx=200, dt=0.1dx", ok,
        f"finite={finite} 1-maxZ={1.0 - zmax:.1e} L1(rho) sl={err_sl:.3e} <= zq={err_zq:.3e}",
    )


@pytest.mark.parametrize("scheme", ["zq", "sl"])
def test_criterion_8_limit_rows_order_1(scheme):
    # The AP claim in the limit: at fixed dx and dt = 0.1dx, the o1 scheme
    # tends to a discretization of the hard-congestion system as eps -> 0.
    # Against the limit fan, its eps = 1e-10 error must fall with dx and stay
    # within 1.1x of the eps = 1e-8 one; Newton stays within 20 iterations
    # and the run stays off Z = 1 by at least 1e-8, so a run held just under
    # the ceiling by clamps does not pass.
    fan = limit_congested_solution(
        *scenarios.riemann_states(), PressureLaw(1e-10, 2.0, 2.0)
    )
    err, newton, gap = {}, 0, 1.0
    for nx in (200, 400, 800):
        for eps in (1e-8, 1e-10):
            run = scenarios.run_scenario(Scenario(
                kind="riemann1d", nx=nx, scheme=scheme, order=1, epsilon=eps, t_end=0.1
            ))
            prof = fan.sample_profile(run.grid.centers_x, 0.1)
            err[nx, eps] = l1_error(run.grid, run.final.rho, prof["rho"])
            newton = max(newton, int(run.newton_max.max()))
            gap = min(gap, 1.0 - float(run.final.Z.max()))
    falls = err[800, 1e-10] < err[200, 1e-10]
    settled = all(err[nx, 1e-10] <= 1.1 * err[nx, 1e-8] for nx in (200, 400, 800))
    ok = falls and settled and newton <= 20 and gap >= 1e-8
    _report(
        8, f"limit rows {scheme} o1 at eps in {{1e-8,1e-10}}, dt=0.1dx", ok,
        "L1(rho) vs limit fan at eps=1e-10: "
        + "/".join(f"{err[nx, 1e-10]:.2e}" for nx in (200, 400, 800))
        + f" (nx 200/400/800; falls={falls}, <=1.1x eps=1e-8: {settled}) "
        f"newton_max={newton} 1-maxZ>={gap:.1e}",
    )


# case 2's rows carry no case in their ids
CRITERION_9_ROWS = [
    pytest.param(case, scheme, order,
                 id=f"{scheme}-{order}" if case == 2 else f"case{case}-{scheme}-{order}")
    for case in (2, 1, 3) for scheme in ("zq", "sl") for order in (1, 2)
]


@pytest.mark.parametrize("case, scheme, order", CRITERION_9_ROWS)
def test_criterion_9_collide2d_ap_rows(case, scheme, order):
    # The AP claim on the 2D collision at dt = 0.1dx: each of the three
    # cases (case 2 settles most slowly in eps) stays finite, below Z = 1,
    # periodic-mass exact, unclamped, unswitched and within 15 Newton
    # iterations, and its density settles: the change from eps 1e-4 to 1e-6
    # is at most a tenth of the change from 1e-2 to 1e-4.
    runs, finite, zmax, drift, clamps, switches, newton = {}, True, 0.0, 0.0, 0, 0, 0
    for eps in (1e-2, 1e-4, 1e-6):
        run = scenarios.run_scenario(Scenario(
            kind="collide2d", nx=64, case=case, scheme=scheme, order=order, epsilon=eps,
            t_end=0.15, frames_every=16,
        ))
        runs[eps] = run
        for _, f in run.frames:
            finite = finite and all(
                np.all(np.isfinite(getattr(f, n))) for n in ("rho", "q1", "q2", "Z")
            )
            zmax = max(zmax, float(f.Z.max()))
        drift = max(drift, float(np.max(np.abs(np.diff(run.mass)))) / run.mass[0])
        clamps += sum(i.clamps for i in run.steps)
        switches += sum(i.switched for i in run.steps)
        newton = max(newton, int(run.newton_max.max()))
    grid = runs[1e-2].grid
    early = l1_error(grid, runs[1e-2].final.rho, runs[1e-4].final.rho)
    late = l1_error(grid, runs[1e-4].final.rho, runs[1e-6].final.rho)
    ok = (finite and zmax < 1.0 and drift <= 1e-12 and clamps == 0 and switches == 0
          and newton <= 15 and late <= 0.1 * early)
    _report(
        9, f"collide2d AP row {scheme} o{order}, case {case}, 64^2, eps in {{1e-2,1e-4,1e-6}}",
        ok,
        f"finite={finite} 1-maxZ={1.0 - zmax:.1e} mass drift/step={drift:.1e} "
        f"clamps={clamps} switches={switches} newton_max={newton} "
        f"L1(rho) 1e-2->1e-4 {early:.2e}, 1e-4->1e-6 {late:.2e} (ratio {late / early:.3f})",
    )


@pytest.mark.parametrize("scheme", ["zq", "sl"])
def test_criterion_10_room_newton_budget(scheme):
    # The Newton cost of a room that is mostly free: the 48^2 constant
    # ceiling rho* 1.1 evacuated to t = 1 at eps 1e-2, where Newton in the
    # pressure crawls through the sqrt(P) part of Z(P) unless it starts near
    # the root.  Its end mass is the one both schemes reach, to 6 digits.
    run = scenarios.run_scenario(Scenario(
        kind="evacuate2d", nx=48, scheme=scheme, order=1, epsilon=1e-2,
        profile="constant", rho_star_const=1.1, t_end=1.0,
    ))
    newton = int(run.newton_max.max())
    mass = float(run.mass[-1])
    ok = newton <= 8 and abs(mass - 0.575843) <= 5e-7
    _report(
        10, f"room Newton budget {scheme} o1, 48^2, rho*=1.1, eps=1e-2, t=1", ok,
        f"newton_max={newton} <= 8, end mass={mass:.6f} (0.575843)",
    )


@pytest.fixture(scope="module")
def smooth_reference():
    s = Scenario(
        kind="smooth1d", nx=10000, t_end=0.05, epsilon=1e-2, scheme="zq", order=2
    )
    return scenarios.run_scenario(s).final


def test_criterion_3_convergence_slopes(smooth_reference):
    dxs = [4e-3, 2e-3, 1e-3]
    base = dict(kind="smooth1d", nx=250, t_end=0.05, epsilon=1e-2)
    variants = {
        ("zq", 1): Scenario(scheme="zq", order=1, dt=5e-6, **base),
        ("sl", 1): Scenario(scheme="sl", order=1, dt=5e-6, **base),
        ("zq", 2): Scenario(scheme="zq", order=2, **base),
        ("sl", 2): Scenario(scheme="sl", order=2, **base),
    }
    reports = {
        key: scenarios.run_convergence_study(
            scn, dxs, ref_dx=1e-4, ref_state=smooth_reference
        )
        for key, scn in variants.items()
    }
    ok = True
    details = []
    for (scheme, order), rep in reports.items():
        want = float(order)
        slopes = {n: rep.slopes[n] for n in ("rho", "q1", "Z")}
        ok = ok and all(abs(v - want) <= 0.3 for v in slopes.values())
        details.append(
            f"{scheme}-o{order}:"
            + ",".join(f"{n}={v:.2f}" for n, v in slopes.items())
        )
    for order in (1, 2):
        better = bool(
            np.all(
                reports[("sl", order)].errors["rho_star"]
                < reports[("zq", order)].errors["rho_star"]
            )
        )
        ok = ok and better
        details.append(f"rho* sl<zq at o{order}: {better}")
    _report(3, "L1 slopes 1/2 within 0.3; SL resolves rho* better", ok, " ".join(details))


def test_criterion_4_exact_oracle_self_consistency():
    laws = [PressureLaw(e, 2.0, 2.0) for e in (1e-2, 1e-4, 1e-6)]
    law6 = laws[-1]
    worst_rh = worst_rs = worst_dv = 0.0
    fans = compared = 0
    for vl in (0.4, 0.8, 1.2):
        for scale in (0.6, 1.0):
            for Zl in (0.4, 0.6):
                for Zr in (0.5, 0.7):
                    left = PrimState(0.7, vl, Zl)
                    right = PrimState(0.65, -vl * scale, Zr)
                    fan6 = None
                    for law in laws:
                        try:
                            fan = solve_riemann(left, right, law)
                        except CongestionLimitError:
                            continue
                        fans += 1
                        res = rh_residuals(fan)
                        if res:
                            worst_rh = max(worst_rh, max(res))
                        worst_rs = max(
                            worst_rs,
                            abs(
                                fan.left.rho / fan.left.Z
                                - fan.mid_left.rho / fan.mid_left.Z
                            ),
                            abs(
                                fan.right.rho / fan.right.Z
                                - fan.mid_right.rho / fan.mid_right.Z
                            ),
                        )
                        if law is law6:
                            fan6 = fan
                    try:
                        lim = limit_congested_solution(left, right, law6)
                    except NotCongestedError:
                        continue
                    if fan6 is not None:
                        v6 = 0.5 * (fan6.mid_left.v + fan6.mid_right.v)
                        vlim = 0.5 * (lim.mid_left.v + lim.mid_right.v)
                        worst_dv = max(worst_dv, abs(v6 - vlim))
                        compared += 1
    ok = (
        worst_rh <= 1e-8
        and worst_rs <= 1e-12
        and worst_dv <= 1e-3
        and compared >= 4
    )
    _report(
        4,
        "exact-solver sweep: RH defects, rho* constancy, stiff limit",
        ok,
        f"fans={fans} RH={worst_rh:.1e} d(rho*)={worst_rs:.1e} "
        f"dv={worst_dv:.1e} over {compared} congested collisions",
    )


def test_criterion_5_conservation_and_admissibility():
    periodic = [
        Scenario(kind="smooth1d", nx=128, t_end=0.02, scheme="zq", order=2, frames_every=1),
        Scenario(kind="smooth1d", nx=128, t_end=0.02, scheme="sl", order=2, frames_every=1),
        Scenario(kind="smooth1d", nx=128, t_end=0.02, scheme="zq", order=1, frames_every=1),
        Scenario(kind="smooth1d", nx=128, t_end=0.02, scheme="sl", order=1, frames_every=1),
        Scenario(kind="collide2d", nx=32, case=2, t_end=0.02, scheme="zq", order=1,
                 epsilon=1e-4, frames_every=1),
        Scenario(kind="collide2d", nx=32, case=3, t_end=0.02, scheme="sl", order=2,
                 epsilon=1e-4, frames_every=1),
    ]
    others = [
        Scenario(kind="riemann1d", nx=200, t_end=0.05, scheme="zq", order=2,
                 epsilon=1e-4, frames_every=1),
        Scenario(kind="riemann1d", nx=200, t_end=0.05, scheme="sl", order=2,
                 frames_every=1),
        Scenario(kind="collide2d", nx=32, case=1, t_end=0.02, scheme="sl", order=1,
                 epsilon=1e-4, frames_every=1),
        Scenario(kind="evacuate2d", nx=32, t_end=0.05, scheme="sl", order=1,
                 epsilon=1e-4, profile="step", frames_every=1),
        Scenario(kind="evacuate2d", nx=32, t_end=0.05, scheme="sl", order=2,
                 profile="random", seed=3, frames_every=1),
        Scenario(kind="evacuate2d", nx=32, t_end=0.05, scheme="zq", order=1,
                 profile="linear", frames_every=1),
    ]
    ok = True
    details = []
    worst_drift = 0.0
    worst_nit = 0
    for s in periodic + others:
        res = scenarios.run_scenario(s)
        if s in periodic:
            drift = float(np.max(np.abs(np.diff(res.mass)))) / res.mass[0]
            worst_drift = max(worst_drift, drift)
            ok = ok and drift <= 1e-12
        zmax = max(float(f.Z.max()) for _, f in res.frames)
        nit = int(res.newton_max.max())
        worst_nit = max(worst_nit, nit)
        ok = ok and zmax < 1.0 and nit <= 30
    details.append(f"periodic mass drift/step <= {worst_drift:.1e}")
    details.append(f"maxZ<1 every step; worst Newton count {worst_nit}")
    _report(5, "mass conservation, Z bound, Newton budget on shipped runs", ok, " ".join(details))


@pytest.fixture(scope="module")
def collide_case1_run():
    s = Scenario(
        kind="collide2d",
        nx=128,
        case=1,
        scheme="zq",
        order=1,
        epsilon=1e-4,
        t_end=0.15,
        frames_every=96,
    )
    return scenarios.run_scenario(s)


def test_criterion_6_desk_scale_2d_sanity(collide_case1_run):
    res = collide_case1_run
    ok = True
    details = []
    worst = 0.0
    for _, f in res.frames:
        worst = max(
            worst,
            float(np.max(np.abs(f.rho - np.rot90(f.rho)))),
            float(np.max(np.abs(f.rho_star - np.rot90(f.rho_star)))),
            float(np.max(np.abs(f.q1 - np.rot90(f.q2)))),
            float(np.max(np.abs(f.q2 + np.rot90(f.q1)))),
        )
    ok = ok and worst <= 1e-8
    details.append(f"case-1 quarter-turn drift {worst:.1e}")

    # columns of a y-invariant run must reproduce the 1D scheme exactly
    g1 = Grid(nx=128)
    g2 = Grid(nx=128, ny=128)
    st0 = scenarios.build_initial_state(Scenario(kind="smooth1d", nx=128), g1)
    law = PressureLaw(1e-2, 2.0, 2.0)
    dt = 0.1 * g1.dx
    tile = lambda a: np.tile(a, (128, 1))
    worst_col = 0.0
    for stepper in (sc.step, ssl.step):
        st1 = st0.copy()
        st2 = GridState(
            rho=tile(st0.rho),
            q1=tile(st0.q1),
            Z=tile(st0.Z),
            rho_star=tile(st0.rho_star),
            q2=np.zeros(g2.shape),
        )
        for _ in range(8):
            st1, _ = stepper(g1, st1, dt, law, order=2)
            st2, _ = stepper(g2, st2, dt, law, order=2)
        worst_col = max(
            worst_col,
            max(
                float(np.max(np.abs(getattr(st2, n) - tile(getattr(st1, n)))))
                for n in ("rho", "q1", "Z", "rho_star")
            ),
            float(np.max(np.abs(st2.q2))),
        )
    ok = ok and worst_col <= 1e-12
    details.append(f"y-invariant column defect {worst_col:.1e} (both schemes)")
    details.append("qualitative frames: congested-euler collide2d --case N (inspection)")
    _report(6, "128x128 rotation symmetry and 1D embedding", ok, " ".join(details))


@pytest.fixture(scope="module")
def evacuation_runs():
    runs = {}
    for rs in (1.1, 0.9):
        s = Scenario(
            kind="evacuate2d",
            nx=128,
            t_end=1.0,
            scheme="sl",
            order=1,
            epsilon=1e-4,
            profile="constant",
            rho_star_const=rs,
            frames_every=64,
        )
        runs[rs] = scenarios.run_scenario(s)
    return runs


def test_criterion_7_evacuation_trend_and_stop_and_go(evacuation_runs):
    m_high = float(evacuation_runs[1.1].mass[-1])
    m_low = float(evacuation_runs[0.9].mass[-1])
    ok = m_high < m_low
    details = [f"mass(rho*=1.1)={m_high:.5f} < mass(rho*=0.9)={m_low:.5f}: {ok}"]
    # stopped front: the |v| minimum on the exit centerline retreats in time
    for rs, run in evacuation_runs.items():
        grid = run.grid
        i_mid = grid.nx // 2
        ys = []
        for t, f in run.frames:
            if t < 0.5:
                continue
            speed = np.hypot(f.q1[:, i_mid] / f.rho[:, i_mid],
                             f.q2[:, i_mid] / f.rho[:, i_mid])
            ys.append(float(grid.centers_y[int(np.argmin(speed))]))
        backward = all(b >= a for a, b in zip(ys, ys[1:])) and ys[-1] - ys[0] > 0.05
        ok = ok and backward
        details.append(f"rho*={rs}: argmin|v| {ys[0]:.3f}->{ys[-1]:.3f} backward={backward}")
    _report(7, "evacuation mass trend and backward stop-and-go front", ok, " ".join(details))
