import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from congested_euler.pressure import (
    CongestionGuardError,
    PressureLaw,
    eigenvalues,
    total_pressure_deriv,
)
from congested_euler.riemann import (
    CongestionLimitError,
    NotCongestedError,
    PrimState,
    RiemannFan,
    VacuumError,
    hugoniot_velocity,
    limit_congested_solution,
    rarefaction_velocity,
    rh_residuals,
    shock_speed,
    solve_riemann,
    wave_curve_velocity,
)

LAW2 = PressureLaw(epsilon=1e-2, alpha=2.0, gamma=2.0)
LAW4 = PressureLaw(epsilon=1e-4, alpha=2.0, gamma=2.0)
LAW6 = PressureLaw(epsilon=1e-6, alpha=2.0, gamma=2.0)

# Colliding data used throughout: (rho, q, rho*) = (0.7, +-0.8, 1.2 | 1.0).
COLLIDE_L = PrimState(rho=0.7, v=0.8 / 0.7, Z=0.7 / 1.2)
COLLIDE_R = PrimState(rho=0.7, v=-0.8 / 0.7, Z=0.7)


def rarefaction_velocity_ode(Z, hat, law, family):
    """Independent route to the integral curve: integrate dv/dZ with an ODE solver."""
    sign = -1.0 if family == 1 else 1.0

    def rhs(s, _v):
        return sign * np.sqrt(total_pressure_deriv(s, law) / hat.rho_star) / s

    sol = solve_ivp(rhs, (hat.Z, Z), [hat.v], rtol=1e-12, atol=1e-14,
                    dense_output=False)
    assert sol.success
    return sol.y[0, -1]


def test_integral_curve_matches_ode_oracle():
    hat = PrimState(rho=0.7, v=0.3, Z=0.6)
    for family in (1, 3):
        for Z in (0.45, 0.2, 0.05):
            ours = rarefaction_velocity(Z, hat, LAW2, family)
            ref = rarefaction_velocity_ode(Z, hat, LAW2, family)
            assert ours == pytest.approx(ref, abs=1e-10)


def test_curve_branches_meet_tangentially():
    # jump locus and integral curve agree to second order at the base state
    hat = PrimState(rho=0.8, v=0.1, Z=0.55)
    for family in (1, 3):
        for h in (1e-4, 1e-5):
            vh = hugoniot_velocity(hat.Z + h, hat, LAW2, family)
            vr = rarefaction_velocity(hat.Z + h, hat, LAW2, family)
            assert vh == pytest.approx(vr, abs=20.0 * h**2)


def test_shock_speed_formula_matches_jump_ratio():
    hat = PrimState(rho=0.8, v=0.1, Z=0.55)
    for family in (1, 3):
        Z = 0.8
        v = hugoniot_velocity(Z, hat, LAW2, family)
        rho = hat.rho_star * Z
        sigma_jump = (rho * v - hat.q) / (rho - hat.rho)
        assert shock_speed(Z, hat, LAW2, family) == pytest.approx(sigma_jump, abs=1e-12)
    # at zero strength the speed is the characteristic one
    lam1, _, lam3 = eigenvalues(hat.rho, hat.q, hat.Z, LAW2)
    assert shock_speed(hat.Z, hat, LAW2, 1) == pytest.approx(lam1, abs=1e-12)
    assert shock_speed(hat.Z, hat, LAW2, 3) == pytest.approx(lam3, abs=1e-12)


def test_colliding_fan_frozen_values():
    fan = solve_riemann(COLLIDE_L, COLLIDE_R, LAW4)
    w1, wc, w3 = fan.waves
    assert w1.kind == "shock" and w3.kind == "shock"
    assert fan.mid_left.Z == pytest.approx(0.993023023563, abs=1e-9)
    assert wc.speed_lo == pytest.approx(-0.111916201082, abs=1e-9)
    assert w1.speed_lo == pytest.approx(-1.8985150215, abs=1e-8)
    assert w3.speed_lo == pytest.approx(2.3508891118, abs=1e-8)
    assert fan.pressures[1] == pytest.approx(3.01183668, abs=1e-6)
    assert fan.residual <= 1e-10
    # stiffer singular pressure pushes the middle state further from Z = 1
    soft = solve_riemann(COLLIDE_L, COLLIDE_R, LAW2)
    assert soft.mid_left.Z == pytest.approx(0.940151703943, abs=1e-9)
    assert soft.waves[1].speed_lo == pytest.approx(-0.130749008902, abs=1e-9)


def test_colliding_fan_rh_residuals():
    for law in (LAW2, LAW4, LAW6):
        fan = solve_riemann(COLLIDE_L, COLLIDE_R, law)
        assert max(rh_residuals(fan)) <= 1e-10
        # congestion density rides unchanged across each nonlinear wave
        assert fan.mid_left.rho_star == pytest.approx(COLLIDE_L.rho_star, rel=1e-12)
        assert fan.mid_right.rho_star == pytest.approx(COLLIDE_R.rho_star, rel=1e-12)


@pytest.mark.parametrize("eps", [1e-10, 1e-11, 1e-12])
def test_stiff_fan_resolves_next_to_congestion(eps):
    # within 1e-5 of Z = 1 the wave curves are so steep that the root's own
    # resolution leaves a velocity gap near 1e-10; the fan must still resolve
    law = PressureLaw(epsilon=eps, alpha=2.0, gamma=2.0)
    fan = solve_riemann(COLLIDE_L, COLLIDE_R, law)
    assert 0.0 < 1.0 - fan.mid_left.Z < 1e-5
    assert fan.residual <= 1e-9
    assert max(rh_residuals(fan)) <= 1e-9
    lim = limit_congested_solution(COLLIDE_L, COLLIDE_R, law)
    assert abs(fan.waves[1].speed_lo - lim.waves[1].speed_lo) <= 1e-5


def test_limit_fan_frozen_values():
    lim = limit_congested_solution(COLLIDE_L, COLLIDE_R, LAW4)
    w1, wc, w3 = lim.waves
    assert lim.pressures[1] == pytest.approx(2.978174665903, abs=1e-9)
    assert wc.speed_lo == pytest.approx(-0.110209782380, abs=1e-9)
    assert w1.speed_lo == pytest.approx(-1.8645034777, abs=1e-8)
    assert w3.speed_lo == pytest.approx(2.2993007254, abs=1e-8)
    assert lim.mid_left.Z == 1.0 and lim.mid_right.Z == 1.0
    assert lim.mid_left.rho == pytest.approx(1.2, rel=1e-12)
    assert lim.mid_right.rho == pytest.approx(1.0, rel=1e-12)
    assert max(rh_residuals(lim)) <= 1e-10
    # plateau pressure exceeds both adjacent background pressures
    assert lim.pressures[1] > max(lim.pressures[0], lim.pressures[2])


def test_small_eps_fan_approaches_limit_fan():
    fan = solve_riemann(COLLIDE_L, COLLIDE_R, LAW6)
    lim = limit_congested_solution(COLLIDE_L, COLLIDE_R, LAW6)
    assert abs(fan.waves[1].speed_lo - lim.waves[1].speed_lo) <= 1e-3
    assert abs(fan.waves[0].speed_lo - lim.waves[0].speed_lo) <= 5e-3
    assert abs(fan.waves[2].speed_lo - lim.waves[2].speed_lo) <= 7e-3


def test_limit_fan_rejects_weak_collision():
    weak_l = PrimState(rho=0.3, v=0.1, Z=0.3)
    weak_r = PrimState(rho=0.3, v=-0.1, Z=0.3)
    with pytest.raises(NotCongestedError):
        limit_congested_solution(weak_l, weak_r, LAW4)
    # data that part into vacuum never reach Z = 1 either
    with pytest.raises(NotCongestedError):
        limit_congested_solution(PrimState(0.7, -3.0, 0.7 / 1.2), PrimState(0.7, 3.0, 0.7), LAW4)
    # a side already on the bound has no finite limit shock: its wave is
    # degenerate, and its sound speed is the singular one
    with pytest.raises(CongestionGuardError):
        limit_congested_solution(PrimState(0.9, 1.0, 1 - 1e-15), PrimState(0.7, -1.0, 0.7),
                                 PressureLaw(1e-4))


def test_vacuum_detection():
    apart_l = PrimState(rho=0.5, v=-5.0, Z=0.5)
    apart_r = PrimState(rho=0.5, v=5.0, Z=0.5)
    with pytest.raises(VacuumError):
        solve_riemann(apart_l, apart_r, LAW2)


def test_double_rarefaction_sampling():
    left = PrimState(rho=0.5, v=-0.3, Z=0.5)
    right = PrimState(rho=0.5, v=0.3, Z=0.5)
    fan = solve_riemann(left, right, LAW2)
    w1, wc, w3 = fan.waves
    assert w1.kind == "rarefaction" and w3.kind == "rarefaction"
    assert wc.speed_lo == pytest.approx(0.0, abs=1e-12)  # symmetric collision
    assert fan.mid_left.Z < left.Z
    # inside each fan the sampled state solves lambda(state) = xi
    for xi in np.linspace(w1.speed_lo + 1e-9, w1.speed_hi - 1e-9, 7):
        s = fan.sample(xi)
        lam1, _, _ = eigenvalues(s.rho, s.q, s.Z, LAW2)
        assert lam1 == pytest.approx(xi, abs=1e-9)
    for xi in np.linspace(w3.speed_lo + 1e-9, w3.speed_hi - 1e-9, 7):
        s = fan.sample(xi)
        _, _, lam3 = eigenvalues(s.rho, s.q, s.Z, LAW2)
        assert lam3 == pytest.approx(xi, abs=1e-9)
    # continuity at the fan edges
    eps = 1e-11
    head = fan.sample(w1.speed_lo - eps)
    inside = fan.sample(w1.speed_lo + eps)
    assert head.rho == pytest.approx(inside.rho, rel=1e-6)
    tail = fan.sample(w1.speed_hi - eps)
    after = fan.sample(w1.speed_hi + eps)
    assert tail.rho == pytest.approx(after.rho, rel=1e-6)


def test_sample_profile_piecewise_structure():
    fan = solve_riemann(COLLIDE_L, COLLIDE_R, LAW4)
    x = np.linspace(0.0, 1.0, 401)
    prof = fan.sample_profile(x, t=0.1, x0=0.5)
    w1, wc, w3 = fan.waves
    pre = x < 0.5 + 0.1 * w1.speed_lo - 1e-9
    np.testing.assert_allclose(prof["rho"][pre], COLLIDE_L.rho)
    np.testing.assert_allclose(prof["Z"][pre], COLLIDE_L.Z)
    post = x > 0.5 + 0.1 * w3.speed_hi + 1e-9
    np.testing.assert_allclose(prof["rho"][post], COLLIDE_R.rho)
    mid = (np.abs(x - 0.5) < 0.02) & (x < 0.5 + 0.1 * wc.speed_lo - 1e-9)
    np.testing.assert_allclose(prof["rho_star"][mid], COLLIDE_L.rho_star, rtol=1e-12)
    # at t = 0 the profile is the raw data
    prof0 = fan.sample_profile(x, t=0.0, x0=0.5)
    np.testing.assert_allclose(prof0["q1"][x < 0.5], COLLIDE_L.q)
    np.testing.assert_allclose(prof0["q1"][x > 0.5], COLLIDE_R.q)


def test_lax_inequalities_on_colliding_fan():
    fan = solve_riemann(COLLIDE_L, COLLIDE_R, LAW4)
    w1, wc, w3 = fan.waves
    lam1_l, _, _ = eigenvalues(COLLIDE_L.rho, COLLIDE_L.q, COLLIDE_L.Z, LAW4)
    lam1_m, _, _ = eigenvalues(fan.mid_left.rho, fan.mid_left.q, fan.mid_left.Z, LAW4)
    assert lam1_m < w1.speed_lo < lam1_l
    _, _, lam3_m = eigenvalues(fan.mid_right.rho, fan.mid_right.q, fan.mid_right.Z, LAW4)
    _, _, lam3_r = eigenvalues(COLLIDE_R.rho, COLLIDE_R.q, COLLIDE_R.Z, LAW4)
    assert lam3_r < w3.speed_lo < lam3_m
    assert w1.speed_hi <= wc.speed_lo <= w3.speed_lo


states = st.builds(
    PrimState,
    rho=st.floats(0.1, 2.0),
    v=st.floats(-1.0, 1.0),
    Z=st.floats(0.05, 0.9),
)


@settings(max_examples=25, deadline=None)
@given(states, states)
# the left rarefaction reaches down to small Z, near the s^(-1/2) singularity
# of the integral curve's integrand
@example(PrimState(rho=0.625, v=0.0, Z=0.75), PrimState(rho=0.5, v=0.5, Z=0.125))
def test_random_fans_are_consistent(left, right):
    try:
        fan = solve_riemann(left, right, LAW2)
    except (VacuumError, CongestionLimitError):
        return
    assert fan.residual <= 1e-10
    assert 0.0 < fan.mid_left.Z < 1.0
    w1, wc, w3 = fan.waves
    assert w1.speed_hi <= wc.speed_lo + 1e-12
    assert wc.speed_lo <= w3.speed_lo + 1e-12
    if rh_residuals(fan):
        assert max(rh_residuals(fan)) <= 1e-8
    # mirrored data produce the mirrored fan
    mirrored = solve_riemann(
        PrimState(right.rho, -right.v, right.Z),
        PrimState(left.rho, -left.v, left.Z),
        LAW2,
    )
    assert mirrored.mid_left.Z == pytest.approx(fan.mid_left.Z, rel=1e-9)
    assert mirrored.waves[1].speed_lo == pytest.approx(-wc.speed_lo, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    st.floats(0.1, 0.8),
    st.floats(0.3, 0.9),
    st.floats(-0.5, 0.5),
    st.floats(0.05, 0.6),
)
def test_wave_curves_are_monotone(rho, Zhat, vhat, Z):
    hat = PrimState(rho=rho, v=vhat, Z=Zhat)
    h = 1e-7
    up = wave_curve_velocity(Z + h, hat, LAW2, 1)
    dn = wave_curve_velocity(Z - h, hat, LAW2, 1)
    assert up <= dn + 1e-12  # forward curve falls with Z
    up3 = wave_curve_velocity(Z + h, hat, LAW2, 3)
    dn3 = wave_curve_velocity(Z - h, hat, LAW2, 3)
    assert up3 >= dn3 - 1e-12  # backward curve rises with Z
