import numpy as np
import pytest
import scipy.sparse as sp

from congested_euler.elliptic import (
    CG_RTOL,
    FORCING_FLOOR,
    TOL_ABS,
    DiffusionOperator,
    EllipticProblem,
    LinearSolveError,
    NewtonError,
    _solve_cyclic_tridiagonal,
    _solve_linear,
    solve_newton,
)
from congested_euler.grid import (
    Grid,
    OutflowWindow,
    Periodic,
    Wall,
    _axes,
    _offset,
    _shifted,
    pad_field,
)
from congested_euler.pressure import (
    PressureLaw,
    inverse_slope_floor,
    singular_pressure,
    singular_pressure_inverse,
    singular_pressure_inverse_deriv,
)

LAW = PressureLaw(epsilon=1e-2, alpha=2.0, gamma=2.0)
RNG = np.random.default_rng(42)


def stride2_terms(grid, a, scale):
    """Face-coefficient stride-2 couplings, the pressure-form operator shape."""
    ap = pad_field(grid, a)
    return [
        (_offset(grid, axis, 2 * k), scale * _shifted(grid, ap, _offset(grid, axis, k)))
        for axis, _, _ in _axes(grid) for k in (1, -1)
    ]


def laplacian_terms(grid, scale):
    """Constant-coefficient stride-1 couplings, a second operator shape."""
    w = np.full(grid.shape, scale)
    if grid.ndim == 1:
        return [((+1,), w), ((-1,), w.copy())]
    return [((0, +1), w), ((0, -1), w.copy()), ((+1, 0), w.copy()), ((-1, 0), w.copy())]


def identity_problem(op, rhs):
    one = lambda u: np.ones_like(u)
    ident = lambda u: u
    return EllipticProblem(op=op, rhs=rhs, f=ident, fprime=one)


GRID_CASES = [
    Grid(nx=12),  # periodic, even cell count: two stride-2 chains
    Grid(nx=13),  # periodic, odd: one chain visiting every cell
    Grid(nx=10, bc_x=(Wall(), Wall())),
    Grid(nx=10, bc_x=(OutflowWindow(0.0, 1.0), Wall())),
    Grid(nx=8, ny=6),
    Grid(nx=8, ny=6, bc_x=(Wall(), Wall()), bc_y=(OutflowWindow(0.3, 0.7), Wall())),
    Grid(nx=8, ny=6, bc_x=(OutflowWindow(0.0, 1.0),) * 2),
    Grid(nx=4),  # periodic: two stride-2 pairs, each a two-cell path
    Grid(nx=6),  # periodic: two three-cell cycles
    Grid(nx=7),  # periodic: one cycle
    Grid(nx=9, bc_x=(Wall(), Wall())),  # odd: still one ring
    Grid(nx=9, bc_x=(OutflowWindow(0.0, 1.0),) * 2),  # zero-gradient: one ring
]

# (path lengths, cycle lengths) of the stride-2 chains of each 1D case
CHAIN_SHAPES = {
    0: ([], [6, 6]),
    1: ([], [13]),
    2: ([], [10]),  # ring 0-2-4-6-8-9-7-5-3-1
    3: ([], [10]),  # mirrored ends join the two sublattices, as for walls
    7: ([2, 2], []),
    8: ([], [3, 3]),
    9: ([], [7]),
    10: ([], [9]),
    11: ([], [9]),
}

LAPLACIAN_GRIDS = (Grid(nx=11), Grid(nx=9, bc_x=(Wall(), Wall())), Grid(nx=6, ny=5))


def make_operator(grid, scale=0.3):
    a = 0.5 + RNG.random(grid.shape)
    return DiffusionOperator(grid, stride2_terms(grid, a, scale))


@pytest.mark.parametrize("grid", GRID_CASES)
def test_matrix_agrees_with_padded_apply(grid):
    op = make_operator(grid)
    A = op.matrix()
    for _ in range(3):
        g = RNG.random(grid.shape)
        via_pad = op.apply(g).ravel()
        via_mat = A @ g.ravel()
        np.testing.assert_allclose(via_mat, via_pad, rtol=0, atol=1e-13)


@pytest.mark.parametrize("grid", GRID_CASES)
def test_operator_matrix_is_symmetric(grid):
    # face-shared coefficients make the coupling matrix symmetric bit for bit,
    # including every kind of boundary folding; the 1D LDL^T solve relies on it
    A = make_operator(grid).matrix()
    assert (A != A.T).nnz == 0


@pytest.mark.parametrize("grid", [g for g in GRID_CASES if g.ndim == 1])
def test_1d_chain_form_rebuilds_negated_matrix(grid):
    # the 1D linear stage keeps only the diagonal and the ``up`` couplings, so
    # mirroring them must rebuild -A in chain order exactly
    op = make_operator(grid)
    A = op.matrix()
    p = op.pattern
    dn, up = op._negated()
    m = dn.size
    nxt = np.arange(1, m + 1)
    nxt[p.last] = p.first
    chain = np.diag(dn)
    for pos in np.flatnonzero(nxt < m):
        chain[pos, nxt[pos]] += up[pos]
        chain[nxt[pos], pos] += up[pos]
    np.testing.assert_array_equal(chain, -A.toarray()[np.ix_(p.order, p.order)])


def test_far_start_converges_to_absolute_tolerance():
    # a start 1e12 away from the root: the first step leaves a residual far
    # below the starting one but above TOL_ABS, and Newton must go on
    grid = GRID_CASES[0]
    op = make_operator(grid, scale=0.2)
    A = op.matrix()
    u_exact = RNG.random(grid.size)
    problem = identity_problem(op, u_exact - A @ u_exact)
    u, report = solve_newton(problem, np.full(grid.shape, 1e12))
    assert report.converged and report.residual <= 1e-10
    assert np.max(np.abs(problem.residual(u.ravel()))) <= 1e-10


@pytest.mark.parametrize("grid", GRID_CASES)
def test_linear_solves_match_dense_oracle(grid):
    op = make_operator(grid, scale=0.2)
    A = op.matrix()
    u_exact = RNG.random(grid.size)
    rhs = u_exact - A @ u_exact
    u, report = solve_newton(identity_problem(op, rhs), np.zeros(grid.shape))
    assert report.converged and report.iterations == 1
    np.testing.assert_allclose(u.ravel(), u_exact, rtol=0, atol=1e-11)
    n = grid.size
    dense = np.linalg.solve(np.eye(n) - A.toarray(), rhs)
    np.testing.assert_allclose(u.ravel(), dense, rtol=0, atol=1e-11)


def coo_matrix_reference(op):
    """A of ``op`` assembled from scratch, term by term, through COO."""
    grid, n = op.grid, op.grid.size
    gm = grid.ghost_map()
    rows, cols, vals = [], [], []
    c = np.arange(n)
    for off, w in op.terms:
        wf = np.asarray(w, dtype=float).ravel()
        nb = np.asarray(_shifted(grid, gm.src, off)).ravel()
        rows += [c, c]
        cols += [nb, c]
        vals += [wf, -wf]
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return A.toarray()


def reference_cases():
    """Two operators with different weights on each test grid."""
    for grid in GRID_CASES:
        yield grid, [make_operator(grid), make_operator(grid, scale=0.7)]
    for grid in LAPLACIAN_GRIDS:
        yield grid, [DiffusionOperator(grid, laplacian_terms(grid, s)) for s in (0.7, 0.2)]


def test_pattern_assembly_matches_coo_reference():
    for grid, ops in reference_cases():
        assert ops[0].pattern is ops[1].pattern
        for op in ops:
            A = op.matrix()
            np.testing.assert_allclose(A.toarray(), coo_matrix_reference(op), rtol=0, atol=1e-15)


def test_linear_solve_with_varying_diagonal_matches_dense():
    for grid, ops in reference_cases():
        for op in ops:
            A = op.matrix()
            fp = 0.5 + RNG.random(grid.size)
            b = RNG.standard_normal(grid.size)
            x = _solve_linear(op, fp, b)
            dense = np.diag(fp) - A.toarray()
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=0, atol=1e-11)


def test_cg_stall_raises_linear_solve_error(monkeypatch):
    import congested_euler.elliptic as elliptic

    monkeypatch.setattr(elliptic, "cg", lambda S, b, **kw: (np.zeros_like(b), 7))
    op = make_operator(GRID_CASES[4])
    A = op.matrix()
    fp = np.linspace(1.0, 2.0, op.grid.size)
    with pytest.raises(LinearSolveError) as err:
        _solve_linear(op, fp, np.ones_like(fp))
    diag = fp - A.diagonal()
    assert err.value.info == 7
    assert (err.value.diag_min, err.value.diag_max) == (diag.min(), diag.max())
    assert err.value.rtol == CG_RTOL
    assert f"rtol={CG_RTOL:.3e}" in str(err.value)


def test_indefinite_1d_system_raises_linear_solve_error():
    # negative slopes on a periodic grid: the LDL^T factorization meets a
    # negative pivot at the first position of the first cycle
    op = make_operator(GRID_CASES[0])
    A = op.matrix()
    fp = -np.linspace(1.0, 2.0, op.grid.size)
    with pytest.raises(LinearSolveError) as err:
        _solve_linear(op, fp, np.ones_like(fp))
    diag = fp - A.diagonal()
    assert "tridiagonal system not positive definite at chain position 0" in str(err.value)
    assert err.value.info == 1
    assert (err.value.diag_min, err.value.diag_max) == (diag.min(), diag.max())


def counting_cg(monkeypatch):
    """Wrap ``elliptic.cg`` so each call appends its iteration count to a list."""
    import congested_euler.elliptic as elliptic

    real_cg, counts = elliptic.cg, []

    def cg(S, b, **kw):
        n = [0]
        out = real_cg(S, b, callback=lambda xk: n.__setitem__(0, n[0] + 1), **kw)
        counts.append(n[0])
        return out

    monkeypatch.setattr(elliptic, "cg", cg)
    return counts


@pytest.mark.parametrize("case", [4, 5, 6])
def test_cg_stops_at_requested_tolerance(monkeypatch, case):
    counts = counting_cg(monkeypatch)
    op = make_operator(GRID_CASES[case])
    A = op.matrix()
    rng = np.random.default_rng(case)
    fp = 0.5 + rng.random(op.grid.size)
    b = rng.standard_normal(op.grid.size)
    x = _solve_linear(op, fp, b, rtol=1e-4)
    S = np.diag(fp) - A.toarray()
    assert np.linalg.norm(S @ x - b) <= 1e-4 * np.linalg.norm(b)
    _solve_linear(op, fp, b)
    assert counts[0] < counts[1]


def cg_rtols(monkeypatch):
    """Wrap ``elliptic.cg`` so each call appends the ``rtol`` it receives."""
    import congested_euler.elliptic as elliptic

    real_cg, rtols = elliptic.cg, []

    def cg(S, b, **kw):
        rtols.append(kw["rtol"])
        return real_cg(S, b, **kw)

    monkeypatch.setattr(elliptic, "cg", cg)
    return rtols


def congested_room():
    """(problem, u0): zq's pressure map on congested data (Z in [0.9, 0.99])
    over a walled room with an exit window, started at Z = 0.5."""
    law = PressureLaw(epsilon=1e-4, alpha=2.0, gamma=2.0)
    rng = np.random.default_rng(3)
    grid = Grid(nx=24, ny=20, bc_x=(Wall(), Wall()), bc_y=(OutflowWindow(0.3, 0.7), Wall()))
    op = DiffusionOperator(grid, stride2_terms(grid, 0.5 + rng.random(grid.shape), 1.0))
    problem = pressure_problem(grid, op, 0.9 + 0.09 * rng.random(grid.size), law)
    return problem, np.full(grid.shape, singular_pressure(0.5, law))


def test_forcing_reaches_exact_newton_root_with_fewer_cg_iterations(monkeypatch):
    import congested_euler.elliptic as elliptic

    problem, u0 = congested_room()
    counts = counting_cg(monkeypatch)

    u_inexact, inexact = solve_newton(problem, u0, lower=0.0)
    inexact_cg = sum(counts)
    counts.clear()
    real = elliptic._solve_linear
    monkeypatch.setattr(
        elliptic, "_solve_linear",
        lambda op, fp, b, rtol=None: real(op, fp, b, elliptic.CG_RTOL),
    )
    u_exact, exact = solve_newton(problem, u0, lower=0.0)

    assert inexact.converged and exact.converged
    assert inexact.iterations == exact.iterations
    np.testing.assert_allclose(u_inexact, u_exact, rtol=0, atol=1e-12)
    assert inexact_cg < sum(counts)


def test_first_forcing_is_loose_on_congested_data(monkeypatch):
    # far from linear, the first Newton step gains little from an exact solve
    problem, u0 = congested_room()
    rtols = cg_rtols(monkeypatch)
    _, report = solve_newton(problem, u0, lower=0.0)
    assert report.converged
    assert rtols[0] >= 1e-3


@pytest.mark.parametrize("case", [4, 5, 6])
def test_first_forcing_lands_linear_problems(monkeypatch, case):
    # a linear f matches its linear model exactly, so the first solve keeps
    # the tolerance that lands on the root in one step
    grid = GRID_CASES[case]
    op = make_operator(grid, scale=0.2)
    A = op.matrix()
    u_exact = RNG.random(grid.size)
    problem = identity_problem(op, u_exact - A @ u_exact)
    u0 = RNG.random(grid.shape)
    r0 = np.max(np.abs(problem.residual(u0.ravel())))
    rtols = cg_rtols(monkeypatch)
    solve_newton(problem, u0)
    assert rtols[0] == max(CG_RTOL, FORCING_FLOOR * TOL_ABS / r0)


def counted_f(problem):
    """Wrap ``problem.f`` and ``problem.residual`` so each counts its calls."""
    calls = {"f": 0, "residual": 0}
    f, residual = problem.f, problem.residual

    def counting_f(u):
        calls["f"] += 1
        return f(u)

    def counting_residual(u):
        calls["residual"] += 1
        return residual(u)

    problem.f, problem.residual = counting_f, counting_residual
    return calls


def test_forcing_probe_costs_two_f_evaluations_per_2d_solve():
    # 1D: f only inside residuals
    grid = Grid(nx=24, bc_x=(Wall(), Wall()))
    op = DiffusionOperator(grid, stride2_terms(grid, 0.5 + RNG.random(24), 0.05))
    problem = pressure_problem(grid, op, 0.2 + 0.7 * RNG.random(24))
    calls = counted_f(problem)
    _, report = solve_newton(problem, np.full(24, 0.1), lower=0.0)
    assert report.converged and report.iterations > 1
    assert calls["f"] == calls["residual"]
    # 2D: two more for the probe of a solve that iterates, none for one that
    # starts at its root
    problem, u0 = congested_room()
    calls = counted_f(problem)
    u, report = solve_newton(problem, u0, lower=0.0)
    assert report.converged and report.iterations > 1
    assert calls["f"] == calls["residual"] + 2
    calls.update(f=0, residual=0)
    _, report = solve_newton(problem, u, lower=0.0)
    assert report.iterations == 0
    assert calls["f"] == calls["residual"] == 1


@pytest.mark.parametrize("case", sorted(CHAIN_SHAPES))
def test_chain_shapes(case):
    p = make_operator(GRID_CASES[case]).pattern
    path_ends = np.flatnonzero(p.up == p.indices.size)  # no next cell: the spare slot
    paths = np.diff(np.append(-1, path_ends))
    assert (paths.tolist(), (p.last - p.first + 1).tolist()) == CHAIN_SHAPES[case]
    assert sorted(p.order.tolist()) == list(range(GRID_CASES[case].size))


def test_chain_slots_hold_beyond_int32_keys():
    # 46342^2 exceeds the int32 range, so the chain slot keys need intp
    grid = Grid(nx=46342)
    op = make_operator(grid)
    A = op.matrix()
    fp = 0.5 + RNG.random(grid.size)
    b = RNG.standard_normal(grid.size)
    x = _solve_linear(op, fp, b)
    np.testing.assert_allclose(fp * x - A @ x, b, rtol=0, atol=1e-12)


def test_laplacian_form_linear_solve():
    for grid in LAPLACIAN_GRIDS:
        op = DiffusionOperator(grid, laplacian_terms(grid, 0.7))
        A = op.matrix()
        u_exact = RNG.random(grid.size)
        rhs = u_exact - A @ u_exact
        u, report = solve_newton(identity_problem(op, rhs), np.zeros(grid.shape))
        assert report.converged
        np.testing.assert_allclose(u.ravel(), u_exact, rtol=0, atol=1e-11)


def test_cyclic_tridiagonal_matches_dense():
    # symmetric positive-definite chains: single cycles, then open chains
    # followed by cycles in one layout
    for paths, cycles in [([], [m]) for m in (2, 3, 4, 9, 17)] + [([3, 1], [4, 3, 2])]:
        m = sum(paths) + sum(cycles)
        d = 2.0 + RNG.random(m)
        up = -RNG.random(m) * 0.5
        b = RNG.standard_normal(m)
        M = np.diag(d)
        start = 0
        for size, closed in [(k, False) for k in paths] + [(k, True) for k in cycles]:
            up[start + size - 1] *= closed
            for p in range(size):
                q = start + (p + 1) % size
                M[start + p, q] += up[start + p]
                M[q, start + p] += up[start + p]
            start += size
        first = np.cumsum([sum(paths)] + cycles[:-1])
        last = first + np.array(cycles) - 1
        x = _solve_cyclic_tridiagonal(d, up, b, first, last)
        np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=0, atol=1e-12)


def test_tridiagonal_solve_of_one_position():
    # a one-cell 1D grid leaves one chain of one position and no coupling
    none = np.zeros(0, dtype=np.int64)
    x = _solve_cyclic_tridiagonal(np.array([2.0]), np.array([0.0]), np.array([3.0]), none, none)
    assert np.array_equal(x, [1.5])


def assert_diagonally_dominant(problem, fp):
    """-A is a weighted graph Laplacian, so the Newton matrix diag(fp) - A
    is diagonally dominant with a positive diagonal wherever fp > 0."""
    A = problem.op.matrix()
    J = (sp.diags(fp) - A).tocsr()
    diag = J.diagonal()
    offsum = np.asarray(abs(J).sum(axis=1)).ravel() - np.abs(diag)
    slack = 1e-12 * np.maximum(1.0, np.abs(diag))
    if np.any(diag <= 0.0) or np.any(offsum > diag + slack):
        worst = int(np.argmax(offsum - diag))
        raise AssertionError(
            f"lost diagonal dominance at cell {worst}: "
            f"diag={diag[worst]:.3e}, off-diagonal sum={offsum[worst]:.3e}"
        )


def pressure_problem(grid, op, rhs, law=LAW):
    floor = inverse_slope_floor(law)
    return EllipticProblem(
        op=op,
        rhs=rhs,
        f=lambda u: singular_pressure_inverse(u, law),
        fprime=lambda u: singular_pressure_inverse_deriv(np.maximum(u, floor), law),
    )


def test_zero_coupling_reduces_to_analytic_inverse():
    grid = Grid(nx=16)
    op = DiffusionOperator(grid, stride2_terms(grid, np.zeros(16), 1.0))
    target_Z = np.linspace(0.05, 0.9, 16)
    u, report = solve_newton(
        pressure_problem(grid, op, target_Z), np.full(16, 0.1), lower=0.0
    )
    assert report.converged
    np.testing.assert_allclose(u, singular_pressure(target_Z, LAW), rtol=1e-9)


@pytest.mark.parametrize(
    "grid",
    [Grid(nx=32), Grid(nx=33), Grid(nx=24, bc_x=(Wall(), Wall())), Grid(nx=12, ny=10)],
)
def test_nonlinear_manufactured_solution(grid, law=LAW):
    a = 0.5 + RNG.random(grid.shape)
    op = DiffusionOperator(grid, stride2_terms(grid, a, 0.05))
    A = op.matrix()
    u_exact = (0.02 + 2.0 * RNG.random(grid.size)) ** 2
    rhs = singular_pressure_inverse(u_exact, law) - A @ u_exact
    problem = pressure_problem(grid, op, rhs, law)

    def hook(u_raw):
        assert_diagonally_dominant(problem, problem.fprime(np.maximum(u_raw.ravel(), 0.0)))

    u, report = solve_newton(problem, np.full(grid.shape, 0.5), lower=0.0, iterate_hook=hook)
    assert report.converged and report.iterations <= 30
    np.testing.assert_allclose(u.ravel(), u_exact, rtol=1e-7, atol=1e-9)
    assert np.max(np.abs(problem.residual(u.ravel()))) <= 1e-10


def test_jacobian_matches_directional_difference():
    grid = Grid(nx=18)
    a = 0.5 + RNG.random(18)
    op = DiffusionOperator(grid, stride2_terms(grid, a, 0.1))
    problem = pressure_problem(grid, op, RNG.random(18))
    u = 0.1 + RNG.random(18)
    direction = RNG.standard_normal(18)
    h = 1e-7
    fd = (problem.residual(u + h * direction) - problem.residual(u - h * direction)) / (2 * h)
    A = op.matrix()
    fp = singular_pressure_inverse_deriv(u, LAW)
    analytic = fp * direction - A @ direction
    np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-8)


def test_projection_accepts_bound_solution():
    # slightly negative target: the root sits below the admissible range but
    # the clipped iterate already satisfies the tolerance
    grid = Grid(nx=8)
    op = DiffusionOperator(grid, stride2_terms(grid, np.zeros(8), 1.0))
    rhs = np.zeros(8)
    rhs[3] = -1e-12
    u, report = solve_newton(pressure_problem(grid, op, rhs), np.full(8, 0.2), lower=0.0)
    assert report.converged
    assert u[3] == 0.0


def test_newton_error_carries_report():
    grid = Grid(nx=8)
    op = DiffusionOperator(grid, stride2_terms(grid, np.zeros(8), 1.0))
    with pytest.raises(NewtonError) as err:
        solve_newton(pressure_problem(grid, op, -np.ones(8)), np.full(8, 0.2), lower=0.0)
    assert err.value.report.converged is False
    assert err.value.report.residual > 0.1


def test_bound_pinned_stall_fails_at_once():
    # the root lies below the bound, so once the iterate sits on it no step
    # lowers the residual: the first stalled line search ends the solve
    grid = Grid(nx=8)
    op = DiffusionOperator(grid, stride2_terms(grid, np.zeros(8), 1.0))
    with pytest.raises(NewtonError, match="line search stalled") as err:
        solve_newton(pressure_problem(grid, op, -np.ones(8)), np.full(8, 0.2), lower=0.0)
    assert err.value.report.iterations <= 2


class Tripped(Exception):
    pass


def test_iterate_hook_sees_preclip_values():
    grid = Grid(nx=8)
    op = DiffusionOperator(grid, stride2_terms(grid, np.zeros(8), 1.0))
    problem = identity_problem(op, np.full(8, -5.0))

    def hook(u_raw):
        if np.min(u_raw) < -1.0:
            raise Tripped

    with pytest.raises(Tripped):
        solve_newton(problem, np.zeros(8), iterate_hook=hook)


def test_dominance_check_flags_degenerate_diagonal():
    grid = Grid(nx=8)
    a = np.ones(8)
    op = DiffusionOperator(grid, stride2_terms(grid, a, 0.3))
    problem = EllipticProblem(
        op=op, rhs=np.zeros(8),
        f=lambda u: u, fprime=lambda u: np.full_like(u, -0.5),  # wrong-signed slope
    )
    with pytest.raises(AssertionError):
        assert_diagonally_dominant(problem, problem.fprime(np.full(8, 0.5)))


def test_iteration_count_stays_flat_under_refinement():
    counts = []
    for n in (32, 128, 512):
        grid = Grid(nx=n)
        x = grid.centers_x
        a = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        scale = 0.25 * 0.1**2  # dt = 0.1 dx makes the coupling mesh-free
        op = DiffusionOperator(grid, stride2_terms(grid, a, scale))
        target_Z = 0.5 + 0.3 * np.sin(2 * np.pi * x + 1.0)
        A = op.matrix()
        u_exact = singular_pressure(target_Z, LAW)
        rhs = target_Z - A @ u_exact
        _, report = solve_newton(pressure_problem(grid, op, rhs),
                                 np.full(n, 0.05), lower=0.0)
        counts.append(report.iterations)
    assert max(counts) <= 12
    assert max(counts) - min(counts) <= 2
