import numpy as np
import pytest
from hypothesis import given, strategies as st

from congested_euler.grid import (
    GHOST,
    Grid,
    GridState,
    OutflowWindow,
    Periodic,
    Wall,
    interior,
    l1_error,
    pad_field,
    total_mass,
)


def test_periodic_pad_1d_hand_case():
    g = Grid(nx=5)
    f = np.arange(5.0)
    out = pad_field(g, f)
    np.testing.assert_array_equal(out, [3, 4, 0, 1, 2, 3, 4, 0, 1])


def test_wall_pad_1d_hand_case():
    g = Grid(nx=4, bc_x=(Wall(), Wall()))
    f = np.arange(4.0) + 1.0
    # scalars mirror without sign: [2,1, 1,2,3,4, 4,3]
    np.testing.assert_array_equal(pad_field(g, f), [2, 1, 1, 2, 3, 4, 4, 3])
    # normal momentum mirrors with flipped sign
    np.testing.assert_array_equal(
        pad_field(g, f, kind="q1"), [-2, -1, 1, 2, 3, 4, -4, -3]
    )


def test_outflow_window_splits_bottom_side():
    g = Grid(
        nx=10,
        bc_x=(Wall(), Wall()),
        ny=4,
        bc_y=(OutflowWindow(0.4, 0.6), Wall()),
    )
    gm = g.ghost_map()
    # bottom ghost row j=-1 sits at padded row 1; window spans centers 0.45, 0.55
    row_sign = gm.sign_q2[1, 2:-2]
    expected = np.where((g.centers_x >= 0.4) & (g.centers_x <= 0.6), 1.0, -1.0)
    np.testing.assert_array_equal(row_sign, expected)
    # either way the ghost aliases the first interior row
    np.testing.assert_array_equal(gm.src[1, 2:-2], np.arange(10))


def test_corner_ghosts_compose_both_rules():
    g = Grid(nx=3, bc_x=(Wall(), Wall()), ny=3, bc_y=(Wall(), Wall()))
    gm = g.ghost_map()
    # corner ghost (-1,-1) at padded (1, 1) mirrors cell (0,0) and flips both components
    assert gm.src[1, 1] == 0
    assert gm.sign_q1[1, 1] == -1.0 and gm.sign_q2[1, 1] == -1.0
    # edge ghost left of (0, 1): flips q1 only
    assert gm.src[3, 1] == 3 and gm.sign_q1[3, 1] == -1.0 and gm.sign_q2[3, 1] == 1.0


def test_periodic_pad_2d_wraps_both_axes():
    g = Grid(nx=4, ny=3)
    f = np.arange(12.0).reshape(3, 4)
    out = pad_field(g, f)
    assert out.shape == (7, 8)
    np.testing.assert_array_equal(interior(g, out), f)
    np.testing.assert_array_equal(out[1, 2:-2], f[-1])
    np.testing.assert_array_equal(out[2:-2, 1], f[:, -1])
    assert out[1, 1] == f[-1, -1]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(nx=0)
    with pytest.raises(ValueError):
        Grid(nx=4, bc_x=(Periodic(), Wall()))
    with pytest.raises(ValueError):
        Grid(nx=4, bc_y=(Wall(), Wall()))
    with pytest.raises(ValueError):
        Grid(nx=1, bc_x=(Wall(), Wall())).ghost_map()  # mirror leaves the grid


def test_mass_and_l1_weighting():
    g1 = Grid(nx=8)
    assert total_mass(g1, np.full(8, 2.0)) == pytest.approx(2.0)
    g2 = Grid(nx=4, ny=8)
    assert total_mass(g2, np.ones((8, 4))) == pytest.approx(1.0)
    assert l1_error(g2, np.ones((8, 4)), np.zeros((8, 4))) == pytest.approx(1.0)


def test_state_consistency_helpers():
    g = Grid(nx=6)
    stt = GridState.from_primitives(g, rho=0.7, v1=8.0 / 7.0, rho_star=1.2)
    np.testing.assert_allclose(stt.q1, 0.8)
    np.testing.assert_allclose(stt.Z, 0.7 / 1.2)
    other = stt.copy()
    other.rho[0] = 99.0
    assert stt.rho[0] == pytest.approx(0.7)


@given(st.integers(4, 12), st.data())
def test_padding_preserves_constants(n, data):
    bc = data.draw(st.sampled_from(["periodic", "wall", "outflow"]))
    bcs = {
        "periodic": (Periodic(), Periodic()),
        "wall": (Wall(), Wall()),
        "outflow": (OutflowWindow(0.0, 1.0), OutflowWindow(0.0, 1.0)),
    }[bc]
    g = Grid(nx=n, bc_x=bcs)
    out = pad_field(g, np.full(n, 3.5))
    np.testing.assert_array_equal(out, 3.5)


@given(st.integers(4, 12))
def test_wall_pad_antisymmetric_momentum(n):
    w = GHOST
    g = Grid(nx=n, bc_x=(Wall(), Wall()))
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n)
    out = pad_field(g, q, kind="q1")
    for k in range(w):
        assert out[w - 1 - k] == -out[w + k]
        assert out[w + n + k] == -out[w + n - 1 - k]


SIDE_KINDS = {
    "periodic": (Periodic(), Periodic()),
    "wall": (Wall(), Wall()),
    "outflow": (OutflowWindow(0.3, 0.6), Wall()),
}


def gather_pad(grid, values, kind):
    """Padding read through the ghost map's ``src`` and signs by fancy indexing."""
    gm = grid.ghost_map()
    return np.ravel(values)[gm.src] * {"scalar": 1.0, "q1": gm.sign_q1, "q2": gm.sign_q2}[kind]


@pytest.mark.parametrize("x_sides", sorted(SIDE_KINDS))
@pytest.mark.parametrize("y_sides", [None, *sorted(SIDE_KINDS)])
def test_pad_field_matches_gather_through_src(x_sides, y_sides):
    g = Grid(nx=7, bc_x=SIDE_KINDS[x_sides], ny=None if y_sides is None else 5,
             bc_y=None if y_sides is None else SIDE_KINDS[y_sides])
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    for kind in ("scalar", "q1", "q2")[: g.ndim + 1]:
        assert np.array_equal(pad_field(g, f, kind), gather_pad(g, f, kind))
