"""Uniform grids, boundary conditions, and ghost-cell maps.

A :class:`Grid` covers [0, 1] in one dimension or [0, 1]^2 in two, with cell
centers at (i + 1/2) * dx.  Fields live on numpy arrays shaped ``(nx,)`` or
``(ny, nx)``; the flat index of cell (i, j) is ``j * nx + i``.

Axis convention: array axes run ``(y, x)``, so ``grid.shape`` and stencil
offsets (tuples, one entry per array axis, ``(dj, di)`` in 2D and ``(di,)``
in 1D) list y first, while per-direction sequences (``grid.spacing``,
``grid.bcs``, momentum names q1, q2) list x first.  Every stencil is written
once as a loop over the axes.

Boundaries are handled through ghost maps: for a padding width ``w``, every
ghost cell either aliases an interior cell (periodic wrap, or mirror for
reflecting and zero-gradient sides) together with a sign for each momentum
component, or holds a fixed exterior value.  Ghost indices resolve x first,
so at a corner a window on an x side tests the virtual y coordinate of the
ghost, and a window on a y side the aliased x coordinate.  Explicit stencils,
the implicit pressure systems, and characteristic-foot interpolation all read
the same map, so every part of a scheme sees identical boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, depth_first_order

LEFT, RIGHT, BOTTOM, TOP = range(4)


@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class Wall:
    """Reflecting side: normal momentum flips sign, everything else mirrors."""


@dataclass(frozen=True)
class Dirichlet:
    """Exterior state held fixed for all time."""

    rho: float
    q1: float
    Z: float
    q2: float = 0.0

    def value(self, name: str) -> float:
        if name == "rho_star":
            return self.rho / self.Z
        return getattr(self, name)


@dataclass(frozen=True)
class OutflowWindow:
    """Zero-gradient where the tangential coordinate lies in [lo, hi], wall outside."""

    lo: float
    hi: float


def _alias(v, n, bcs, t=None):
    """Alias the virtual indices ``v`` (possibly outside [0, n)) along one axis.

    Returns (index, normal_sign, fixed_side) arrays; fixed_side is 0 or 1 for
    indices beyond a low or high fixed-state side, where index is
    meaningless, and -1 elsewhere.  ``t`` is the tangential coordinate that
    window tests read; None on an axis with no tangential direction.
    """
    idx, sign, side = v.copy(), np.ones(v.shape), np.full(v.shape, -1)
    for s, bc in enumerate(bcs):
        out = v < 0 if s == 0 else v >= n
        if isinstance(bc, Periodic):
            idx[out] = v[out] % n
        elif isinstance(bc, Dirichlet):
            side[out] = s
        else:
            mirror = -v[out] - 1 if s == 0 else 2 * n - 1 - v[out]
            if np.any((mirror < 0) | (mirror >= n)):
                raise ValueError("ghost width exceeds grid size at a reflecting side")
            idx[out] = mirror
            if isinstance(bc, Wall):
                sign[out] = -1.0
            elif not isinstance(bc, OutflowWindow):
                raise TypeError(f"unknown boundary condition {bc!r}")
            elif t is not None:
                sign[out] = np.where((bc.lo <= t[out]) & (t[out] <= bc.hi), 1.0, -1.0)
    return idx, sign, side


@dataclass(frozen=True)
class GhostMap:
    """Padded-index resolution for one (grid, width) pair.

    ``src`` holds, per padded cell, the flat interior index it aliases, or
    ``-1 - side`` for cells carrying a fixed exterior value.  The sign arrays
    apply to the x and y momentum components respectively.
    """

    width: int
    src: np.ndarray
    sign_q1: np.ndarray
    sign_q2: np.ndarray


@dataclass(frozen=True)
class StencilPattern:
    """CSR structure of sum_k w_k (g_{c+o_k} - g_c) for one stencil on one grid.

    The data are ``np.bincount(scatter, weights)`` minus its last (spare)
    slot, for the weights laid out term by term as (w_k, -w_k); ``diag``
    holds the diagonal slots.  In 1D every cell has at most two neighbours:
    ``order`` lists the cells path by path, then cycle by cycle, ``lo``/``up``
    are the slots coupling each position to the previous/next one of its
    chain (the spare slot at path ends), and cycle j runs over positions
    first[j]..last[j].
    """

    indptr: np.ndarray
    indices: np.ndarray
    scatter: np.ndarray
    diag: np.ndarray
    order: np.ndarray | None = None
    lo: np.ndarray | None = None
    up: np.ndarray | None = None
    first: np.ndarray | None = None
    last: np.ndarray | None = None


@dataclass(eq=False)
class Grid:
    nx: int
    bc_x: tuple = (Periodic(), Periodic())
    ny: int | None = None
    bc_y: tuple | None = None
    _ghost_maps: dict = field(default_factory=dict, repr=False, compare=False)
    _patterns: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.nx < 1:
            raise ValueError("nx must be at least 1")
        if self.ny is not None and self.ny < 1:
            raise ValueError("ny must be at least 1")
        if self.ny is not None and self.bc_y is None:
            self.bc_y = (Periodic(), Periodic())
        if self.ny is None and self.bc_y is not None:
            raise ValueError("bc_y given for a one-dimensional grid")
        for pair in self.bcs:
            if isinstance(pair[0], Periodic) != isinstance(pair[1], Periodic):
                raise ValueError("periodic sides must come in opposite pairs")

    @property
    def ndim(self) -> int:
        return 1 if self.ny is None else 2

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    @property
    def shape(self):
        return (self.nx,) if self.ny is None else (self.ny, self.nx)

    @property
    def spacing(self) -> tuple:
        """Cell widths, x first."""
        return tuple(1.0 / n for n in self.shape[::-1])

    @property
    def bcs(self) -> tuple:
        """Boundary pairs (low, high) per direction, x first."""
        return (self.bc_x,) if self.ny is None else (self.bc_x, self.bc_y)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def centers_x(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def centers_y(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.dy

    def cell_centers(self) -> list:
        """Cell-center coordinates, one field-shaped array per direction, x first."""
        return [(i + 0.5) * h for i, h in zip(np.indices(self.shape)[::-1], self.spacing)]

    @property
    def boundaries(self) -> tuple:
        """Sides in the order LEFT, RIGHT, BOTTOM, TOP."""
        return tuple(bc for pair in self.bcs for bc in pair)

    @property
    def has_dirichlet(self) -> bool:
        return any(isinstance(bc, Dirichlet) for bc in self.boundaries)

    def ghost_map(self, width: int) -> GhostMap:
        gm = self._ghost_maps.get(width)
        if gm is None:
            gm = self._build_ghost_map(width)
            self._ghost_maps[width] = gm
        return gm

    def stencil_pattern(self, width: int, offsets: tuple) -> StencilPattern:
        if (width, offsets) not in self._patterns:
            self._patterns[width, offsets] = _build_pattern(self, width, offsets)
        return self._patterns[width, offsets]

    def _build_ghost_map(self, w: int) -> GhostMap:
        # virtual indices of every padded cell, x first; a cell beyond side s
        # of direction k holds the fixed value of side 2k + s (LEFT, RIGHT,
        # BOTTOM, TOP), and the first fixed-state side met wins
        v = [u - w for u in np.indices([n + 2 * w for n in self.shape])[::-1]]
        fixed = np.full(v[0].shape, -1)
        signs = [np.ones(v[0].shape), np.ones(v[0].shape)]
        for k, (n, bcs) in enumerate(zip(self.shape[::-1], self.bcs)):
            t = [(u + 0.5) * h for m, (u, h) in enumerate(zip(v, self.spacing)) if m != k]
            v[k], signs[k], side = _alias(v[k], n, bcs, *t)
            newly = (fixed < 0) & (side >= 0)
            fixed[newly] = 2 * k + side[newly]
        flat = np.ravel_multi_index(tuple(v[::-1]), self.shape, mode="clip")
        return GhostMap(w, np.where(fixed < 0, flat, -1 - fixed), *signs)


def _shifted(grid: Grid, padded, width: int, offset):
    """Interior-shaped view of a padded array displaced by a stencil offset.

    ``offset`` has one entry per array axis; a bare int is a 1D offset.
    """
    offset = (offset,) if isinstance(offset, int) else offset
    return padded[
        tuple([slice(width + o, width + o + n) for o, n in zip(offset, grid.shape)])
    ]


def _build_pattern(grid: Grid, width: int, offsets: tuple) -> StencilPattern:
    n = grid.size
    src = grid.ghost_map(width).src
    nb = np.stack([np.ravel(_shifted(grid, src, width, off)) for off in offsets])
    inside = nb >= 0
    cells = np.arange(n)
    # entry (r, c) has key r * n + c, so sorted keys are CSR order; neighbours
    # beyond a fixed-state side go to the spare slot
    keys, slot = np.unique(
        np.concatenate([cells * (n + 1), (cells * n + nb)[inside]]), return_inverse=True
    )
    diag = slot[:n]
    slots = np.full(nb.shape, keys.size)
    slots[inside] = slot[n:]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    scatter = np.stack([slots, np.broadcast_to(diag, nb.shape)], axis=1).ravel()
    chains = _chains(keys, n) if grid.ndim == 1 else {}
    return StencilPattern(indptr, (keys % n).astype(np.int32), scatter, diag, **chains)


def _chains(keys, n: int) -> dict:
    """Chain fields of a 1D :class:`StencilPattern` from its sorted entry keys."""
    rows, cols = np.divmod(keys, n)
    off = rows != cols
    graph = sp.csr_matrix((np.ones(off.sum()), (rows[off], cols[off])), shape=(n, n))
    deg = np.diff(graph.indptr)
    if deg.max(initial=0) > 2:
        raise ValueError("a cell of a 1D stencil has more than two neighbours")
    _, label = connected_components(graph, directed=False)
    # a depth-first walk from an end traverses a path, from any cell a cycle
    by_chain = np.lexsort((deg, label))
    heads = by_chain[np.diff(label[by_chain], prepend=-1) != 0]
    heads = heads[np.argsort(deg[heads] == 2, kind="stable")]
    order = np.concatenate([
        depth_first_order(graph, h, directed=False, return_predecessors=False) for h in heads
    ])
    end = np.cumsum(np.bincount(label)[label[heads]]) - 1
    start = np.append(0, end[:-1] + 1)
    cyclic = deg[heads] == 2
    first, last = start[cyclic], end[cyclic]
    nxt, prv = np.roll(order, -1), np.roll(order, 1)
    nxt[end], prv[start] = -1, -1
    nxt[last], prv[first] = order[first], order[last]

    def slot(b):
        return np.where(b >= 0, np.searchsorted(keys, order * n + b), keys.size)

    return dict(order=order, lo=slot(prv), up=slot(nxt), first=first, last=last)


def pad_field(grid: Grid, values, width: int, kind: str = "scalar", dirichlet=None):
    """Extend a field by ``width`` ghost layers according to the grid's sides.

    ``kind`` selects the reflection sign ("q1", "q2", or "scalar").
    ``dirichlet`` supplies per-side exterior values (indexable by side
    constant) and is required when any side holds a fixed state.
    """
    gm = grid.ghost_map(width)
    flat = np.asarray(values, dtype=float).ravel()
    out = flat[np.maximum(gm.src, 0)]
    if kind == "q1":
        out = out * gm.sign_q1
    elif kind == "q2":
        out = out * gm.sign_q2
    elif kind != "scalar":
        raise ValueError(f"unknown field kind {kind!r}")
    fixed = gm.src < 0
    if fixed.any():
        if dirichlet is None:
            raise ValueError("fixed-state side present but no exterior values given")
        dvals = np.asarray(dirichlet, dtype=float)
        out[fixed] = dvals[-1 - gm.src[fixed]]
    return out


def interior(grid: Grid, padded, width: int):
    """View of the interior cells of a padded field."""
    return padded[(slice(width, -width),) * grid.ndim]


def dirichlet_values(grid: Grid, name: str) -> np.ndarray:
    """Per-side exterior values of a named state field (nan on other sides)."""
    vals = np.full(4, np.nan)
    for side, bc in enumerate(grid.boundaries):
        if isinstance(bc, Dirichlet):
            vals[side] = bc.value(name)
    return vals


_FIELD_KIND = {"rho": "scalar", "q1": "q1", "q2": "q2", "Z": "scalar", "rho_star": "scalar"}


@dataclass
class GridState:
    """Cell-averaged fields: density, momentum, congestion ratio Z = rho/rho_star."""

    rho: np.ndarray
    q1: np.ndarray
    Z: np.ndarray
    rho_star: np.ndarray
    q2: np.ndarray | None = None
    time: float = 0.0

    @classmethod
    def from_primitives(cls, grid: Grid, rho, v1, rho_star, v2=None):
        rho = np.broadcast_to(np.asarray(rho, float), grid.shape).copy()
        rho_star = np.broadcast_to(np.asarray(rho_star, float), grid.shape).copy()
        q1 = rho * np.broadcast_to(np.asarray(v1, float), grid.shape)
        q2 = None
        if grid.ndim == 2:
            v2 = 0.0 if v2 is None else v2
            q2 = rho * np.broadcast_to(np.asarray(v2, float), grid.shape)
        return cls(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star, q2=q2)

    def copy(self) -> "GridState":
        return GridState(
            rho=self.rho.copy(),
            q1=self.q1.copy(),
            Z=self.Z.copy(),
            rho_star=self.rho_star.copy(),
            q2=None if self.q2 is None else self.q2.copy(),
            time=self.time,
        )

    @property
    def velocity(self) -> tuple:
        """Velocity components q / rho, one per dimension."""
        return tuple(q / self.rho for q in (self.q1, self.q2) if q is not None)

    def padded(self, grid: Grid, name: str, width: int):
        dvals = dirichlet_values(grid, name) if grid.has_dirichlet else None
        return pad_field(grid, getattr(self, name), width, _FIELD_KIND[name], dvals)


def total_mass(grid: Grid, values) -> float:
    return float(np.sum(values) * grid.cell_volume)


def l1_error(grid: Grid, a, b) -> float:
    return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) * grid.cell_volume)
