"""Uniform stop grid: ``psi``-neighbourhood checks in O(3x3 cells).

:class:`StopGrid` buckets facility stops into a uniform grid whose cell
size is at least ``psi``.  A user point within ``psi`` of some stop must
find that stop in the 3x3 block of cells around its own cell, so a
coverage check gathers candidates from at most nine buckets instead of
scanning every stop.  The gathered candidates then go through the exact
:func:`repro.core.service.psi_hit` kernel — the same comparison the
dense path uses — so grid masks are bit-identical to
:meth:`repro.core.service.StopSet.covered_mask` for every input.

The batch mask computation is fully vectorised: stops are sorted by
their cell key once at construction; a query maps every point to its
nine candidate cell keys, finds each cell's stop run with two
``searchsorted`` calls, expands the (point, stop) candidate pairs flat,
and applies the kernel to all pairs at once.  No per-point Python loop
runs at query time.

:class:`GriddedStopSet` packages the grid behind the existing
:class:`~repro.core.service.StopSet` contract (``covers_point`` /
``covered_mask`` / ``restricted_to``), building the grid lazily on first
heavy use and falling back to the dense broadcast for stop sets too
small to amortise the bucketing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.config import ProximityBackend
from ..core.errors import QueryError
from ..core.geometry import BBox, Point
from ..core.service import StopSet, coverage_kernel, psi_hit
from ..core.stats import QueryStats

__all__ = ["StopGrid", "GriddedStopSet", "backend_stops", "AUTO_MIN_STOPS"]

#: With fewer stops than this the dense broadcast beats grid bookkeeping;
#: ``ProximityBackend.AUTO`` only builds grids at or above it.
AUTO_MIN_STOPS = 48

#: Cap on grid cells per axis.  Keeps cell keys well inside int64 and
#: bounds the floor-quotient magnitude so the 3x3 sufficiency argument
#: survives floating-point division error (see ``_derive_cell_size``).
_MAX_CELLS_PER_AXIS = 1 << 20

#: Relative margin by which cells exceed ``psi``.  With ``cell > psi``
#: strictly, a point and a stop within ``psi`` have cell indices that
#: differ by at most 1 per axis even after floating-point rounding of
#: the two floor quotients.
_CELL_MARGIN = 1e-7

# the nine (dx, dy) cell offsets of a 3x3 neighbourhood
_OFFSETS: Tuple[Tuple[int, int], ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
)


def _snap_origin(vmin: float, cell: float) -> float:
    """The largest lattice multiple of ``cell`` not exceeding ``vmin``.

    Rounding in ``floor(vmin / cell) * cell`` can land a hair above
    ``vmin``, which would push the minimum stop into cell index -1; step
    one cell down when it does so indices stay non-negative.

    ``vmin / cell`` can overflow to infinity outright (tiny derived
    cells under huge coordinates — an all-coincident stop set with a
    subnormal ``psi``); any origin at or below ``vmin`` keeps masks
    exact (snapping only improves :class:`~repro.engine.shards
    .ShardStore` slice sharing), so fall back to ``vmin`` itself rather
    than propagate a non-finite origin into every cell index.
    """
    origin = np.floor(vmin / cell) * cell
    if not np.isfinite(origin):
        return float(vmin)
    if origin > vmin:
        origin -= cell
    return float(origin)


def _derive_cell_size(psi: float, extent: float) -> float:
    """A safe cell edge: ``> psi`` strictly, never more than ~1M cells/axis.

    Every branch re-checks the strict ``cell > psi`` invariant the 3x3
    argument rests on, because near the float minimum the arithmetic
    that normally guarantees it degrades: ``psi * (1 + margin)`` rounds
    back to ``psi`` for subnormal ``psi``, and ``extent / 64`` can
    underflow to ``0``.  Such inputs fall through to wider candidates,
    ending at ``1.0`` (which exceeds any ``psi`` that reaches a
    fallthrough).  The cells-per-axis clamp keeps the invariant too:
    it only engages when ``extent > cap * cell > cap * psi``, but the
    guard re-checks rather than trusting float division.
    """
    cell = psi * (1.0 + _CELL_MARGIN)
    if not cell > psi:
        # psi == 0 (exact-coincidence serving) or subnormal psi whose
        # scaled value rounded back down.
        cell = extent / 64.0
        if not cell > psi:
            cell = 1.0
    if extent > 0.0 and extent / cell > _MAX_CELLS_PER_AXIS:
        clamped = extent / _MAX_CELLS_PER_AXIS
        if clamped > psi:
            cell = clamped
    return cell


def _validated_stop_coords(coords: np.ndarray, psi: float) -> np.ndarray:
    """The ``(n, 2)`` float64 stop array, or a :exc:`QueryError`."""
    arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise QueryError(f"stop coords must be (n, 2), got {arr.shape}")
    if not psi >= 0:
        raise QueryError(f"psi must be >= 0, got {psi}")
    return arr


def _grid_geometry(
    arr: np.ndarray, psi: float, cell_size: Optional[float]
) -> Tuple[float, float, float]:
    """``(cell, ox, oy)`` for a populated stop array.

    One place holds the geometric safety invariants every grid flavour
    shares: the cell must exceed ``psi`` *strictly* (at ``cell == psi``,
    floor rounding can land a within-psi stop outside the 3x3
    neighbourhood) and the origin snaps down to the global lattice.
    """
    xmin, ymin = arr.min(axis=0)
    xmax, ymax = arr.max(axis=0)
    extent = float(max(xmax - xmin, ymax - ymin))
    cell = float(cell_size) if cell_size is not None else _derive_cell_size(
        psi, extent
    )
    if not cell > psi:
        raise QueryError(
            f"cell_size {cell} must exceed psi {psi} strictly: at "
            f"cell == psi, floor rounding can land a within-psi stop "
            f"outside the 3x3 neighbourhood"
        )
    return cell, _snap_origin(float(xmin), cell), _snap_origin(float(ymin), cell)


#: Clamp on floor quotients before the int64 cast.  Probe points far
#: outside a tiny-celled grid can overflow the division (past 2**63 or
#: to infinity), making the float-to-int cast undefined.  Real cell
#: indices are bounded by ``_MAX_CELLS_PER_AXIS`` plus one, far below
#: the clamp, so a clamped value never aliases a populated cell: extra
#: *candidates* are always filtered by the exact kernel, and clamping
#: never removes an in-range index — so masks are unaffected.  The
#: clamp stays low enough that neighbour-key arithmetic (the sharded
#: row stride is 2**21) cannot overflow int64 either.
_INDEX_CLAMP = float(np.int64(1) << np.int64(40))


def _cell_indices_of(
    pts: np.ndarray, ox: float, oy: float, cell: float
) -> np.ndarray:
    """Integer cell coordinates of ``pts`` (may be negative)."""
    out = np.empty(pts.shape, dtype=np.int64)
    # far points overflow the quotient to +-inf; the clamp below is the
    # intended handling, so the overflow is not worth a warning
    with np.errstate(over="ignore"):
        qx = np.floor((pts[:, 0] - ox) / cell)
        qy = np.floor((pts[:, 1] - oy) / cell)
    # NaN coordinates (and NaN - inf arithmetic) survive np.clip; pin
    # them to the clamp so the int cast is defined and the point lands
    # outside every populated cell — a sound rejection, not UB.
    np.nan_to_num(qx, copy=False, nan=_INDEX_CLAMP)
    np.nan_to_num(qy, copy=False, nan=_INDEX_CLAMP)
    np.clip(qx, -_INDEX_CLAMP, _INDEX_CLAMP, out=qx)
    np.clip(qy, -_INDEX_CLAMP, _INDEX_CLAMP, out=qy)
    out[:, 0] = qx
    out[:, 1] = qy
    return out


def _expand_candidate_pairs(
    lo: np.ndarray, counts: np.ndarray, per_point: np.ndarray, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-(point, range) candidate runs into (point, stop) pairs.

    ``lo``/``counts`` are ``(n, k)`` range starts and lengths into a
    sorted stop layout; the result indexes every candidate pair so the
    exact kernel can run over all of them at once.
    """
    counts_flat = counts.ravel()
    run_ends = np.cumsum(counts_flat)
    run_starts = run_ends - counts_flat
    pair_point = np.repeat(np.arange(counts.shape[0]), per_point)
    pair_stop = (
        np.arange(total)
        - np.repeat(run_starts, counts_flat)
        + np.repeat(lo.ravel(), counts_flat)
    )
    return pair_point, pair_stop


class StopGrid:
    """A uniform grid over facility stops for ``psi``-proximity checks.

    Parameters
    ----------
    coords:
        ``(m, 2)`` stop coordinates.
    psi:
        The serving distance the grid is provisioned for.  Queries with
        any ``psi' < cell_size`` (strictly — the margin the 3x3
        argument needs against floating-point floor rounding) stay on
        the grid path; larger radii fall back to the dense kernel
        (still exact, never wrong).
    cell_size:
        Override the derived cell edge (must exceed ``psi`` strictly);
        used by tests to force degenerate geometry.
    """

    __slots__ = (
        "coords",
        "psi",
        "cell_size",
        "_ox",
        "_oy",
        "_nx",
        "_ny",
        "_sorted_keys",
        "_sorted_coords",
        "n_cells",
    )

    def __init__(
        self, coords: np.ndarray, psi: float, cell_size: Optional[float] = None
    ) -> None:
        arr = _validated_stop_coords(coords, psi)
        self.coords = arr
        self.psi = float(psi)
        if arr.shape[0] == 0:
            self.cell_size = _derive_cell_size(psi, 0.0)
            self._ox = self._oy = 0.0
            self._nx = self._ny = 0
            self._sorted_keys = np.zeros(0, dtype=np.int64)
            self._sorted_coords = arr
            self.n_cells = 0
            return
        # The snapped origin means stop sets sharing a corner cell assign
        # identical cell indices to identical stops (the sharded engine's
        # ShardStore relies on this to share slices across facilities;
        # masks are exact for any origin).
        self.cell_size, self._ox, self._oy = _grid_geometry(arr, psi, cell_size)
        ij = self._cell_indices(arr)
        self._nx = int(ij[:, 0].max()) + 1
        self._ny = int(ij[:, 1].max()) + 1
        keys = ij[:, 0] * np.int64(self._ny) + ij[:, 1]
        order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[order]
        self._sorted_coords = arr[order]
        if self._sorted_keys.size:
            distinct = int(np.count_nonzero(np.diff(self._sorted_keys))) + 1
        else:
            distinct = 0
        self.n_cells = distinct

    # ------------------------------------------------------------------
    @property
    def n_stops(self) -> int:
        return int(self.coords.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.coords.shape[0] == 0

    def _cell_indices(self, pts: np.ndarray) -> np.ndarray:
        return _cell_indices_of(pts, self._ox, self._oy, self.cell_size)

    def _candidate_ranges(
        self, pts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per (point, offset): the ``[lo, hi)`` run of sorted stops in
        that neighbour cell.  Out-of-grid cells map to empty runs."""
        ij = self._cell_indices(pts)
        cx = ij[:, 0]
        cy = ij[:, 1]
        keys = np.empty((pts.shape[0], len(_OFFSETS)), dtype=np.int64)
        for col, (dx, dy) in enumerate(_OFFSETS):
            nx = cx + dx
            ny = cy + dy
            valid = (nx >= 0) & (nx < self._nx) & (ny >= 0) & (ny < self._ny)
            keys[:, col] = np.where(valid, nx * np.int64(self._ny) + ny, np.int64(-1))
        lo = np.searchsorted(self._sorted_keys, keys, side="left")
        hi = np.searchsorted(self._sorted_keys, keys, side="right")
        return lo, hi

    # ------------------------------------------------------------------
    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Boolean mask: which of ``coords`` rows are within ``psi`` of a
        stop.  Bit-identical to the dense :func:`coverage_kernel`."""
        pts = np.asarray(coords, dtype=np.float64)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)
        if self.is_empty:
            return np.zeros(pts.shape[0], dtype=bool)
        if psi >= self.cell_size:
            # Grid too fine for this radius (cells must exceed psi
            # strictly): 3x3 gathering could miss stops, so run the
            # exact dense kernel instead.
            return coverage_kernel(pts, self.coords, psi, stats)
        n = pts.shape[0]
        lo, hi = self._candidate_ranges(pts)
        counts = hi - lo
        per_point = counts.sum(axis=1)
        total = int(per_point.sum())
        if stats is not None:
            stats.points_scanned += int(np.count_nonzero(per_point))
            stats.cells_probed += int(np.count_nonzero(counts))
            stats.distance_evals += total
        out = np.zeros(n, dtype=bool)
        if total == 0:
            return out
        # expand (point, candidate-stop) pairs flat, kernel-check at once
        pair_point, pair_stop = _expand_candidate_pairs(lo, counts, per_point, total)
        with np.errstate(over="ignore"):
            dx = pts[pair_point, 0] - self._sorted_coords[pair_stop, 0]
            dy = pts[pair_point, 1] - self._sorted_coords[pair_stop, 1]
            out[pair_point[psi_hit(dx, dy, psi)]] = True
        return out

    def covers_point(
        self, p: Point, psi: float, stats: Optional[QueryStats] = None
    ) -> bool:
        """True when ``p`` is within ``psi`` of any stop."""
        mask = self.covered_mask(
            np.array([[p.x, p.y]], dtype=np.float64), psi, stats
        )
        return bool(mask.size and mask[0])


class GriddedStopSet(StopSet):
    """A :class:`StopSet` whose coverage checks ride a lazy
    :class:`StopGrid`.

    Drop-in for the base class everywhere (facility components, index
    entries, oracles): same constructor shape, same results.  The grid
    is built on first use once ``n_stops >= min_stops``; below the
    threshold — and for radii exceeding the built grid's cell size —
    checks stay on the dense kernel.
    """

    __slots__ = ("grid_psi", "min_stops", "_grid", "_coarse_grid")

    def __init__(
        self, coords: np.ndarray, psi: float, min_stops: int = 1
    ) -> None:
        super().__init__(coords)
        if not psi >= 0:
            raise QueryError(f"psi must be >= 0, got {psi}")
        self.grid_psi = float(psi)
        self.min_stops = max(1, int(min_stops))
        self._grid: Optional[StopGrid] = None
        self._coarse_grid: Optional[StopGrid] = None

    def _build(self, psi: float):
        """Grid factory for :meth:`_grid_for` — subclasses swap in other
        grid implementations (the sharded set builds through its store)
        while inheriting the provisioning policy unchanged."""
        return StopGrid(self.coords, psi)

    def _grid_for(self, psi: float):
        if self.n_stops < self.min_stops:
            return None
        if self._grid is None or psi * 4.0 < self._grid.psi:
            # Build (or re-provision finer) at the requested radius: a
            # query far below the provisioned psi would otherwise gather
            # 3x3 blocks of oversized cells.  Rebuilds are monotone
            # finer, so alternating radii cannot thrash.
            self._grid = self._build(min(psi, self.grid_psi))
        if psi < self._grid.cell_size:
            # The fine grid is never replaced by a coarser one: one
            # oversized query must not degrade every later query at the
            # provisioned radius to coarse-cell gathering.
            return self._grid
        coarse = self._coarse_grid
        if coarse is None or psi >= coarse.cell_size:
            coarse = self._build(psi)
            self._coarse_grid = coarse
        return coarse

    # ------------------------------------------------------------------
    def covers_point(
        self, p: Point, psi: float, stats: Optional[QueryStats] = None
    ) -> bool:
        grid = self._grid_for(psi)
        if grid is None:
            return super().covers_point(p, psi, stats)
        return grid.covers_point(p, psi, stats)

    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        grid = self._grid_for(psi)
        if grid is None:
            return super().covered_mask(coords, psi, stats)
        return grid.covered_mask(coords, psi, stats)

    def restricted_to(self, box: BBox) -> "GriddedStopSet":
        if self.is_empty:
            return self
        return GriddedStopSet(
            self.coords[self._restriction_mask(box)], self.grid_psi, self.min_stops
        )


def backend_stops(
    stops: StopSet, psi: float, backend: Optional[ProximityBackend]
) -> StopSet:
    """``stops`` dressed for ``backend``.

    ``DENSE``/``None`` returns the set unchanged; ``GRID`` always
    grids; ``CELLSTRING`` always builds cellstrings; ``AUTO`` picks by
    stop count — dense below :data:`AUTO_MIN_STOPS`, cellstrings at or
    above :data:`~repro.engine.cellstring.AUTO_CELLSTRING_MIN_STOPS`,
    the grid in between.  The thresholds are the same ones
    :meth:`repro.runtime.QueryRuntime.stop_set` applies, so a workload
    never flips backend between the sync and runtime paths.
    Already-dressed sets pass through.
    """
    if backend is None or backend is ProximityBackend.DENSE:
        return stops
    # local import: cellstring builds on this module's helpers
    from .cellstring import AUTO_CELLSTRING_MIN_STOPS, CellstringStopSet

    if isinstance(stops, (GriddedStopSet, CellstringStopSet)):
        return stops
    min_stops = (
        1
        if backend in (ProximityBackend.GRID, ProximityBackend.CELLSTRING)
        else AUTO_MIN_STOPS
    )
    if backend is ProximityBackend.CELLSTRING or (
        backend is ProximityBackend.AUTO
        and stops.n_stops >= AUTO_CELLSTRING_MIN_STOPS
    ):
        return CellstringStopSet(stops.coords, psi, min_stops)
    return GriddedStopSet(stops.coords, psi, min_stops)
