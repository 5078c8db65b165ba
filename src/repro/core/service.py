"""Service-value functions (paper Section II).

A user point is *served* by a facility when it lies within distance ``psi``
of any stop of that facility.  On top of that predicate the paper defines
three per-user service functions ``S(u, f)``:

* ``ENDPOINT`` (Scenario 1) — binary: 1 iff both the source and the
  destination of ``u`` are served.
* ``COUNT``    (Scenario 2) — ``scount(u, f) / |u|``: the fraction of
  ``u``'s points that are served.
* ``LENGTH``   (Scenario 3) — ``slength(u, f) / length(u)``: the fraction
  of ``u``'s length that is served, where a segment counts as served when
  both of its endpoints are served (see DESIGN.md Section 1 for why).

``normalize=False`` switches COUNT/LENGTH to their raw numerators, the
units in which the TQ-tree's per-node upper bound ``sub`` is stated in the
paper.

For MaxkCovRST the *combined* service of a facility set uses union
semantics (the paper's Lemma 1): a point is covered when it is within
``psi`` of the union of all chosen facilities' stops — the source may be
served by one facility and the destination by another.
:class:`CoverageState` tracks per-user covered point indices and derives
all three objectives from them.

Everything in this module is deliberately brute-force and index-free; it
doubles as the *oracle* against which the TQ-tree evaluators are tested.

The one place the ``psi``-disc membership predicate is written down is
:func:`psi_hit` / :func:`coverage_kernel`; :meth:`StopSet.covers_point`
and :meth:`StopSet.covered_mask` both route through it, and so does the
grid-bucketed proximity engine (:mod:`repro.engine`), which gathers
candidate stops from a uniform grid before applying the same kernel.
The engine is a pure accelerator: for any input it returns bit-identical
masks and scores to this module.  When the grid pays off (stop-dense
facilities, small ``psi``) is documented in :mod:`repro.engine`; tiny
stop sets keep using the dense broadcast below, which is why this module
remains the canonical reference implementation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import QueryError
from .geometry import BBox, Point
from .stats import QueryStats
from .trajectory import FacilityRoute, Trajectory

__all__ = [
    "ServiceModel",
    "ServiceSpec",
    "StopSet",
    "psi_hit",
    "coverage_kernel",
    "served_point_indices",
    "score_from_indices",
    "score_trajectory",
    "brute_force_service",
    "brute_force_matches",
    "CoverageState",
    "brute_force_combined_service",
]


class ServiceModel(enum.Enum):
    """Which of the paper's three scenarios defines ``S(u, f)``."""

    ENDPOINT = "endpoint"
    COUNT = "count"
    LENGTH = "length"


@dataclass(frozen=True, slots=True)
class ServiceSpec:
    """A fully parameterised service-value function.

    Parameters
    ----------
    model:
        The per-user scenario.
    psi:
        Serving distance: a user point is served when within ``psi`` of a
        facility stop.  Must be non-negative.
    normalize:
        For COUNT/LENGTH, whether ``S(u, f)`` is the fraction
        (paper's definition) or the raw numerator (the unit of the
        TQ-tree node bounds).  Ignored for ENDPOINT.
    """

    model: ServiceModel
    psi: float
    normalize: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.model, ServiceModel):
            raise QueryError(f"unknown service model: {self.model!r}")
        if not self.psi >= 0:
            raise QueryError(f"psi must be >= 0, got {self.psi}")


# ----------------------------------------------------------------------
# the psi-disc membership kernel
# ----------------------------------------------------------------------
def psi_hit(dx: np.ndarray, dy: np.ndarray, psi: float) -> np.ndarray:
    """``dx*dx + dy*dy <= psi*psi`` — THE serving predicate.

    Every coverage decision in the library (dense broadcast, grid
    candidate check, single-point probe) reduces to this one comparison,
    so dense and grid paths are bit-identical by construction.

    Huge coordinates can overflow the squares to ``inf``, which still
    compares correctly.  Callers silence that overflow once per probe
    batch with ``np.errstate(over="ignore")``; doing it here would pay
    the context switch on every call.
    """
    return dx * dx + dy * dy <= psi * psi


def coverage_kernel(
    points: np.ndarray,
    stops: np.ndarray,
    psi: float,
    stats: Optional[QueryStats] = None,
) -> np.ndarray:
    """Dense all-pairs coverage: which ``points`` rows are within ``psi``
    of any ``stops`` row.

    The arrays are ``(n, 2)`` and ``(m, 2)``; the result is an ``(n,)``
    boolean mask.  ``stats``, when given, accrues the geometric work
    performed (every point is scanned, every pair is evaluated).
    """
    pts = np.asarray(points, dtype=np.float64)
    stops = np.asarray(stops, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=bool)
    if stops.size == 0:
        return np.zeros(pts.shape[0], dtype=bool)
    if stats is not None:
        stats.points_scanned += int(pts.shape[0])
        stats.distance_evals += int(pts.shape[0]) * int(stops.shape[0])
    with np.errstate(over="ignore"):
        dx = pts[:, 0, None] - stops[None, :, 0]
        dy = pts[:, 1, None] - stops[None, :, 1]
        return np.any(psi_hit(dx, dy, psi), axis=1)


class StopSet:
    """An immutable set of facility stop points with fast ``psi`` checks.

    Wraps an ``(n, 2)`` coordinate array; all distance checks are
    vectorised.  A ``StopSet`` may be a whole facility or a *component* of
    one (the divide-and-conquer evaluation slices facilities by region).
    """

    __slots__ = ("coords", "_bbox")

    def __init__(self, coords: np.ndarray) -> None:
        arr = np.asarray(coords, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise QueryError(f"stop coords must be (n, 2), got {arr.shape}")
        self.coords = arr
        self._bbox: Optional[BBox] = None

    @classmethod
    def of_facility(cls, facility: FacilityRoute) -> "StopSet":
        return cls(facility.stop_coords)

    @property
    def n_stops(self) -> int:
        return int(self.coords.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.coords.shape[0] == 0

    @property
    def bbox(self) -> Optional[BBox]:
        """Tight bbox of the stops, or ``None`` when empty."""
        if self.is_empty:
            return None
        if self._bbox is None:
            xmin, ymin = self.coords.min(axis=0)
            xmax, ymax = self.coords.max(axis=0)
            self._bbox = BBox(float(xmin), float(ymin), float(xmax), float(ymax))
        return self._bbox

    def embr(self, psi: float) -> Optional[BBox]:
        """Serving-area envelope: stop bbox grown by ``psi``."""
        box = self.bbox
        return None if box is None else box.expanded(psi)

    # ------------------------------------------------------------------
    def covers_point(
        self, p: Point, psi: float, stats: Optional[QueryStats] = None
    ) -> bool:
        """True when ``p`` is within ``psi`` of any stop."""
        if self.is_empty:
            return False
        mask = coverage_kernel(
            np.array([[p.x, p.y]], dtype=np.float64), self.coords, psi, stats
        )
        return bool(mask[0])

    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Boolean mask: which of ``coords`` rows are within ``psi``."""
        pts = np.asarray(coords, dtype=np.float64)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)
        if self.is_empty:
            return np.zeros(pts.shape[0], dtype=bool)
        return coverage_kernel(pts, self.coords, psi, stats)

    def _restriction_mask(self, box: BBox) -> np.ndarray:
        x = self.coords[:, 0]
        y = self.coords[:, 1]
        return (x >= box.xmin) & (x <= box.xmax) & (y >= box.ymin) & (y <= box.ymax)

    def restricted_to(self, box: BBox) -> "StopSet":
        """The sub-set of stops lying inside ``box`` (closed)."""
        if self.is_empty:
            return self
        return StopSet(self.coords[self._restriction_mask(box)])


# ----------------------------------------------------------------------
# per-user scoring (the oracle path)
# ----------------------------------------------------------------------
def served_point_indices(
    traj: Trajectory, stops: StopSet, psi: float
) -> Tuple[int, ...]:
    """Indices of ``traj``'s points within ``psi`` of ``stops``."""
    mask = stops.covered_mask(traj.coords, psi)
    return tuple(int(i) for i in np.nonzero(mask)[0])


def score_from_indices(
    traj: Trajectory, covered: Iterable[int], spec: ServiceSpec
) -> float:
    """``S(u, f)`` given the set of covered point indices of ``u``.

    This is the single scoring rule shared by every evaluator in the
    library — the indexed ones only differ in how they find ``covered``.
    """
    idx: Set[int] = set(covered)
    n = traj.n_points
    if spec.model is ServiceModel.ENDPOINT:
        return 1.0 if (0 in idx and (n - 1) in idx) else 0.0
    if spec.model is ServiceModel.COUNT:
        raw = float(len(idx))
        return raw / n if spec.normalize else raw
    # LENGTH: a segment is served when both its endpoints are covered.
    raw = 0.0
    seg_lengths = traj.segment_lengths
    for i in range(traj.n_segments):
        if i in idx and (i + 1) in idx:
            raw += seg_lengths[i]
    if not spec.normalize:
        return raw
    return raw / traj.length if traj.length > 0 else 0.0


def score_trajectory(traj: Trajectory, stops: StopSet, spec: ServiceSpec) -> float:
    """``S(u, f)`` computed directly (no index)."""
    if spec.model is ServiceModel.ENDPOINT:
        # Only the two endpoints matter; avoid scanning interior points.
        if stops.covers_point(traj.start, spec.psi) and stops.covers_point(
            traj.end, spec.psi
        ):
            return 1.0
        return 0.0
    return score_from_indices(traj, served_point_indices(traj, stops, spec.psi), spec)


def brute_force_service(
    users: Sequence[Trajectory], facility: FacilityRoute, spec: ServiceSpec
) -> float:
    """``SO(U, f) = sum_u S(u, f)`` by exhaustive scan — the test oracle."""
    stops = StopSet.of_facility(facility)
    return sum(score_trajectory(u, stops, spec) for u in users)


def brute_force_matches(
    users: Sequence[Trajectory], facility: FacilityRoute, psi: float
) -> Dict[int, Tuple[int, ...]]:
    """Per-user covered point indices, exhaustively (for coverage tests)."""
    stops = StopSet.of_facility(facility)
    out: Dict[int, Tuple[int, ...]] = {}
    for u in users:
        idx = served_point_indices(u, stops, psi)
        if idx:
            out[u.traj_id] = idx
    return out


# ----------------------------------------------------------------------
# combined (MaxkCovRST) coverage
# ----------------------------------------------------------------------
_NONE_COVERED: frozenset = frozenset()


class CoverageState:
    """Per-user covered point indices under union semantics.

    Supports the greedy MaxkCovRST loop: ``price`` prices a candidate's
    marginal contribution, ``add`` commits it.  The objective for every
    :class:`ServiceModel` is derived from the covered index sets, so one
    state serves all scenarios.
    """

    def __init__(self, users: Sequence[Trajectory], spec: ServiceSpec) -> None:
        self.spec = spec
        self._users: Dict[int, Trajectory] = {u.traj_id: u for u in users}
        if len(self._users) != len(users):
            raise QueryError("duplicate trajectory ids in user set")
        self._covered: Dict[int, Set[int]] = {}
        # each covered user's value, so pricing computes only the new one
        self._user_values: Dict[int, float] = {}
        self._value = 0.0

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Current combined service ``SO(U, F')``."""
        return self._value

    def copy(self) -> "CoverageState":
        """An independent snapshot (used by branch-and-bound search)."""
        clone = CoverageState.__new__(CoverageState)
        clone.spec = self.spec
        clone._users = self._users
        clone._covered = {tid: set(idx) for tid, idx in self._covered.items()}
        clone._user_values = dict(self._user_values)
        clone._value = self._value
        return clone

    def covered_indices(self, traj_id: int) -> frozenset:
        """Covered point indices of one user (empty if untouched)."""
        return frozenset(self._covered.get(traj_id, ()))

    def _user_value(self, traj_id: int, covered: Set[int]) -> float:
        return score_from_indices(self._users[traj_id], covered, self.spec)

    # ------------------------------------------------------------------
    def price(self, matches: Mapping[int, Iterable[int]]) -> Tuple[float, int]:
        """``(gain, new coverage count)`` of adding ``matches``, from one
        pass over them; the state is not modified.

        ``matches`` maps ``traj_id`` to the point indices the candidate
        facility serves.  The gain is the marginal combined-service gain.
        The count is how many (user, point-index) slots would be newly
        covered: a secondary greedy signal, because under the
        non-submodular combined objective a facility can have zero
        *objective* gain yet make progress toward it (e.g. covering only
        sources when the objective needs source+destination).
        """
        delta = 0.0
        count = 0
        for traj_id, idx in matches.items():
            if traj_id not in self._users:
                raise QueryError(f"matches refer to unknown user {traj_id}")
            old = self._covered.get(traj_id, _NONE_COVERED)
            new = old.union(idx)
            added = len(new) - len(old)
            if added:
                delta += self._user_value(traj_id, new) - self._user_values.get(
                    traj_id, 0.0
                )
                count += added
        return delta, count

    def gain(self, matches: Mapping[int, Iterable[int]]) -> float:
        """Marginal combined-service gain of adding ``matches`` (the
        first half of :meth:`price`)."""
        return self.price(matches)[0]

    def new_coverage_count(self, matches: Mapping[int, Iterable[int]]) -> int:
        """How many (user, point-index) slots ``matches`` would newly
        cover (the second half of :meth:`price`)."""
        return self.price(matches)[1]

    def add(self, matches: Mapping[int, Iterable[int]]) -> float:
        """Commit ``matches`` to the state; returns the realised gain."""
        delta = 0.0
        for traj_id, idx in matches.items():
            if traj_id not in self._users:
                raise QueryError(f"matches refer to unknown user {traj_id}")
            old = self._covered.setdefault(traj_id, set())
            before = self._user_values.get(traj_id, 0.0)
            old.update(int(i) for i in idx)
            after = self._user_values[traj_id] = self._user_value(traj_id, old)
            delta += after - before
        self._value += delta
        return delta

    def users_fully_served(self) -> int:
        """How many users have ``S = 1`` under ENDPOINT semantics.

        This is the paper's "# Users Served" metric (Figure 10 (b), (d)).
        """
        count = 0
        for traj_id, covered in self._covered.items():
            u = self._users[traj_id]
            if 0 in covered and (u.n_points - 1) in covered:
                count += 1
        return count


def brute_force_combined_service(
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    spec: ServiceSpec,
) -> float:
    """``SO(U, F')`` under union semantics by exhaustive scan (oracle)."""
    if not facilities:
        return 0.0
    all_stops = StopSet(np.vstack([f.stop_coords for f in facilities]))
    total = 0.0
    for u in users:
        idx = served_point_indices(u, all_stops, spec.psi)
        total += score_from_indices(u, idx, spec)
    return total
