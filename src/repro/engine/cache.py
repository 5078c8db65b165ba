"""Coverage memoisation for repeated query evaluation.

The query layer recomputes coverage from scratch for every evaluation:
a facility queried twice walks the same (node, facility-component)
pairs twice, kMaxRRST re-scans ancestor lists across relax rounds, the
greedy/genetic/exact MaxkCovRST solvers each re-derive the same
per-facility match sets, and batched multi-model queries re-derive the
identical ``psi``-mask once per service model.  :class:`CoverageCache`
memoises the three shapes of that repeated work:

* **node results** — per ``(facility, q-node version, psi, mode)``
  candidate position arrays and coverage masks from Algorithm 2 (the
  component a facility induces at a q-node is deterministic, so the
  pair's mask is too; collecting and non-collecting walks select
  different candidates, so mode is part of the key and reuse is
  within-mode);
* **match sets** — per-facility served-point-index maps (the input to
  the greedy / genetic / exact MaxkCovRST solvers);
* **batch masks** — per ``(stop set, psi)`` coverage masks over a batch
  engine's concatenated probe block (shared across service models and
  ``normalize`` settings, which only differ in aggregation).

Every entry carries enough to re-verify itself on lookup — the q-node
by identity plus the component's stop coordinates by value for node
results, the facility object by identity for match sets, the stop-set
object by identity for batch masks — so neither ``id`` reuse after
garbage collection nor two facilities sharing a ``facility_id`` can
alias to a wrong cached answer; a failed verification is simply a
miss.  The query layer puts the q-node's version (and, for match sets,
the tree's) into its keys, so entries cached before a ``TQTree.insert``
are never served after it; any other change to the underlying data
needs a fresh cache (or :meth:`clear`).

**Thread safety.**  A cache shared by a :class:`repro.service
.QueryService` is read and written from the service's bridge threads
concurrently, so every table access and counter update happens under
one internal lock (entries themselves are immutable once stored, so
serving a reference outside the lock is safe).  The lock covers the
bookkeeping only: the expensive work a miss triggers — probe kernels,
``match_fn`` bodies — runs outside it, so concurrent misses on
*different* keys still overlap.  Concurrent misses on the *same* key
both compute and the last store wins — identical content either way;
the service avoids even the duplicated work by serialising requests
that share probe units (see ``repro.service``).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

__all__ = ["CoverageCache"]


class CoverageCache:
    """Memoises coverage masks, node candidate sets, and match sets."""

    def __init__(self) -> None:
        self._nodes: Dict[
            Hashable, Tuple[Any, np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        self._matches: Dict[Hashable, Tuple[Any, Mapping]] = {}
        self._masks: Dict[Hashable, Tuple[Any, np.ndarray, np.ndarray]] = {}
        self._match_fns: Dict[int, Callable] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Algorithm-2 node results
    # ------------------------------------------------------------------
    def lookup_node(self, key: Hashable, node: Any, stop_coords: np.ndarray):
        """Cached ``(candidates, mask)`` for ``key``, or ``None``.

        A hit must re-verify: the stored q-node must be the very same
        object, and the stored component stop coordinates must equal
        ``stop_coords`` bitwise.  The coordinate check is what makes
        the cache sound when two distinct facilities share an id (their
        components differ, so they miss instead of aliasing) while
        still hitting across re-walks, which rebuild equal-valued
        component objects."""
        with self._lock:
            entry = self._nodes.get(key)
        if entry is None or entry[0] is not node:
            return None
        if not np.array_equal(entry[1], stop_coords):
            return None
        with self._lock:
            self.hits += 1
        return entry[2], entry[3]

    def store_node(
        self,
        key: Hashable,
        node: Any,
        stop_coords: np.ndarray,
        candidates: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        with self._lock:
            self.misses += 1
            self._nodes[key] = (node, stop_coords, candidates, mask)

    # ------------------------------------------------------------------
    # per-facility match sets
    # ------------------------------------------------------------------
    def cached_match_fn(
        self,
        match_fn: Callable,
        key: Optional[Hashable] = None,
        pin: Any = None,
    ) -> Callable:
        """Wrap a ``MatchFn`` so each facility's match set is computed
        once per (cache, key) pair.

        ``key`` names the wrapped function's *semantics* (e.g. which
        tree and spec produce the matches) so independently created
        closures with the same meaning share entries — pass ``pin`` to
        keep any ``id``-based part of that key unambiguous.  Without a
        key, entries are private to the ``match_fn`` object itself
        (which the cache pins alive).  A fn already wrapped by this
        cache passes through unchanged, so solver layers can wrap
        defensively without stacking.
        """
        if getattr(match_fn, "_coverage_cache", None) is self:
            return match_fn
        with self._lock:
            if key is None:
                # entries key on id(match_fn): pin it so the allocator
                # cannot recycle that id while the cache can serve them
                self._match_fns[id(match_fn)] = match_fn
                scope: Hashable = ("fn", id(match_fn))
            else:
                if pin is not None:
                    self._match_fns[id(pin)] = pin
                scope = ("sem", key)

        def fn(facility):
            entry_key = (scope, facility.facility_id)
            with self._lock:
                entry = self._matches.get(entry_key)
                if entry is not None and entry[0] is facility:
                    self.hits += 1
                    return entry[1]
            # compute outside the lock: match_fn re-enters the cache
            # through lookup_node/store_node, and holding the lock here
            # would serialise every concurrent miss on the whole cache
            matches = match_fn(facility)
            with self._lock:
                self._matches[entry_key] = (facility, matches)
                self.misses += 1
            return matches

        fn._coverage_cache = self  # type: ignore[attr-defined]
        return fn

    # ------------------------------------------------------------------
    # batch-engine probe masks
    # ------------------------------------------------------------------
    def lookup_mask(
        self, owner: Any, psi: float, block: np.ndarray
    ) -> Optional[np.ndarray]:
        """Cached mask for ``(owner stop set, psi)`` — valid only for
        the probe ``block`` it was computed over, verified by identity
        (a cache shared between engines with different user sets must
        miss, not serve a mask of the wrong length/meaning)."""
        with self._lock:
            entry = self._masks.get((id(owner), psi, id(block)))
            if entry is None or entry[0] is not owner or entry[1] is not block:
                return None
            self.hits += 1
            return entry[2]

    def store_mask(
        self, owner: Any, psi: float, block: np.ndarray, mask: np.ndarray
    ) -> None:
        with self._lock:
            self.misses += 1
            self._masks[(id(owner), psi, id(block))] = (owner, block, mask)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._nodes.clear()
            self._matches.clear()
            self._masks.clear()
            self._match_fns.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes) + len(self._matches) + len(self._masks)
