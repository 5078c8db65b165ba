"""Object codecs over the store container: engine indexes to files.

:func:`save_index` / :func:`open_index` round-trip the three engine
index types — :class:`~repro.engine.grid.StopGrid`,
:class:`~repro.engine.shards.ShardedStopGrid`,
:class:`~repro.engine.cellstring.CellstringIndex` — through one store
file each.  Opening with ``mmap_mode="r"`` rebuilds the object *around*
read-only ``np.memmap`` views: no array is copied, so open cost is
O(header) regardless of index size, and every process opening the same
path shares one physical mapping.  The reconstructed objects answer
queries through the exact same code paths as freshly built ones
(identical classes, identical slot layout), so masks, match sets, and
:class:`~repro.core.stats.QueryStats` are bit-identical by
construction — and ``tests/test_store.py`` holds them to ``==``.

Bundles for catalog payloads ride the same container:
:func:`save_trajectory_bundle` / :func:`open_trajectory_bundle`
(flattened point rows + CSR offsets + ids) and
:func:`save_tree_node_tables` / :func:`adopt_tree_node_tables` (the
per-node governing-filter tables of a TQ-tree in deterministic
pre-order, re-adopted as memmap views into a rebuilt tree's caches).
The TQ-tree's per-node z-structures hold Python tuple keys, not flat
arrays — they rebuild lazily on first use and are deliberately not
persisted.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import StoreError
from ..core.trajectory import FacilityRoute, Trajectory
from ..engine.cellstring import CellstringIndex
from ..engine.grid import StopGrid
from ..engine.shards import ShardedStopGrid, StopShard
from .format import read_store_file, write_store_file

__all__ = [
    "save_index",
    "open_index",
    "save_trajectory_bundle",
    "open_trajectory_bundle",
    "save_tree_node_tables",
    "adopt_tree_node_tables",
    "opened_mmap_paths",
]

#: Every store file this *process* has opened as memmap views, by
#: absolute path.  The scale-out serving stack reports this per worker
#: (``GET /stats`` → ``worker.mmap_paths``) as evidence that N workers
#: share one physical catalog instead of copying it; the prefork tests
#: hold it non-empty when serving a store catalog.  Append-only and tiny
#: (one entry per distinct file), so no eviction.
_MMAP_OPENED: set = set()


def opened_mmap_paths() -> Tuple[str, ...]:
    """Absolute paths of all store files mmap-opened by this process,
    sorted (see :data:`_MMAP_OPENED`)."""
    return tuple(sorted(_MMAP_OPENED))

AnyIndex = Union[StopGrid, ShardedStopGrid, CellstringIndex]

KIND_STOP_GRID = "stop_grid"
KIND_SHARDED_GRID = "sharded_grid"
KIND_CELLSTRING = "cellstring"
KIND_TRAJECTORIES = "trajectories"
KIND_FACILITIES = "facilities"
KIND_NODE_TABLES = "node_tables"


# ----------------------------------------------------------------------
# index codecs
# ----------------------------------------------------------------------
def _encode_stop_grid(grid: StopGrid):
    meta = {
        "psi": grid.psi,
        "cell_size": grid.cell_size,
        "ox": grid._ox,
        "oy": grid._oy,
        "nx": grid._nx,
        "ny": grid._ny,
        "n_cells": grid.n_cells,
    }
    arrays = {
        "coords": grid.coords,
        "sorted_keys": grid._sorted_keys,
        "sorted_coords": grid._sorted_coords,
    }
    return meta, arrays


def _decode_stop_grid(meta, arrays) -> StopGrid:
    grid = StopGrid.__new__(StopGrid)
    grid.coords = arrays["coords"]
    grid.psi = float(meta["psi"])
    grid.cell_size = float(meta["cell_size"])
    grid._ox = float(meta["ox"])
    grid._oy = float(meta["oy"])
    grid._nx = int(meta["nx"])
    grid._ny = int(meta["ny"])
    grid._sorted_keys = arrays["sorted_keys"]
    grid._sorted_coords = arrays["sorted_coords"]
    grid.n_cells = int(meta["n_cells"])
    return grid


def _encode_sharded_grid(grid: ShardedStopGrid):
    n = len(grid.shards)
    key_offsets = np.zeros(n + 1, dtype=np.int64)
    cs_offsets = np.zeros(n + 1, dtype=np.int64)
    for i, shard in enumerate(grid.shards):
        key_offsets[i + 1] = key_offsets[i] + shard.keys.size
        cs_offsets[i + 1] = cs_offsets[i] + shard.cell_starts.size
    meta = {
        "psi": grid.psi,
        "cell_size": grid.cell_size,
        "n_shards": n,
        "ox": grid._ox,
        "oy": grid._oy,
        "nx": grid._nx,
        "ny": grid._ny,
    }
    empty_i8 = np.zeros(0, dtype=np.int64)
    empty_f8 = np.zeros((0, 2), dtype=np.float64)
    arrays = {
        "coords": grid.coords,
        "shard_keys": (
            np.concatenate([s.keys for s in grid.shards])
            if n else empty_i8
        ),
        "shard_coords": (
            np.concatenate([s.coords for s in grid.shards])
            if n else empty_f8
        ),
        "shard_key_offsets": key_offsets,
        # cell_starts prefixes are persisted too: reconstructing them is
        # the only O(n) compute in a shard, and the store's contract is
        # O(open).
        "cell_starts": (
            np.concatenate([s.cell_starts for s in grid.shards])
            if n else empty_i8
        ),
        "cs_offsets": cs_offsets,
    }
    return meta, arrays


def _decode_sharded_grid(meta, arrays):
    grid = ShardedStopGrid.__new__(ShardedStopGrid)
    grid.coords = arrays["coords"]
    grid.psi = float(meta["psi"])
    grid.cell_size = float(meta["cell_size"])
    grid.n_shards = int(meta["n_shards"])
    grid._ox = float(meta["ox"])
    grid._oy = float(meta["oy"])
    grid._nx = int(meta["nx"])
    grid._ny = int(meta["ny"])
    key_offsets = arrays["shard_key_offsets"]
    cs_offsets = arrays["cs_offsets"]
    if key_offsets.size != grid.n_shards + 1 or cs_offsets.size != grid.n_shards + 1:
        raise StoreError(
            f"sharded grid offsets disagree with n_shards={grid.n_shards}"
        )
    shards: List[StopShard] = []
    for i in range(grid.n_shards):
        shard = StopShard.__new__(StopShard)
        keys = arrays["shard_keys"][key_offsets[i] : key_offsets[i + 1]]
        shard.keys = keys
        shard.coords = arrays["shard_coords"][key_offsets[i] : key_offsets[i + 1]]
        shard.cell_starts = arrays["cell_starts"][cs_offsets[i] : cs_offsets[i + 1]]
        if shard.cell_starts.size != keys.size + 1:
            raise StoreError(
                f"shard {i} cell_starts length {shard.cell_starts.size} "
                f"disagrees with {keys.size} keys"
            )
        if keys.size:
            shard.key_lo = np.int64(keys[0])
            shard.key_hi = np.int64(keys[-1])
        else:
            shard.key_lo = np.int64(0)
            shard.key_hi = np.int64(-1)
        shards.append(shard)
    grid.shards = tuple(shards)
    return grid


def _encode_cellstring(index: CellstringIndex):
    meta = {
        "psi": index.psi,
        "ox": index.ox,
        "oy": index.oy,
        "cell": index.cell,
        "depth": index.depth,
        "coarse_shift": index.coarse_shift,
    }
    arrays = {
        "coords": index.coords,
        "coarse_keys": index.coarse_keys,
        "interior_keys": index.interior_keys,
        "boundary_keys": index.boundary_keys,
        "boundary_indptr": index.boundary_indptr,
        "boundary_stops": index.boundary_stops,
    }
    return meta, arrays


def _decode_cellstring(meta, arrays) -> CellstringIndex:
    # CellstringIndex.__init__ assigns verbatim — no recompute, no copy
    return CellstringIndex(
        arrays["coords"],
        float(meta["psi"]),
        float(meta["ox"]),
        float(meta["oy"]),
        float(meta["cell"]),
        int(meta["depth"]),
        int(meta["coarse_shift"]),
        arrays["coarse_keys"],
        arrays["interior_keys"],
        arrays["boundary_keys"],
        arrays["boundary_indptr"],
        arrays["boundary_stops"],
    )


def save_index(path: str, index: AnyIndex) -> str:
    """Persist an engine index to ``path`` atomically; returns its
    content hash (sha256 hex)."""
    if isinstance(index, ShardedStopGrid):
        kind, (meta, arrays) = KIND_SHARDED_GRID, _encode_sharded_grid(index)
    elif isinstance(index, StopGrid):
        kind, (meta, arrays) = KIND_STOP_GRID, _encode_stop_grid(index)
    elif isinstance(index, CellstringIndex):
        kind, (meta, arrays) = KIND_CELLSTRING, _encode_cellstring(index)
    else:
        raise StoreError(
            f"cannot persist {type(index).__name__}: save_index handles "
            f"StopGrid, ShardedStopGrid, and CellstringIndex"
        )
    return write_store_file(path, kind, meta, arrays)


def open_index(path: str, mmap_mode: Optional[str] = "r") -> AnyIndex:
    """Reconstruct the index persisted at ``path``.

    ``mmap_mode="r"`` (default) backs every array with a zero-copy
    read-only memmap view — O(open) and cross-process shareable;
    ``mmap_mode=None`` loads eagerly (bit-identical content, no file
    handle retained).  The content hash is checked first.
    All failures raise :class:`~repro.core.errors.StoreError`.
    """
    kind, meta, arrays = read_store_file(path, mmap_mode=mmap_mode)
    if mmap_mode == "r":
        _MMAP_OPENED.add(os.path.abspath(path))
    try:
        if kind == KIND_STOP_GRID:
            return _decode_stop_grid(meta, arrays)
        if kind == KIND_SHARDED_GRID:
            return _decode_sharded_grid(meta, arrays)
        if kind == KIND_CELLSTRING:
            return _decode_cellstring(meta, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(
            f"store file {path!r} ({kind}) has an incomplete payload: {exc}"
        ) from exc
    raise StoreError(
        f"store file {path!r} holds kind {kind!r}, not an index "
        f"(use the bundle helpers for catalog payloads)"
    )


# ----------------------------------------------------------------------
# catalog bundles
# ----------------------------------------------------------------------
def save_trajectory_bundle(
    path: str,
    items: Sequence[Union[Trajectory, FacilityRoute]],
    kind: str,
) -> str:
    """Persist trajectories or facility routes as one CSR bundle.

    ``kind`` is ``"trajectories"`` or ``"facilities"``; layout is
    ``ids (k,)`` + ``offsets (k+1,)`` + flattened ``points (P, 2)``.
    """
    if kind not in (KIND_TRAJECTORIES, KIND_FACILITIES):
        raise StoreError(
            f"bundle kind must be {KIND_TRAJECTORIES!r} or "
            f"{KIND_FACILITIES!r}, got {kind!r}"
        )
    ids = np.zeros(len(items), dtype=np.int64)
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    blocks = []
    for i, item in enumerate(items):
        if kind == KIND_TRAJECTORIES:
            ids[i] = item.traj_id
            block = item.coords
        else:
            ids[i] = item.facility_id
            block = item.stop_coords
        offsets[i + 1] = offsets[i] + block.shape[0]
        blocks.append(block)
    points = (
        np.concatenate(blocks) if blocks else np.zeros((0, 2), dtype=np.float64)
    )
    return write_store_file(
        path, kind, {"count": len(items)},
        {"ids": ids, "offsets": offsets, "points": points},
    )


def open_trajectory_bundle(
    path: str,
) -> Tuple[str, List[Union[Trajectory, FacilityRoute]]]:
    """``(kind, items)`` from a bundle written by
    :func:`save_trajectory_bundle`.

    Always loads eagerly: the Trajectory/FacilityRoute constructors
    normalise rows into Point tuples anyway, and going through them
    keeps every persisted object validated by the same code as live
    ones.
    """
    kind, meta, arrays = read_store_file(path, mmap_mode=None)
    if kind not in (KIND_TRAJECTORIES, KIND_FACILITIES):
        raise StoreError(
            f"store file {path!r} holds kind {kind!r}, not a bundle"
        )
    try:
        ids = arrays["ids"]
        offsets = arrays["offsets"]
        points = arrays["points"]
    except KeyError as exc:
        raise StoreError(
            f"store file {path!r} bundle is missing segment {exc}"
        ) from exc
    if offsets.size != ids.size + 1:
        raise StoreError(
            f"store file {path!r} bundle offsets/ids lengths disagree"
        )
    ctor = Trajectory if kind == KIND_TRAJECTORIES else FacilityRoute
    items: List[Union[Trajectory, FacilityRoute]] = []
    for i in range(ids.size):
        rows = points[int(offsets[i]) : int(offsets[i + 1])]
        items.append(ctor(int(ids[i]), [tuple(r) for r in rows]))
    return kind, items


# ----------------------------------------------------------------------
# TQ-tree node tables
# ----------------------------------------------------------------------
def save_tree_node_tables(path: str, tree) -> str:
    """Persist a TQ-tree's per-node governing-filter tables.

    ``tree.nodes()`` yields pre-order deterministically, so a tree
    rebuilt from the same trajectories visits nodes in the same order
    and :func:`adopt_tree_node_tables` can hand each node its table
    back.
    """
    tables = [node.gov_arrays() for node in tree.nodes()]
    indptr = np.zeros(len(tables) + 1, dtype=np.int64)
    for i, table in enumerate(tables):
        indptr[i + 1] = indptr[i] + table.shape[0]
    gov = (
        np.concatenate(tables)
        if tables else np.zeros((0, 8), dtype=np.float64)
    )
    return write_store_file(
        path, KIND_NODE_TABLES, {"n_nodes": len(tables)},
        {"indptr": indptr, "gov": gov},
    )


def adopt_tree_node_tables(
    tree, path: str, mmap_mode: Optional[str] = "r"
) -> int:
    """Assign persisted governing tables into ``tree``'s node caches;
    returns how many nodes adopted a table.

    The caller must have rebuilt ``tree`` from the same trajectories
    and parameters the tables were saved against (what
    :func:`~repro.service.http.catalog.open_store_catalog` does — the users
    bundle and node tables travel together).  Shape mismatches degrade
    safely: a tree with a different node count adopts nothing, a node
    whose entry count disagrees with its persisted table keeps nothing,
    and a table is adopted for the node's current version only, so the
    first insert that changes a node's list drops it — a stale file
    costs a lazy rebuild, not a wrong answer.
    """
    kind, meta, arrays = read_store_file(path, mmap_mode=mmap_mode)
    if mmap_mode == "r":
        _MMAP_OPENED.add(os.path.abspath(path))
    if kind != KIND_NODE_TABLES:
        raise StoreError(
            f"store file {path!r} holds kind {kind!r}, not node tables"
        )
    try:
        indptr = arrays["indptr"]
        gov = arrays["gov"]
    except KeyError as exc:
        raise StoreError(
            f"store file {path!r} node tables missing segment {exc}"
        ) from exc
    adopted = 0
    nodes = list(tree.nodes())
    if indptr.size != len(nodes) + 1:
        return 0  # structurally different tree: adopt nothing
    for i, node in enumerate(nodes):
        table = gov[int(indptr[i]) : int(indptr[i + 1])]
        if table.shape[0] == len(node.entries):
            node.adopt_gov(table)
            adopted += 1
    return adopted
