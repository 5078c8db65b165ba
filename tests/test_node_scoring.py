"""Differential suite: flat-array node scoring against per-entry scoring.

Node evaluation (Algorithm 2) scores a q-node's candidates from the
node's flat arrays.  The reference below scores the same candidates
entry by entry, the way node evaluation did before the arrays existed:
per-entry probe blocks concatenated in candidate order, the owned-point
and owned-segment vectors handed to ``np.dot``, and in collecting mode
a sequential sum of :meth:`IndexEntry.score_from_covered` plus one
record per entry.  Every value must match with ``==`` and every match
set in content and in user order, across service models, index
variants, ``normalize``, collecting, TQ(B) and TQ(Z), and trees that
took inserts between queries on one runtime.
"""

from __future__ import annotations

from typing import Dict, Optional, Set
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FacilityRoute,
    IndexVariant,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    Trajectory,
    evaluate_service,
)
from repro.queries import evaluate as ev
from repro.queries.components import FacilityComponent

from .strategies import WORLD, facilities, psis, trajectory_sets

#: Valid (variant, model) pairings; ENDPOINT-variant trees get two-point
#: trajectories so the partial models are exact on them.
CASES = [
    (IndexVariant.ENDPOINT, ServiceModel.ENDPOINT),
    (IndexVariant.ENDPOINT, ServiceModel.COUNT),
    (IndexVariant.ENDPOINT, ServiceModel.LENGTH),
    (IndexVariant.SEGMENTED, ServiceModel.COUNT),
    (IndexVariant.SEGMENTED, ServiceModel.LENGTH),
    (IndexVariant.FULL, ServiceModel.ENDPOINT),
    (IndexVariant.FULL, ServiceModel.COUNT),
    (IndexVariant.FULL, ServiceModel.LENGTH),
]


def reference_node(
    tree: TQTree,
    node,
    component: FacilityComponent,
    spec: ServiceSpec,
    collected: Optional[Dict[int, Set[int]]],
) -> float:
    """Score ``node``'s candidates entry by entry (the reference)."""
    if component.is_empty or not node.entries:
        return 0.0
    collecting = collected is not None
    picked = ev._zreduce_candidates(tree, node, component, spec, collecting)
    if picked is None:
        picked = ev._linear_candidates(
            node.gov_arrays(), component, spec, tree.config.variant, collecting
        )
    entries = [node.entries[i] for i in picked]
    if not entries:
        return 0.0
    mask = component.stops.covered_mask(
        np.concatenate([e.probe_coords for e in entries]), spec.psi
    )
    so = 0.0
    pos = 0
    if collecting:
        for e in entries:
            k = len(e.probe_idx)
            covered = dict(zip(e.probe_idx, (bool(m) for m in mask[pos : pos + k])))
            pos += k
            so += e.score_from_covered(covered, spec)
            hit = tuple(i for i in e.probe_idx if covered[i])
            if hit:
                collected.setdefault(e.traj.traj_id, set()).update(hit)
        return so
    if spec.model is ServiceModel.ENDPOINT:
        for e in entries:
            k = len(e.probe_idx)
            if mask[pos] and mask[pos + k - 1]:
                so += 1.0
            pos += k
        return so
    sel, second, weights = [], [], []
    for e in entries:
        pos_of = {idx: pos + i for i, idx in enumerate(e.probe_idx)}
        if spec.model is ServiceModel.COUNT:
            w = 1.0 / e.traj.n_points if spec.normalize else 1.0
            for i in e.own_point_idx:
                sel.append(pos_of[i])
                weights.append(w)
        else:
            total = e.traj.length
            scale = (1.0 / total if total > 0 else 0.0) if spec.normalize else None
            lengths = np.array(
                [e.traj.segment_lengths[s] for s in e.own_seg_idx], dtype=np.float64
            )
            if scale is not None:
                lengths = lengths * scale
            for s, length in zip(e.own_seg_idx, lengths):
                sel.append(pos_of[s])
                second.append(pos_of[s + 1])
                weights.append(length)
        pos += len(e.probe_idx)
    if not sel:
        return 0.0
    served = mask[np.array(sel, dtype=np.intp)]
    if spec.model is ServiceModel.LENGTH:
        served = served & mask[np.array(second, dtype=np.intp)]
    return float(np.dot(served.astype(np.float64), np.array(weights)))


def check_every_node(tree, facility, spec, collecting, runtime) -> None:
    """Each node's value (and the match sets accumulated over all
    nodes, users in first-seen order) equal the reference's."""
    whole = FacilityComponent.whole(facility, spec.psi)
    collector = ev.MatchCollector() if collecting else None
    collected: Optional[Dict[int, Set[int]]] = {} if collecting else None
    for node in tree.nodes():
        component = whole.restricted_to(node.box)
        got = ev.evaluate_node_trajectories(
            tree, node, component, spec, collector, runtime=runtime
        )
        assert got == reference_node(tree, node, component, spec, collected)
    if collecting:
        want = [(tid, tuple(sorted(idx))) for tid, idx in collected.items()]
        assert list(collector.as_dict().items()) == want


@pytest.mark.parametrize("use_zorder", [False, True], ids=["TQ(B)", "TQ(Z)"])
@pytest.mark.parametrize(
    "variant,model", CASES, ids=[f"{v.value}-{m.value}" for v, m in CASES]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flat_scoring_equals_per_entry(variant, model, use_zorder, data):
    points = 2 if variant is IndexVariant.ENDPOINT else 12
    users = data.draw(
        trajectory_sets(min_size=2, max_size=40, min_points=2, max_points=points)
    )
    facility = data.draw(facilities(facility_id=0))
    spec = ServiceSpec(model, data.draw(psis()), data.draw(st.booleans()))
    collecting = data.draw(st.booleans())
    n_built = data.draw(st.integers(1, len(users) - 1))
    tree = TQTree.build(
        users[:n_built],
        TQTreeConfig(beta=4, variant=variant, use_zorder=use_zorder),
        space=WORLD,
    )
    runtime = QueryRuntime()
    # every node list takes the zReduce path on TQ(Z), however short
    with patch.object(ev, "_Z_MIN_LIST", 0):
        check_every_node(tree, facility, spec, collecting, runtime)
        for u in users[n_built:]:
            tree.insert(u)
        check_every_node(tree, facility, spec, collecting, runtime)
        # the runtime now holds every node's post-insert result: a re-walk
        # aggregates from cached candidates and masks
        check_every_node(tree, facility, spec, collecting, runtime)
        with_collector = ev.MatchCollector() if collecting else None
        plain = ev.MatchCollector() if collecting else None
        assert evaluate_service(
            tree, facility, spec, with_collector, runtime=runtime
        ) == evaluate_service(tree, facility, spec, plain)
        if collecting:
            assert list(with_collector.as_dict().items()) == list(
                plain.as_dict().items()
            )


@pytest.mark.parametrize("use_zorder", [False, True], ids=["TQ(B)", "TQ(Z)"])
def test_collecting_normalised_count_divides(use_zorder):
    """Three of five points served score ``3 / 5`` (0.6), the per-entry
    rule's division, not ``3 * (1 / 5)`` (0.6000000000000001)."""
    users = [
        Trajectory(0, [(100, 100), (110, 100), (120, 100), (900, 900), (950, 900)]),
        Trajectory(1, [(900, 100), (950, 100)]),
    ]
    tree = TQTree.build(
        users, TQTreeConfig(beta=4, variant=IndexVariant.FULL, use_zorder=use_zorder),
        space=WORLD,
    )
    facility = FacilityRoute(0, [(110, 100)])
    spec = ServiceSpec(ServiceModel.COUNT, 50.0)
    assert evaluate_service(tree, facility, spec, ev.MatchCollector()) == 3 / 5
