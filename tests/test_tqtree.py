"""Structural tests for the TQ-tree: placement, bounds, updates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import (
    BBox,
    IndexVariant,
    Point,
    QueryError,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    Trajectory,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
    storage_report,
)
from repro.core.errors import IndexError_
from repro.index.entries import SubBounds

from .strategies import WORLD, trajectory_sets


def users_grid(n, n_points=2):
    out = []
    for i in range(n):
        pts = [
            (((i * 97) + 13 * j) % 1000, ((i * 61) + 29 * j) % 1000)
            for j in range(n_points)
        ]
        out.append(Trajectory(i, pts))
    return out


class TestBuild:
    def test_empty_build_requires_space(self):
        with pytest.raises(IndexError_):
            TQTree.build([])

    def test_empty_build_with_space(self):
        tree = TQTree.build([], space=WORLD)
        assert tree.n_trajectories == 0
        assert tree.root.is_leaf

    def test_small_set_stays_in_root(self):
        users = users_grid(3)
        tree = TQTree.build(users, TQTreeConfig(beta=8), space=WORLD)
        assert tree.root.is_leaf
        assert len(tree.root.entries) == 3

    def test_large_set_splits(self):
        users = users_grid(200)
        tree = TQTree.build(users, TQTreeConfig(beta=8), space=WORLD)
        assert not tree.root.is_leaf
        assert tree.height() > 1

    def test_duplicate_ids_rejected(self):
        users = [Trajectory(1, [(0, 0), (1, 1)]), Trajectory(1, [(2, 2), (3, 3)])]
        with pytest.raises(IndexError_):
            TQTree.build(users, space=WORLD)

    def test_out_of_space_rejected(self):
        with pytest.raises(IndexError_):
            TQTree.build([Trajectory(0, [(-5, 0), (1, 1)])], space=WORLD)

    def test_inferred_space_covers_all_points(self):
        users = users_grid(50)
        tree = TQTree.build(users)
        for u in users:
            for p in u.points:
                assert tree.space.contains_point(p)

    def test_identical_trajectories_terminate(self):
        """Inter-node forever: identical co-located entries must not loop."""
        users = [Trajectory(i, [(499, 499), (501, 501)]) for i in range(40)]
        tree = TQTree.build(users, TQTreeConfig(beta=4), space=WORLD)
        assert tree.n_trajectories == 40


class TestPlacementInvariants:
    def _check_placement(self, tree):
        """Every entry's placement points lie in its node; at internal
        nodes they span >= 2 children, at leaves anything goes."""
        for node in tree.nodes():
            for e in node.entries:
                for p in e.placement_points:
                    assert node.box.contains_point(p)
                if not node.is_leaf:
                    quads = {node.box.quadrant_of(p) for p in e.placement_points}
                    assert len(quads) >= 2, "intra entry left at internal node"

    def test_endpoint_variant_placement(self):
        tree = build_tq_zorder(users_grid(300), beta=8, space=WORLD)
        self._check_placement(tree)

    def test_segmented_variant_placement(self):
        tree = build_segmented(users_grid(100, n_points=5), beta=8, space=WORLD)
        self._check_placement(tree)

    def test_full_variant_placement(self):
        tree = build_full(users_grid(100, n_points=5), beta=8, space=WORLD)
        self._check_placement(tree)

    @settings(max_examples=25)
    @given(trajectory_sets(min_size=1, max_size=40, min_points=2, max_points=5))
    def test_placement_property(self, users):
        for variant in IndexVariant:
            cfg = TQTreeConfig(beta=3, variant=variant)
            tree = TQTree.build(users, cfg, space=WORLD)
            self._check_placement(tree)


class TestStorage:
    def test_each_trajectory_stored_once_endpoint(self):
        tree = build_tq_zorder(users_grid(250), beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert report.n_entries_stored == 250

    def test_each_segment_stored_once(self):
        users = users_grid(60, n_points=6)
        tree = build_segmented(users, beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert report.n_entries_stored == 60 * 5

    def test_full_variant_stored_once(self):
        users = users_grid(80, n_points=4)
        tree = build_full(users, beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert report.n_entries_stored == 80

    def test_report_counts_nodes(self):
        tree = build_tq_zorder(users_grid(250), beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.n_nodes >= report.n_leaves
        assert report.height == tree.height()


class TestSubBoundsInvariant:
    def _sub_of_subtree(self, node):
        total = SubBounds()
        stack = [node]
        while stack:
            n = stack.pop()
            for e in n.entries:
                total.add_entry(e)
            if n.children:
                stack.extend(n.children)
        return total

    def _check_sub(self, tree):
        specs = [
            ServiceSpec(ServiceModel.ENDPOINT, psi=1.0),
            ServiceSpec(ServiceModel.COUNT, psi=1.0, normalize=False),
            ServiceSpec(ServiceModel.LENGTH, psi=1.0, normalize=False),
            ServiceSpec(ServiceModel.COUNT, psi=1.0, normalize=True),
            ServiceSpec(ServiceModel.LENGTH, psi=1.0, normalize=True),
        ]
        for node in tree.nodes():
            expected = self._sub_of_subtree(node)
            for sp in specs:
                assert node.sub.value_for(sp) == pytest.approx(expected.value_for(sp))

    def test_sub_equals_subtree_totals_after_build(self):
        tree = build_tq_zorder(users_grid(300), beta=8, space=WORLD)
        self._check_sub(tree)

    def test_sub_maintained_by_inserts(self):
        users = users_grid(120)
        tree = TQTree.build(users[:40], TQTreeConfig(beta=8), space=WORLD)
        for u in users[40:]:
            tree.insert(u)
        self._check_sub(tree)

    @settings(max_examples=20)
    @given(trajectory_sets(min_size=1, max_size=30, min_points=2, max_points=4))
    def test_sub_property_full_variant(self, users):
        tree = TQTree.build(
            users, TQTreeConfig(beta=3, variant=IndexVariant.FULL), space=WORLD
        )
        self._check_sub(tree)


class TestInsert:
    def test_insert_equivalent_to_bulk(self):
        """An incrementally built tree stores the same entries (possibly
        shaped differently) and answers identically."""
        users = users_grid(150)
        bulk = build_tq_zorder(users, beta=8, space=WORLD)
        inc = TQTree(WORLD, TQTreeConfig(beta=8))
        for u in users:
            inc.insert(u)
        assert inc.n_trajectories == bulk.n_trajectories
        assert storage_report(inc).stores_each_entry_once

    def test_insert_duplicate_rejected(self):
        tree = TQTree.build(users_grid(5), space=WORLD)
        with pytest.raises(IndexError_):
            tree.insert(Trajectory(0, [(1, 1), (2, 2)]))

    def test_insert_outside_space_rejected(self):
        tree = TQTree.build(users_grid(5), space=WORLD)
        with pytest.raises(IndexError_):
            tree.insert(Trajectory(999, [(-10, 0), (1, 1)]))

    def test_gov_arrays_refresh_after_insert(self):
        """The TQ(B) scan block must track list growth from inserts."""
        users = users_grid(40)
        tree = TQTree.build(users[:30], TQTreeConfig(beta=64, use_zorder=False),
                            space=WORLD)
        before = tree.root.gov_arrays().shape[0]
        for u in users[30:]:
            tree.insert(u)
        after = tree.root.gov_arrays().shape[0]
        assert after == len(tree.root.entries)
        assert after >= before

    def test_tq_basic_exact_after_inserts(self):
        """TQ(B) linear-scan evaluation stays exact across inserts."""
        from repro import FacilityRoute, ServiceModel, ServiceSpec
        from repro import brute_force_service, evaluate_service

        users = users_grid(80)
        tree = TQTree.build(users[:50], TQTreeConfig(beta=8, use_zorder=False),
                            space=WORLD)
        for u in users[50:]:
            tree.insert(u)
        facility = FacilityRoute(0, [(100, 100), (500, 500), (900, 200)])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=250.0)
        assert evaluate_service(tree, facility, spec) == pytest.approx(
            brute_force_service(users, facility, spec)
        )

    @pytest.mark.parametrize("builder", [build_tq_zorder, build_tq_basic])
    def test_runtime_caches_retire_on_insert(self, city, builder):
        """A runtime that already walked the tree must not answer from
        node results or match sets cached before an insert."""
        from repro import (
            QueryRuntime,
            brute_force_service,
            evaluate_service,
            generate_bus_routes,
            generate_taxi_trips,
            maxkcov_tq,
        )

        users = generate_taxi_trips(400, city, seed=5)
        routes = generate_bus_routes(6, city, seed=3, n_stops=16)
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        tree = builder(users[:300], space=city.bounds)
        runtime = QueryRuntime()
        evaluate_service(tree, routes[0], spec, runtime=runtime)
        maxkcov_tq(tree, routes, 2, spec, runtime=runtime)
        for u in users[300:]:
            tree.insert(u)
        want = brute_force_service(users, routes[0], spec)
        assert evaluate_service(tree, routes[0], spec, runtime=runtime) == want
        assert evaluate_service(tree, routes[0], spec) == want
        assert maxkcov_tq(tree, routes, 2, spec, runtime=runtime) == maxkcov_tq(
            tree, routes, 2, spec
        )

    def test_leaf_split_on_overflow(self):
        cluster = [
            Trajectory(i, [(10 + i * 0.5, 10), (12 + i * 0.5, 12)]) for i in range(20)
        ]
        tree = TQTree(WORLD, TQTreeConfig(beta=4))
        for u in cluster:
            tree.insert(u)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert tree.height() > 1


class TestLookups:
    def test_containing_qnode_smallest(self):
        tree = build_tq_zorder(users_grid(300), beta=8, space=WORLD)
        box = BBox(10, 10, 40, 40)
        node = tree.containing_qnode(box)
        assert node.box.contains_bbox(box)
        # no child of the found node contains the box
        if node.children:
            assert not any(c.box.contains_bbox(box) for c in node.children)

    def test_containing_qnode_outside_space_is_root(self):
        tree = build_tq_zorder(users_grid(50), beta=8, space=WORLD)
        node = tree.containing_qnode(BBox(-100, -100, 50, 50))
        assert node is tree.root

    def test_ancestors_chain(self):
        tree = build_tq_zorder(users_grid(400), beta=4, space=WORLD)
        node = tree.containing_qnode(BBox(5, 5, 6, 6))
        chain = TQTree.ancestors(node)
        if chain:
            assert chain[0] is tree.root
            for parent, child in zip(chain, chain[1:] + [node]):
                assert child.parent is parent

    def test_trajectory_lookup(self):
        users = users_grid(10)
        tree = TQTree.build(users, space=WORLD)
        assert tree.trajectory(3) == users[3]
        with pytest.raises(IndexError_):
            tree.trajectory(777)

    def test_validate_spec_surface(self):
        users = users_grid(10, n_points=4)
        tree = build_tq_zorder(users, space=WORLD, variant=IndexVariant.ENDPOINT)
        with pytest.raises(QueryError):
            tree.validate_spec(ServiceSpec(ServiceModel.COUNT, psi=1.0))

    def test_tq_basic_has_no_zlist(self):
        tree = build_tq_basic(users_grid(50), beta=8, space=WORLD)
        assert tree.node_zlist(tree.root) is None

    def test_tq_zorder_builds_zlist(self):
        tree = build_tq_zorder(users_grid(50), beta=8, space=WORLD)
        node = next(n for n in tree.nodes() if n.entries)
        assert tree.node_zlist(node) is not None
