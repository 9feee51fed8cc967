"""Equivalence suite for the sublinear k-NN backends.

Every index behind :class:`~repro.analysis.knn.KnnIndex` is *exact*: for any
reference set and any query batch it must return bit-identical neighbour
sets — same distances, same indices, ties broken by ascending point index —
as :class:`BruteForceKnn`.  That contract is what lets the monitor swap
backends purely for speed: LOF scores, decisions, reports and recorded
bytes cannot change.  This module locks the contract down at every layer:

* raw index queries (single, batched, duplicates, degenerate dims, k edge
  cases, hypothesis-driven random instances),
* incremental ``add_points`` versus a from-scratch rebuild,
* the ball tree's block-by-block copy of the points, across leaf sizes
  and tail-rebuild fractions,
* pickle round-trips of fitted indexes (the PR 3 fleet transport path),
* LOF scores and ``partial_fit`` versus fit-on-combined,
* full monitor decisions/reports and fleet output files (serial and
  process-parallel) across ``MonitorConfig.knn_backend`` values.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fleet import ShardedTraceMonitor
from repro.analysis.knn import (
    AUTO_CROSSOVER_POINTS,
    KNN_BACKENDS,
    BallTreeKnn,
    BruteForceKnn,
    make_index,
    resolve_backend,
)
from repro.analysis.lof import LocalOutlierFactor
from repro.analysis.model import ReferenceModel
from repro.analysis.monitor import TraceMonitor
from repro.config import DetectorConfig, MonitorConfig
from repro.errors import ModelError
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import PeriodicTraceGenerator, SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration

INDEXED_BACKENDS = tuple(name for name in KNN_BACKENDS if name != "brute")

INDEX_CLASSES = {
    "brute": BruteForceKnn,
    "balltree": BallTreeKnn,
}


def dirichlet_points(seed: int, n: int, dim: int) -> np.ndarray:
    """Clustered points on the probability simplex, like real pmf vectors."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        # Degenerate simplex: every pmf is exactly (1.0,); perturb a little
        # so distance ties and near-ties both occur.
        return 1.0 + rng.normal(scale=1e-9, size=(n, 1))
    centers = rng.dirichlet(np.ones(dim), size=4)
    assignments = rng.integers(0, len(centers), size=n)
    points = np.empty((n, dim))
    for row, center in enumerate(assignments):
        points[row] = rng.dirichlet(centers[center] * 50.0 + 1e-3)
    return points


def assert_bit_identical(result, oracle):
    """Distances and indices must match exactly — not just approximately."""
    distances, indices = result
    oracle_distances, oracle_indices = oracle
    np.testing.assert_array_equal(indices, oracle_indices)
    np.testing.assert_array_equal(distances, oracle_distances)


class TestBackendRegistry:
    def test_backend_names(self):
        assert KNN_BACKENDS == ("brute", "balltree")

    def test_make_index_constructs_each_backend(self):
        points = dirichlet_points(0, 60, 4)
        for name in KNN_BACKENDS:
            assert isinstance(make_index(name, points), INDEX_CLASSES[name])

    def test_auto_resolves_by_reference_size(self):
        assert resolve_backend("auto", AUTO_CROSSOVER_POINTS - 1) == "brute"
        assert resolve_backend("auto", AUTO_CROSSOVER_POINTS) == "balltree"
        assert resolve_backend("balltree", 10) == "balltree"

    def test_unknown_backend_rejected(self):
        for retired in ("kdtree", "grid"):
            with pytest.raises(ModelError):
                resolve_backend(retired, 100)
        with pytest.raises(ModelError):
            resolve_backend("octree", 100)
        with pytest.raises(ModelError):
            make_index("octree", dirichlet_points(0, 20, 3))
        with pytest.raises(ModelError):
            LocalOutlierFactor(k_neighbours=3, index_kind="octree")


class TestExactEquivalence:
    @pytest.mark.parametrize("backend", INDEXED_BACKENDS)
    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_query_many_bit_identical_to_brute(self, backend, dim):
        points = dirichlet_points(11, 300, dim)
        queries = np.vstack([points[:20], dirichlet_points(77, 25, dim)])
        brute = BruteForceKnn(points)
        index = make_index(backend, points)
        for k in (1, 5, len(points) - 1, len(points)):
            assert_bit_identical(
                index.query_many(queries, k), brute.query_many(queries, k)
            )

    @pytest.mark.parametrize("backend", KNN_BACKENDS)
    def test_batched_matches_single_queries(self, backend):
        points = dirichlet_points(5, 120, 6)
        queries = dirichlet_points(6, 9, 6)
        index = make_index(backend, points)
        distances, indices = index.query_many(queries, k=7)
        for row, query in enumerate(queries):
            solo_d, solo_i = index.query(query, k=7)
            np.testing.assert_array_equal(indices[row], solo_i)
            np.testing.assert_array_equal(distances[row], solo_d)

    @pytest.mark.parametrize("backend", KNN_BACKENDS)
    def test_equal_distances_break_ties_by_ascending_index(self, backend):
        # Every point identical: all candidate distances tie, so the k
        # nearest must be exactly the k lowest point indices.
        points = np.tile(np.array([[0.25, 0.25, 0.5]]), (40, 1))
        index = make_index(backend, points)
        for k in (1, 7, 40):
            _, indices = index.query(np.array([0.25, 0.25, 0.5]), k)
            assert indices.tolist() == list(range(k))

    @pytest.mark.parametrize("backend", INDEXED_BACKENDS)
    def test_duplicate_points_match_brute(self, backend):
        rng = np.random.default_rng(21)
        base = dirichlet_points(21, 30, 4)
        # Triplicate every point and shuffle, so ties cross block/cell
        # boundaries in the indexed backends.
        points = np.vstack([base, base, base])[rng.permutation(90)]
        queries = np.vstack([base[:10], dirichlet_points(22, 5, 4)])
        brute = BruteForceKnn(points)
        index = make_index(backend, points)
        for k in (1, 4, 89, 90):
            assert_bit_identical(
                index.query_many(queries, k), brute.query_many(queries, k)
            )

    @pytest.mark.parametrize("backend", INDEXED_BACKENDS)
    def test_constant_column_degenerate_dims(self, backend):
        # A pmf dimension that never varies (event type with constant share)
        # gives the index zero spread on that axis.
        rng = np.random.default_rng(31)
        points = np.zeros((80, 3))
        points[:, 0] = rng.uniform(size=80)
        points[:, 2] = 1.0 - points[:, 0]
        queries = points[:6] + rng.normal(scale=1e-3, size=(6, 3))
        assert_bit_identical(
            make_index(backend, points).query_many(queries, 10),
            BruteForceKnn(points).query_many(queries, 10),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dim=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=12, max_value=70),
        k_choice=st.sampled_from(["one", "middle", "n_minus_1", "n"]),
        backend=st.sampled_from(INDEXED_BACKENDS),
    )
    def test_random_instances_match_brute(self, seed, dim, n, k_choice, backend):
        points = dirichlet_points(seed, n, dim)
        queries = np.vstack([points[: min(4, n)], dirichlet_points(seed + 1, 4, dim)])
        k = {"one": 1, "middle": max(1, n // 3), "n_minus_1": n - 1, "n": n}[k_choice]
        assert_bit_identical(
            make_index(backend, points).query_many(queries, k),
            BruteForceKnn(points).query_many(queries, k),
        )


class TestAddPoints:
    @pytest.mark.parametrize("backend", KNN_BACKENDS)
    def test_incremental_equals_from_scratch(self, backend):
        full = dirichlet_points(41, 240, 5)
        queries = dirichlet_points(42, 12, 5)
        index = make_index(backend, full[:100])
        for start in range(100, 240, 35):
            index.add_points(full[start : start + 35])
        assert index.n_points == 240
        rebuilt = make_index(backend, full)
        assert_bit_identical(
            index.query_many(queries, 9), rebuilt.query_many(queries, 9)
        )

    def test_balltree_tail_rebuild_keeps_equivalence(self):
        # Grow the tail far past the rebuild fraction so the absorbed tail
        # is folded back into the tree at least once.
        full = dirichlet_points(43, 400, 4)
        queries = dirichlet_points(44, 8, 4)
        index = BallTreeKnn(full[:80], leaf_size=16)
        for start in range(80, 400, 20):
            index.add_points(full[start : start + 20])
        assert_bit_identical(
            index.query_many(queries, 11),
            BruteForceKnn(full).query_many(queries, 11),
        )

    @pytest.mark.parametrize("backend", KNN_BACKENDS)
    def test_add_points_validation(self, backend):
        index = make_index(backend, dirichlet_points(45, 50, 3))
        with pytest.raises(ModelError):
            index.add_points(np.zeros((2, 5)))  # wrong dimension
        with pytest.raises(ModelError):
            index.add_points(np.array([[np.nan, 0.5, 0.5]]))


#: Ball-tree leaf sizes from one point per block up to a single block.
LEAF_SIZES = (1, 2, 5, 16, 64, 1000)


def assert_block_layout(index: BallTreeKnn) -> None:
    """The block-by-block copy of the points matches the points it maps to."""
    order = index._order
    assert sorted(order.tolist()) == list(range(index.n_points))
    np.testing.assert_array_equal(index._ordered_points, index.points[order])
    np.testing.assert_array_equal(
        index._ordered_sq_norms, index._point_sq_norms()[order]
    )
    # Blocks are consecutive runs covering the tree part; the tail follows
    # with its points in their own order.
    flat = np.concatenate(index._blocks)
    np.testing.assert_array_equal(flat, np.arange(index._tail_start))
    np.testing.assert_array_equal(
        order[index._tail_start :], np.arange(index._tail_start, index.n_points)
    )


class TestBallTreeLayout:
    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_layout_maps_back_to_the_points(self, leaf_size):
        index = BallTreeKnn(dirichlet_points(81, 200, 5), leaf_size=leaf_size)
        assert_block_layout(index)
        assert all(len(block) <= leaf_size for block in index._blocks)

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_leaf_size_bit_identical_to_brute(self, dim, leaf_size):
        points = dirichlet_points(82, 240, dim)
        queries = np.vstack([points[:10], dirichlet_points(83, 15, dim)])
        index = BallTreeKnn(points, leaf_size=leaf_size)
        brute = BruteForceKnn(points)
        for k in (1, 6, len(points)):
            assert_bit_identical(
                index.query_many(queries, k), brute.query_many(queries, k)
            )

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_duplicates_straddling_blocks_match_brute(self, leaf_size):
        # Every point four times over, shuffled: equal distances land in
        # different blocks and must still resolve to ascending indices.
        rng = np.random.default_rng(84)
        base = dirichlet_points(84, 25, 4)
        points = np.vstack([base] * 4)[rng.permutation(100)]
        queries = np.vstack([base[:8], dirichlet_points(85, 4, 4)])
        index = BallTreeKnn(points, leaf_size=leaf_size)
        brute = BruteForceKnn(points)
        for k in (1, 3, 4, 5, 99):
            assert_bit_identical(
                index.query_many(queries, k), brute.query_many(queries, k)
            )

    @pytest.mark.parametrize("leaf_size", [1, 8, 64])
    @pytest.mark.parametrize("rebuild_fraction", [0.05, 0.25, 4.0])
    def test_every_add_answers_like_brute(self, rebuild_fraction, leaf_size):
        # Small fractions rebuild on most adds, a large one keeps a long
        # tail next to the blocks; after every add the index answers as a
        # brute-force scan of the points so far.
        full = dirichlet_points(86, 260, 4)
        queries = np.vstack([full[:5], full[200:205], dirichlet_points(87, 6, 4)])
        index = BallTreeKnn(
            full[:40], leaf_size=leaf_size, tail_rebuild_fraction=rebuild_fraction
        )
        for start in range(40, 260, 22):
            index.add_points(full[start : start + 22])
            assert_block_layout(index)
            brute = BruteForceKnn(full[: index.n_points])
            assert_bit_identical(
                index.query_many(queries, 7), brute.query_many(queries, 7)
            )


class TestPickleRoundTrip:
    @pytest.mark.parametrize("backend", KNN_BACKENDS)
    def test_fitted_index_survives_pickle(self, backend):
        points = dirichlet_points(51, 150, 4)
        queries = dirichlet_points(52, 10, 4)
        index = make_index(backend, points)
        index.add_points(dirichlet_points(53, 30, 4))
        clone = pickle.loads(pickle.dumps(index))
        assert clone.n_points == index.n_points
        assert_bit_identical(
            clone.query_many(queries, 8), index.query_many(queries, 8)
        )
        # The clone must keep absorbing points, same as the original.
        extra = dirichlet_points(54, 15, 4)
        index.add_points(extra)
        clone.add_points(extra)
        assert_bit_identical(
            clone.query_many(queries, 8), index.query_many(queries, 8)
        )


class TestLofAcrossBackends:
    @pytest.mark.parametrize("backend", INDEXED_BACKENDS)
    def test_scores_bit_identical_to_brute(self, backend):
        points = dirichlet_points(61, 260, 6)
        queries = dirichlet_points(62, 30, 6)
        brute = LocalOutlierFactor(k_neighbours=12, index_kind="brute").fit(points)
        other = LocalOutlierFactor(k_neighbours=12, index_kind=backend).fit(points)
        assert other.resolved_index_kind == backend
        np.testing.assert_array_equal(other.training_scores, brute.training_scores)
        np.testing.assert_array_equal(
            other.score_many(queries), brute.score_many(queries)
        )

    @pytest.mark.parametrize("backend", KNN_BACKENDS)
    def test_partial_fit_equals_fit_on_combined(self, backend):
        full = dirichlet_points(63, 200, 5)
        queries = dirichlet_points(64, 20, 5)
        grown = LocalOutlierFactor(k_neighbours=10, index_kind=backend).fit(full[:120])
        grown.partial_fit(full[120:160])
        grown.partial_fit(full[160:])
        fresh = LocalOutlierFactor(k_neighbours=10, index_kind=backend).fit(full)
        assert grown.n_reference_points == fresh.n_reference_points
        np.testing.assert_array_equal(grown.training_scores, fresh.training_scores)
        np.testing.assert_array_equal(
            grown.score_many(queries), fresh.score_many(queries)
        )

    def test_partial_fit_requires_fit(self):
        lof = LocalOutlierFactor(k_neighbours=5)
        with pytest.raises(Exception):
            lof.partial_fit(dirichlet_points(65, 10, 3))

    def test_auto_resolves_to_brute_for_small_references(self):
        points = dirichlet_points(66, 100, 4)
        lof = LocalOutlierFactor(k_neighbours=8, index_kind="auto").fit(points)
        assert lof.resolved_index_kind == "brute"


# --------------------------------------------------------------------------- #
# Monitor-level equivalence: decisions, reports and recorded bytes
# --------------------------------------------------------------------------- #

WINDOW_US = 40_000
K = 10
NORMAL_MIX = {"mb_row_decode": 8.0, "frame_display": 1.0, "vsync": 1.0, "audio_decode": 2.0}
ANOMALY_MIX = {"mb_row_decode": 1.0, "frame_drop": 3.0, "buffer_underrun": 2.0}


@pytest.fixture(scope="module")
def monitor_registry() -> EventTypeRegistry:
    registry = EventTypeRegistry()
    for name in NORMAL_MIX:
        registry.register(name)
    return registry


@pytest.fixture(scope="module")
def reference_windows():
    generator = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=2_000, seed=7)
    return list(windows_by_duration(generator.events(20.0), WINDOW_US))


@pytest.fixture(scope="module")
def monitored_streams():
    streams = {}
    for position in range(3):
        generator = PeriodicTraceGenerator(
            NORMAL_MIX,
            ANOMALY_MIX,
            anomaly_intervals=[(2.0 + position, 3.5 + position)],
            rate_per_s=2_000,
            seed=100 + position,
        )
        streams[f"device-{position}"] = list(
            windows_by_duration(generator.events(8.0), WINDOW_US)
        )
    return streams


def monitor_with_backend(backend, monitor_registry, reference_windows, monitored_streams):
    monitor = TraceMonitor(
        DetectorConfig(k_neighbours=K, lof_threshold=1.2),
        MonitorConfig(batch_size=16, record_context_windows=1, knn_backend=backend),
        EventTypeRegistry(monitor_registry.names),
    )
    model = monitor.learn_reference(iter(reference_windows))
    label = next(iter(monitored_streams))
    return model, monitor.monitor_windows(iter(monitored_streams[label]), model)


class TestMonitorBackendEquivalence:
    @pytest.mark.parametrize("backend", INDEXED_BACKENDS + ("auto",))
    def test_decisions_and_reports_match_brute(
        self, backend, monitor_registry, reference_windows, monitored_streams
    ):
        brute_model, brute_result = monitor_with_backend(
            "brute", monitor_registry, reference_windows, monitored_streams
        )
        model, result = monitor_with_backend(
            backend, monitor_registry, reference_windows, monitored_streams
        )
        assert model.points.shape == brute_model.points.shape
        assert result.decisions == brute_result.decisions
        assert result.lof_scores() == brute_result.lof_scores()
        assert result.recorded_indices == brute_result.recorded_indices
        assert result.report == brute_result.report
        assert result.detector_stats == brute_result.detector_stats

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet_output_files_identical_across_backends(
        self, workers, tmp_path, monitor_registry, reference_windows, monitored_streams
    ):
        reference_model = ReferenceModel(k_neighbours=K).learn(
            iter(reference_windows), EventTypeRegistry(monitor_registry.names)
        )
        outputs = {}
        for backend in ("brute", "balltree"):
            config = MonitorConfig(
                batch_size=8,
                record_context_windows=1,
                fleet_workers=workers,
                knn_backend=backend,
            )
            model = ReferenceModel(k_neighbours=K, index_kind=backend).learn(
                iter(reference_windows), EventTypeRegistry(monitor_registry.names)
            )
            fleet = ShardedTraceMonitor(
                DetectorConfig(k_neighbours=K, lof_threshold=1.2),
                config,
                EventTypeRegistry(monitor_registry.names),
            )
            output_dir = tmp_path / f"{backend}-{workers}"
            result = fleet.monitor_shards(
                {label: iter(windows) for label, windows in monitored_streams.items()},
                model,
                output_dir=output_dir,
            )
            outputs[backend] = (result.to_dict(), {
                path.name: path.read_bytes()
                for path in sorted(output_dir.iterdir())
            })
        assert outputs["balltree"][0] == outputs["brute"][0]
        assert outputs["balltree"][1].keys() == outputs["brute"][1].keys()
        for name in outputs["brute"][1]:
            assert outputs["balltree"][1][name] == outputs["brute"][1][name], name

    def test_model_survives_worker_pickle_with_indexed_backend(
        self, monitor_registry, reference_windows
    ):
        model = ReferenceModel(k_neighbours=K, index_kind="balltree").learn(
            iter(reference_windows), EventTypeRegistry(monitor_registry.names)
        )
        clone = pickle.loads(pickle.dumps(model))
        queries = model.points[:10]
        np.testing.assert_array_equal(
            clone.score_vectors(queries), model.score_vectors(queries)
        )


class TestModelAdaptation:
    def test_learn_on_fitted_model_routes_to_adapt(
        self, monitor_registry, reference_windows
    ):
        registry = EventTypeRegistry(monitor_registry.names)
        model = ReferenceModel(k_neighbours=K).learn(
            iter(reference_windows[:300]), registry
        )
        n_before = model.n_reference_windows
        model.learn(iter(reference_windows[300:]), registry)
        assert model.n_windows_seen == len(reference_windows)
        assert model.n_reference_windows > n_before
        assert len(model.points) >= n_before

    @pytest.mark.parametrize("backend", ["brute", "balltree"])
    def test_adapt_scores_equal_fit_on_combined(
        self, backend, monitor_registry, reference_windows
    ):
        registry = EventTypeRegistry(monitor_registry.names)
        adapted = ReferenceModel(k_neighbours=K, index_kind=backend).learn(
            iter(reference_windows[:300]), registry
        )
        adapted.adapt(iter(reference_windows[300:]), registry)
        fresh = ReferenceModel(k_neighbours=K, index_kind=backend).learn(
            iter(reference_windows), registry
        )
        np.testing.assert_array_equal(
            np.sort(adapted.points, axis=0), np.sort(fresh.points, axis=0)
        )
        queries = fresh.points[::10]
        np.testing.assert_array_equal(
            adapted.score_vectors(queries), fresh.score_vectors(queries)
        )

    def test_adapt_on_unfitted_model_raises(self, monitor_registry, reference_windows):
        model = ReferenceModel(k_neighbours=K)
        with pytest.raises(Exception):
            model.adapt(iter(reference_windows[:50]), monitor_registry)

    def test_reindex_preserves_scores(self, monitor_registry, reference_windows):
        registry = EventTypeRegistry(monitor_registry.names)
        model = ReferenceModel(k_neighbours=K).learn(iter(reference_windows), registry)
        queries = model.points[:15]
        before = model.score_vectors(queries)
        model.reindex("balltree")
        np.testing.assert_array_equal(model.score_vectors(queries), before)
        assert model.index_kind == "balltree"
