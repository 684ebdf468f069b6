"""Tests for the shared-feature detection engine.

The load-bearing property is *bitwise* equivalence: the engine's cached
whole-scene extraction, sliced per window, must reproduce the per-window
keyed recompute exactly - same hypervectors, same queries, same detection
scores.  Plus the LRU cache semantics the pyramid detector relies on.
"""

import numpy as np
import pytest

from repro.features.hog_hd import HDHOGExtractor
from repro.pipeline.detector import SlidingWindowDetector, make_scene
from repro.pipeline.engine import SharedFeatureEngine, scene_key
from repro.pipeline.hdface import HDFacePipeline
from repro.pipeline.multiscale import PyramidDetector, pyramid
from repro.profiling import Profiler


@pytest.fixture(scope="module")
def extractor():
    return HDHOGExtractor(dim=512, cell_size=8, magnitude="l1",
                          seed_or_rng=0)


@pytest.fixture(scope="module")
def scene():
    out, _ = make_scene(48, [(8, 16)], window=24, seed_or_rng=3)
    return out


@pytest.fixture(scope="module")
def face_pipe(face_data):
    xtr, ytr, _, _ = face_data
    return HDFacePipeline(2, dim=512, cell_size=8, magnitude="l1",
                          epochs=5, seed_or_rng=0).fit(xtr, ytr)


class TestFieldsEquivalence:
    def test_window_fields_match_scene_slice(self, extractor, scene):
        fields = extractor.extract_fields(scene)
        for origin in [(0, 0), (5, 9), (24, 24), (24, 0)]:
            wf = extractor.window_fields(scene, origin, 24)
            y, x = origin
            assert np.array_equal(wf.mag, fields.mag[y : y + 24, x : x + 24])
            assert np.array_equal(wf.bins, fields.bins[y : y + 24, x : x + 24])

    def test_strip_decomposition_invariant(self, extractor, scene):
        whole = extractor.extract_fields(scene, strip_rows=10_000)
        stripped = extractor.extract_fields(scene, strip_rows=7)
        assert np.array_equal(whole.mag, stripped.mag)
        assert np.array_equal(whole.bins, stripped.bins)

    def test_l2_mode_equivalence(self, scene):
        ext = HDHOGExtractor(dim=256, cell_size=8, magnitude="l2_scaled",
                             sqrt_iters=4, seed_or_rng=1)
        fields = ext.extract_fields(scene)
        wf = ext.window_fields(scene, (9, 13), 16)
        assert np.array_equal(wf.mag, fields.mag[9:25, 13:29])
        assert np.array_equal(wf.bins, fields.bins[9:25, 13:29])

    def test_fields_do_not_disturb_legacy_rng(self, scene):
        ext_a = HDHOGExtractor(dim=256, cell_size=8, magnitude="l1",
                               seed_or_rng=5)
        ext_b = HDHOGExtractor(dim=256, cell_size=8, magnitude="l1",
                               seed_or_rng=5)
        ext_a.extract_fields(scene)  # must not advance the stateful rng
        img = scene[:24, :24]
        assert np.array_equal(ext_a.extract(img), ext_b.extract(img))


class TestCellGridAt:
    def test_matches_cell_histograms_at_origin(self, extractor, scene):
        fields = extractor.extract_fields(scene)
        c = extractor.cell_size
        ref = extractor.cell_histograms(fields.mag, fields.bins)
        n_y, n_x, _ = ref.counts.shape
        grid = extractor.cell_grid_at(fields,
                                      c * np.arange(n_y), c * np.arange(n_x))
        assert np.array_equal(grid.bundles, ref.bundles)
        assert np.array_equal(grid.counts, ref.counts)

    def test_arbitrary_anchors_match_sliced_aggregation(self, extractor, scene):
        fields = extractor.extract_fields(scene)
        grid = extractor.cell_grid_at(fields, [3, 11], [5, 17])
        for i, y in enumerate([3, 11]):
            for j, x in enumerate([5, 17]):
                ref = extractor.cell_histograms(
                    fields.mag[y : y + 8, x : x + 8],
                    fields.bins[y : y + 8, x : x + 8])
                assert np.array_equal(grid.bundles[i, j], ref.bundles[0, 0])
                assert np.array_equal(grid.counts[i, j], ref.counts[0, 0])

    def test_out_of_range_anchor_raises(self, extractor, scene):
        fields = extractor.extract_fields(scene)
        with pytest.raises(ValueError):
            extractor.cell_grid_at(fields, [45], [0])
        with pytest.raises(ValueError):
            extractor.cell_grid_at(fields, [], [0])


class TestWindowQueries:
    def test_bitwise_equal_to_perwindow_reference(self, extractor, scene):
        engine = SharedFeatureEngine(extractor)
        origins = [(0, 0), (12, 12), (8, 20), (24, 24)]
        queries = engine.window_queries(scene, origins, 24)
        for row, origin in zip(queries, origins):
            ref = extractor.window_query(scene, origin, 24)
            assert np.array_equal(row, ref)

    def test_window_not_divisible_by_cell_raises(self, extractor, scene):
        engine = SharedFeatureEngine(extractor)
        with pytest.raises(ValueError):
            engine.window_queries(scene, [(0, 0)], 20)

    def test_no_origins_raises(self, extractor, scene):
        engine = SharedFeatureEngine(extractor)
        with pytest.raises(ValueError):
            engine.window_queries(scene, [], 24)

    def test_injector_bypasses_cache(self, extractor, scene):
        engine = SharedFeatureEngine(extractor)
        clean = engine.window_queries(scene, [(0, 0)], 24)
        zeroed = engine.window_queries(
            scene, [(0, 0)], 24,
            injector=lambda hv, stage: np.zeros_like(hv))
        assert not np.array_equal(clean, zeroed)
        assert engine.cache_info()["entries"] == 1  # corrupted run not cached
        again = engine.window_queries(scene, [(0, 0)], 24)
        assert np.array_equal(clean, again)


class TestCache:
    def test_hit_miss_counters(self, extractor, scene):
        engine = SharedFeatureEngine(extractor)
        engine.window_queries(scene, [(0, 0)], 24)
        assert (engine.hits, engine.misses) == (0, 1)
        engine.window_queries(scene, [(12, 12)], 24)
        assert (engine.hits, engine.misses) == (1, 1)
        info = engine.cache_info()
        assert info["entries"] == 1 and info["bytes"] > 0

    def test_lru_eviction(self, extractor):
        engine = SharedFeatureEngine(extractor, cache_size=2)
        rng = np.random.default_rng(0)
        scenes = [rng.random((24, 24)) for _ in range(3)]
        for s in scenes:
            engine.scene_fields(s)
        assert engine.cache_info()["entries"] == 2
        engine.scene_fields(scenes[0])  # evicted -> recompute
        assert engine.misses == 4

    def test_scene_key_is_content_addressed(self):
        rng = np.random.default_rng(0)
        a = rng.random((16, 16))
        assert scene_key(a) == scene_key(a.copy())
        assert scene_key(a) != scene_key(a.T.copy())

    def test_cache_size_must_be_positive(self, extractor):
        with pytest.raises(ValueError):
            SharedFeatureEngine(extractor, cache_size=0)

    def test_pyramid_levels_hit_on_rescan(self, face_pipe):
        scene, _ = make_scene(56, [(16, 16)], window=24, seed_or_rng=2)
        det = SlidingWindowDetector(face_pipe, window=24, stride=12,
                                    engine="shared")
        pyr = PyramidDetector(det, scale_step=1.5)
        n_levels = sum(1 for _ in pyramid(scene, 1.5, min_size=24))
        assert n_levels >= 2
        pyr.detect(scene)
        assert det.engine.misses == n_levels
        pyr.detect(scene)  # every level cached now
        assert det.engine.misses == n_levels
        assert det.engine.hits == n_levels


@pytest.mark.parametrize("backend", ["dense", "packed"])
class TestQueryStore:
    def test_pyramid_rescan_skips_assembly(self, face_pipe, backend):
        scene, _ = make_scene(56, [(16, 16)], window=24, seed_or_rng=2)
        prof = Profiler()
        det = SlidingWindowDetector(face_pipe, window=24, stride=12,
                                    backend=backend, profiler=prof)
        pyr = PyramidDetector(det, scale_step=1.5)
        first = pyr.detect(scene)
        items = prof.stats["assemble"].items
        assert items > 0
        assert pyr.detect(scene) == first
        assert prof.stats["assemble"].items == items

    def test_returned_queries_are_read_only(self, extractor, scene,
                                            backend):
        engine = SharedFeatureEngine(extractor, backend=backend)
        for _ in range(2):  # the assembling call, then the stored hit
            queries = engine.window_queries(scene, [(0, 0), (8, 8)], 24)
            with pytest.raises(ValueError):
                queries[0, 0] = 0


class TestDetectorEngines:
    def test_shared_and_perwindow_scores_bitwise_equal(self, face_pipe):
        scene, _ = make_scene(48, [(12, 12)], window=24, seed_or_rng=4)
        shared = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                       engine="shared").scan(scene)
        perwin = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                       engine="perwindow").scan(scene)
        assert np.array_equal(shared.scores, perwin.scores)
        assert np.array_equal(shared.detections, perwin.detections)

    def test_legacy_map_shape_matches(self, face_pipe):
        scene, _ = make_scene(48, [], window=24, seed_or_rng=4)
        shared = SlidingWindowDetector(face_pipe, window=24, stride=12,
                                       engine="shared").scan(scene)
        legacy = SlidingWindowDetector(face_pipe, window=24, stride=12,
                                       engine="legacy").scan(scene)
        assert shared.scores.shape == legacy.scores.shape

    def test_auto_resolves_to_shared_for_hd_pipeline(self, face_pipe):
        det = SlidingWindowDetector(face_pipe, window=24)
        assert det.mode == "shared" and det.engine is not None

    def test_unknown_engine_raises(self, face_pipe):
        with pytest.raises(ValueError):
            SlidingWindowDetector(face_pipe, window=24, engine="warp")

    def test_engine_instance_shared_between_detectors(self, face_pipe):
        scene, _ = make_scene(48, [], window=24, seed_or_rng=4)
        engine = SharedFeatureEngine(face_pipe.extractor)
        det_a = SlidingWindowDetector(face_pipe, window=24, stride=24,
                                      engine=engine)
        det_b = SlidingWindowDetector(face_pipe, window=24, stride=12,
                                      engine=engine)
        det_a.scan(scene)
        det_b.scan(scene)  # second detector reuses the cached fields
        assert (engine.hits, engine.misses) == (1, 1)

    def test_profiler_records_stages(self, face_pipe):
        scene, _ = make_scene(48, [], window=24, seed_or_rng=4)
        prof = Profiler()
        det = SlidingWindowDetector(face_pipe, window=24, stride=12,
                                    engine="shared", profiler=prof)
        det.scan(scene)
        for stage in ("fields", "cell_grid", "assemble", "classify"):
            assert prof.stats[stage].calls == 1
            assert prof.stats[stage].seconds >= 0.0
        assert prof.stats["fields"].total_ops() > 0

    def test_batched_similarities_match_per_row(self, face_pipe):
        scene, _ = make_scene(48, [(12, 12)], window=24, seed_or_rng=4)
        engine = SharedFeatureEngine(face_pipe.extractor)
        origins = [(0, 0), (12, 12), (24, 24)]
        queries = engine.window_queries(scene, origins, 24)
        batched = face_pipe.classifier.similarities(queries)
        for k in range(len(origins)):
            single = face_pipe.classifier.similarities(queries[k : k + 1])
            assert np.allclose(batched[k], single[0])


class TestPackedBackend:
    def test_queries_match_dense_binarized_reference(self, extractor, scene):
        from repro.core.hypervector import unpack_bits
        engine = SharedFeatureEngine(extractor, backend="packed")
        origins = [(0, 0), (12, 12), (8, 20), (24, 24)]
        packed = engine.window_queries(scene, origins, 24)
        keys = extractor._keys(3, 3).reshape(-1, extractor.dim)
        for row, origin in zip(packed, origins):
            wf = extractor.window_fields(scene, origin, 24)
            ref = extractor.cell_histograms(wf.mag, wf.bins)
            signs = np.where(ref.bundles >= 0, 1, -1).astype(np.int64)
            bound = signs.reshape(-1, extractor.dim) * keys
            valid = (ref.counts > 0).reshape(-1)
            total = bound[valid].sum(axis=0)
            expected = np.where(total >= 0, 1, -1)
            assert np.array_equal(unpack_bits(row, extractor.dim), expected)

    def test_scan_scores_follow_binary_engine_semantics(self, face_pipe):
        from repro.core.hypervector import unpack_bits
        from repro.learning.binary_inference import BinaryHDCEngine
        scene, _ = make_scene(48, [(12, 12)], window=24, seed_or_rng=4)
        det = SlidingWindowDetector(face_pipe, window=24, stride=12,
                                    engine="shared", backend="packed")
        result = det.scan(scene)
        origins, grid = det.origins(scene.shape)
        packed = det.engine.window_queries(scene, origins, 24)
        queries = unpack_bits(packed, face_pipe.dim)
        binary = BinaryHDCEngine(face_pipe.classifier)
        dist = binary.distances(queries)
        margin = 2.0 * (dist[:, 0] - dist[:, 1]) / face_pipe.dim
        assert np.allclose(result.scores, margin.reshape(grid))
        assert np.array_equal(result.detections.ravel(),
                              binary.predict(queries) == 1)

    def test_packed_entries_are_much_smaller(self, extractor, scene):
        dense = SharedFeatureEngine(extractor, backend="dense")
        packed = SharedFeatureEngine(extractor, backend="packed")
        origins = [(0, 0), (12, 12)]
        dense.window_queries(scene, origins, 24)
        packed.window_queries(scene, origins, 24)
        d, p = dense.cache_info(), packed.cache_info()
        assert d["backend"] == "dense" and p["backend"] == "packed"
        assert p["bytes"] * 6 < d["bytes"]

    def test_cache_info_reports_evictions_and_capacity(self, extractor):
        engine = SharedFeatureEngine(extractor, cache_size=2,
                                     backend="packed")
        rng = np.random.default_rng(1)
        for _ in range(3):
            engine.scene_fields(rng.random((24, 24)))
        info = engine.cache_info()
        assert info["capacity"] == 2 and info["entries"] == 2
        assert info["evictions"] == 1 and info["misses"] == 3

    def test_injector_applies_and_bypasses_cache(self, extractor, scene):
        engine = SharedFeatureEngine(extractor, backend="packed")
        clean = engine.window_queries(scene, [(0, 0)], 24)
        flipped = engine.window_queries(
            scene, [(0, 0)], 24, injector=lambda hv, stage: ~hv
            if hv.dtype == np.uint64 else -hv)
        assert not np.array_equal(clean, flipped)
        assert engine.cache_info()["entries"] == 1
        again = engine.window_queries(scene, [(0, 0)], 24)
        assert np.array_equal(clean, again)

    def test_unknown_backend_raises(self, extractor):
        with pytest.raises(ValueError):
            SharedFeatureEngine(extractor, backend="float16")


class TestSceneValidation:
    """Engine-boundary checks: garbage must raise, not poison the cache."""

    def _bad_scenes(self):
        nan = np.ones((24, 24))
        nan[3, 3] = np.nan
        inf = np.ones((24, 24))
        inf[0, 0] = np.inf
        return {
            "dtype": (np.full((24, 24), "x", dtype=object), "dtype"),
            "complex": (np.zeros((24, 24), dtype=complex), "dtype"),
            "ndim": (np.zeros((2, 24, 24)), "ndim"),
            "empty": (np.zeros((0, 24)), "empty"),
            "nan": (nan, "NaN"),
            "inf": (inf, "infinite"),
        }

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_scene_fields_rejects_garbage_naming_the_property(
            self, extractor, backend):
        engine = SharedFeatureEngine(extractor, backend=backend)
        for scene, needle in self._bad_scenes().values():
            with pytest.raises(ValueError, match=needle):
                engine.scene_fields(scene)
        assert engine.cache_info()["entries"] == 0

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_window_queries_reject_garbage(self, extractor, backend):
        engine = SharedFeatureEngine(extractor, backend=backend)
        bad = np.ones((24, 24))
        bad[5, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            engine.window_queries(bad, [(0, 0)], 16)
        assert engine.cache_info()["entries"] == 0

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_delta_update_validates_both_frames(self, extractor, scene,
                                                backend):
        engine = SharedFeatureEngine(extractor, backend=backend)
        bad = scene.copy()
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="scene.*infinite"):
            engine.delta_update(scene, bad)
        with pytest.raises(ValueError, match="prev_scene.*infinite"):
            engine.delta_update(bad, scene)

    def test_integer_scenes_still_accepted(self, extractor):
        engine = SharedFeatureEngine(extractor, backend="packed")
        engine.scene_fields(np.arange(24 * 24).reshape(24, 24) % 2)
        assert engine.cache_info()["entries"] == 1

    def test_packed_requires_shared_engine(self, face_pipe):
        with pytest.raises(ValueError):
            SlidingWindowDetector(face_pipe, window=24, engine="legacy",
                                  backend="packed")

    def test_detector_adopts_engine_backend(self, face_pipe):
        engine = SharedFeatureEngine(face_pipe.extractor, backend="packed")
        det = SlidingWindowDetector(face_pipe, window=24, engine=engine)
        assert det.backend == "packed"


class TestConcurrency:
    def _serial_and_concurrent(self, extractor, backend):
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(7)
        scenes = [rng.random((48, 48)) for _ in range(4)]
        origins = [(0, 0), (8, 8), (24, 16), (24, 24)]
        serial = SharedFeatureEngine(extractor, backend=backend)
        expected = [serial.window_queries(s, origins, 24) for s in scenes]
        engine = SharedFeatureEngine(extractor, backend=backend)
        jobs = [s for s in scenes for _ in range(3)]  # deliberate races
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(
                lambda s: engine.window_queries(s, origins, 24), jobs))
        for s, q in zip(jobs, got):
            idx = next(i for i, x in enumerate(scenes) if x is s)
            assert np.array_equal(q, expected[idx])

    def test_concurrent_queries_bitwise_identical_dense(self, extractor):
        self._serial_and_concurrent(extractor, "dense")

    def test_concurrent_queries_bitwise_identical_packed(self, extractor):
        self._serial_and_concurrent(extractor, "packed")

    def test_strip_parallel_fields_bitwise_identical(self, extractor, scene):
        serial = extractor.extract_fields(scene, strip_rows=7)
        threaded = extractor.extract_fields(scene, strip_rows=7, workers=3)
        assert np.array_equal(serial.mag, threaded.mag)
        assert np.array_equal(serial.bins, threaded.bins)

    def test_engine_workers_bitwise_identical(self, extractor, scene):
        one = SharedFeatureEngine(extractor, workers=1)
        many = SharedFeatureEngine(extractor, workers=4)
        origins = [(0, 0), (12, 12)]
        assert np.array_equal(one.window_queries(scene, origins, 24),
                              many.window_queries(scene, origins, 24))

    def test_bad_workers_raises(self, extractor):
        with pytest.raises(ValueError):
            SharedFeatureEngine(extractor, workers=0)
