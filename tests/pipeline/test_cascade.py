"""Tests for the early-exit cascade scanner (pipeline/cascade.py).

The load-bearing properties: prefix assembly is bitwise the matching slice
of the full query, block distances partition the full Hamming distance,
an uncalibrated full-grid cascade reproduces the packed scan bitwise, and
a calibrated cascade never loses a detection the full model makes on its
calibration distribution beyond the stated false-negative budget.
"""

import numpy as np
import pytest

from repro.core.hypervector import packed_words
from repro.pipeline.cascade import (
    FLOOR_SCORE,
    CascadeCalibration,
    CascadeCalibrator,
    CascadeScanner,
    CascadeStage,
    default_word_schedule,
    hoeffding_threshold,
)
from repro.pipeline.detector import SlidingWindowDetector, make_scene
from repro.pipeline.hdface import HDFacePipeline
from repro.profiling import Profiler

DIM = 1024
WINDOW = 24


@pytest.fixture(scope="module")
def face_pipe(face_data):
    xtr, ytr, _, _ = face_data
    return HDFacePipeline(2, dim=DIM, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=0).fit(xtr, ytr)


@pytest.fixture(scope="module")
def scene():
    scene, _ = make_scene(72, [(0, 0), (48, 24)], window=WINDOW,
                          seed_or_rng=7)
    return scene


def packed_detector(pipe, **kw):
    return SlidingWindowDetector(pipe, window=WINDOW, stride=6,
                                 backend="packed", **kw)


class TestWordSchedule:
    def test_geometric_schedule(self):
        assert default_word_schedule(64) == [4, 16, 64]
        assert default_word_schedule(32) == [2, 8, 32]

    def test_narrow_model_single_stage(self):
        assert default_word_schedule(1) == [1]
        assert default_word_schedule(4) == [4]

    def test_bad_total_raises(self):
        with pytest.raises(ValueError):
            default_word_schedule(0)


class TestHoeffdingThreshold:
    def test_negative_and_tightens_with_n(self):
        t1 = hoeffding_threshold(256, 0.01)
        t2 = hoeffding_threshold(4096, 0.01)
        assert t1 < t2 < 0.0

    def test_tightens_with_budget(self):
        # a smaller fn budget tolerates less undershoot -> looser bound
        assert hoeffding_threshold(1024, 0.001) < \
            hoeffding_threshold(1024, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_threshold(0, 0.01)
        with pytest.raises(ValueError):
            hoeffding_threshold(64, 0.0)
        with pytest.raises(ValueError):
            hoeffding_threshold(64, 1.0)


class TestCascadeStage:
    def test_positive_threshold_rejected(self):
        with pytest.raises(ValueError):
            CascadeStage(4, 0.1)

    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            CascadeStage(0)


class TestCalibrationRoundTrip:
    def test_save_load(self, tmp_path):
        cal = CascadeCalibration(
            dim=1024, face_class=1, fn_budget=0.01, method="empirical",
            stages=(CascadeStage(4, -0.05), CascadeStage(16, 0.0)),
            escalation=(0.25, 0.25), windows=200, accepted=12)
        path = tmp_path / "cal.json"
        cal.save(path)
        assert CascadeCalibration.load(path) == cal


class TestPrefixAssembly:
    def test_prefix_block_is_slice_of_full_query(self, face_pipe, scene):
        det = packed_detector(face_pipe)
        origins, _ = det.origins(scene.shape)
        full = det.engine.window_queries(scene, origins, WINDOW)
        for w0, w1 in [(0, 4), (4, 9), (9, packed_words(DIM))]:
            block = det.engine.window_queries_prefix(
                scene, origins, WINDOW, w0, w1)
            assert (block == full[:, w0:w1]).all()

    def test_counters_surface_in_cache_info(self, face_pipe, scene):
        det = packed_detector(face_pipe)
        origins, _ = det.origins(scene.shape)
        det.engine.window_queries_prefix(scene, origins, WINDOW, 0, 4)
        info = det.engine.cache_info()
        assert info["prefix_assembles"] == 1
        assert info["prefix_windows"] == len(origins)
        assert info["prefix_words"] == 4 * len(origins)

    def test_dense_backend_rejected(self, face_pipe, scene):
        det = SlidingWindowDetector(face_pipe, window=WINDOW, stride=6)
        origins, _ = det.origins(scene.shape)
        with pytest.raises(ValueError, match="packed"):
            det.engine.window_queries_prefix(scene, origins, WINDOW, 0, 4)


class TestDistanceBlock:
    def test_blocks_partition_full_distance(self, face_pipe, scene):
        det = packed_detector(face_pipe)
        model = det.packed_model()
        origins, _ = det.origins(scene.shape)
        q = det.engine.window_queries(scene, origins, WINDOW)
        total = model.distances(q)
        cuts = [0, 3, 7, model.n_words]
        acc = sum(model.distance_block(q, a, b)
                  for a, b in zip(cuts, cuts[1:]))
        assert (acc == total).all()


class TestCascadeEquivalence:
    def test_full_grid_cascade_matches_packed_scan(self, face_pipe, scene):
        plain = packed_detector(face_pipe)
        cascade = packed_detector(face_pipe, cascade={"seed_factor": 1})
        ref = plain.scan(scene)
        out = cascade.scan(scene)
        # survivors carry the exact full-model margin; rejected windows
        # carry a <= 0 prefix margin, so the detection sets are identical
        assert (out.detections == ref.detections).all()
        assert np.allclose(out.scores[out.detections],
                           ref.scores[ref.detections])
        assert (out.scores[~out.detections] <= 0.0).all()

    def test_calibrated_seeded_cascade_keeps_detections(self, face_pipe,
                                                        scene):
        plain = packed_detector(face_pipe)
        cal_scenes = [make_scene(72, [(24, 24)], window=WINDOW,
                                 seed_or_rng=s)[0] for s in (11, 12)]
        cal = CascadeCalibrator(plain, fn_budget=0.05).calibrate(cal_scenes)
        det = packed_detector(face_pipe, cascade=cal)
        ref = plain.scan(scene)
        out = det.scan(scene)
        # rejection can only remove detections, never invent them: every
        # rejected/skipped window's score stays at or below zero
        assert not (out.detections & ~ref.detections).any()
        assert (out.scores[~out.detections] <= 0.0).all()
        # the strongest seed-grid detection must survive the cascade with
        # its exact full-model margin (seed grid = every other index plus
        # the last row/column at seed_factor=2)
        n_wy, n_wx = ref.scores.shape
        sy = np.unique(np.append(np.arange(0, n_wy, 2), n_wy - 1))
        sx = np.unique(np.append(np.arange(0, n_wx, 2), n_wx - 1))
        on_seed = np.zeros_like(ref.detections)
        on_seed[np.ix_(sy, sx)] = True
        masked = np.where(on_seed, ref.scores, -np.inf)
        iy, ix = np.unravel_index(np.argmax(masked), masked.shape)
        assert ref.detections[iy, ix]  # the fixture scene has one
        assert out.detections[iy, ix]
        assert out.scores[iy, ix] == ref.scores[iy, ix]

    def test_stats_and_floor(self, face_pipe, scene):
        det = packed_detector(face_pipe, cascade={"seed_factor": 2,
                                                  "refine_band": 0.25})
        out = det.scan(scene)
        stats = det.cascade_scanner().last_stats
        assert stats["windows"] == out.scores.size
        assert stats["seeded"] + stats["refined"] + stats["skipped"] == \
            stats["windows"]
        n_floor = int((out.scores == FLOOR_SCORE).sum())
        assert n_floor == stats["skipped"]
        evaluated = stats["stages"][0]["evaluated"]
        assert evaluated == stats["seeded"] + stats["refined"]

    def test_max_words_matches_truncated_model(self, face_pipe, scene):
        plain = packed_detector(face_pipe)
        det = packed_detector(face_pipe, cascade={"seed_factor": 1})
        cap = 8
        ref = plain.scan(scene, max_words=cap)  # word-prefix flat scan
        out = det.scan(scene, max_words=cap)
        assert np.allclose(out.scores, ref.scores)


class TestCalibrator:
    def test_fn_budget_holds_on_calibration_data(self, face_pipe):
        det = packed_detector(face_pipe)
        scenes = [make_scene(72, [(0, 24)], window=WINDOW, seed_or_rng=s)[0]
                  for s in range(20, 24)]
        budget = 0.1
        cal = CascadeCalibrator(det, fn_budget=budget).calibrate(scenes)
        assert cal.windows > 0 and cal.accepted > 0
        # replay: count accepted windows each non-final stage would drop
        model = det.packed_model()
        dropped = np.zeros(len(cal.stages) - 1)
        total_acc = 0
        for scene in scenes:
            origins, _ = det.origins(scene.shape)
            q = det.engine.window_queries(scene, origins, WINDOW)
            acc = np.zeros((len(origins), model.n_classes), np.int64)
            w_prev = 0
            margins = {}
            for si, st in enumerate(cal.stages):
                acc += model.distance_block(q, w_prev, st.words)
                pdim = min(64 * st.words, DIM)
                sims = 1.0 - (2.0 / pdim) * acc
                margins[si] = sims[:, 1] - np.delete(sims, 1, axis=1).max(1)
                w_prev = st.words
            accepted = margins[len(cal.stages) - 1] > 0
            total_acc += int(accepted.sum())
            for si, st in enumerate(cal.stages[:-1]):
                dropped[si] += int((accepted
                                    & (margins[si] < st.threshold)).sum())
        tol = budget + 1.0 / max(total_acc, 1)  # quantile discreteness
        assert (dropped / max(total_acc, 1) <= tol).all()

    def test_escalation_monotone(self, face_pipe):
        det = packed_detector(face_pipe)
        scenes = [make_scene(72, [(24, 0)], window=WINDOW, seed_or_rng=s)[0]
                  for s in (31, 32)]
        cal = CascadeCalibrator(det).calibrate(scenes)
        esc = list(cal.escalation)
        assert all(0.0 <= e <= 1.0 for e in esc)
        assert all(a >= b for a, b in zip(esc, esc[1:]))

    def test_requires_packed_shared(self, face_pipe):
        dense = SlidingWindowDetector(face_pipe, window=WINDOW, stride=6)
        with pytest.raises(ValueError, match="packed"):
            CascadeCalibrator(dense)

    def test_schedule_must_reach_full_width(self, face_pipe, scene):
        det = packed_detector(face_pipe)
        calib = CascadeCalibrator(det, words=[2, 4])
        with pytest.raises(ValueError, match="full model"):
            calib.calibrate([scene])


class TestScannerConstruction:
    def test_stage_words_must_increase(self, face_pipe):
        det = packed_detector(face_pipe)
        with pytest.raises(ValueError, match="increasing"):
            CascadeScanner(det, stages=[CascadeStage(8), CascadeStage(8)])

    def test_dense_detector_rejected(self, face_pipe):
        dense = SlidingWindowDetector(face_pipe, window=WINDOW, stride=6)
        with pytest.raises(ValueError, match="packed"):
            CascadeScanner(dense)

    def test_detector_cascade_requires_packed(self, face_pipe):
        with pytest.raises(ValueError, match="packed"):
            SlidingWindowDetector(face_pipe, window=WINDOW, cascade=True)

    def test_detector_builds_scanner_from_dict(self, face_pipe):
        det = packed_detector(face_pipe, cascade={"seed_factor": 3,
                                                  "refine_band": 0.1})
        sc = det.cascade_scanner()
        assert isinstance(sc, CascadeScanner)
        assert sc.seed_factor == 3 and sc.refine_band == 0.1
        assert det.cascade_scanner() is sc  # cached


class TestProfilerIntegration:
    def test_stage_rows_not_folded_into_infer(self, face_pipe, scene):
        prof = Profiler()
        det = packed_detector(face_pipe, profiler=prof,
                              cascade={"seed_factor": 1})
        det.scan(scene)
        table = prof.table()
        assert "cascade_stage0" in table
        assert "assemble_prefix" in table
        n_stages = len(det.cascade_scanner().stages)
        for si in range(n_stages):
            assert f"cascade_stage{si}" in prof.stats
        # prefix work is not folded into the full-assembly stage
        n_windows = det.cascade_scanner().last_stats["windows"]
        assert prof.stats["cascade_stage0"].items == n_windows


class TestLadderIntegration:
    def test_cascade_ladder_rungs(self):
        from repro.runtime.ladder import cascade_ladder
        ladder = cascade_ladder([4, 16, 64])
        names = [r.name for r in ladder.rungs]
        assert names == ["full", "coarse", "cascade16", "cascade4", "skip"]
        assert ladder.rungs[2].word_budget == 16
        assert ladder.rungs[-1].word_budget == 4
        # word_budget takes precedence over prefix_fraction
        assert ladder.rungs[2].prefix_words(4096) == 16
        assert ladder.rungs[0].prefix_words(4096) == 64

    def test_word_budget_validation(self):
        from repro.runtime.ladder import Rung
        with pytest.raises(ValueError):
            Rung("bad", word_budget=0)

    def test_serving_sheds_cascade_depth_under_load(self, face_pipe, scene):
        from repro.pipeline.multiscale import PyramidDetector
        from repro.runtime.ladder import cascade_ladder
        from repro.runtime.serving import ResilientVideoDetector
        det = packed_detector(face_pipe, cascade={"seed_factor": 1})
        ladder = cascade_ladder(
            [s.words for s in det.cascade_scanner().stages])
        runtime = ResilientVideoDetector(PyramidDetector(det), budget=10.0,
                                         stall_timeout=None, ladder=ladder)
        runtime.scheduler.set_rung(len(ladder) - 2)  # narrowest cascade rung
        result = runtime.step(scene)
        assert result.rung.startswith("cascade")
        assert result.mode == "detected"
