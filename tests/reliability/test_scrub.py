"""Tests for the shared-engine scene-cache scrubber.

A corrupted cache entry must never be served silently: with ``scrub=True``
the engine digest-verifies entries on hit, ECC-repairs what SEC-DED can
correct in place (no recompute), throws the rest away and recomputes,
restoring bitwise-clean detection scores either way.
"""

import numpy as np
import pytest

from repro.pipeline.detector import SlidingWindowDetector, make_scene
from repro.pipeline.engine import _buffers
from repro.pipeline.hdface import HDFacePipeline
from repro.profiling import Profiler


@pytest.fixture(scope="module")
def face_pipe(face_data):
    xtr, ytr, _, _ = face_data
    return HDFacePipeline(2, dim=512, cell_size=8, magnitude="l1",
                          epochs=5, seed_or_rng=0).fit(xtr, ytr)


@pytest.fixture(scope="module")
def scene():
    out, _ = make_scene(48, [(8, 16)], window=24, seed_or_rng=3)
    return out


@pytest.mark.parametrize("backend", ["dense", "packed"])
class TestCacheScrubber:
    def test_corrupted_entry_recomputed_on_hit(self, face_pipe, scene,
                                               backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True)
        clean = det.scan(scene).scores
        corrupted = det.engine.corrupt_cache(0.3, seed_or_rng=0)
        assert corrupted > 0
        again = det.scan(scene).scores
        assert np.array_equal(again, clean)
        info = det.engine.cache_info()
        assert info["scrub"] is True
        assert info["scrub_mismatches"] > 0
        assert info["scrub_checks"] >= info["scrub_mismatches"]

    def test_without_scrub_corruption_is_served(self, face_pipe, scene,
                                                backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=False)
        clean = det.scan(scene).scores
        # heavy corruption so at least one window's score must move
        assert det.engine.corrupt_cache(0.5, seed_or_rng=0) > 0
        assert not np.array_equal(det.scan(scene).scores, clean)

    def test_scrubbed_rescan_costs_one_recompute(self, face_pipe, scene,
                                                 backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True)
        det.scan(scene)
        det.engine.corrupt_cache(0.3, seed_or_rng=1)
        det.scan(scene)
        misses_after_repair = det.engine.cache_info()["misses"]
        det.scan(scene)  # entry was recomputed and re-cached: clean hit now
        info = det.engine.cache_info()
        assert info["misses"] == misses_after_repair
        mismatches = info["scrub_mismatches"]
        det.scan(scene)
        assert det.engine.cache_info()["scrub_mismatches"] == mismatches


def flip_one_cached_bit(engine):
    """Flip a single stored bit of the first cached fields buffer."""
    entry = next(iter(engine._cache.values()))
    first = _buffers(entry.fields)[0]
    first.reshape(-1).view(np.uint8)[0] ^= np.uint8(1)


@pytest.mark.parametrize("backend", ["dense", "packed"])
class TestRepairInPlace:
    def test_single_bit_flip_repaired_without_recompute(self, face_pipe,
                                                        scene, backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True)
        clean = det.scan(scene).scores
        misses = det.engine.cache_info()["misses"]
        flip_one_cached_bit(det.engine)
        assert np.array_equal(det.scan(scene).scores, clean)
        info = det.engine.cache_info()
        assert info["misses"] == misses  # repaired in place, no recompute
        assert info["scrub_repairs"] >= 1
        assert info["ecc_corrected_words"] >= 1
        assert info["scrub_evictions"] == 0

    def test_background_sweep_repairs_without_any_access(self, face_pipe,
                                                         scene, backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True)
        clean = det.scan(scene).scores
        flip_one_cached_bit(det.engine)
        report = det.engine.scrub_cache()
        assert report["mismatches"] >= 1
        assert report["repaired"] >= 1 and report["evicted"] == 0
        misses = det.engine.cache_info()["misses"]
        assert np.array_equal(det.scan(scene).scores, clean)
        assert det.engine.cache_info()["misses"] == misses

    def test_heavy_corruption_falls_back_to_eviction(self, face_pipe, scene,
                                                     backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True)
        clean = det.scan(scene).scores
        assert det.engine.corrupt_cache(0.3, seed_or_rng=0) > 0
        report = det.engine.scrub_cache()
        assert report["mismatches"] >= 1
        assert np.array_equal(det.scan(scene).scores, clean)


@pytest.mark.parametrize("backend", ["dense", "packed"])
class TestStoredQuerySets:
    """Stored query sets are cached memory like fields and grids: a
    scrubbed hit verifies them, then ECC-repairs them in place or drops
    them for re-assembly."""

    def scanned(self, face_pipe, scene, backend):
        prof = Profiler()
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True,
                                    profiler=prof)
        clean = det.scan(scene).scores
        (stored,) = [q for entry in det.engine._cache.values()
                     for q in entry.queries.values()]
        return det, prof, clean, stored.reshape(-1).view(np.uint8)

    def test_single_bit_flip_repaired_without_reassembly(self, face_pipe,
                                                         scene, backend):
        det, prof, clean, raw = self.scanned(face_pipe, scene, backend)
        repairs = det.engine.cache_info()["scrub_repairs"]
        raw[0] ^= np.uint8(1)
        assert np.array_equal(det.scan(scene).scores, clean)
        info = det.engine.cache_info()
        assert info["scrub_repairs"] == repairs + 1
        assert info["scrub_evictions"] == 0
        assert prof.stats["assemble"].calls == 1  # the first scan only

    def test_corruption_beyond_ecc_reassembles(self, face_pipe, scene,
                                               backend):
        det, prof, clean, raw = self.scanned(face_pipe, scene, backend)
        raw ^= np.uint8(0xFF)
        assert np.array_equal(det.scan(scene).scores, clean)
        assert det.engine.cache_info()["scrub_evictions"] == 1
        assert prof.stats["assemble"].calls == 2


@pytest.mark.parametrize("backend", ["dense", "packed"])
class TestDeltaBaseVerification:
    """``delta_update`` refreshes digests after patching, so it must not
    trust a corrupted base entry - that would launder the corruption into
    the new golden digest and serve it silently forever after."""

    def next_scene(self, scene):
        out = scene.copy()
        out[:8, :8] = np.clip(out[:8, :8] + 0.25, 0.0, 1.0)
        return out

    def test_corrupted_base_not_laundered_through_delta(self, face_pipe,
                                                        scene, backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True)
        det.scan(scene)
        scene2 = self.next_scene(scene)
        reference = SlidingWindowDetector(
            face_pipe, window=24, stride=8, backend=backend,
            scrub=True).scan(scene2).scores
        assert det.engine.corrupt_cache(0.3, seed_or_rng=0) > 0
        det.engine.delta_update(scene, scene2)
        assert np.array_equal(det.scan(scene2).scores, reference)
        assert det.engine.cache_info()["scrub_mismatches"] >= 1

    def test_single_bit_base_corruption_repaired_then_delta_reused(
            self, face_pipe, scene, backend):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend=backend, scrub=True)
        det.scan(scene)
        scene2 = self.next_scene(scene)
        reference = SlidingWindowDetector(
            face_pipe, window=24, stride=8, backend=backend,
            scrub=True).scan(scene2).scores
        flip_one_cached_bit(det.engine)
        report = det.engine.delta_update(scene, scene2)
        assert np.array_equal(det.scan(scene2).scores, reference)
        info = det.engine.cache_info()
        assert info["scrub_repairs"] >= 1
        assert info["ecc_corrected_words"] >= 1


class TestCorruptCache:
    def test_empty_cache_reports_zero(self, face_pipe):
        det = SlidingWindowDetector(face_pipe, window=24, backend="dense",
                                    scrub=True)
        assert det.engine.corrupt_cache(0.5, seed_or_rng=0) == 0

    def test_rate_zero_leaves_scores_clean_without_scrub(self, face_pipe,
                                                         scene):
        det = SlidingWindowDetector(face_pipe, window=24, stride=8,
                                    backend="packed", scrub=False)
        clean = det.scan(scene).scores
        det.engine.corrupt_cache(0.0, seed_or_rng=0)
        assert np.array_equal(det.scan(scene).scores, clean)
