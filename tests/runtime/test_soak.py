"""Tests for the continuous-BER memory-RAS soak (runtime/chaos.py)."""

import json

import numpy as np
import pytest

from repro.pipeline import HDFacePipeline, PyramidDetector, SlidingWindowDetector
from repro.reliability import GuardedClassModel
from repro.runtime import ChaosScenario, ResilientVideoDetector, run_scenario
from repro.runtime.chaos import SOAK_SURFACES

WINDOW, STRIDE = 24, 8


def fit_pipe(face_data, store_policy="verify"):
    xtr, ytr, _, _ = face_data
    return HDFacePipeline(2, dim=512, cell_size=8, magnitude="l1", epochs=5,
                          seed_or_rng=0, store_policy=store_policy
                          ).fit(xtr, ytr)


@pytest.fixture(scope="module")
def ras_pipe(face_data):
    return fit_pipe(face_data)


def ras_factory(pipe, protected=True):
    """Serving runtime with every memory protection on (or all off)."""
    def factory():
        det = SlidingWindowDetector(pipe, window=WINDOW, stride=STRIDE,
                                    backend="packed", scrub=protected)
        runtime = ResilientVideoDetector(
            PyramidDetector(det, score_threshold=0.0), budget=10.0,
            stall_timeout=None, scrub_budget=0 if protected else None)
        if protected:
            guard = GuardedClassModel(runtime.base.packed_model(),
                                      replicas=1, check="ecc", seed_or_rng=0)
            runtime.model_override = guard
            runtime.scrubber.add_guard(guard)
        return runtime
    return factory


@pytest.fixture
def make_ras_runtime(ras_pipe):
    return ras_factory(ras_pipe)


#: the soak's recall bound: tighter than the runner's default
MAX_RECALL_DROP = 0.02


def soak(seed=0, **kwargs):
    return ChaosScenario("soak", ber=2e-4, seed=seed, **kwargs)


class TestBerSoak:
    def test_protected_runtime_survives_sustained_ber(self, make_ras_runtime,
                                                      video):
        frames, truth = video
        report = run_scenario(make_ras_runtime, frames, truth, soak(),
                              max_recall_drop=MAX_RECALL_DROP)
        entry = report["streams"]["stream"]
        memory = entry["memory"]
        assert report["passed"], report["gates"]
        assert sum(memory["injected"].values()) > 0
        assert memory["detections"] > 0
        assert memory["repairs"] > 0
        assert memory["cache_residual"]["mismatches"] == 0
        assert entry["recall_drop"] <= report["max_recall_drop"]
        # every served frame equals the never-injected twin bitwise
        assert entry["frames_compared"] == len(frames)
        assert entry["frames_differing"] == 0
        # the report must be JSON-clean for the bench/CI heredoc gates
        json.dumps(report, default=float)

    def test_surface_subset_only_touches_that_surface(self, make_ras_runtime,
                                                      video):
        frames, truth = video
        report = run_scenario(make_ras_runtime, frames, truth,
                              soak(seed=1, surfaces=("model",)),
                              max_recall_drop=MAX_RECALL_DROP)
        assert report["passed"], report["gates"]
        assert set(report["streams"]["stream"]["memory"]["injected"]) == \
            {"model"}

    def test_unknown_surface_rejected(self):
        with pytest.raises(ValueError, match="unknown soak surfaces"):
            ChaosScenario("soak", ber=2e-4, surfaces=("cache", "dram"))

    def test_soak_surfaces_vocabulary(self):
        assert set(SOAK_SURFACES) == {"cache", "items", "model"}

    def test_unprotected_runtime_fails_the_memory_gates(self, face_data,
                                                        video):
        # no cache scrub, no scrubber, no guard, store-policy items: the
        # corruption is never seen and stays resident
        frames, truth = video
        pipe = fit_pipe(face_data, store_policy="store")
        report = run_scenario(ras_factory(pipe, protected=False), frames,
                              truth, soak())
        assert sum(report["streams"]["stream"]["memory"]["injected"]
                   .values()) > 0
        assert not report["gates"]["corruption_detected"]
        assert not report["gates"]["zero_silent_corruption"]

    def test_soaked_pipeline_detects_like_a_fresh_one(self, face_data,
                                                      video):
        # regression: corruption read before its repair (unverified item
        # memories, a noise seed hashed from a corrupt basis) must not
        # outlive the soak in the pipeline it leaves behind.  The item
        # rate is high enough that the first round flips basis bits.
        frames, truth = video
        soaked = fit_pipe(face_data)
        run_scenario(ras_factory(soaked), frames, truth, ChaosScenario(
            "items", ber=1e-2, surfaces=("items",)))
        fresh = fit_pipe(face_data)
        for frame in frames:
            a = ras_factory(soaked)().pyramid.detect(frame)
            b = ras_factory(fresh)().pyramid.detect(frame)
            assert a == b
        assert np.array_equal(soaked.extractor.codec.basis,
                              fresh.extractor.codec.basis)
