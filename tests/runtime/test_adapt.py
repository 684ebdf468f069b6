"""Tests for the online-adaptation loop (runtime/adapt.py + serving adapt=)."""

import numpy as np
import pytest

from repro.runtime import ResilientVideoDetector
from repro.runtime.adapt import DriftDetector, OnlineAdapter


class ForcedDrift:
    """Drift-detector stub pinned to one state (test hook)."""

    def __init__(self, state="drifting"):
        self._state = state

    @property
    def state(self):
        return self._state

    def observe(self, score):
        return self._state

    def stats(self):
        return {"state": self._state, "shift": 0.0, "observed": 0,
                "reference_mean": 0.0, "recent_mean": 0.0, "transitions": []}


class TestDriftDetector:
    def test_warmup_then_stable_on_flat_scores(self):
        drift = DriftDetector(warmup=5, window=10)
        states = [drift.observe(0.2) for _ in range(12)]
        assert states[:4] == ["warmup"] * 4
        assert states[-1] == "stable"
        assert drift.shift() == pytest.approx(0.0)

    def test_score_drop_escalates_to_drifting_then_frozen(self):
        drift = DriftDetector(warmup=5, window=4, drift_threshold=0.1,
                              freeze_threshold=0.8)
        for _ in range(5):
            drift.observe(0.2)
        for _ in range(4):
            assert drift.observe(0.16) == "drifting"   # 20% drop
        for _ in range(4):
            drift.observe(0.01)                        # 95% drop fills window
        assert drift.state == "frozen"
        assert drift.shift() > 0.8

    def test_recovery_walks_back_to_stable(self):
        drift = DriftDetector(warmup=3, window=3, drift_threshold=0.1,
                              freeze_threshold=0.8)
        for _ in range(3):
            drift.observe(0.2)
        for _ in range(3):
            drift.observe(0.1)
        assert drift.state == "drifting"
        for _ in range(3):
            drift.observe(0.2)
        assert drift.state == "stable"
        kinds = [(a, b) for _, a, b in drift.transitions]
        assert ("stable", "drifting") in kinds or \
            ("warmup", "drifting") in kinds
        assert ("drifting", "stable") in kinds

    def test_transitions_are_recorded_with_indices(self):
        drift = DriftDetector(warmup=2, window=2)
        drift.observe(1.0)
        drift.observe(1.0)
        drift.observe(0.0)
        assert drift.transitions
        assert drift.transitions[0][0] >= 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            DriftDetector(warmup=0)
        with pytest.raises(ValueError):
            DriftDetector(drift_threshold=0.9, freeze_threshold=0.5)


class TestServingAdapt:
    def test_adapt_requires_packed_backend(self, make_runtime):
        with pytest.raises(ValueError, match="packed"):
            make_runtime(backend="dense", adapt=True)

    def test_static_scene_proposes_nothing(self, make_runtime, video):
        frames, _ = video
        static = [frames[0]] * 6
        runtime = make_runtime(adapt=True)
        list(runtime.run(static))
        adapt = runtime.stats()["adapt"]
        assert adapt["proposals"] == 0
        assert adapt["drift"]["state"] in ("warmup", "stable")

    def test_static_scene_detections_bitwise_match_frozen(self, make_runtime,
                                                          video):
        frames, _ = video
        static = [frames[0]] * 5
        adaptive = make_runtime(adapt=True)
        frozen = make_runtime()
        for a, b in zip(adaptive.run(static), frozen.run(static)):
            assert a.detections == b.detections
            assert a.mode == b.mode

    def test_drifting_state_harvests_and_applies(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(
            adapt=True, adapt_kwargs={"drift": ForcedDrift("drifting")})
        list(runtime.run(frames))
        adapt = runtime.stats()["adapt"]
        assert adapt["harvested"] > 0
        assert adapt["proposals"] > 0
        assert adapt["applied"] > 0
        assert adapt["rollbacks"] == 0

    def test_frozen_state_skips(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(
            adapt=True, adapt_kwargs={"drift": ForcedDrift("frozen")})
        list(runtime.run(frames))
        adapt = runtime.stats()["adapt"]
        assert adapt["proposals"] == 0
        assert adapt["frozen_skips"] > 0

    def test_profiler_counters_surface_in_table(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(
            adapt=True, adapt_kwargs={"drift": ForcedDrift("drifting")})
        list(runtime.run(frames))
        assert runtime.profiler.counters["adapt_proposals"] > 0
        table = runtime.profiler.table()
        assert "adapt_applied" in table
        assert "adapt_state" in table

    def test_prebuilt_model_is_adopted(self, make_runtime, serve_pipe):
        from repro.reliability import AdaptiveGuardedModel
        from tests.runtime.conftest import make_detector
        det = make_detector(serve_pipe)
        model = AdaptiveGuardedModel(det.detector.packed_model(),
                                     seed_or_rng=0)
        runtime = ResilientVideoDetector(
            det, budget=10.0, stall_timeout=None, adapt=True,
            adapt_kwargs={"model": model})
        assert runtime.adapter.model is model
        assert runtime.model_override is model

    def test_model_kwargs_with_prebuilt_model_rejected(self, make_runtime,
                                                       serve_pipe):
        from repro.reliability import AdaptiveGuardedModel
        from tests.runtime.conftest import make_detector
        det = make_detector(serve_pipe)
        model = AdaptiveGuardedModel(det.detector.packed_model(),
                                     seed_or_rng=0)
        with pytest.raises(ValueError, match="leftover"):
            ResilientVideoDetector(det, stall_timeout=None, adapt=True,
                                   adapt_kwargs={"model": model, "prior": 8})


class TestChaosArming:
    def test_label_poison_rejected_and_rolled_back(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(adapt=True)
        model = runtime.adapter.model
        clean_rows = model.replicas.copy()
        runtime.adapter.poison_next("label")
        results = list(runtime.run(frames))
        adapt = runtime.stats()["adapt"]
        assert adapt["poison_injected"] == 1
        assert adapt["poison_rejected"] == 1
        assert adapt["rollbacks"] >= 1
        # the served model never absorbed the poison
        assert np.array_equal(model.replicas, clean_rows)
        assert model.scrub() == 0
        # and the stream kept detecting through the attack
        assert any(r.detections for r in results)

    def test_replica_poison_outvoted(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(adapt=True)
        runtime.adapter.poison_next("replica")
        list(runtime.run(frames))
        adapt = runtime.stats()["adapt"]
        assert adapt["poison_injected"] == 1
        assert adapt["poison_outvoted"] == 1
        assert adapt["outvoted"] >= 1
        # after outvoting, every replica's counters agree again
        model = runtime.adapter.model
        for cnt in model.counters[1:]:
            assert np.array_equal(cnt.materialize(),
                                  model.counters[0].materialize())

    def test_update_storm_is_throttled(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(
            adapt=True, adapt_kwargs={"drift": ForcedDrift("drifting"),
                                      "max_updates_per_frame": 2})
        runtime.adapter.storm_next(10)
        list(runtime.run(frames))
        adapt = runtime.stats()["adapt"]
        assert adapt["storm_suppressed"] >= 8
        # the storm never lands more than the per-frame budget at once
        assert adapt["proposals"] <= 2 * len(frames)

    def test_bad_poison_kind_rejected(self, make_runtime, video):
        runtime = make_runtime(adapt=True)
        with pytest.raises(ValueError):
            runtime.adapter.poison_next("gamma-ray")
