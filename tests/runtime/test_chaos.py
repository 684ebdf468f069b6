"""Tests for the chaos harness: poison forging, scenarios, end-to-end gates.

The full campaign lives in ``benchmarks/bench_runtime_resilience.py``;
here the harness itself is under test - every poison kind trips the
quarantine reason it claims, scenario payloads are JSON-clean, small
``run_scenario`` passes produce well-formed, passing reports on one
stream and on a fleet, the twin replays the served rungs, and every
gate fails once the protection it guards is switched off.
"""

import json

import numpy as np
import pytest

from repro.pipeline.stream import TemporalTracker
from repro.runtime import (
    ChaosInjector,
    ChaosScenario,
    DegradationLadder,
    FleetDispatcher,
    InputQuarantine,
    PoisonFrameError,
    ResilientVideoDetector,
    Rung,
    ServeFrameResult,
    poison_frame,
    run_scenario,
)
from repro.runtime.chaos import POISON_KINDS, _replay_twin

from .conftest import make_detector

pytestmark = pytest.mark.tier1

ALWAYS = {"no_crashes", "p95_within_budget", "recall_within_bound"}


def runtime_factory(pipe, min_hits=1, **kwargs):
    """Zero-argument factory for a small, watchdog-armed serving runtime."""
    kwargs.setdefault("budget", 10.0)
    kwargs.setdefault("stall_timeout", 0.5)

    def make_runtime():
        return ResilientVideoDetector(
            make_detector(pipe), tracker=TemporalTracker(min_hits=min_hits),
            queue_size=8, policy="block", **kwargs)
    return make_runtime


def fleet_factory(pipe, made=None, **kwargs):
    """Zero-argument factory for a three-stream fleet (cam0..cam2)."""
    def make_fleet():
        fleet = FleetDispatcher(
            lambda: make_detector(pipe), budget=10.0, max_streams=4,
            batch_window=0.01, stall_timeout=0.5, queue_size=8,
            policy="block", **kwargs)
        for name in ("cam0", "cam1", "cam2"):
            fleet.add_stream(name)
        if made is not None:
            made.append(fleet)
        return fleet
    return make_fleet


class TestPoisonFrames:
    @pytest.mark.parametrize("kind", POISON_KINDS)
    def test_each_kind_trips_its_quarantine_reason(self, kind):
        gate = InputQuarantine(expect_shape=(64, 64))
        with pytest.raises(PoisonFrameError) as exc:
            gate.check(poison_frame(kind, (64, 64)))
        assert exc.value.reason == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            poison_frame("glitter")

    def test_deterministic_without_rng(self):
        assert np.array_equal(poison_frame("inf"), poison_frame("inf"),
                              equal_nan=True)


class TestScenario:
    def test_payload_is_json_safe(self):
        scenario = ChaosScenario("s", stalls={1: 0.5}, hard_stalls={2: 1.0},
                                 poison={3: "nan"}, spikes={4: 0.1},
                                 fault_rate=0.01, fault_frames=(0, 5),
                                 model_fault_rate=0.001, ber=1e-4,
                                 surfaces=["model"], seed=7)
        payload = json.loads(json.dumps(scenario.payload()))
        assert payload["name"] == "s"
        assert payload["poison"] == {"3": "nan"}
        assert payload["fault_frames"] == [0, 5]
        assert payload["ber"] == 1e-4 and payload["surfaces"] == ["model"]

    def test_defaults_are_empty(self):
        payload = ChaosScenario("quiet").payload()
        assert payload["stalls"] == {} and payload["fault_rate"] == 0.0
        assert payload["ber"] == 0.0


class TestRunChaos:
    @pytest.fixture
    def factory(self, serve_pipe):
        return runtime_factory(serve_pipe)

    def test_poison_scenario_passes_its_gates(self, factory, video):
        frames, truth = video
        # poison lands after the track is established, so the quarantined
        # frames are served from coasting - the recall gate stays tight
        scenario = ChaosScenario("poison", poison={3: "nan", 4: "shape"})
        report = run_scenario(factory, frames, truth, scenario)
        entry = report["streams"]["stream"]
        assert report["passed"], report["gates"]
        assert entry["stats"]["quarantined"] == 2
        assert entry["stats"]["crashes"] == 0
        assert entry["frames_unserved"] == 0
        # only what the scenario scripts is gated: no stalls, no stall gate
        assert set(report["gates"]) == ALWAYS | {
            "poison_quarantined", "poison_not_cached"}
        json.dumps(report)  # the whole report must be JSON-ready

    def test_soft_stall_is_cancelled_and_gated(self, factory, video):
        frames, truth = video
        scenario = ChaosScenario("stall", stalls={1: 2.0})
        report = run_scenario(factory, frames, truth, scenario)
        entry = report["streams"]["stream"]
        assert report["gates"]["stalls_recovered"], report
        assert entry["stats"]["watchdog"]["cancels"] >= 1
        assert entry["stats"]["incidents"].get("stall_cancelled", 0) >= 1

    def test_poison_never_reaches_the_scene_cache(self, factory, video):
        frames, truth = video
        scenario = ChaosScenario("poison", poison={2: "constant"})
        report = run_scenario(factory, frames, truth, scenario)
        assert report["gates"]["poison_not_cached"]

    def test_recall_gate_compares_against_clean_twin(self, factory, video):
        frames, truth = video
        report = run_scenario(factory, frames, truth, ChaosScenario("quiet"))
        entry = report["streams"]["stream"]
        # nothing injected: both runs are clean at the full rung
        assert entry["deepest_rung_name"] == "full"
        assert entry["recall"] == entry["recall_twin"]
        assert entry["recall_drop"] == 0.0
        # and the twin reproduces every served frame bitwise
        assert entry["frames_compared"] == len(frames)
        assert entry["frames_differing"] == 0
        assert set(report["gates"]) == ALWAYS

    def test_twin_replays_each_frame_at_its_served_rung(self, factory,
                                                        video):
        frames, _ = video

        def served(i, rung):
            return ServeFrameResult(i, "detected", [], [], 0.0, rung)
        # frame 2 was never served: it keeps frame 1's rung
        rungs = {0: "full", 1: "skip", 3: "coarse", 4: "truncated",
                 5: "full"}
        twin = _replay_twin(factory, frames, {"stream": {
            i: served(i, r) for i, r in rungs.items()}})["stream"]
        assert [twin[i].rung for i in range(len(frames))] == [
            "full", "skip", "skip", "coarse", "truncated", "full"]
        # the skip rung detects keyframes only: frame 1 is predicted
        assert twin[1].mode == "predicted" and twin[3].mode == "detected"

    def test_single_scenario_needs_a_single_stream(self, serve_pipe, video):
        frames, truth = video
        with pytest.raises(ValueError):
            run_scenario(fleet_factory(serve_pipe), frames, truth,
                         ChaosScenario("x"))


class TestGatesCanFail:
    """Each runner gate fails once the protection it guards is off."""

    def test_no_crashes_fails_on_a_raising_hook(self, serve_pipe, video,
                                                monkeypatch):
        frames, truth = video
        original = ChaosInjector.__call__

        def raising(self, index, frame, meta, cancel):
            if meta["frame"] == 2:
                raise RuntimeError("injected hook failure")
            return original(self, index, frame, meta, cancel)
        monkeypatch.setattr(ChaosInjector, "__call__", raising)
        report = run_scenario(runtime_factory(serve_pipe), frames, truth,
                              ChaosScenario("crash"))
        assert not report["gates"]["no_crashes"]
        assert not report["passed"]

    def test_stalls_recovered_fails_without_a_watchdog(self, serve_pipe,
                                                       video):
        frames, truth = video
        report = run_scenario(
            runtime_factory(serve_pipe, stall_timeout=None), frames, truth,
            ChaosScenario("stall", stalls={1: 0.3}))
        assert not report["gates"]["stalls_recovered"]

    def test_poison_gates_fail_with_an_open_quarantine(self, serve_pipe,
                                                       video):
        # mid-clip: later frames evict the cached poison before the run
        # ends, and the gate must still see it
        frames, truth = video
        report = run_scenario(
            runtime_factory(serve_pipe,
                            quarantine=InputQuarantine(reject_constant=False)),
            frames, truth, ChaosScenario("poison", poison={2: "constant"}))
        assert not report["gates"]["poison_quarantined"]
        assert not report["gates"]["poison_not_cached"]

    def test_p95_fails_on_a_one_rung_ladder_under_spikes(self, serve_pipe,
                                                         video):
        frames, truth = video
        budget = 0.05
        report = run_scenario(
            runtime_factory(serve_pipe, budget=budget,
                            ladder=DegradationLadder([Rung("full")])),
            frames, truth, ChaosScenario(
                "spike", spikes={i: 3 * budget for i in range(len(frames))}))
        assert not report["gates"]["p95_within_budget"]

    def test_healthy_p95_fails_on_a_one_rung_ladder(self, serve_pipe,
                                                    video):
        # a healthy fleet stream that cannot shed work blows its budget
        frames, truth = video

        def make_fleet():
            fleet = fleet_factory(serve_pipe)()
            fleet.add_stream("tight", budget=1e-4,
                             ladder=DegradationLadder([Rung("full")]))
            return fleet
        report = run_scenario(make_fleet, frames, truth,
                              {"cam0": ChaosScenario("victim")})
        assert not report["streams"]["tight"]["gates"]["p95_within_budget"]
        assert report["streams"]["cam1"]["gates"]["p95_within_budget"]
        assert not report["gates"]["p95_within_budget"]

    def test_recall_fails_when_quarantined_frames_cannot_coast(
            self, serve_pipe, video):
        # a quarantined frame is served from the tracker's confirmed
        # tracks; a tracker that never confirms serves it empty, while the
        # twin detects the clean frame
        frames, truth = video
        report = run_scenario(
            runtime_factory(serve_pipe, min_hits=len(frames) + 1), frames,
            truth, ChaosScenario("poison", poison={2: "nan", 4: "nan"}))
        entry = report["streams"]["stream"]
        assert entry["recall_drop"] > report["max_recall_drop"]
        assert not report["gates"]["recall_within_bound"]


class TestAdaptChaos:
    """Online-learning attacks: detected, rolled back, recall preserved."""

    @pytest.fixture
    def factory(self, serve_pipe):
        return runtime_factory(serve_pipe, adapt=True)

    def test_label_poison_detected_and_rolled_back(self, factory, video):
        frames, truth = video
        scenario = ChaosScenario("label-poison", label_poison={3: "label"})
        report = run_scenario(factory, frames, truth, scenario)
        adapt = report["streams"]["stream"]["stats"]["adapt"]
        assert report["passed"], report["gates"]
        assert report["gates"]["poison_update_detected"]
        assert report["gates"]["poison_update_rolled_back"]
        assert report["gates"]["recall_within_bound"]
        assert adapt["poison_injected"] == 1
        assert adapt["poison_rejected"] == 1
        assert adapt["rollbacks"] >= 1
        json.dumps(report)

    def test_replica_poison_outvoted(self, factory, video):
        frames, truth = video
        scenario = ChaosScenario("replica-poison",
                                 label_poison={3: "replica"})
        report = run_scenario(factory, frames, truth, scenario)
        assert report["passed"], report["gates"]
        assert report["gates"]["poison_update_detected"]
        # replica corruption is outvoted, not rejected: no rollback gate
        assert "poison_update_rolled_back" not in report["gates"]
        adapt = report["streams"]["stream"]["stats"]["adapt"]
        assert adapt["poison_outvoted"] == 1

    def test_update_storm_throttled(self, factory, video):
        frames, truth = video
        scenario = ChaosScenario("storm", update_storm={3: 10})
        report = run_scenario(factory, frames, truth, scenario)
        assert report["passed"], report["gates"]
        assert report["gates"]["storm_throttled"]
        adapt = report["streams"]["stream"]["stats"]["adapt"]
        assert adapt["storm_suppressed"] >= 8

    def test_frozen_runtime_skips_adapt_gates(self, serve_pipe, video):
        frames, truth = video
        scenario = ChaosScenario("unarmed", label_poison={3: "label"})
        report = run_scenario(runtime_factory(serve_pipe), frames, truth,
                              scenario)
        # no adapter: the scenario's arming is inert and ungated
        assert "poison_update_detected" not in report["gates"]
        assert report["streams"]["stream"]["stats"]["adapt"] is None

    def test_poison_gates_fail_with_vetting_off(self, serve_pipe, video):
        frames, truth = video
        factory = runtime_factory(
            serve_pipe, adapt=True,
            adapt_kwargs={"max_step_frac": 1.0, "min_probe_accuracy": 0.0})
        report = run_scenario(factory, frames, truth, ChaosScenario(
            "label-poison", label_poison={3: "label"}))
        assert not report["gates"]["poison_update_detected"]
        assert not report["gates"]["poison_update_rolled_back"]

    def test_storm_gate_fails_without_a_proposal_budget(self, serve_pipe,
                                                        video):
        frames, truth = video
        factory = runtime_factory(
            serve_pipe, adapt=True, adapt_kwargs={"max_updates_per_frame": 64})
        report = run_scenario(factory, frames, truth, ChaosScenario(
            "storm", update_storm={3: 10}))
        assert not report["gates"]["storm_throttled"]

    def test_fleet_label_poison_contained_to_victim(self, serve_pipe, video):
        frames, truth = video
        made = []
        make_fleet = fleet_factory(serve_pipe, made, adapt=True,
                                   guard_kwargs={"seed_or_rng": 0})
        scenario = ChaosScenario("victim-poison", label_poison={3: "label"})
        report = run_scenario(make_fleet, frames, truth, {"cam0": scenario})
        fleet = made[0]
        assert report["passed"], report["gates"]
        assert report["gates"]["poison_update_detected"]
        assert report["gates"]["poison_update_rolled_back"]
        victim = report["streams"]["cam0"]
        assert victim["gates"]["poison_update_detected"]
        assert victim["stats"]["adapt"]["poison_rejected"] == 1
        # the shared model never absorbed the victim's poison (it still
        # holds a fresh fleet's rows), so the healthy streams serve
        # exactly what their clean twins do
        clean_rows = make_fleet().shared_model.replicas
        assert np.array_equal(fleet.shared_model.replicas, clean_rows)
        for name in ("cam1", "cam2"):
            entry = report["streams"][name]
            assert entry["scenario"] is None
            assert entry["gates"]["recall_within_bound"]
            assert entry["frames_differing"] == 0
        json.dumps(report)


class TestRunFleetChaos:
    def test_victim_chaos_contained_and_report_json_safe(self, serve_pipe,
                                                         video):
        frames, truth = video
        scenario = ChaosScenario("victim", stalls={2: 2.0},
                                 poison={4: "nan"})
        report = run_scenario(fleet_factory(serve_pipe), frames, truth,
                              {"cam0": scenario})
        assert report["passed"], report["gates"]
        victim = report["streams"]["cam0"]
        assert victim["scenario"]["name"] == "victim"
        assert victim["gates"]["stalls_recovered"]
        assert victim["gates"]["poison_quarantined"]
        for name in ("cam1", "cam2"):
            entry = report["streams"][name]
            assert entry["scenario"] is None
            assert set(entry["gates"]) == ALWAYS
            assert entry["gates"]["p95_within_budget"]
            assert entry["stats"]["frames"] == len(frames)
        assert report["fleet"]["streams"] == 3
        json.dumps(report)  # the whole report must be JSON-ready

    def test_unknown_victim_rejected(self, serve_pipe, video):
        frames, truth = video
        with pytest.raises(ValueError):
            run_scenario(fleet_factory(serve_pipe), frames, truth,
                         {"nope": ChaosScenario("x")})
