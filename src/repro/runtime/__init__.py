"""Resilient serving runtime: keep detection alive, on time, and honest.

The streaming stack (:mod:`repro.pipeline.stream`) makes detection
*fast*; this package makes it *survivable*.  It wraps the pyramid
detector in a serving loop that holds a per-frame latency budget under
overload by shedding work along an explicit degradation ladder (exploiting
HDFace's holographic truncated-dimension dial), recovers from stalls with
a two-stage watchdog, rejects poison inputs at a quarantine gate before
they can contaminate the feature cache, checkpoints its mutable state,
and ships with a chaos harness that injects all of the above and gates on
the recall/latency contract.  See ``docs/runtime.md``.
"""

from .chaos import (SOAK_SURFACES, ChaosInjector, ChaosScenario,
                    poison_frame, run_scenario, served_recall)
from .adapt import DriftDetector, OnlineAdapter
from .checkpoint import (CheckpointVersionError, load_model_state,
                         load_runtime_state, model_state, restore_model,
                         restore_runtime, runtime_state, save_model,
                         save_runtime)
from .fleet import AdmissionError, BatchGate, FleetDispatcher
from .ladder import (DeadlineScheduler, DegradationLadder, FleetScheduler,
                     PlannerLadder, Rung, cascade_ladder, default_ladder)
from .planner import CostModel, ExecutionPlanner
from .quarantine import InputQuarantine, PoisonFrameError
from .serving import ResilientVideoDetector, ServeFrameResult
from .watchdog import FrameCancelled, Watchdog

__all__ = [
    "ResilientVideoDetector",
    "ServeFrameResult",
    "Rung",
    "DegradationLadder",
    "PlannerLadder",
    "DeadlineScheduler",
    "default_ladder",
    "cascade_ladder",
    "CostModel",
    "ExecutionPlanner",
    "Watchdog",
    "FrameCancelled",
    "InputQuarantine",
    "PoisonFrameError",
    "ChaosScenario",
    "ChaosInjector",
    "poison_frame",
    "run_scenario",
    "served_recall",
    "SOAK_SURFACES",
    "FleetDispatcher",
    "FleetScheduler",
    "BatchGate",
    "AdmissionError",
    "runtime_state",
    "load_runtime_state",
    "save_runtime",
    "restore_runtime",
    "CheckpointVersionError",
    "model_state",
    "load_model_state",
    "save_model",
    "restore_model",
    "DriftDetector",
    "OnlineAdapter",
]
