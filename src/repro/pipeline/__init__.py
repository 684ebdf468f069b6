"""End-to-end pipelines: HDFace, baselines and the sliding-window detector."""

from .baselines import HOGPipeline
from .cascade import (CascadeCalibration, CascadeCalibrator, CascadeScanner,
                      CascadeStage, default_word_schedule, hoeffding_threshold)
from .detector import (DetectionMap, ScanRequest, SlidingWindowDetector,
                       make_scene)
from .engine import SharedFeatureEngine
from .hdface import HDFacePipeline
from .multiscale import (Detection, PyramidDetector, execute_plan,
                         non_max_suppression, pyramid)
from .plan import Plan
from .stream import (FrameQueue, QueueClosedError, StreamFrameResult,
                     TemporalTracker, Track, VideoStreamDetector)

__all__ = [
    "HDFacePipeline",
    "HOGPipeline",
    "SlidingWindowDetector",
    "SharedFeatureEngine",
    "DetectionMap",
    "ScanRequest",
    "make_scene",
    "CascadeStage",
    "CascadeCalibration",
    "CascadeCalibrator",
    "CascadeScanner",
    "default_word_schedule",
    "hoeffding_threshold",
    "Detection",
    "Plan",
    "execute_plan",
    "PyramidDetector",
    "non_max_suppression",
    "pyramid",
    "VideoStreamDetector",
    "TemporalTracker",
    "Track",
    "FrameQueue",
    "QueueClosedError",
    "StreamFrameResult",
]
