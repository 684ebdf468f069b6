"""Multi-scale detection: image pyramids and non-maximum suppression.

The paper's Fig. 6 scans one window size; real deployments (the
surveillance / camera use-cases of Sec. 1) need faces found at any size.
This module extends the sliding-window detector with the standard tooling:

* :func:`downscale` / :func:`pyramid` - area-averaged image pyramid;
* :class:`PyramidDetector` - runs a fixed-window detector at every pyramid
  level and maps hits back to original coordinates;
* :func:`non_max_suppression` - greedy IoU-based suppression of
  overlapping detections;
* :func:`execute_plan` - the single frame-scan code path: every caller
  (``PyramidDetector.detect``, the serving runtime, the fleet batch gate,
  the CLI) describes *what* to scan with a
  :class:`~repro.pipeline.plan.Plan` and this function runs it; the
  plan's word budget applies to whichever class model scores the scan
  (plain, guarded or adapting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import zoom

from .detector import ScanRequest
from .plan import Plan

__all__ = ["Detection", "downscale", "pyramid", "non_max_suppression",
           "PyramidDetector", "execute_plan"]


@dataclass(frozen=True)
class Detection:
    """One detected box in original-image coordinates."""

    y: float
    x: float
    size: float
    score: float

    @property
    def box(self):
        """(y0, x0, y1, x1)."""
        return (self.y, self.x, self.y + self.size, self.x + self.size)


def downscale(image, factor):
    """Downscale a square image by ``factor`` (>1) with interpolation."""
    if factor < 1.0:
        raise ValueError("factor must be >= 1")
    img = np.asarray(image, dtype=np.float64)
    if factor == 1.0:
        return img.copy()
    out = zoom(img, 1.0 / factor, order=1, mode="nearest")
    return np.clip(out, 0.0, 1.0)


def pyramid(image, scale_step=1.5, min_size=16):
    """Yield ``(scaled_image, factor)`` pairs until below ``min_size``."""
    if scale_step <= 1.0:
        raise ValueError("scale_step must exceed 1")
    factor = 1.0
    img = np.asarray(image, dtype=np.float64)
    while min(img.shape) / factor >= min_size:
        yield downscale(img, factor), factor
        factor *= scale_step


def iou(a, b):
    """Intersection-over-union of two detections."""
    ay0, ax0, ay1, ax1 = a.box
    by0, bx0, by1, bx1 = b.box
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    inter = ih * iw
    union = a.size**2 + b.size**2 - inter
    return inter / union if union > 0 else 0.0


def non_max_suppression(detections, iou_threshold=0.3):
    """Greedy NMS: keep the best-scoring box, drop overlaps, repeat.

    Vectorized over the candidate set: one stable descending sort (exact
    score ties keep their input order), then per kept box one array pass
    suppressing its overlaps - semantically identical to the greedy
    pairwise reference, including the zero-area guard (a zero-size box
    never overlaps anything, and two coincident zero-size boxes get IoU
    0, not 0/0).
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    dets = list(detections)
    if not dets:
        return []
    scores = np.asarray([d.score for d in dets], dtype=np.float64)
    y0 = np.asarray([d.y for d in dets], dtype=np.float64)
    x0 = np.asarray([d.x for d in dets], dtype=np.float64)
    size = np.asarray([d.size for d in dets], dtype=np.float64)
    y1, x1, areas = y0 + size, x0 + size, size * size
    order = np.argsort(-scores, kind="stable")
    kept = []
    while order.size:
        i = int(order[0])
        kept.append(dets[i])
        rest = order[1:]
        ih = np.minimum(y1[i], y1[rest]) - np.maximum(y0[i], y0[rest])
        iw = np.minimum(x1[i], x1[rest]) - np.maximum(x0[i], x0[rest])
        inter = np.clip(ih, 0.0, None) * np.clip(iw, 0.0, None)
        union = areas[i] + areas[rest] - inter
        ious = np.zeros(rest.size)
        np.divide(inter, union, out=ious, where=union > 0)
        order = rest[ious < iou_threshold]
    return kept


def execute_plan(detector, scene, plan, *, injector=None, model=None,
                 levels=None, batch_scan=None, cancel=None):
    """Scan one frame exactly as a :class:`~repro.pipeline.plan.Plan` says.

    This is *the* frame-scan code path: ``PyramidDetector.detect``
    translates its per-call knobs into an ad-hoc plan and lands here, the
    serving runtime executes its rung's plan here, and the planner's
    chosen plans run through here unchanged - so the bitwise conformance
    matrix (``tests/test_conformance.py``) covers every caller at once.
    Serially, all of the frame's levels go to one
    :meth:`~repro.pipeline.detector.SlidingWindowDetector.scan_many`
    call, which pools their similarity search; ``plan.workers > 1``
    scans the levels on threads instead.

    Parameters
    ----------
    detector:
        A :class:`PyramidDetector`.  The plan's ``backend`` and
        ``engine`` must match the wrapped detector's (a plan is a
        complete description; running it on a mismatched detector would
        silently produce a different route).
    scene, injector, model:
        As :meth:`PyramidDetector.detect`.
    levels:
        Precomputed ``(scaled_image, factor)`` pairs (the streaming path
        builds them once per frame); ``plan.max_levels`` still applies.
    batch_scan:
        Optional ``callable(requests, cancel) -> maps`` routing the
        per-level :class:`~repro.pipeline.detector.ScanRequest`\\ s
        through a cross-stream batch gate
        (:class:`repro.runtime.fleet.BatchGate`), which pools them with
        other streams' levels in one ``scan_many`` call.  Injector scans
        never go through the gate.
    cancel:
        Cooperative-cancel event forwarded to ``batch_scan``.

    Returns the NMS-suppressed detections, best score first.
    """
    base = detector.detector
    if plan.backend != base.backend:
        raise ValueError(f"plan backend {plan.backend!r} does not match "
                         f"detector backend {base.backend!r}")
    if plan.engine != base.mode:
        raise ValueError(f"plan engine {plan.engine!r} does not match "
                         f"detector engine {base.mode!r}")
    window = base.window
    if levels is None:
        levels = list(pyramid(scene, detector.scale_step, min_size=window))
    if plan.max_levels is not None:
        levels = levels[: plan.max_levels]
    requests = [ScanRequest(level, stride=plan.stride_for(i),
                            max_words=plan.max_words, model=model,
                            injector=injector)
                for i, (level, _) in enumerate(levels)]
    if batch_scan is not None and injector is None:
        maps = batch_scan(requests, cancel)
    elif plan.workers > 1 and base.mode != "legacy" and len(levels) > 1:
        from concurrent.futures import ThreadPoolExecutor
        workers = min(plan.workers, len(levels))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            maps = list(pool.map(lambda r: base.scan_many([r])[0],
                                 requests))
    else:
        maps = base.scan_many(requests)
    return detector.collect(levels, maps)


class PyramidDetector:
    """Fixed-window detector applied across an image pyramid.

    When the wrapped detector runs the shared-feature engine (the default
    for HD pipelines), each pyramid level's whole-image fields land in the
    engine's LRU cache keyed by the level's contents - so repeated
    ``detect`` calls on the same scene (tracking, parameter sweeps) skip
    extraction entirely and go straight to window assembly.  Size the
    engine cache at least as deep as the pyramid (``n_levels ~=
    log(scene / window) / log(scale_step) + 1``).

    Parameters
    ----------
    detector:
        A :class:`repro.pipeline.detector.SlidingWindowDetector` whose
        window size defines the base scale.
    scale_step:
        Pyramid downscale ratio between levels.
    score_threshold:
        Minimum face-margin for a window to become a detection.
    iou_threshold:
        NMS suppression threshold.
    workers:
        Threads scanning pyramid levels concurrently.  Levels are
        independent, the engine's scene cache is thread-safe, and the
        heavy NumPy kernels release the GIL, so ``workers > 1`` overlaps
        the levels' extraction work; detections are identical to the
        serial pass (levels are collected in order).  Legacy-engine
        detectors (stateful codec rng) always scan serially.
    """

    def __init__(self, detector, scale_step=1.5, score_threshold=0.0,
                 iou_threshold=0.3, workers=1):
        self.detector = detector
        self.scale_step = float(scale_step)
        self.score_threshold = float(score_threshold)
        self.iou_threshold = float(iou_threshold)
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def detect(self, scene, injector=None, model=None, levels=None,
               stride=None, max_levels=None, max_words=None):
        """All-scale detections after NMS, best score first.

        ``injector`` and ``model`` are forwarded to every level's
        :meth:`~repro.pipeline.detector.SlidingWindowDetector.scan` - the
        fault-campaign hooks for corrupting the feature datapath and the
        stored class model through the full pyramid path.  ``levels``
        substitutes precomputed ``(scaled_image, factor)`` pairs for the
        pyramid of ``scene`` - the streaming path builds them once for
        the frame-delta update and passes them here instead of
        downscaling twice per frame.

        ``stride``, ``max_levels`` and ``max_words`` are the load-shedding
        knobs of the serving runtime's degradation ladder: a per-call
        stride override coarsens every level's scan grid, ``max_levels``
        scans only the first N pyramid levels (finest first - the deep,
        cheap levels contribute the large-face coverage that a temporal
        tracker coasts through anyway), and ``max_words`` caps the packed
        classification depth per window for any class model (cascade
        escalation depth, or the scored word prefix on plain packed
        scans).

        The per-call knobs are packaged into an ad-hoc
        :class:`~repro.pipeline.plan.Plan` and run through
        :func:`execute_plan` - the one frame-scan code path shared with
        the planner and the serving runtime.
        """
        base = self.detector
        plan = Plan(name="adhoc", backend=base.backend, engine=base.mode,
                    stride=None if stride is None else int(stride),
                    max_levels=None if max_levels is None else int(max_levels),
                    max_words=None if max_words is None or
                    base.backend != "packed" else int(max_words),
                    workers=self.workers)
        if max_words is not None and base.backend != "packed":
            # keep the historical error surface: scan() rejects the knob
            raise ValueError("max_words requires the packed backend")
        return execute_plan(self, scene, plan, injector=injector, model=model,
                            levels=levels)

    def collect(self, levels, maps):
        """Threshold + NMS over precomputed per-level detection maps.

        ``maps`` is one :class:`~repro.pipeline.detector.DetectionMap` per
        ``(scaled_image, factor)`` pair in ``levels``, in level order -
        exactly what :meth:`detect` produces internally.  Exposed so a
        caller that scanned the levels itself can reuse the identical
        coordinate mapping and suppression tail.
        """
        window = self.detector.window
        raw = []
        for (level, factor), dmap in zip(levels, maps):
            for iy, ix in np.argwhere(dmap.scores > self.score_threshold):
                y, x = dmap.window_origin(int(iy), int(ix))
                raw.append(Detection(y * factor, x * factor, window * factor,
                                     float(dmap.scores[iy, ix])))
        return non_max_suppression(raw, self.iou_threshold)
