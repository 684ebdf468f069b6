"""Sliding-window face detection over large scenes (paper Fig. 6).

Fig. 6 visualizes HDFace as a detector: a HOG window slides over an image
"in an overlapping manner" and every window the classifier calls a face is
painted.  :class:`SlidingWindowDetector` reproduces that, returning the
per-window face-confidence map that the Fig. 6 bench renders at different
dimensionalities (false detections at D=1k disappear by D=4k).

Three execution engines scan the same window grid:

* ``"shared"`` (default for HD pipelines) - the
  :class:`~repro.pipeline.engine.SharedFeatureEngine`: per-pixel feature
  stages run once over the whole scene, every window's query is sliced out
  of the cached cell-histogram grid, and all windows are classified by one
  batched similarity matmul.
* ``"perwindow"`` - the keyed reference path: every window re-extracts its
  fields from scratch with position-keyed noise.  Bitwise identical scores
  to ``"shared"`` (the equivalence tests rely on this), at per-window cost.
* ``"legacy"`` - the original crop-based path through
  ``pipeline.similarities`` with the stateful codec rng; kept as the speed
  baseline and for non-HD pipelines.

The module also builds the composite test scenes: a clutter background with
faces pasted at known locations, so detection quality is measurable
(window-level precision/recall against ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypervector import as_rng
from ..core.packed import PackedClassModel, PackedScoring, block_dim
from ..datasets.faces import draw_face, draw_nonface, random_face_params
from ..hardware.opcount import (
    hd_hog_profile,
    hdc_infer_profile,
    packed_infer_profile,
)
from ..profiling import NULL_PROFILER
from .engine import SharedFeatureEngine

__all__ = ["SlidingWindowDetector", "DetectionMap", "ScanRequest",
           "make_scene"]

ENGINES = ("shared", "perwindow", "legacy")


@dataclass
class ScanRequest:
    """One scan of :meth:`SlidingWindowDetector.scan_many`.

    Field for field the keyword surface of
    :meth:`SlidingWindowDetector.scan`.
    """

    scene: np.ndarray
    stride: int = None
    max_words: int = None
    model: object = None
    injector: object = None


@dataclass
class DetectionMap:
    """Result of scanning one scene.

    Attributes
    ----------
    scores:
        ``(n_wy, n_wx)`` face-class confidence (similarity margin) per
        window position.
    detections:
        Boolean map, True where the face class wins.
    stride:
        Pixels between window positions.
    window:
        Window side in pixels.
    """

    scores: np.ndarray
    detections: np.ndarray
    stride: int
    window: int

    def window_origin(self, iy, ix):
        """Top-left pixel of window ``(iy, ix)``."""
        return iy * self.stride, ix * self.stride


class SlidingWindowDetector:
    """Scan a scene with a trained binary face/no-face pipeline.

    Parameters
    ----------
    pipeline:
        A fitted binary classifier pipeline exposing ``similarities``
        (:class:`repro.pipeline.hdface.HDFacePipeline`) or decision scores.
    window:
        Window side in pixels (must match the training image size).
    stride:
        Step between windows; smaller = more overlap (the paper scans
        "in an overlapping manner").
    face_class:
        Index of the face class in the pipeline's outputs (1 by
        convention of :func:`repro.datasets.faces.make_face_dataset`).
    engine:
        ``"shared"``, ``"perwindow"``, ``"legacy"``, ``"auto"`` (shared
        when the pipeline exposes the HD shared-pass API, legacy
        otherwise), or a ready :class:`~repro.pipeline.engine.
        SharedFeatureEngine` instance to reuse its cache across detectors
        (the detector adopts that engine's backend).
    backend:
        ``"dense"`` (float reference) or ``"packed"`` (bit-packed binary
        hot path with :class:`~repro.core.packed.PackedClassModel`
        Hamming-argmin classification; shared engine only).
    workers:
        Thread count for the strip-parallel fields pass inside the shared
        engine.  1 = serial; results are bitwise identical either way.
    scrub:
        Enable the shared engine's cache scrubber: cached scene entries
        are digest-verified on every hit and recomputed on mismatch
        instead of being served corrupt (see
        :meth:`~repro.pipeline.engine.SharedFeatureEngine.corrupt_cache`).
    profiler:
        Optional :class:`repro.profiling.Profiler`; scan stages are timed
        and op-counted on it (and on the engine, for shared mode).
    cascade:
        Route scans through the multi-stage early-exit cascade
        (:class:`repro.pipeline.cascade.CascadeScanner`; shared engine +
        packed backend only).  ``True`` builds a default cascade with
        analytic Hoeffding bounds; a
        :class:`~repro.pipeline.cascade.CascadeCalibration` uses its
        fitted stage schedule; a dict is passed as ``CascadeScanner``
        keyword arguments; a ready ``CascadeScanner`` is adopted as-is.
    """

    def __init__(self, pipeline, window, stride=None, face_class=1,
                 engine="auto", profiler=None, backend="dense", workers=1,
                 scrub=False, cascade=None):
        self.pipeline = pipeline
        self.window = int(window)
        self.stride = int(stride) if stride else max(self.window // 2, 1)
        self.face_class = int(face_class)
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.engine = None
        self._packed_model = None
        self.cascade = cascade if cascade else None
        self._cascade_scanner = None
        if isinstance(engine, SharedFeatureEngine):
            self.mode = "shared"
            self.engine = engine
            self.backend = engine.backend
            if profiler is not None:
                self.engine.profiler = self.profiler
        else:
            if engine == "auto":
                engine = "shared" if self._has_shared_api() else "legacy"
            if engine not in ENGINES:
                raise ValueError(f"unknown engine {engine!r}; "
                                 f"expected one of {ENGINES}")
            if backend not in ("dense", "packed"):
                raise ValueError(f"unknown backend {backend!r}; "
                                 "expected 'dense' or 'packed'")
            if backend == "packed" and engine != "shared":
                raise ValueError(
                    "backend='packed' requires the shared engine "
                    f"(got engine={engine!r})")
            self.mode = engine
            self.backend = backend
            if engine == "shared":
                self.engine = SharedFeatureEngine(pipeline.extractor,
                                                  profiler=self.profiler,
                                                  backend=backend,
                                                  workers=workers,
                                                  scrub=scrub)
        if self.cascade is not None and (self.mode != "shared"
                                         or self.backend != "packed"):
            raise ValueError("cascade scanning requires the shared engine "
                             "with backend='packed' (got engine="
                             f"{self.mode!r}, backend={self.backend!r})")

    def cascade_scanner(self):
        """The scanner behind ``cascade=`` (built lazily; None if unset)."""
        if self.cascade is None:
            return None
        if self._cascade_scanner is None:
            from .cascade import CascadeCalibration, CascadeScanner
            c = self.cascade
            if isinstance(c, CascadeScanner):
                self._cascade_scanner = c
            elif isinstance(c, CascadeCalibration):
                self._cascade_scanner = CascadeScanner(self, calibration=c)
            elif isinstance(c, dict):
                self._cascade_scanner = CascadeScanner(self, **c)
            else:
                self._cascade_scanner = CascadeScanner(self)
        return self._cascade_scanner

    def packed_model(self):
        """Sign-quantized packed class model (cached until the model refits).

        Classification against it follows
        :class:`repro.learning.binary_inference.BinaryHDCEngine` semantics
        exactly: sign quantization with ``0 -> +1``, Hamming argmin.
        """
        hvs = self.pipeline.classifier.class_hvs_
        cached = self._packed_model
        if cached is None or cached[0] is not hvs:
            model = PackedClassModel.from_classifier(self.pipeline.classifier)
            self._packed_model = cached = (hvs, model)
        return cached[1]

    def class_model(self, model=None):
        """The packed class model a scan scores with.

        ``None`` is the detector's own :meth:`packed_model`; a
        ``(n_classes, D)`` bipolar matrix is packed; a plain, guarded or
        adapting model (any :class:`~repro.core.packed.PackedScoring`) is
        used as given.
        """
        if model is None:
            return self.packed_model()
        if isinstance(model, PackedScoring):
            return model
        return PackedClassModel(model)

    @staticmethod
    def word_cap(model, max_words):
        """Words a scan with word budget ``max_words`` scores on ``model``."""
        if max_words is None:
            return model.n_words
        return min(int(max_words), model.n_words)

    def _has_shared_api(self):
        extractor = getattr(self.pipeline, "extractor", None)
        return (hasattr(extractor, "extract_fields")
                and hasattr(self.pipeline, "classifier"))

    def origins(self, scene_shape, stride=None):
        """Window origins and grid shape: ``(list[(y, x)], (n_wy, n_wx))``.

        ``stride`` overrides the configured stride for this call - the
        serving runtime's degradation ladder coarsens the scan grid under
        load without rebuilding the detector.
        """
        stride = int(stride) if stride else self.stride
        if stride < 1:
            raise ValueError(f"stride must be at least 1, got {stride}")
        h, w = scene_shape
        if h < self.window or w < self.window:
            raise ValueError("scene smaller than the detection window")
        ys = range(0, h - self.window + 1, stride)
        xs = range(0, w - self.window + 1, stride)
        return [(y, x) for y in ys for x in xs], (len(ys), len(xs))

    def windows(self, scene):
        """All window crops and their grid shape: ``(crops, (n_wy, n_wx))``."""
        scene = np.asarray(scene, dtype=np.float64)
        origins, grid = self.origins(scene.shape)
        crops = np.stack([
            scene[y : y + self.window, x : x + self.window]
            for y, x in origins
        ])
        return crops, grid

    def _window_queries(self, scene, origins, injector):
        """Query hypervectors for every window, per the selected engine."""
        if self.mode == "shared":
            return self.engine.window_queries(scene, origins, self.window,
                                              injector)
        ext = self.pipeline.extractor
        with self.profiler.stage("perwindow"):
            queries = np.stack([
                ext.window_query(scene, origin, self.window, injector)
                for origin in origins
            ])
        self.profiler.add_profile(
            "perwindow",
            hd_hog_profile((self.window, self.window), ext.dim,
                           n_bins=ext.n_bins, magnitude=ext.magnitude,
                           sqrt_iters=ext.sqrt_iters, gamma=ext.gamma,
                           cell_size=ext.cell_size) * len(origins),
            items=len(origins),
        )
        return queries

    def scan(self, scene, injector=None, model=None, stride=None,
             max_words=None):
        """Classify every window; returns a :class:`DetectionMap`.

        Shared and per-window engines produce bitwise-identical scores
        (dense backend); the legacy engine is statistically equivalent but
        draws different stochastic noise.  The packed backend scores with
        the Hamming-argmin semantics of
        :class:`~repro.learning.binary_inference.BinaryHDCEngine` - margins
        are ``(d_other - d_face) * 2 / D``, sign-compatible with the dense
        cosine margins.

        ``model`` substitutes the stored class model for this scan (the
        fault campaigns' model-attack surface, mirroring
        ``HDFacePipeline.predict(model=)``): a ``(n_classes, D)`` matrix
        for the dense backend, or a packed model for the packed backend
        (resolved by :meth:`class_model`: a matrix, a
        :class:`~repro.core.packed.PackedClassModel`, or a guarded or
        adapting :class:`~repro.reliability.guard.GuardedClassModel`).

        ``stride`` overrides the scan stride for this call only (shared /
        perwindow engines; the returned map records the stride actually
        used) - the degradation ladder's coarse-grid rung.

        ``max_words`` caps the packed classification at a word-prefix of
        the model (the ladder's ``word_budget`` dial), whatever the model:
        cascade scans cap their escalation depth, plain packed scans score
        ``similarities(queries, words)`` on the prefix.  Scores at a cap
        are the prefix model's margins.

        A scan is :meth:`scan_many` of one :class:`ScanRequest`.
        """
        return self.scan_many([ScanRequest(scene, stride, max_words, model,
                                           injector)])[0]

    def scan_many(self, requests):
        """Scan every :class:`ScanRequest`; returns their maps in order.

        Bitwise what one :meth:`scan` per request returns.  Packed
        requests without an injector that score the same words of the
        same model are pooled: the Hamming search works row by row, so
        their windows share one ``similarities`` call (on a cascade
        detector, one seed and one refine pass of
        :meth:`~repro.pipeline.cascade.CascadeScanner.scan_many`).
        Assembly still runs per scene through the engine's stored query
        sets.  Every other request runs alone, in request order: the
        dense backend's BLAS summation order depends on the batch shape,
        and an injector may be stateful.
        """
        requests = list(requests)
        out = [None] * len(requests)
        pools = {}
        for i, req in enumerate(requests):
            if self.backend != "packed":
                out[i] = self._scan_alone(req)
                continue
            model = self.class_model(req.model)
            words = self.word_cap(model, req.max_words)
            if req.injector is not None:
                out[i], = self._scan_packed([req], model, words)
            else:
                pools.setdefault((id(model), words),
                                 (model, words, []))[2].append(i)
        for model, words, idxs in pools.values():
            maps = self._scan_packed([requests[i] for i in idxs], model,
                                     words)
            for i, dmap in zip(idxs, maps):
                out[i] = dmap
        return out

    def _scan_packed(self, requests, model, words):
        """Maps of packed ``requests`` from one pooled similarity search."""
        if self.cascade is not None:
            return self.cascade_scanner().scan_many(requests, model, words)
        grids, queries = [], []
        for req in requests:
            scene = np.asarray(req.scene, dtype=np.float64)
            origins, grid = self.origins(scene.shape, req.stride)
            grids.append(grid)
            queries.append(self.engine.window_queries(
                scene, origins, self.window, req.injector))
        n = sum(len(q) for q in queries)
        with self.profiler.stage("classify"):
            sims = model.similarities(
                queries[0] if len(queries) == 1 else np.concatenate(queries),
                words)
        self.profiler.add_profile(
            "classify",
            packed_infer_profile(block_dim(model.dim, 0, words),
                                 model.n_classes) * n,
            items=n,
        )
        return self._maps(sims, requests, grids)

    def _scan_alone(self, req):
        """Dense-backend or legacy scan of one request."""
        scene = np.asarray(req.scene, dtype=np.float64)
        prof = self.profiler
        if req.max_words is not None:
            raise ValueError("max_words requires the packed backend")
        if self.mode == "legacy":
            if req.model is not None:
                raise ValueError("model substitution requires the shared or "
                                 "perwindow engine")
            if req.stride is not None and int(req.stride) != self.stride:
                raise ValueError("stride override requires the shared or "
                                 "perwindow engine")
            with prof.stage("legacy_scan"):
                crops, grid = self.windows(scene)
                sims = self.pipeline.similarities(crops,
                                                  injector=req.injector)
            prof.add_ops("legacy_scan", items=len(crops))
        else:
            origins, grid = self.origins(scene.shape, req.stride)
            queries = self._window_queries(scene, origins, req.injector)
            clf = self.pipeline.classifier if req.model is None \
                else self.pipeline.classifier.with_model(req.model)
            with prof.stage("classify"):
                sims = clf.similarities(queries)
            prof.add_profile(
                "classify",
                hdc_infer_profile(self.pipeline.dim,
                                  self.pipeline.n_classes) * len(origins),
                items=len(origins),
            )
        return self._maps(sims, [req], [grid])[0]

    def _maps(self, sims, requests, grids):
        """Split pooled similarity rows into one map per request."""
        sims = np.atleast_2d(np.asarray(sims))
        face = self.face_class
        margin = sims[:, face] - np.delete(sims, face, axis=1).max(axis=1)
        maps, pos = [], 0
        for req, (n_wy, n_wx) in zip(requests, grids):
            scores = margin[pos:pos + n_wy * n_wx].reshape(n_wy, n_wx)
            pos += n_wy * n_wx
            maps.append(self._detection_map(scores, req.stride))
        return maps

    def _detection_map(self, scores, stride):
        """The :class:`DetectionMap` of a score grid scanned at ``stride``."""
        used = int(stride) if stride else self.stride
        return DetectionMap(scores, scores > 0, used, self.window)


def make_scene(size, face_positions, window, seed_or_rng=None, jitter=0.6):
    """Composite test scene: clutter background with faces at given spots.

    Parameters
    ----------
    size:
        Scene side in pixels.
    face_positions:
        Iterable of (y, x) top-left corners where ``window``-sized faces are
        pasted.
    window:
        Side of each pasted face patch.
    jitter:
        Appearance jitter of the pasted faces.

    Returns
    -------
    (scene, truth):
        The scene in [0, 1] and the list of pasted face rectangles
        ``(y, x, window)`` for ground-truth evaluation.
    """
    rng = as_rng(seed_or_rng)
    scene = draw_nonface(size, rng, kind="smooth")
    truth = []
    for y, x in face_positions:
        if y < 0 or x < 0 or y + window > size or x + window > size:
            raise ValueError(f"face at ({y}, {x}) does not fit the scene")
        scene[y : y + window, x : x + window] = draw_face(
            window, random_face_params(rng, jitter), rng
        )
        truth.append((int(y), int(x), int(window)))
    return scene, truth
