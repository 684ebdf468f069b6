"""Cross-stream window batching: many scenes, one packed classification.

The packed backend's primitives are all *per-window-row* reductions:
:func:`~repro.core.packed.packed_majority` votes each window's bit-plane
counters independently, and
:meth:`~repro.core.packed.PackedScoring.distance_block` /
``similarities`` reduce each query row against the model on its own.
Concatenating the windows of many scenes into one matrix and running one
majority + one XOR+popcount pass is therefore *bitwise identical* to
scanning each scene separately - but amortizes the fixed per-call cost
(Python dispatch, the bit-plane loop, small-array overhead of the late
cascade stages) across every stream on the machine.  That is the
fleet serving runtime's headline optimization, and the primitive-
saturation argument of the HDC acceleration literature: the Hamming
datapath only pays off when its batches are large.

:class:`CrossStreamBatcher` exposes one entry point, :meth:`scan_many`:
a list of :class:`ScanRequest`\\ s (one per stream frame pyramid level)
comes back as the exact :class:`~repro.pipeline.detector.DetectionMap`
list that per-request :meth:`~repro.pipeline.detector.
SlidingWindowDetector.scan` calls would produce.  Three routes keep that
contract:

* **flat packed** - full-width scans (scored on a word prefix under a
  word budget) gather their bound-but-unbundled features per scene
  (:meth:`~repro.pipeline.engine.SharedFeatureEngine.window_gather`),
  concatenate, and share one majority + one ``similarities`` call.
* **batched cascade** - scans routed through the
  :class:`~repro.pipeline.cascade.CascadeScanner` reuse its exact seed /
  refine / stage plans per scene, but pool every scene's live windows
  into one gather + majority + ``distance_block`` per stage: stage-0
  batches across streams, survivors escalate together.
* **solo fallback** - the dense backend's float matmul is BLAS-blocked
  (shape-dependent summation order, not concatenation-safe) and
  injectors may be stateful, so those requests run through the ordinary
  per-scene ``scan`` - correctness first, batching where it is free.

Requests are grouped by (class model, scored words); different strides
and scene sizes batch together freely since every row knows its scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.packed import block_dim, packed_majority
from ..hardware.opcount import (
    batched_stage_profile,
    packed_assemble_profile,
    packed_infer_profile,
)
from .cascade import FLOOR_SCORE
from .detector import DetectionMap

__all__ = ["ScanRequest", "CrossStreamBatcher"]


@dataclass
class ScanRequest:
    """One deferred ``SlidingWindowDetector.scan`` call.

    Field-for-field the keyword surface of :meth:`~repro.pipeline.
    detector.SlidingWindowDetector.scan`; the batcher guarantees the
    result is bitwise what that call would have returned.
    """

    scene: np.ndarray
    stride: int = None
    max_words: int = None
    model: object = None
    injector: object = None


class CrossStreamBatcher:
    """Batch many streams' window scans through one shared detector.

    Parameters
    ----------
    detector:
        The shared :class:`~repro.pipeline.detector.SlidingWindowDetector`
        every stream scans with (typically constructed on a shared
        :class:`~repro.pipeline.engine.SharedFeatureEngine` so scene
        feature caches are fleet-wide too).  The packed backend batches;
        the dense backend and injector requests fall back to solo scans.

    Thread safety: :meth:`scan_many` may be called concurrently (the
    engine and model are thread-safe and all per-call state is local),
    but the intended topology is one rendezvous thread per fleet
    (:class:`repro.runtime.fleet.BatchGate`) issuing large batches.
    """

    def __init__(self, detector):
        if getattr(detector, "mode", None) != "shared":
            raise ValueError("cross-stream batching requires a shared-engine "
                             "detector")
        self.detector = detector
        self.last_stats = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, req):
        """Which execution path reproduces ``scan`` for this request."""
        det = self.detector
        if det.backend != "packed" or req.injector is not None:
            return "solo"
        return "flat" if det.cascade is None else "cascade"

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def scan_many(self, requests):
        """Scan every request; returns DetectionMaps in request order.

        Equivalent by construction to ``[detector.scan(r.scene,
        injector=r.injector, model=r.model, stride=r.stride,
        max_words=r.max_words) for r in requests]`` - the equivalence
        property test pins this bitwise, cascade included.
        """
        requests = list(requests)
        out = [None] * len(requests)
        groups = {}
        stats = {"requests": len(requests), "solo": 0, "flat": 0,
                 "cascade": 0, "groups": 0, "windows": 0}
        for i, req in enumerate(requests):
            route = self._route(req)
            if route == "solo":
                stats["solo"] += 1
                out[i] = self.detector.scan(
                    req.scene, injector=req.injector, model=req.model,
                    stride=req.stride, max_words=req.max_words)
                continue
            # requests batch together iff they score the same words of
            # the same model
            model = self.detector.class_model(req.model)
            words = self.detector.word_cap(model, req.max_words)
            key = (route, id(model), words)
            groups.setdefault(key, (model, []))[1].append((i, req))
        for (route, _, words), (model, members) in groups.items():
            idxs = [i for i, _ in members]
            reqs = [r for _, r in members]
            stats["groups"] += 1
            stats[route] += len(reqs)
            if route == "flat":
                stats["windows"] += self._scan_flat_group(reqs, idxs, out,
                                                          model, words)
            else:
                stats["windows"] += self._scan_cascade_group(
                    reqs, idxs, out, model, words)
        self.last_stats = stats
        return out

    # ------------------------------------------------------------------
    # flat packed path
    # ------------------------------------------------------------------
    def _scan_flat_group(self, reqs, idxs, out, model, words):
        """One majority + one similarities call for a whole group."""
        det = self.detector
        eng = det.engine
        prof = det.profiler
        ext = det.pipeline.extractor
        plans, flats, valids = [], [], []
        for req in reqs:
            scene = np.asarray(req.scene, dtype=np.float64)
            origins, grid_shape = det.origins(scene.shape, req.stride)
            flat, valid = eng.window_gather(scene, origins, det.window)
            plans.append((req, grid_shape, len(origins)))
            flats.append(flat)
            valids.append(valid)
        n_total = sum(n for _, _, n in plans)
        with prof.stage("batch_assemble"):
            queries = packed_majority(np.concatenate(flats), ext.dim,
                                      valid=np.concatenate(valids))
        prof.add_profile(
            "batch_assemble",
            packed_assemble_profile(det.window, ext.dim,
                                    cell_size=ext.cell_size,
                                    n_bins=ext.n_bins) * n_total,
            items=n_total)
        with prof.stage("batch_classify"):
            sims = model.similarities(queries, words)
        prof.add_profile(
            "batch_classify",
            packed_infer_profile(block_dim(model.dim, 0, words),
                                 model.n_classes) * n_total,
            items=n_total)
        sims = np.atleast_2d(np.asarray(sims))
        face = det.face_class
        margin = sims[:, face] - np.delete(sims, face, axis=1).max(axis=1)
        pos = 0
        for (req, (n_wy, n_wx), n), i in zip(plans, idxs):
            scores = margin[pos:pos + n].reshape(n_wy, n_wx)
            pos += n
            used = int(req.stride) if req.stride else det.stride
            out[i] = DetectionMap(scores, scores > 0, used, det.window)
        return n_total

    # ------------------------------------------------------------------
    # batched cascade path
    # ------------------------------------------------------------------
    def _scan_cascade_group(self, reqs, idxs, out, model, words):
        """Seed + refine passes with cross-scene stage batching.

        Per-scene plans (seed grid, refine neighborhoods, stage
        schedule) come verbatim from the group's
        :class:`~repro.pipeline.cascade.CascadeScanner`; only the
        *execution* of each stage is pooled.
        """
        det = self.detector
        scanner = det.cascade_scanner()
        stages = scanner._effective_stages(model.n_words, words)
        plans = []
        for req in reqs:
            scene = np.asarray(req.scene, dtype=np.float64)
            origins, (n_wy, n_wx) = det.origins(scene.shape, req.stride)
            scores = np.full(n_wy * n_wx, FLOOR_SCORE, dtype=np.float64)
            seed_idx = scanner.seed_indices(n_wy, n_wx)
            dense = seed_idx is None
            if dense:
                seed_idx = np.arange(n_wy * n_wx)
            plans.append({"req": req, "scene": scene, "origins": origins,
                          "shape": (n_wy, n_wx), "scores": scores,
                          "seed_idx": seed_idx, "dense": dense})
        n_windows = 0
        seed_vals = self._batched_pass(
            [(p["scene"], [p["origins"][int(i)] for i in p["seed_idx"]])
             for p in plans], model, stages)
        for p, vals in zip(plans, seed_vals):
            p["scores"][p["seed_idx"]] = vals
            n_windows += vals.size
        refine_plans, refine_items = [], []
        for p in plans:
            if p["dense"]:
                continue
            n_wy, n_wx = p["shape"]
            refine_idx = scanner.refine_indices(p["scores"], p["seed_idx"],
                                                n_wy, n_wx)
            if refine_idx.size:
                p["refine_idx"] = refine_idx
                refine_plans.append(p)
                refine_items.append(
                    (p["scene"],
                     [p["origins"][int(i)] for i in refine_idx]))
        if refine_items:
            refine_vals = self._batched_pass(refine_items, model, stages)
            for p, vals in zip(refine_plans, refine_vals):
                p["scores"][p["refine_idx"]] = vals
                n_windows += vals.size
        for p, i in zip(plans, idxs):
            n_wy, n_wx = p["shape"]
            req = p["req"]
            scores = p["scores"].reshape(n_wy, n_wx)
            used = int(req.stride) if req.stride else det.stride
            out[i] = DetectionMap(scores, scores > 0, used, det.window)
        return n_windows

    def _batched_pass(self, items, model, stages):
        """One escalation ladder over the pooled windows of many scenes.

        ``items`` is ``[(scene, sub_origins), ...]``; returns each item's
        final scores in order.  Mirrors ``CascadeScanner._cascade_pass``
        stage for stage - same anchor-union per scene, same accumulated
        block distances, same thresholds - but every stage runs one
        majority and one ``distance_block`` over all scenes' live rows.
        """
        det = self.detector
        eng = det.engine
        prof = det.profiler
        ext = det.pipeline.extractor
        per = []
        for scene, sub in items:
            ys, xs, _ = eng._anchors(sub, det.window)
            per.append((scene, sub, ys, xs))
        counts = [len(sub) for _, sub, _, _ in per]
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        n_total = int(starts[-1])
        if n_total == 0:
            return [np.empty(0, dtype=np.float64) for _ in per]
        item_of = np.repeat(np.arange(len(per)), counts)
        dim = model.dim
        face = det.face_class
        alive = np.arange(n_total)
        acc = np.zeros((n_total, model.n_classes), dtype=np.int64)
        scores = np.empty(n_total, dtype=np.float64)
        w_prev = 0
        for si, stage in enumerate(stages):
            w1 = stage.words
            flats, valids = [], []
            n_live = 0
            for k, (scene, sub, ys, xs) in enumerate(per):
                rows = alive[item_of[alive] == k]
                if rows.size == 0:
                    continue
                live = [sub[int(j)] for j in rows - starts[k]]
                flat, valid = eng.window_gather(
                    scene, live, det.window, w_prev, w1, anchors=(ys, xs))
                flats.append(flat)
                valids.append(valid)
                n_live += len(live)
            bdim = block_dim(dim, w_prev, w1)
            name = f"batch_cascade_stage{si}"
            with prof.stage(name):
                block = packed_majority(np.concatenate(flats), bdim,
                                        valid=np.concatenate(valids))
                acc[alive] += model.distance_block(block, w_prev, w1)
                pdim = min(64 * w1, dim)
                sims = 1.0 - (2.0 / pdim) * acc[alive]
                margins = (sims[:, face]
                           - np.delete(sims, face, axis=1).max(axis=1))
            if det.cascade_scanner().profile:
                prof.add_profile(
                    name,
                    batched_stage_profile(det.window, dim, w_prev, w1,
                                          n_live,
                                          n_classes=model.n_classes,
                                          cell_size=ext.cell_size,
                                          n_bins=ext.n_bins),
                    items=n_live)
            if si == len(stages) - 1:
                scores[alive] = margins
                break
            keep = margins >= stage.threshold
            scores[alive[~keep]] = margins[~keep]
            alive = alive[keep]
            if alive.size == 0:
                break
            w_prev = w1
        return [scores[starts[k]:starts[k + 1]] for k in range(len(per))]
