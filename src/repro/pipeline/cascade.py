"""Multi-stage cascade scanning: early-exit rejection on word prefixes.

The packed backend scores every window against all ``W = ceil(D / 64)``
words of the class model even though a short word-prefix of a holographic
model already separates faces from clutter - the paper's dimensionality-
scaling observation, exploited defensively by the ladder's word budget
(``similarities(queries, words)`` of :class:`repro.core.packed.
PackedScoring`) and offensively here.
Because the components of a random hypervector are exchangeable, the
Hamming distance over the first ``n`` components concentrates around
``n / D`` times the full-D distance, so a window whose *prefix* margin is
far below zero is overwhelmingly unlikely to have a positive full margin.

:class:`CascadeScanner` turns that into a sublinear scan on both axes of
the window x word product:

* **word axis** - stage 1 assembles and scores only the first ``k1``
  words of every candidate window (one batched XOR+popcount over the
  prefix), rejects windows whose prefix margin falls below a calibrated
  bound, and escalates survivors through wider prefixes to the full
  model.  Escalation is *incremental*: each stage assembles only the new
  word block (:meth:`repro.pipeline.engine.SharedFeatureEngine.
  window_queries_prefix`) and adds its block Hamming distances
  (:meth:`repro.core.packed.PackedScoring.distance_block`) onto the
  accumulated stage-1 popcounts - no word is ever XOR'd or popcounted
  twice.
* **window axis** - *coarse-seed-then-refine*: only every ``seed_factor``-th
  grid position is scanned first, and the dense stride-1 grid is re-scanned
  locally around seeds whose score clears ``-refine_band``.  Windows in
  neither set keep the floor score (never detections).

Rejection thresholds come from :class:`CascadeCalibrator`: either the
``fn_budget``-quantile of the prefix margins of *full-model-accepted*
calibration windows (empirical, clamped to <= 0 so a rejected window can
never out-score the detection threshold), or the distribution-free
Hoeffding bound :func:`hoeffding_threshold` - the analytic fallback that
needs no calibration data.  Calibrations persist as JSON
(:meth:`CascadeCalibration.save`) and ship with the model.

The scanner plugs into the existing stack as a scan mode:
``SlidingWindowDetector(..., cascade=...)`` routes :meth:`~repro.pipeline.
detector.SlidingWindowDetector.scan` through a cascade,
``PyramidDetector.detect(..., max_words=...)`` caps the cascade depth per
call, and the serving ladder's ``word_budget`` rungs shed cascade depth
under load (:func:`repro.runtime.ladder.cascade_ladder`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..hardware.opcount import cascade_stage_profile

__all__ = ["CascadeStage", "CascadeCalibration", "CascadeCalibrator",
           "CascadeScanner", "default_word_schedule", "hoeffding_threshold"]

#: Score assigned to grid positions the coarse-seed pass never visited.
#: The minimum possible margin (similarities live in [-1, 1]), so skipped
#: windows sort below every scored window and are never detections.
FLOOR_SCORE = -2.0


def hoeffding_threshold(n_prefix, fn_budget):
    """Distribution-free rejection threshold for an ``n_prefix``-component
    prefix margin at false-negative budget ``fn_budget``.

    A window the full model accepts has full margin > 0.  The prefix
    margin is the mean of ``n_prefix`` exchangeable per-component margin
    contributions bounded in ``[-2, 2]`` (range 4), so by Hoeffding's
    inequality the probability that the prefix margin of an accepted
    window undershoots its full-D value by more than ``t`` is at most
    ``exp(-2 n t^2 / 16)``.  Solving for ``t`` at ``fn_budget`` gives the
    threshold ``-4 sqrt(ln(1 / fn_budget) / (2 n))``: rejecting prefix
    margins below it drops accepted windows with probability at most
    ``fn_budget`` - with no calibration data at all.
    """
    n = int(n_prefix)
    if n < 1:
        raise ValueError("n_prefix must be at least 1")
    if not 0.0 < fn_budget < 1.0:
        raise ValueError("fn_budget must be in (0, 1)")
    return -4.0 * math.sqrt(math.log(1.0 / fn_budget) / (2.0 * n))


def default_word_schedule(total_words, factor=4, min_words=2):
    """Geometric stage-width schedule ending at the full model width.

    Each stage widens by ``factor``; e.g. 64 words -> ``[4, 16, 64]``.
    A model too narrow to split yields the single full-width stage.
    """
    total = int(total_words)
    if total < 1:
        raise ValueError("total_words must be at least 1")
    sched = [total]
    w = total
    while w // factor >= min_words:
        w //= factor
        sched.append(w)
    return sorted(set(sched))


@dataclass(frozen=True)
class CascadeStage:
    """One rung of the escalation schedule.

    Attributes
    ----------
    words:
        Cumulative model-word budget of this stage: windows surviving it
        have been scored against the first ``words`` words.
    threshold:
        Prefix-margin rejection bound (<= 0): windows whose margin over
        the first ``words`` words falls below it are rejected with their
        prefix margin as the final score.  Must be non-positive so a
        rejected window's score can never clear a detection threshold
        at or above zero.  The final stage's threshold is unused.
    """

    words: int
    threshold: float = 0.0

    def __post_init__(self):
        if int(self.words) < 1:
            raise ValueError("stage words must be at least 1")
        if self.threshold > 0.0:
            raise ValueError(
                f"stage threshold must be <= 0 (got {self.threshold}); a "
                "positive bound could reject windows the full model accepts "
                "at score 0")
        object.__setattr__(self, "words", int(self.words))
        object.__setattr__(self, "threshold", float(self.threshold))


@dataclass(frozen=True)
class CascadeCalibration:
    """A persisted stage schedule with its provenance.

    ``escalation[i]`` is the fraction of calibration windows still alive
    *after* stage ``i`` - the measured escalation rates that
    :func:`repro.hardware.opcount.cascade_scan_profile` prices and the
    tuning guide in ``docs/cascade.md`` reads.
    """

    dim: int
    face_class: int
    fn_budget: float
    method: str
    stages: tuple
    escalation: tuple = ()
    windows: int = 0
    accepted: int = 0
    positives: str = "accepted"

    def to_dict(self):
        return {
            "dim": int(self.dim),
            "face_class": int(self.face_class),
            "fn_budget": float(self.fn_budget),
            "method": self.method,
            "stages": [{"words": s.words, "threshold": s.threshold}
                       for s in self.stages],
            "escalation": [float(e) for e in self.escalation],
            "windows": int(self.windows),
            "accepted": int(self.accepted),
            "positives": self.positives,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            dim=int(data["dim"]),
            face_class=int(data["face_class"]),
            fn_budget=float(data["fn_budget"]),
            method=str(data["method"]),
            stages=tuple(CascadeStage(s["words"], s["threshold"])
                         for s in data["stages"]),
            escalation=tuple(float(e) for e in data.get("escalation", ())),
            windows=int(data.get("windows", 0)),
            accepted=int(data.get("accepted", 0)),
            positives=str(data.get("positives", "accepted")),
        )

    def save(self, path):
        """Write the calibration as JSON (the artifact shipped with a model)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class CascadeCalibrator:
    """Fit per-stage rejection thresholds on held-out scenes.

    Parameters
    ----------
    detector:
        A :class:`~repro.pipeline.detector.SlidingWindowDetector` on the
        shared engine with the packed backend.
    words:
        Ascending cumulative word budgets per stage (default: the
        geometric :func:`default_word_schedule` of the model width).
    fn_budget:
        Per-stage false-negative budget: the calibrated bound drops at
        most this fraction of windows the full model accepts.
    method:
        ``"empirical"`` - the ``fn_budget``-quantile of the accepted
        calibration windows' prefix margins, clamped to <= 0 (tight, needs
        positives in the calibration set; stages without positives fall
        back to the analytic bound).  ``"hoeffding"`` - the
        distribution-free :func:`hoeffding_threshold` (loose but needs no
        data and holds for any input distribution).
    """

    def __init__(self, detector, words=None, fn_budget=0.01,
                 method="empirical"):
        if getattr(detector, "mode", None) != "shared" \
                or getattr(detector, "backend", None) != "packed":
            raise ValueError("cascade calibration requires a shared-engine "
                             "detector with backend='packed'")
        if method not in ("empirical", "hoeffding"):
            raise ValueError(f"unknown method {method!r}; "
                             "expected 'empirical' or 'hoeffding'")
        if not 0.0 < fn_budget < 1.0:
            raise ValueError("fn_budget must be in (0, 1)")
        self.detector = detector
        self.words = None if words is None else sorted(int(w) for w in words)
        self.fn_budget = float(fn_budget)
        self.method = method

    @staticmethod
    def _truth_hits(origins, window, rects, min_overlap=0.9):
        """Boolean mask over ``origins``: window covers a truth rect."""
        hits = np.zeros(len(origins), dtype=bool)
        for i, (y, x) in enumerate(origins):
            for ty, tx, tw in rects:
                oy = max(0, min(y + window, ty + tw) - max(y, ty))
                ox = max(0, min(x + window, tx + tw) - max(x, tx))
                if oy * ox >= min_overlap * window * window:
                    hits[i] = True
                    break
        return hits

    def calibrate(self, scenes, stride=None, model=None, truth=None,
                  min_overlap=0.9):
        """Measure prefix margins over ``scenes`` and fit the thresholds.

        Every window of every scene is assembled at full width once; each
        stage's prefix margin is then recovered from the cumulative block
        distances, so calibration costs one full scan per scene plus
        arithmetic.  Returns a :class:`CascadeCalibration`.

        ``truth`` optionally gives the positives the fn budget protects:
        a list (parallel to ``scenes``) of ``(y, x, size)`` face rects, as
        returned by :func:`~repro.pipeline.detector.make_scene`.  The
        budget then applies to *ground-truth face windows* (at least
        ``min_overlap`` overlap with a rect, and full-model-accepted) -
        the windows detection recall is measured on - instead of every
        full-model-accepted window.  Truth-anchored thresholds are much
        tighter: borderline background windows that happen to clear the
        detection threshold no longer drag the quantile down, so the
        cascade sheds them early at no recall cost.
        """
        det = self.detector
        model = det.class_model(model)
        total = model.n_words
        dim = model.dim
        schedule = self.words or default_word_schedule(total)
        if schedule[-1] > total:
            raise ValueError(f"stage words {schedule[-1]} exceed the model's "
                             f"{total} words")
        if truth is not None and len(truth) != len(scenes):
            raise ValueError(f"truth has {len(truth)} entries for "
                             f"{len(scenes)} scenes")
        face = det.face_class
        per_stage = [[] for _ in schedule]
        hits = [] if truth is not None else None
        for si_scene, scene in enumerate(scenes):
            scene = np.asarray(scene, dtype=np.float64)
            origins, _ = det.origins(scene.shape, stride)
            queries = det.engine.window_queries(scene, origins, det.window)
            if hits is not None:
                hits.append(self._truth_hits(origins, det.window,
                                             truth[si_scene], min_overlap))
            acc = np.zeros((len(origins), model.n_classes), dtype=np.int64)
            w_prev = 0
            for si, w1 in enumerate(schedule):
                acc += model.distance_block(queries, w_prev, w1)
                pdim = min(64 * w1, dim)
                sims = 1.0 - (2.0 / pdim) * acc
                margins = (sims[:, face]
                           - np.delete(sims, face, axis=1).max(axis=1))
                per_stage[si].append(margins)
                w_prev = w1
        per_stage = [np.concatenate(m) for m in per_stage]
        full = per_stage[-1] if schedule[-1] == total else None
        if full is None:
            # schedule stops short of the model: score the remainder too
            raise ValueError("the last stage must cover the full model "
                             f"({total} words) for calibration")
        accepted = full > 0.0
        if hits is not None:
            accepted &= np.concatenate(hits)
        n_acc = int(accepted.sum())
        stages = []
        for si, w1 in enumerate(schedule):
            pdim = min(64 * w1, dim)
            if si == len(schedule) - 1:
                stages.append(CascadeStage(w1, 0.0))
                continue
            if self.method == "empirical" and n_acc > 0:
                thr = min(0.0, float(np.quantile(per_stage[si][accepted],
                                                 self.fn_budget)))
            else:
                thr = hoeffding_threshold(pdim, self.fn_budget)
            stages.append(CascadeStage(w1, thr))
        # measured escalation: fraction of windows alive after each stage
        alive = np.ones(full.shape[0], dtype=bool)
        escalation = []
        for si, stage in enumerate(stages[:-1]):
            alive &= per_stage[si] >= stage.threshold
            escalation.append(float(alive.mean()) if alive.size else 0.0)
        escalation.append(escalation[-1] if escalation else 1.0)
        return CascadeCalibration(
            dim=dim, face_class=face, fn_budget=self.fn_budget,
            method=self.method, stages=tuple(stages),
            escalation=tuple(escalation), windows=int(full.shape[0]),
            accepted=n_acc,
            positives="truth" if truth is not None else "accepted")


class CascadeScanner:
    """Staged early-exit scan over a sliding-window grid.

    Parameters
    ----------
    detector:
        A shared-engine, packed-backend
        :class:`~repro.pipeline.detector.SlidingWindowDetector`.
    calibration:
        A :class:`CascadeCalibration` providing the stage schedule (the
        tight, data-fitted thresholds).
    stages:
        Explicit :class:`CascadeStage` list (overrides ``calibration``).
    fn_budget:
        When neither is given, stages come from
        :func:`default_word_schedule` with analytic
        :func:`hoeffding_threshold` bounds at this budget - a cascade
        that is safe out of the box, just looser than a calibrated one.
    seed_factor:
        Coarse-seed grid spacing in fine-grid steps (1 = scan every
        position; 2 = seed every other row/column and refine locally).
    refine_band:
        A seed whose score exceeds ``-refine_band`` opens its
        ``seed_factor - 1``-neighborhood for the dense re-scan.  Larger
        bands trade extra windows for recall safety on marginal seeds.
    profile:
        Record per-stage op counts on the detector's profiler (stages
        ``cascade_stage{i}``).  On by default; the stage *timings* are
        recorded regardless.

    Thread safety: concurrent :meth:`scan_many` calls (pyramid workers)
    are safe - per-call state is local; :attr:`last_stats` holds the
    most recently completed call's accounting.
    """

    def __init__(self, detector, calibration=None, stages=None,
                 fn_budget=0.01, seed_factor=2, refine_band=0.5,
                 profile=True):
        if getattr(detector, "mode", None) != "shared" \
                or getattr(detector, "backend", None) != "packed":
            raise ValueError("cascade scanning requires a shared-engine "
                             "detector with backend='packed'")
        self.detector = detector
        self.calibration = calibration
        self.fn_budget = float(fn_budget)
        self.seed_factor = int(seed_factor)
        if self.seed_factor < 1:
            raise ValueError("seed_factor must be at least 1")
        self.refine_band = float(refine_band)
        if self.refine_band < 0.0:
            raise ValueError("refine_band must be non-negative")
        self.profile = bool(profile)
        if stages is not None:
            self.stages = [s if isinstance(s, CascadeStage)
                           else CascadeStage(*s) for s in stages]
        elif calibration is not None:
            self.stages = list(calibration.stages)
        else:
            dim = detector.pipeline.extractor.dim
            total = (int(dim) + 63) // 64
            schedule = default_word_schedule(total)
            self.stages = [
                CascadeStage(w, 0.0 if w == schedule[-1]
                             else hoeffding_threshold(min(64 * w, dim),
                                                      self.fn_budget))
                for w in schedule
            ]
        words = [s.words for s in self.stages]
        if words != sorted(set(words)):
            raise ValueError(f"stage words must be strictly increasing, "
                             f"got {words}")
        self.last_stats = None

    def _effective_stages(self, total_words, max_words):
        """Stage schedule clipped to the model width and a word budget.

        Capping replaces the tail of the schedule with one final stage at
        the cap - its margins are exactly the word-prefix margins
        (``similarities(queries, cap)``) at that width, which is how the
        ladder's ``word_budget`` rungs shed depth.
        """
        cap = int(total_words)
        if max_words is not None:
            cap = max(1, min(int(max_words), cap))
        eff = [s for s in self.stages if s.words < cap]
        eff.append(CascadeStage(cap, 0.0))
        return eff

    def seed_indices(self, n_wy, n_wx):
        """Flat indices of the coarse seed grid; None = scan every window.

        Every ``seed_factor``-th row/column plus the last of each, so the
        grid borders are always probed.
        """
        r = self.seed_factor
        if r <= 1 or (n_wy <= r and n_wx <= r):
            return None
        sy = np.unique(np.append(np.arange(0, n_wy, r), n_wy - 1))
        sx = np.unique(np.append(np.arange(0, n_wx, r), n_wx - 1))
        return (sy[:, None] * n_wx + sx[None, :]).ravel()

    def refine_indices(self, scores, seed_idx, n_wy, n_wx):
        """Unvisited neighbors of promising seeds, due for the dense pass.

        A seed scoring above ``-refine_band`` opens its ``seed_factor -
        1``-neighborhood (clipped to the grid); positions already seeded
        are excluded.
        """
        r = self.seed_factor
        visited = np.zeros(n_wy * n_wx, dtype=bool)
        visited[seed_idx] = True
        promising = seed_idx[scores[seed_idx] > -self.refine_band]
        if not promising.size:
            return np.empty(0, dtype=np.int64)
        neigh = np.zeros((n_wy, n_wx), dtype=bool)
        py, px = promising // n_wx, promising % n_wx
        for dy in range(-(r - 1), r):
            for dx in range(-(r - 1), r):
                ny = np.clip(py + dy, 0, n_wy - 1)
                nx = np.clip(px + dx, 0, n_wx - 1)
                neigh[ny, nx] = True
        return np.flatnonzero(neigh.ravel() & ~visited)

    def scan_many(self, requests, model, words):
        """Cascade-classify the window grids of ``requests``; returns one
        :class:`~repro.pipeline.detector.DetectionMap` per request.

        ``requests`` are :class:`~repro.pipeline.detector.ScanRequest`\\ s
        scored on the first ``words`` words of the packed ``model`` (the
        detector resolves both).  Surviving windows carry their exact
        full-model margin (bitwise the packed scan's score); rejected
        windows carry the (<= 0) prefix margin they were rejected at;
        unvisited coarse-grid positions carry :data:`FLOOR_SCORE`.
        ``words`` caps the escalation depth (the degradation ladder's
        dial).

        Each scene keeps its own seed grid and refine neighborhoods, so
        a scene scanned with others visits exactly the windows it visits
        alone; one seed pass and one refine pass pool every scene's live
        windows at each stage.  :attr:`last_stats` sums the accounting of
        the call's scans.
        """
        det = self.detector
        stages = self._effective_stages(model.n_words, words)
        stats = {"stages": [{"words": s.words, "threshold": s.threshold,
                             "evaluated": 0, "rejected": 0}
                            for s in stages],
                 "windows": 0, "seeded": 0, "refined": 0,
                 "skipped": 0, "seed_factor": self.seed_factor}
        scans = []
        for req in requests:
            scene = np.asarray(req.scene, dtype=np.float64)
            origins, shape = det.origins(scene.shape, req.stride)
            seed_idx = self.seed_indices(*shape)
            if seed_idx is None:
                seed_idx = np.arange(shape[0] * shape[1])
            scores = np.full(shape, FLOOR_SCORE, dtype=np.float64)
            scans.append((scene, origins, req.injector, seed_idx, scores))
            stats["windows"] += scores.size
            stats["seeded"] += seed_idx.size
        self._cascade_pass(scans, model, stages, stats)
        refines = []
        for scene, origins, injector, seed_idx, scores in scans:
            refine_idx = self.refine_indices(scores.ravel(), seed_idx,
                                             *scores.shape)
            if refine_idx.size:
                refines.append((scene, origins, injector, refine_idx,
                                scores))
                stats["refined"] += int(refine_idx.size)
        if refines:
            self._cascade_pass(refines, model, stages, stats)
        stats["skipped"] = (stats["windows"] - stats["seeded"]
                            - stats["refined"])
        self.last_stats = stats
        return [det._detection_map(scores, req.stride)
                for (*_, scores), req in zip(scans, requests)]

    def _cascade_pass(self, items, model, stages, stats):
        """Run the escalation ladder over the windows of many scenes.

        ``items`` holds ``(scene, origins, injector, idx, scores)`` per
        scene: the windows at flat indices ``idx`` are scored and their
        final scores written into the flat view of ``scores``.  Each
        stage assembles every scene's live windows from its stored query
        blocks and scores them all in one ``distance_block`` call.
        """
        det = self.detector
        eng = det.engine
        prof = det.profiler
        ext = det.pipeline.extractor
        subs = [[origins[int(i)] for i in idx]
                for _, origins, _, idx, _ in items]
        starts = np.cumsum([0] + [len(sub) for sub in subs])
        # one anchor union per scene for the whole pass, so every stage's
        # prefix assembly hits the same cached cell grid
        anchors = [eng._anchors(sub, det.window)[:2] for sub in subs]
        dim = model.dim
        face = det.face_class
        alive = np.arange(starts[-1])
        acc = np.zeros((alive.size, model.n_classes), dtype=np.int64)
        out = np.empty(alive.size, dtype=np.float64)
        w_prev = 0
        for si, stage in enumerate(stages):
            w1 = stage.words
            bounds = np.searchsorted(alive, starts)
            blocks = []
            for k, (scene, _, injector, _, _) in enumerate(items):
                rows = alive[bounds[k]:bounds[k + 1]] - starts[k]
                if rows.size:
                    blocks.append(eng.window_queries_prefix(
                        scene, [subs[k][j] for j in rows], det.window,
                        w_prev, w1, injector, anchors=anchors[k]))
            block = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            name = f"cascade_stage{si}"
            with prof.stage(name):
                acc[alive] += model.distance_block(block, w_prev, w1)
                pdim = min(64 * w1, dim)
                sims = 1.0 - (2.0 / pdim) * acc[alive]
                margins = (sims[:, face]
                           - np.delete(sims, face, axis=1).max(axis=1))
            if self.profile:
                prof.add_profile(
                    name,
                    cascade_stage_profile(det.window, dim, w_prev, w1,
                                          n_classes=model.n_classes,
                                          cell_size=ext.cell_size,
                                          n_bins=ext.n_bins) * alive.size,
                    items=alive.size)
            st = stats["stages"][si]
            st["evaluated"] += alive.size
            if si == len(stages) - 1:
                out[alive] = margins
                break
            keep = margins >= stage.threshold
            out[alive[~keep]] = margins[~keep]
            st["rejected"] += int((~keep).sum())
            alive = alive[keep]
            if alive.size == 0:
                break
            w_prev = w1
        for k, (_, _, _, idx, scores) in enumerate(items):
            scores.flat[idx] = out[starts[k]:starts[k + 1]]
