"""Bitwise conformance matrix over every frame-scan route.

The repo's central correctness bar: no matter how a frame is scanned -
dense or packed backend, flat or cascade scan, full precision, a rescan
served from the stored queries, frame-delta reuse or a truncated word
prefix, solo or pooled with other requests in one ``scan_many`` call,
against the plain, a guarded or an adapting class model - the scores
must be bitwise what the matching
backend's reference flat solo scan produces, and the faces found must
be identical to the reference flat dense scan's.  (Dense cosine and
packed Hamming margins are sign-compatible on faces but flip on
near-zero background windows, so cross-backend equality is asserted at
the face level, within-backend equality bitwise.)  Every knob
combination is one parametrized case; the planner section then checks that every
:class:`~repro.pipeline.plan.Plan` the
:class:`~repro.runtime.planner.ExecutionPlanner` emits routes through
:func:`~repro.pipeline.multiscale.execute_plan` bitwise-identically on
all three execution paths (serial, threaded, batch gate) and matches a
hand-rolled per-level reference scan with the same knobs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.pipeline import (HDFacePipeline, PyramidDetector, ScanRequest,
                            SlidingWindowDetector, execute_plan, make_scene)
from repro.pipeline.multiscale import pyramid
from repro.pipeline.plan import Plan
from repro.reliability import AdaptiveGuardedModel, GuardedClassModel
from repro.runtime import ExecutionPlanner

pytestmark = pytest.mark.tier1

DIM = 512            # 8 packed words: room for a real truncation cap
WINDOW = 24
STRIDE = 8
TRUNC_WORDS = 4      # half-width prefix; fixture scenes keep detections

BACKENDS = ("dense", "packed")
SCANS = ("flat", "cascade")
PRECISIONS = ("full", "rescan", "delta", "truncated")
EXECUTIONS = ("solo", "batched")
#: Class models a packed route scores with: the detector's own, or a
#: guarded / adapting wrapper of it passed as ``model=``.
MODELS = ("plain", "guarded", "adaptive")


def route_valid(backend, scan, precision, model):
    """Cascade, word truncation and model wrappers are packed constructs."""
    if backend == "packed":
        return True
    return scan == "flat" and precision != "truncated" and model == "plain"


def route_id(b, s, p, e, m):
    """Plain routes keep the ids they had before the model axis."""
    return f"{b}-{s}-{p}-{e}" + ("" if m == "plain" else f"-{m}")


MATRIX = [pytest.param(b, s, p, e, m, id=route_id(b, s, p, e, m))
          for b in BACKENDS for s in SCANS for p in PRECISIONS
          for e in EXECUTIONS for m in MODELS if route_valid(b, s, p, m)]


@pytest.fixture(scope="module")
def face_pipe(face_data):
    xtr, ytr, _, _ = face_data
    return HDFacePipeline(2, dim=DIM, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=0).fit(xtr, ytr)


SPOTS = [(8, 8), (30, 32)]


@pytest.fixture(scope="module")
def scene_pair():
    """Current frame plus a previous frame with one face shifted.

    Same seed => identical background, so the delta route exercises a
    genuine dirty-rect patch rather than a full recompute.
    """
    scene, _ = make_scene(64, SPOTS, window=WINDOW, seed_or_rng=3)
    prev, _ = make_scene(64, [(12, 8), SPOTS[1]], window=WINDOW,
                         seed_or_rng=3)
    return scene, prev


def faces_found(dmap, spots=SPOTS, window=WINDOW):
    """Indices of ground-truth faces covered by a detected window."""
    found = set()
    for k, (fy, fx) in enumerate(spots):
        for iy, ix in np.argwhere(dmap.detections):
            y, x = dmap.window_origin(int(iy), int(ix))
            if abs(y - fy) <= window // 2 and abs(x - fx) <= window // 2:
                found.add(k)
    return found


def make_detector(pipe, backend, cascade=False):
    kw = {"cascade": {"seed_factor": 1}} if cascade else {}
    return SlidingWindowDetector(pipe, window=WINDOW, stride=STRIDE,
                                 backend=backend, **kw)


@pytest.fixture(scope="module")
def refs(face_pipe, scene_pair):
    """Reference maps: flat solo full scans, one per (backend, cap)."""
    scene, _ = scene_pair
    return {
        ("dense", None): make_detector(face_pipe, "dense").scan(scene),
        ("packed", None): make_detector(face_pipe, "packed").scan(scene),
        ("packed", TRUNC_WORDS): make_detector(face_pipe, "packed").scan(
            scene, max_words=TRUNC_WORDS),
    }


def class_model(det, kind):
    """The ``model=`` a route scores with (None: the detector's own)."""
    if kind == "guarded":
        return GuardedClassModel(det.packed_model(), seed_or_rng=0)
    if kind == "adaptive":
        return AdaptiveGuardedModel(det.packed_model(), seed_or_rng=0)
    return None


def run_route(pipe, backend, scan, precision, execution, model_kind, scene,
              prev):
    det = make_detector(pipe, backend, cascade=(scan == "cascade"))
    model = class_model(det, model_kind)
    max_words = TRUNC_WORDS if precision == "truncated" else None
    if precision == "rescan":
        # the first scan stores the assembled queries; the scan below is
        # served from that store
        det.scan(scene)
    if precision == "delta":
        # warm the engine on the previous frame, then patch toward the
        # current one - the scan below must hit the patched cache entry
        det.scan(prev)
        stats = det.engine.delta_update(prev, scene)
        assert stats["mode"] == "patched"
    if execution == "batched":
        # pooled: the route's request shares one scan_many call with a
        # second scene at another stride (same model and words, so the
        # same pool) and, on packed routes, a request at another word cap
        requests = [ScanRequest(prev, stride=STRIDE // 2, max_words=max_words,
                                model=model),
                    ScanRequest(scene, max_words=max_words, model=model)]
        if backend == "packed":
            requests.append(ScanRequest(scene, max_words=TRUNC_WORDS // 2,
                                        model=model))
        return det.scan_many(requests)[1]
    return det.scan(scene, max_words=max_words, model=model)


class TestRouteMatrix:
    def test_fixture_detects_on_every_reference(self, refs):
        # the matrix is vacuous unless both pasted faces are found by
        # every reference - dense, packed, and the truncated prefix
        for ref in refs.values():
            assert faces_found(ref) == {0, 1}

    @pytest.mark.parametrize(
        "backend,scan,precision,execution,model_kind", MATRIX)
    def test_route_matches_reference(self, face_pipe, scene_pair, refs,
                                     backend, scan, precision, execution,
                                     model_kind):
        scene, prev = scene_pair
        got = run_route(face_pipe, backend, scan, precision, execution,
                        model_kind, scene, prev)
        dense_ref = refs[("dense", None)]
        cap = TRUNC_WORDS if precision == "truncated" else None
        # every model wrapper is compared with the plain reference at the
        # same cap: a clean guard scores bitwise what its base scores
        want = refs[(backend, cap)]
        # the universal bar: the same faces as the flat dense reference
        assert faces_found(got) == faces_found(dense_ref) == {0, 1}
        assert got.stride == want.stride and got.window == want.window
        # within-backend: the detection set is bitwise the reference's
        np.testing.assert_array_equal(got.detections, want.detections)
        if scan == "cascade":
            # full-grid uncalibrated cascade: survivors carry the exact
            # full-depth margin; rejected windows carry a <= 0 prefix
            # margin (the early exit is the whole point)
            np.testing.assert_array_equal(got.scores[want.detections],
                                          want.scores[want.detections])
            assert (got.scores[~want.detections] <= 0.0).all()
        else:
            np.testing.assert_array_equal(got.scores, want.scores)

    def test_dense_rejects_truncation(self, face_pipe, scene_pair):
        scene, _ = scene_pair
        det = make_detector(face_pipe, "dense")
        with pytest.raises(ValueError, match="packed"):
            det.scan(scene, max_words=TRUNC_WORDS)

    def test_dense_rejects_cascade(self, face_pipe):
        with pytest.raises(ValueError):
            make_detector(face_pipe, "dense", cascade=True)


def plan_key(plan):
    """Identity of a plan's knobs (names are presentation only)."""
    d = plan.to_dict()
    d.pop("name")
    return tuple(sorted(d.items()))


class TestPlannerPlansConform:
    """Every planner-emitted Plan passes the conformance bar."""

    @pytest.fixture(scope="class")
    def pyramid_detector(self, face_pipe):
        det = make_detector(face_pipe, "packed")
        return PyramidDetector(det, score_threshold=0.0)

    @pytest.fixture(scope="class")
    def planner_plans(self, pyramid_detector):
        planner = ExecutionPlanner.from_detector(pyramid_detector,
                                                 frame_shape=(64, 64))
        budgets = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1.0)
        plans, seen = [], set()
        for i, budget in enumerate(budgets):
            plan = planner.plan(budget, frame_shape=(64, 64), name=f"b{i}")
            if plan_key(plan) not in seen:
                seen.add(plan_key(plan))
                plans.append(plan)
        # the sweep must actually exercise distinct operating points
        assert len(plans) >= 2
        return plans

    def test_plans_route_identically_on_all_paths(self, pyramid_detector,
                                                  planner_plans, scene_pair):
        scene, _ = scene_pair
        base = pyramid_detector.detector
        for plan in planner_plans:
            serial = execute_plan(pyramid_detector, scene,
                                  replace(plan, workers=1))
            threaded = execute_plan(pyramid_detector, scene,
                                    replace(plan, workers=2))
            batched = execute_plan(
                pyramid_detector, scene, plan,
                batch_scan=lambda reqs, cancel: base.scan_many(reqs))
            # Detection is a frozen float dataclass: == is bitwise
            assert serial == threaded, plan.describe()
            assert serial == batched, plan.describe()

    def test_plans_match_hand_rolled_reference(self, pyramid_detector,
                                               planner_plans, scene_pair):
        scene, _ = scene_pair
        base = pyramid_detector.detector
        for plan in planner_plans:
            got = execute_plan(pyramid_detector, scene, plan)
            levels = list(pyramid(scene, pyramid_detector.scale_step,
                                  min_size=WINDOW))
            if plan.max_levels is not None:
                levels = levels[: plan.max_levels]
            maps = [base.scan(level, stride=plan.stride_for(i),
                              max_words=plan.max_words)
                    for i, (level, _) in enumerate(levels)]
            want = pyramid_detector.collect(levels, maps)
            assert got == want, plan.describe()

    def test_adhoc_detect_is_a_plan(self, pyramid_detector, scene_pair):
        # PyramidDetector.detect's knob surface is now a Plan through the
        # same code path - spot-check the translation
        scene, _ = scene_pair
        via_detect = pyramid_detector.detect(scene, stride=STRIDE,
                                             max_words=TRUNC_WORDS)
        via_plan = execute_plan(
            pyramid_detector, scene,
            Plan(backend="packed", engine="shared", stride=STRIDE,
                 max_words=TRUNC_WORDS))
        assert via_detect == via_plan

    def test_plan_backend_mismatch_rejected(self, face_pipe, scene_pair):
        scene, _ = scene_pair
        pyr = PyramidDetector(make_detector(face_pipe, "dense"))
        with pytest.raises(ValueError, match="backend"):
            execute_plan(pyr, scene, Plan(backend="packed"))
        with pytest.raises(ValueError, match="engine"):
            execute_plan(pyr, scene, Plan(backend="dense", engine="legacy"))
