"""Checkpoint/restore round-trip tests.

The contract is *exactness*: ``save -> restore -> snapshot`` reproduces
the saved state bitwise, and a restored runtime serves the same frame
tail with identical detections to the runtime it was cloned from.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hypervector import random_hypervector
from repro.core.packed import PackedClassModel
from repro.learning.online import OnlineUpdate
from repro.reliability import AdaptiveGuardedModel
from repro.runtime import (
    CheckpointVersionError,
    load_model_state,
    load_runtime_state,
    model_state,
    restore_model,
    restore_runtime,
    runtime_state,
    save_model,
    save_runtime,
)

# float32-width values round-trip float64 storage exactly
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
track_row = st.tuples(st.integers(0, 1000), finite, finite,
                      st.floats(1.0, 100.0, width=32), finite,
                      st.integers(0, 50), st.integers(0, 50),
                      st.integers(0, 50), st.integers(0, 1))


def _snapshot_state(n_tracks=2, rung=1, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "version": 2,
        "tracks": [[i, float(rng.random()), float(rng.random()), 24.0,
                    float(rng.random()), 3, 1, 4, 1]
                   for i in range(n_tracks)],
        "tracker_next_id": n_tracks,
        "tracker_frames": 7,
        "rung": rung,
        "over_run": 1,
        "under_run": 0,
        "deadline_misses": 5,
        "next_index": 7,
        "frames_in": 9,
        "frames_done": 7,
        "predicted": 2,
        "cancelled": 1,
        "crashes": 0,
        "quarantine_passed": 6,
        "quarantine_rejected": {"nan": 1},
    }


class TestStateRoundTrip:
    def test_load_then_snapshot_is_identity(self, make_runtime):
        runtime = make_runtime()
        state = _snapshot_state()
        load_runtime_state(runtime, state)
        assert runtime_state(runtime) == state
        assert runtime.scheduler.current.name == "coarse"
        assert runtime.incidents.counts()["checkpoint_restored"] == 1

    # load_runtime_state overwrites every field it reads back, so reusing
    # one runtime across examples is sound
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(track_row, max_size=4), rung=st.integers(0, 3),
           misses=st.integers(0, 10_000))
    def test_any_state_round_trips_exactly(self, make_runtime, rows, rung,
                                           misses):
        runtime = make_runtime()
        state = _snapshot_state()
        state["tracks"] = [list(r) for r in rows]
        state["rung"] = rung
        state["deadline_misses"] = misses
        load_runtime_state(runtime, state)
        assert runtime_state(runtime) == state

    def test_unknown_version_rejected(self, make_runtime):
        state = _snapshot_state()
        state["version"] = 99
        with pytest.raises(CheckpointVersionError):
            load_runtime_state(make_runtime(), state)

    def test_v1_key_rejected_with_clear_error(self, make_runtime):
        # a v1 payload names its version "format_version": the error must
        # say "unsupported v1", not KeyError on a missing field
        state = _snapshot_state()
        state["format_version"] = state.pop("version") - 1
        with pytest.raises(CheckpointVersionError, match="v1"):
            load_runtime_state(make_runtime(), state)

    def test_missing_version_rejected_with_clear_error(self, make_runtime):
        state = _snapshot_state()
        del state["version"]
        with pytest.raises(CheckpointVersionError, match="version"):
            load_runtime_state(make_runtime(), state)


class TestFileRoundTrip:
    def test_save_restore_save_is_bitwise(self, make_runtime, video,
                                          tmp_path):
        frames, _ = video
        runtime = make_runtime()
        list(runtime.run(frames[:3]))
        path = tmp_path / "runtime.npz"
        saved = save_runtime(runtime, path, frame=2)
        assert runtime.incidents.counts()["checkpoint_saved"] == 1

        clone = make_runtime()
        restored = restore_runtime(clone, path)
        assert restored == saved
        assert runtime_state(clone) == saved

    def test_restored_runtime_serves_identical_tail(self, make_runtime,
                                                    video, tmp_path):
        frames, _ = video
        runtime = make_runtime()
        list(runtime.run(frames[:3]))
        path = tmp_path / "runtime.npz"
        save_runtime(runtime, path)
        clone = make_runtime()
        restore_runtime(clone, path)
        # the original continues on its warm delta path; the clone's first
        # tail frame falls back to full extraction - results must still be
        # bitwise identical
        for a, b in zip(runtime.run(frames[3:]), clone.run(frames[3:])):
            assert (a.index, a.mode, a.detections) == \
                (b.index, b.mode, b.detections)
            assert [(t.track_id, t.y, t.x, t.size, t.score)
                    for t in a.tracks] == \
                [(t.track_id, t.y, t.x, t.size, t.score) for t in b.tracks]

    def test_npz_missing_version_raises_checkpoint_error(self, tmp_path):
        # a file that never was a checkpoint must fail on the version
        # gate, not a cryptic KeyError halfway through field reads
        path = tmp_path / "not_a_checkpoint.npz"
        np.savez_compressed(path, tracks=np.zeros((0, 8)))
        with pytest.raises(CheckpointVersionError, match="version"):
            restore_runtime(None, path)  # fails before touching runtime

    def test_tracks_survive_with_lifecycle_counters(self, make_runtime,
                                                    video, tmp_path):
        frames, _ = video
        runtime = make_runtime()
        list(runtime.run(frames))
        assert runtime.tracker.tracks, "the clip should produce a track"
        path = tmp_path / "runtime.npz"
        save_runtime(runtime, path)
        clone = make_runtime()
        restore_runtime(clone, path)
        for a, b in zip(runtime.tracker.tracks, clone.tracker.tracks):
            assert (a.track_id, a.hits, a.misses, a.age, a.confirmed) == \
                (b.track_id, b.hits, b.misses, b.age, b.confirmed)
            assert (a.y, a.x, a.size, a.score) == (b.y, b.x, b.size, b.score)


def _adaptive(dim=512, n_classes=3, seed=0, **kw):
    base = PackedClassModel(random_hypervector(dim, seed, shape=(n_classes,)))
    kw.setdefault("prior", 4)
    kw.setdefault("max_step_frac", 0.08)
    return base, AdaptiveGuardedModel(base, seed_or_rng=seed, **kw)


def _drift_update(model, label, n=5, seed=0):
    from repro.core.hypervector import pack_bits, unpack_bits
    rng = np.random.default_rng(seed)
    row = unpack_bits(np.asarray(model.replicas[0, label]), model.dim)
    flips = rng.random(model.dim) < 0.03
    row[flips] = -row[flips]
    return OnlineUpdate(label, pack_bits(np.repeat(row[None], n, axis=0)))


class TestModelCheckpoint:
    def test_state_snapshot_restores_bitwise(self):
        _, model = _adaptive()
        model.propose(_drift_update(model, 0, seed=1))
        snap = model_state(model)
        want = model.replicas.copy()
        model.propose(_drift_update(model, 1, seed=2))
        load_model_state(model, snap)
        assert np.array_equal(model.replicas, want)
        assert model.scrub() == 0
        # a fresh snapshot of the restored model matches the original
        again = model_state(model)
        assert np.array_equal(again["replicas"], snap["replicas"])
        assert again["golden"] == snap["golden"]

    def test_save_restore_save_is_bitwise(self, tmp_path):
        base, model = _adaptive()
        model.propose(_drift_update(model, 0, seed=3))
        model.propose(OnlineUpdate(1, np.zeros((60, model.n_words),
                                               dtype=np.uint64)))  # rejected
        path = tmp_path / "model.npz"
        saved = save_model(model, path)
        assert saved["applied"] == 1 and saved["rejected"] == 1

        _, clone = _adaptive()
        restored = restore_model(clone, path)
        assert np.array_equal(restored["replicas"], saved["replicas"])
        assert np.array_equal(clone.replicas, model.replicas)
        assert clone.applied == 1 and clone.rejected == 1
        for a, b in zip(clone.counters, model.counters):
            assert np.array_equal(a.materialize(), b.materialize())
        queries = random_hypervector(model.dim, 9, shape=(8,))
        from repro.core.hypervector import pack_bits
        packed = pack_bits(queries)
        assert np.array_equal(clone.distances(packed),
                              model.distances(packed))

    def test_model_version_mismatch_rejected(self):
        _, model = _adaptive()
        snap = model_state(model)
        snap["version"] = 99
        with pytest.raises(CheckpointVersionError):
            load_model_state(model, snap)

    def test_model_file_missing_version_rejected(self, tmp_path):
        path = tmp_path / "bad_model.npz"
        np.savez_compressed(path, replicas=np.zeros((3, 2, 8),
                                                    dtype=np.uint64))
        _, model = _adaptive()
        with pytest.raises(CheckpointVersionError, match="version"):
            restore_model(model, path)
