"""Tests for the self-repairing guarded class model (reliability/guard.py)."""

import numpy as np
import pytest

from repro.core.hypervector import pack_bits, random_hypervector, unpack_bits
from repro.core.packed import PackedClassModel
from repro.learning.online import OnlineUpdate
from repro.reliability import AdaptiveGuardedModel, GuardedClassModel


def make_model(dim=257, n_classes=4, seed=0):
    return PackedClassModel(random_hypervector(dim, seed, shape=(n_classes,)))


def make_queries(model, n=32, seed=1):
    return pack_bits(random_hypervector(model.dim, seed, shape=(n,)))


def near_votes(base, class_id, n, flip_frac=0.03, seed=0):
    """Packed votes that mostly agree with one class row (gradual drift)."""
    rng = np.random.default_rng(seed)
    row = unpack_bits(base.packed[class_id], base.dim)
    target = row.copy()
    flips = rng.random(base.dim) < flip_frac
    target[flips] = -target[flips]
    return pack_bits(np.repeat(target[None], n, axis=0))


def complement_votes(base, class_id, n):
    """Packed votes opposing every bit of one class row (label poison)."""
    row = unpack_bits(base.packed[class_id], base.dim)
    return pack_bits(np.repeat(-row[None], n, axis=0))


class TestConstruction:
    def test_accepts_packed_model_and_bipolar_matrix(self):
        base = make_model()
        from_packed = GuardedClassModel(base, seed_or_rng=0)
        from_dense = GuardedClassModel(
            random_hypervector(64, 0, shape=(2,)), seed_or_rng=0)
        assert from_packed.n_replicas == 3
        assert from_dense.n_classes == 2

    def test_even_or_nonpositive_replicas_rejected(self):
        base = make_model()
        for bad in (0, 2, 4, -1):
            with pytest.raises(ValueError):
                GuardedClassModel(base, replicas=bad)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            GuardedClassModel(make_model(), check="parity")

    def test_footprint_scales_with_replicas(self):
        base = make_model()
        guarded = GuardedClassModel(base, replicas=5)
        assert guarded.nbytes == 5 * base.nbytes


class TestCleanSemantics:
    def test_matches_unguarded_model_exactly(self):
        base = make_model()
        guarded = GuardedClassModel(base, seed_or_rng=0)
        queries = make_queries(base)
        assert (guarded.distances(queries) == base.distances(queries)).all()
        assert np.allclose(guarded.similarities(queries),
                           base.similarities(queries))
        assert (guarded.predict(queries) == base.predict(queries)).all()

    def test_clean_scrub_detects_nothing(self):
        guarded = GuardedClassModel(make_model(), seed_or_rng=0)
        assert guarded.scrub() == 0
        assert guarded.stats()["detected"] == 0


class TestRepair:
    def test_three_replicas_restore_exact_clean_predictions(self):
        # the acceptance scenario: 5% of one replica's words replaced with
        # garbage; inference through the guard must equal the clean model
        base = make_model(dim=1024, n_classes=3)
        queries = make_queries(base, n=64)
        clean = base.predict(queries)
        guarded = GuardedClassModel(base, replicas=3, seed_or_rng=0)
        corrupted = guarded.corrupt_replica(0, word_rate=0.05, seed_or_rng=7)
        assert corrupted > 0
        assert (guarded.predict(queries) == clean).all()
        assert (guarded.replicas == base.packed[None]).all()  # fully healed
        stats = guarded.stats()
        assert stats["repaired"] > 0 and stats["unrepairable"] == 0
        assert not guarded.degraded_classes

    def test_repair_survives_two_distinct_corrupt_replicas(self):
        # different replicas corrupted in different words: majority still
        # recovers every bit
        base = make_model(dim=512, n_classes=2)
        guarded = GuardedClassModel(base, replicas=3, seed_or_rng=0)
        guarded.corrupt_replica(0, 0.3, seed_or_rng=1)
        guarded.corrupt_replica(2, 0.3, seed_or_rng=2)
        guarded.scrub()
        assert (guarded.replicas == base.packed[None]).all()

    def test_majority_corruption_degrades_gracefully(self):
        # same words trashed identically in 2 of 3 replicas: vote adopts
        # the wrong bits; the class is flagged, inference keeps running
        base = make_model(dim=256, n_classes=2)
        guarded = GuardedClassModel(base, replicas=3, seed_or_rng=0)
        garbage = guarded.replicas[0].copy()
        garbage[0] ^= np.uint64(0xFF)
        guarded.replicas[0] = garbage
        guarded.replicas[1] = garbage
        guarded.scrub()
        assert guarded.degraded_classes == {0}
        assert guarded.stats()["unrepairable"] == 1
        # the voted (wrong) row is now the stable reference: a further
        # scrub is quiet and predictions stay well-formed
        assert guarded.scrub() == 0
        preds = guarded.predict(make_queries(base))
        assert set(np.unique(preds)) <= {0, 1}

    def test_every_scoring_call_scrubs_first(self):
        # corruption landing between calls never reaches a score
        base = make_model(dim=1024, n_classes=2)
        queries = make_queries(base, n=16)
        clean = base.distances(queries)
        guarded = GuardedClassModel(base, replicas=3, seed_or_rng=0)
        for call in range(3):
            guarded.corrupt_replica(0, 0.5, seed_or_rng=call)
            assert (guarded.distances(queries) == clean).all()
        assert guarded.scrubs == 3

    def test_single_replica_is_detection_only(self):
        base = make_model(dim=128, n_classes=2)
        guarded = GuardedClassModel(base, replicas=1, seed_or_rng=0)
        guarded.corrupt_replica(0, 0.5, seed_or_rng=3)
        guarded.scrub()
        assert guarded.stats()["unrepairable"] >= 1
        assert guarded.degraded_classes


class TestCorruptReplica:
    def test_bad_word_rate(self):
        guarded = GuardedClassModel(make_model(), seed_or_rng=0)
        with pytest.raises(ValueError):
            guarded.corrupt_replica(0, 1.5)

    def test_pad_bits_stay_clear(self):
        from repro.core.hypervector import packed_tail_mask
        guarded = GuardedClassModel(make_model(dim=70), seed_or_rng=0)
        guarded.corrupt_replica(1, 1.0, seed_or_rng=0)
        assert (guarded.replicas[1] & ~packed_tail_mask(70) == 0).all()


class TestPackedCompatSurface:
    """Guarded models must walk the same model= paths as PackedClassModel."""

    def test_n_words_matches_base(self):
        base = make_model(dim=257)
        assert GuardedClassModel(base, seed_or_rng=0).n_words == base.n_words

    def test_distance_block_matches_base(self):
        base = make_model(dim=300, n_classes=3)
        guarded = GuardedClassModel(base, seed_or_rng=0)
        queries = make_queries(base, n=8)
        for w0, w1 in [(0, 2), (1, 4), (0, base.n_words), (3, base.n_words)]:
            assert np.array_equal(guarded.distance_block(queries, w0, w1),
                                  base.distance_block(queries, w0, w1))

    def test_distance_block_accepts_block_slices(self):
        base = make_model(dim=300, n_classes=3)
        guarded = GuardedClassModel(base, seed_or_rng=0)
        queries = make_queries(base, n=8)
        assert np.array_equal(guarded.distance_block(queries[:, 1:4], 1, 4),
                              base.distance_block(queries, 1, 4))

    def test_word_prefix_matches_base(self):
        base = make_model(dim=300, n_classes=3)
        queries = make_queries(base, n=8)
        for model in (GuardedClassModel(base, seed_or_rng=0),
                      AdaptiveGuardedModel(base, seed_or_rng=0)):
            for words in range(1, base.n_words + 1):
                assert np.array_equal(model.similarities(queries, words),
                                      base.similarities(queries, words))

    def test_word_prefix_scrubs_corruption(self):
        base = make_model(dim=1024, n_classes=2)
        guarded = GuardedClassModel(base, replicas=3, seed_or_rng=0)
        guarded.corrupt_replica(0, 0.5, seed_or_rng=9)
        queries = make_queries(base, n=4)
        assert np.array_equal(guarded.similarities(queries, 4),
                              base.similarities(queries, 4))
        assert (guarded.replicas == base.packed[None]).all()

    def test_distance_block_scrubs_corruption(self):
        base = make_model(dim=1024, n_classes=2)
        guarded = GuardedClassModel(base, replicas=3, seed_or_rng=0)
        guarded.corrupt_replica(0, 0.5, seed_or_rng=9)
        got = guarded.distance_block(make_queries(base, n=4), 0, 4)
        assert np.array_equal(got, base.distance_block(make_queries(base,
                                                                    n=4),
                                                       0, 4))


class TestAdaptiveClean:
    def test_small_clean_update_is_applied(self):
        base = make_model(dim=1024)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=32)
        votes = near_votes(base, 0, n=4, seed=1)
        verdict = adaptive.propose(OnlineUpdate(0, votes))
        assert verdict["applied"] and verdict["reason"] is None
        assert verdict["diverged"] == []
        assert adaptive.applied == 1 and adaptive.rejected == 0

    def test_committed_update_changes_served_rows_and_stays_scrubbed(self):
        # prior 4, 6 consistent near-votes: the served row moves to the
        # vote target; golden digests follow, so the scrubber is quiet
        base = make_model(dim=1024)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=4,
                                        max_step_frac=0.06)
        votes = near_votes(base, 1, n=6, flip_frac=0.03, seed=2)
        verdict = adaptive.propose(OnlineUpdate(1, votes))
        assert verdict["applied"]
        assert verdict["step_bits"] > 0
        assert not np.array_equal(adaptive.replicas[0, 1], base.packed[1])
        assert adaptive.scrub() == 0
        # served rows stay bitwise equal to the counters' rematerialization
        assert np.array_equal(adaptive.replicas[0],
                              adaptive.counters[0].materialize())

    def test_inference_tracks_committed_updates(self):
        base = make_model(dim=1024)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=4,
                                        max_step_frac=0.06)
        adaptive.propose(OnlineUpdate(0, near_votes(base, 0, 6, seed=3)))
        queries = make_queries(base, n=16)
        direct = adaptive.counters[0].as_model()
        assert np.array_equal(adaptive.distances(queries),
                              direct.distances(queries))

    def test_gradual_drift_keeps_passing(self):
        # many small steps, each within the bound: all commit; the probe
        # set re-anchors after each commit so drift never strands it
        base = make_model(dim=1024)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=4,
                                        max_step_frac=0.06)
        for step in range(8):
            current = adaptive.counters[0].as_model()
            votes = near_votes(current, 0, n=5, flip_frac=0.02,
                               seed=10 + step)
            verdict = adaptive.propose(OnlineUpdate(0, votes))
            assert verdict["applied"], verdict
        assert adaptive.applied == 8

    def test_out_of_range_label_rejected(self):
        adaptive = AdaptiveGuardedModel(make_model(), seed_or_rng=0)
        with pytest.raises(ValueError):
            adaptive.propose(OnlineUpdate(9, make_queries(adaptive, n=2)))


class TestAdaptivePoison:
    def test_label_poison_rejected_and_rows_untouched(self):
        # 2x-prior complement votes would rewrite the whole class row -
        # far past the per-proposal step bound, so the proposal is vetoed
        base = make_model(dim=1024)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=32)
        poison = complement_votes(base, 0, n=64)
        verdict = adaptive.propose(OnlineUpdate(0, poison))
        assert not verdict["applied"]
        assert verdict["reason"] == "step_bound"
        assert verdict["step_bits"] > adaptive.max_step_bits
        assert adaptive.rejected == 1
        # served rows never saw the poison
        assert np.array_equal(adaptive.replicas[0], base.packed)
        assert adaptive.scrub() == 0

    def test_poisoned_replica_outvoted_and_counters_healed(self):
        # the delivery-corruption case: replica 1 receives a poisoned
        # payload; its rematerialized row diverges, the majority outvotes
        # it and its counters are restored from a healthy replica
        base = make_model(dim=1024)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=4,
                                        max_step_frac=0.06)
        clean = near_votes(base, 0, n=6, seed=4)
        poison = complement_votes(base, 0, n=6)
        verdict = adaptive.propose(
            OnlineUpdate(0, clean, replica_payloads={1: poison}))
        assert verdict["diverged"] == [1]
        assert adaptive.outvoted == 1
        assert verdict["applied"]  # the clean majority still commits
        for r in range(adaptive.n_replicas):
            assert np.array_equal(adaptive.counters[r].materialize(),
                                  adaptive.counters[0].materialize())
        assert np.array_equal(adaptive.replicas[0],
                              adaptive.counters[0].materialize())

    def test_rejection_rolls_back_through_state_dict(self):
        # the caller-side contract: snapshot before propose, restore on
        # rejection -> the whole model (counters included) is bitwise back
        base = make_model(dim=1024)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=32)
        adaptive.propose(OnlineUpdate(0, near_votes(base, 0, 4, seed=5)))
        snap = adaptive.state_dict()
        materialized = [cnt.materialize() for cnt in adaptive.counters]
        verdict = adaptive.propose(
            OnlineUpdate(1, complement_votes(base, 1, n=64)))
        assert not verdict["applied"]
        # counters are dirty until the rollback lands
        assert not np.array_equal(adaptive.counters[0].materialize(),
                                  materialized[0])
        adaptive.load_state_dict(snap)
        for cnt, want in zip(adaptive.counters, materialized):
            assert np.array_equal(cnt.materialize(), want)
        assert adaptive.rejected == snap["rejected"]
        assert adaptive.scrub() == 0

    def test_probe_check_rejects_class_collapse(self):
        # two near-identical classes: pulling class 0 onto class 1 within
        # the step bound still strands class 1's probes -> probe veto
        bip = random_hypervector(1024, 3, shape=(2,))
        bip[1] = bip[0]
        flip = np.zeros(1024, dtype=bool)
        flip[:40] = True
        bip[1, flip] = -bip[1, flip]
        base = PackedClassModel(bip)
        adaptive = AdaptiveGuardedModel(base, seed_or_rng=0, prior=2,
                                        max_step_frac=0.08,
                                        probe_flip=0.004)
        votes = pack_bits(np.repeat(
            unpack_bits(base.packed[1], 1024)[None], 4, axis=0))
        verdict = adaptive.propose(OnlineUpdate(0, votes))
        assert not verdict["applied"]
        assert verdict["reason"] == "probe_check"


class TestAdaptiveStats:
    def test_stats_extend_guard_counters(self):
        adaptive = AdaptiveGuardedModel(make_model(dim=512), seed_or_rng=0,
                                        prior=4, max_step_frac=0.06)
        base = adaptive.counters[0].as_model()
        adaptive.propose(OnlineUpdate(0, near_votes(base, 0, 5, seed=6)))
        adaptive.propose(OnlineUpdate(1, complement_votes(base, 1, 16)))
        stats = adaptive.stats()
        assert stats["updates_applied"] == 1
        assert stats["updates_rejected"] == 1
        assert stats["replicas_outvoted"] == 0
        assert "detected" in stats and "degraded_classes" in stats
        assert stats["max_step_bits"] == adaptive.max_step_bits
