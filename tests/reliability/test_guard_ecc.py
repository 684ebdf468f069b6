"""Tests for the ``check="ecc"`` guarded-model repair ladder.

ECC mode replaces R-way modular redundancy with a single replica plus a
SEC-DED parity sidecar and a graded repair ladder: ECC-correct ->
counter-rematerialize -> replica-vote -> degrade.  Every rung's outcome
is digest-verified, so nothing wrong is ever silently re-adopted.
"""

import numpy as np
import pytest

from repro.core.hypervector import pack_bits, random_hypervector
from repro.core.packed import PackedClassModel
from repro.reliability import (
    REPAIR_RUNGS,
    AdaptiveGuardedModel,
    GuardedClassModel,
)

DIM, K = 257, 4


def make_guard(replicas=1, seed=0, **kwargs):
    base = PackedClassModel(random_hypervector(DIM, seed, shape=(K,)))
    return GuardedClassModel(base, replicas=replicas, check="ecc",
                             seed_or_rng=seed, **kwargs)


class TestFootprint:
    def test_single_replica_ecc_beats_tmr_bytes(self):
        ecc = make_guard(replicas=1)
        tmr = GuardedClassModel(
            PackedClassModel(random_hypervector(DIM, 0, shape=(K,))),
            replicas=3, check="checksum", seed_or_rng=0)
        assert tmr.nbytes / ecc.nbytes >= 2.5

    def test_parity_sidecar_is_one_byte_per_word(self):
        guard = make_guard(replicas=1)
        words = (DIM + 63) // 64
        assert guard.nbytes == K * words * 8 + K * words

    def test_rung_vocabulary(self):
        guard = make_guard()
        assert set(guard.rungs) == set(REPAIR_RUNGS)
        assert REPAIR_RUNGS == ("ecc", "remat", "vote", "degrade")


class TestLadder:
    def test_single_bit_flip_lands_on_ecc_rung(self):
        guard = make_guard(replicas=1)
        golden = guard.replicas.copy()
        guard.replicas[0, 2, 0] ^= np.uint64(1 << 13)
        assert guard.scrub() == 1
        assert np.array_equal(guard.replicas, golden)
        assert guard.rungs["ecc"] == 1
        assert guard.repaired == 1 and guard.unrepairable == 0

    def test_multi_bit_error_falls_through_to_vote_with_replicas(self):
        guard = make_guard(replicas=3)
        golden = guard.replicas.copy()
        guard.replicas[1, 0, 0] ^= np.uint64(0b111)  # 3 flips: ECC aliases
        assert guard.scrub() >= 1
        assert np.array_equal(guard.replicas, golden)
        assert guard.rungs["vote"] >= 1
        assert guard.unrepairable == 0

    def test_single_replica_unrepairable_degrades_not_silent(self):
        guard = make_guard(replicas=1)
        guard.replicas[0, 1, 0] ^= np.uint64(0b111)  # no vote partner
        assert guard.scrub() >= 1
        assert guard.unrepairable == 1
        assert guard.degraded_classes == {1}
        assert guard.rungs["degrade"] == 1
        # degraded row became the new reference: next scrub is clean
        assert guard.scrub() == 0

    def test_parity_refreshed_after_vote_repair(self):
        guard = make_guard(replicas=3)
        guard.replicas[2, 3, 0] ^= np.uint64(0b111)
        guard.scrub()
        # repaired row must pass a fresh ECC check against its sidecar
        assert guard.scrub() == 0


class TestAdaptiveRematRung:
    def make_adaptive(self, replicas=1):
        rng = np.random.default_rng(0)
        rows = random_hypervector(DIM, 1, shape=(K,))
        base = PackedClassModel(rows)
        guard = AdaptiveGuardedModel(base, replicas=replicas, check="ecc",
                                     seed_or_rng=2)
        return guard

    def test_multi_bit_error_repaired_by_counter_remat(self):
        guard = self.make_adaptive(replicas=1)
        golden = guard.replicas.copy()
        guard.replicas[0, 0, 0] ^= np.uint64(0b111)  # beyond SEC-DED
        assert guard.scrub() >= 1
        assert np.array_equal(guard.replicas, golden)
        assert guard.rungs["remat"] >= 1
        assert guard.unrepairable == 0


class TestInferenceStaysCorrect:
    def test_scores_equal_unguarded_after_ecc_repair(self):
        base = PackedClassModel(random_hypervector(DIM, 3, shape=(K,)))
        guard = make_guard(replicas=1, seed=3)
        queries = pack_bits(random_hypervector(DIM, 4, shape=(16,)))
        clean = base.predict(queries)
        guard.replicas[0, 0, 0] ^= np.uint64(1 << 5)
        assert np.array_equal(guard.predict(queries), clean)
        assert guard.rungs["ecc"] >= 1
