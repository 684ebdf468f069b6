"""Tests for the workload operation profiles."""

import pytest

from repro.hardware.opcount import (
    OperationProfile,
    dnn_forward_profile,
    dnn_training_profile,
    encoder_profile,
    hd_hog_profile,
    hdc_infer_profile,
    hdc_learn_profile,
    hog_profile,
)


class TestOperationProfile:
    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            OperationProfile({"bogus": 1.0})

    def test_addition_merges(self):
        a = OperationProfile({"bit": 10, "fp_mul": 5})
        b = OperationProfile({"bit": 1, "int_add": 2})
        c = a + b
        assert c.get("bit") == 11 and c.get("int_add") == 2 and c.get("fp_mul") == 5

    def test_scaling(self):
        p = OperationProfile({"bit": 3}) * 4
        assert p.get("bit") == 12

    def test_zero_counts_dropped(self):
        p = OperationProfile({"bit": 0, "fp_mul": 1})
        assert "bit" not in p.counts

    def test_total_ops_excludes_memory(self):
        p = OperationProfile({"bit": 5, "mem_bytes": 100})
        assert p.total_ops() == 5


class TestHDHOGProfile:
    def test_scales_linearly_with_pixels(self):
        small = hd_hog_profile((16, 16), 1024)
        big = hd_hog_profile((32, 32), 1024)
        assert big.get("bit") == pytest.approx(4 * small.get("bit"), rel=0.15)

    def test_scales_linearly_with_dim(self):
        d1 = hd_hog_profile((16, 16), 1024)
        d4 = hd_hog_profile((16, 16), 4096)
        assert d4.get("bit") == pytest.approx(4 * d1.get("bit"), rel=0.1)

    def test_l1_cheaper_than_l2(self):
        l1 = hd_hog_profile((16, 16), 1024, magnitude="l1", gamma=False)
        l2 = hd_hog_profile((16, 16), 1024, magnitude="l2_scaled", gamma=False)
        assert l1.total_ops() < l2.total_ops()

    def test_no_float_ops(self):
        prof = hd_hog_profile((16, 16), 1024)
        assert prof.get("fp_mul") == 0 and prof.get("fp_atan") == 0

    def test_gamma_adds_sqrt_cost(self):
        plain = hd_hog_profile((16, 16), 1024, magnitude="l1", gamma=False)
        gamma = hd_hog_profile((16, 16), 1024, magnitude="l1", gamma=True)
        assert gamma.total_ops() > plain.total_ops()


class TestHOGProfile:
    def test_uses_transcendentals(self):
        prof = hog_profile((32, 32))
        assert prof.get("fp_atan") == 32 * 32
        assert prof.get("fp_sqrt") > 0

    def test_no_binary_ops(self):
        assert hog_profile((16, 16)).get("bit") == 0


class TestDNNProfiles:
    def test_forward_mac_count(self):
        prof = dnn_forward_profile((10, 20, 5))
        assert prof.get("fp_mul") == 10 * 20 + 20 * 5

    def test_training_about_3x_forward(self):
        fwd = dnn_forward_profile((100, 50, 10))
        train = dnn_training_profile((100, 50, 10))
        assert 2.5 < train.get("fp_mul") / fwd.get("fp_mul") < 3.6


class TestHDCProfiles:
    def test_learn_more_expensive_than_infer(self):
        learn = hdc_learn_profile(4096, 2)
        infer = hdc_infer_profile(4096, 2)
        assert learn.total_ops() > infer.total_ops()

    def test_scales_with_classes(self):
        two = hdc_infer_profile(1024, 2)
        seven = hdc_infer_profile(1024, 7)
        assert seven.get("int_add") > two.get("int_add")

    def test_encoder_dominated_by_projection(self):
        prof = encoder_profile(4096, 288)
        assert prof.get("fp_mul") == 4096 * 288


class TestLevelIDEncoderProfile:
    def test_binary_encoder_has_no_float_ops(self):
        from repro.hardware.opcount import levelid_encoder_profile
        prof = levelid_encoder_profile(4096, 288)
        assert prof.get("fp_mul") == 0 and prof.get("fp_atan") == 0
        assert prof.get("bit") == 4096 * 288

    def test_binary_encoder_cheaper_than_nonlinear(self):
        from repro.hardware.opcount import encoder_profile, levelid_encoder_profile
        from repro.hardware.platforms import CORTEX_A53
        cos_t = CORTEX_A53.time(encoder_profile(4096, 288))
        bin_t = CORTEX_A53.time(levelid_encoder_profile(4096, 288))
        assert bin_t < cos_t


class TestDetectionProfiles:
    def test_fields_plus_aggregate_compose_to_full(self):
        from repro.hardware.opcount import (
            hd_hog_aggregate_profile,
            hd_hog_fields_profile,
        )
        full = hd_hog_profile((24, 24), 2048)
        parts = (hd_hog_fields_profile((24, 24), 2048)
                 + hd_hog_aggregate_profile((24, 24), 2048))
        assert parts.counts == full.counts

    def test_shared_cheaper_than_perwindow_when_overlapping(self):
        from repro.hardware.opcount import (
            perwindow_detection_profile,
            shared_detection_profile,
        )
        shared = shared_detection_profile((96, 96), 24, 6, 2048)
        perwin = perwindow_detection_profile((96, 96), 24, 6, 2048)
        assert shared.total_ops() < perwin.total_ops() / 5

    def test_scene_smaller_than_window_rejected(self):
        from repro.hardware.opcount import shared_detection_profile
        with pytest.raises(ValueError):
            shared_detection_profile((16, 16), 24, 8, 1024)


class TestIncrementalExtractProfile:
    def test_small_delta_far_cheaper_than_full_extraction(self):
        from repro.hardware.opcount import (
            incremental_extract_profile,
            shared_detection_profile,
        )
        # a 26x26 dirty patch on a 128px frame (~4% of pixels)
        inc = incremental_extract_profile((128, 128), (26, 26), 2048)
        full = shared_detection_profile((128, 128), 24, 8, 2048)
        assert inc.total_ops() < full.total_ops() / 5

    def test_cost_grows_with_dirty_area(self):
        from repro.hardware.opcount import incremental_extract_profile
        small = incremental_extract_profile((96, 96), (16, 16), 1024)
        large = incremental_extract_profile((96, 96), (64, 64), 1024)
        assert small.total_ops() < large.total_ops()

    def test_empty_delta_prices_only_the_diff(self):
        from repro.hardware.opcount import incremental_extract_profile
        prof = incremental_extract_profile((64, 64), (0, 0), 1024)
        assert prof.get("int_add") == 64 * 64
        assert prof.get("bit") == 0 and prof.get("rng_bit") == 0
        assert prof.get("mem_bytes") == 16 * 64 * 64

    def test_whole_frame_delta_covers_fields_cost(self):
        from repro.hardware.opcount import (
            hd_hog_fields_profile,
            incremental_extract_profile,
        )
        inc = incremental_extract_profile((64, 64), (64, 64), 1024)
        fields = hd_hog_fields_profile((64, 64), 1024)
        assert inc.total_ops() > fields.total_ops()

    def test_dirty_rect_must_fit(self):
        from repro.hardware.opcount import incremental_extract_profile
        with pytest.raises(ValueError):
            incremental_extract_profile((48, 48), (64, 8), 1024)


class TestProtectionProfiles:
    def test_scrub_streams_every_replica_word(self):
        from repro.hardware.opcount import scrub_profile
        prof = scrub_profile(4096, 2, replicas=3)
        w = 4096 // 64
        assert prof.get("word64") == 2 * 3 * 2 * w + 3 * 2
        assert prof.get("mem_bytes") == 3 * 2 * (w + 1) * 8

    def test_scrub_with_repair_adds_vote(self):
        from repro.hardware.opcount import replica_vote_profile, scrub_profile
        plain = scrub_profile(4096, 2, replicas=3)
        repair = scrub_profile(4096, 2, replicas=3, repair=True)
        vote = replica_vote_profile(4096, 2, replicas=3)
        assert repair.get("word64") == plain.get("word64") + vote.get("word64")

    def test_vote_cost_grows_with_replicas(self):
        from repro.hardware.opcount import replica_vote_profile
        assert (replica_vote_profile(4096, 2, replicas=5).total_ops()
                > replica_vote_profile(4096, 2, replicas=3).total_ops())

    def test_guarded_infer_adds_one_scrub(self):
        # every guard scrubs before each scoring call
        from repro.hardware.opcount import (
            guarded_infer_profile,
            packed_infer_profile,
            scrub_profile,
        )
        guarded = guarded_infer_profile(4096, 2, replicas=3)
        want = packed_infer_profile(4096, 2) + scrub_profile(4096, 2, 3)
        assert guarded.counts == want.counts


class TestEccProfiles:
    def test_encode_cost_is_linear_in_words(self):
        from repro.hardware.opcount import ecc_encode_profile
        one = ecc_encode_profile(10)
        two = ecc_encode_profile(20)
        for op, count in one.counts.items():
            assert two.counts[op] == count * 2

    def test_scrub_repair_fraction_adds_cost(self):
        from repro.hardware.opcount import ecc_scrub_profile
        patrol = ecc_scrub_profile(64)
        worst = ecc_scrub_profile(64, repair_fraction=1.0)
        assert worst.total_ops() > patrol.total_ops()
        assert "repair" in worst.label and "repair" not in patrol.label

    def test_scrub_rejects_bad_fraction(self):
        from repro.hardware.opcount import ecc_scrub_profile
        with pytest.raises(ValueError):
            ecc_scrub_profile(64, repair_fraction=1.5)

    def test_parity_sidecar_is_one_eighth_of_data_traffic(self):
        from repro.hardware.opcount import ecc_encode_profile
        prof = ecc_encode_profile(100)
        assert prof.counts["mem_bytes"] == 100 * 9  # 8B word + 1B parity


class TestRematProfile:
    def test_rng_bits_scale_with_elements(self):
        from repro.hardware.opcount import remat_profile
        prof = remat_profile(4096)
        assert prof.counts["rng_bit"] == 4096
        assert remat_profile(4096, bits_per_elem=8).counts["rng_bit"] \
            == 4096 * 8

    def test_cheaper_than_keeping_tmr_replicas_scrubbed(self):
        from repro.hardware.opcount import remat_profile, scrub_profile
        # a remat repair of one 4096-bit row costs less than a full
        # 3-replica detection+vote pass over the same model
        remat = remat_profile(4096, elem_bytes=0.125)
        tmr = scrub_profile(4096, 2, replicas=3, repair=True)
        assert remat.total_ops() < tmr.total_ops() * 10


class TestCacheScrubProfile:
    def test_patrol_traffic_includes_parity(self):
        from repro.hardware.opcount import cache_scrub_profile
        prof = cache_scrub_profile(8000)
        assert prof.counts["mem_bytes"] == 8000 * 1.125

    def test_repair_fraction_composes_ecc_pass(self):
        from repro.hardware.opcount import cache_scrub_profile
        patrol = cache_scrub_profile(8000)
        repairing = cache_scrub_profile(8000, repair_fraction=0.25)
        assert repairing.total_ops() > patrol.total_ops()
        with pytest.raises(ValueError):
            cache_scrub_profile(8000, repair_fraction=-0.1)
