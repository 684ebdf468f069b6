"""Tests for the batched packed-domain kernels (core/packed.py).

Every kernel is validated against the dense bipolar computation it
replaces; the hypothesis properties cover awkward dimensionalities (odd
``D``, pad bits) and batch shapes (including empty batches) that fixed
examples tend to miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypervector import (
    pack_bits,
    packed_tail_mask,
    packed_words,
    unpack_bits,
)
from repro.core.packed import (
    PackedClassModel,
    block_dim,
    packed_bind,
    packed_majority,
    packed_nearest,
    pairwise_hamming,
)
from repro.core.hypervector import random_hypervector

dims = st.integers(min_value=1, max_value=200)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def dense_majority(stack, valid=None):
    """Reference: sign of the bipolar column sum, ties -> +1."""
    stack = np.asarray(stack, dtype=np.int64)
    if valid is not None:
        stack = stack * np.asarray(valid, dtype=np.int64)[..., None]
    total = stack.sum(axis=-2)
    return np.where(total >= 0, 1, -1).astype(np.int8)


class TestPackedBind:
    @pytest.mark.parametrize("dim", [64, 65, 100, 4096])
    def test_matches_dense_product(self, dim):
        a = random_hypervector(dim, 0, shape=(3,))
        b = random_hypervector(dim, 1, shape=(3,))
        bound = packed_bind(pack_bits(a), pack_bits(b), dim)
        assert (unpack_bits(bound, dim) == a * b).all()

    def test_pad_bits_stay_zero(self):
        dim = 67
        a, b = random_hypervector(dim, 0), random_hypervector(dim, 1)
        bound = packed_bind(pack_bits(a), pack_bits(b), dim)
        assert (bound & ~packed_tail_mask(dim) == 0).all()

    def test_broadcasts(self):
        dim = 128
        a = pack_bits(random_hypervector(dim, 0, shape=(4,)))
        b = pack_bits(random_hypervector(dim, 1))
        assert packed_bind(a, b, dim).shape == (4, packed_words(dim))


class TestPackedMajority:
    @pytest.mark.parametrize("dim", [64, 65, 100])
    @pytest.mark.parametrize("n_feat", [1, 2, 5, 8])
    def test_matches_dense_sign_sum(self, dim, n_feat):
        stack = random_hypervector(dim, dim + n_feat, shape=(n_feat,))
        out = packed_majority(pack_bits(stack), dim)
        assert (unpack_bits(out, dim) == dense_majority(stack)).all()

    def test_even_count_ties_resolve_positive(self):
        dim = 64
        stack = np.stack([np.ones((dim,), np.int8), -np.ones((dim,), np.int8)])
        out = packed_majority(pack_bits(stack), dim)
        assert (unpack_bits(out, dim) == 1).all()

    def test_valid_mask_matches_dense(self):
        rng = np.random.default_rng(0)
        dim, n_feat = 100, 7
        stack = random_hypervector(dim, 1, shape=(4, n_feat))
        valid = rng.random((4, n_feat)) < 0.6
        out = packed_majority(pack_bits(stack), dim, valid=valid)
        assert (unpack_bits(out, dim) == dense_majority(stack, valid)).all()

    def test_all_invalid_gives_all_positive(self):
        dim = 70
        stack = random_hypervector(dim, 2, shape=(3,))
        valid = np.zeros(3, dtype=bool)
        out = packed_majority(pack_bits(stack), dim, valid=valid)
        assert (unpack_bits(out, dim) == 1).all()

    def test_zero_features_gives_all_positive(self):
        dim = 65
        empty = np.empty((0, dim), dtype=np.int8)
        out = packed_majority(pack_bits(empty).reshape(0, packed_words(dim)),
                              dim)
        assert (unpack_bits(out, dim) == 1).all()

    def test_empty_batch(self):
        dim = 128
        stack = np.empty((0, 5, packed_words(dim)), dtype=np.uint64)
        assert packed_majority(stack, dim).shape == (0, packed_words(dim))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            packed_majority(np.zeros((3, 2), np.uint64), 64)  # 64 needs 1 word
        with pytest.raises(ValueError):
            packed_majority(np.zeros((3, 1), np.uint64), 64,
                            valid=np.ones(4, bool))

    @settings(max_examples=40, deadline=None)
    @given(dim=dims, n_feat=st.integers(min_value=1, max_value=9), seed=seeds)
    def test_property_odd_dims(self, dim, n_feat, seed):
        stack = random_hypervector(dim, seed, shape=(n_feat,))
        out = packed_majority(pack_bits(stack), dim)
        assert (unpack_bits(out, dim) == dense_majority(stack)).all()
        # pads of the result are always clear
        assert (out & ~packed_tail_mask(dim) == 0).all()


class TestRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(dim=dims, seed=seeds)
    def test_pack_unpack_roundtrip(self, dim, seed):
        hv = random_hypervector(dim, seed, shape=(2,))
        assert (unpack_bits(pack_bits(hv), dim) == hv).all()

    @settings(max_examples=25, deadline=None)
    @given(dim=dims)
    def test_empty_batch_roundtrip(self, dim):
        empty = np.empty((0, dim), dtype=np.int8)
        assert unpack_bits(pack_bits(empty), dim).shape == (0, dim)


class TestHammingSearch:
    def test_pairwise_matches_dense(self):
        dim = 100
        q = random_hypervector(dim, 0, shape=(5,))
        m = random_hypervector(dim, 1, shape=(3,))
        dist = pairwise_hamming(pack_bits(q), pack_bits(m), dim=dim)
        expected = (q[:, None, :] != m[None, :, :]).sum(axis=-1)
        assert dist.shape == (5, 3)
        assert (dist == expected).all()

    def test_nearest_matches_dense_argmin(self):
        dim = 256
        q = random_hypervector(dim, 2, shape=(6,))
        m = random_hypervector(dim, 3, shape=(4,))
        labels, dist = packed_nearest(pack_bits(q), pack_bits(m), dim=dim)
        expected = (q[:, None, :] != m[None, :, :]).sum(axis=-1)
        assert (labels == expected.argmin(axis=1)).all()
        assert (dist == expected).all()

    def test_single_query_promotes(self):
        dim = 64
        q = pack_bits(random_hypervector(dim, 0))
        m = pack_bits(random_hypervector(dim, 1, shape=(2,)))
        labels, dist = packed_nearest(q, m, dim=dim)
        assert dist.shape == (1, 2)


class TestPackedClassModel:
    def _fitted(self, dim=512):
        from repro.learning.hdc_classifier import HDCClassifier
        rng = np.random.default_rng(0)
        protos = random_hypervector(dim, rng, shape=(3,)).astype(np.float64)
        y = np.arange(42) % 3
        x = protos[y] + rng.normal(0, 0.5, (42, dim))
        clf = HDCClassifier(n_classes=3, epochs=2, seed_or_rng=0)
        clf.fit(x, y)
        return clf

    def test_matches_binary_engine(self):
        from repro.learning.binary_inference import BinaryHDCEngine
        clf = self._fitted()
        dim = clf.class_hvs_.shape[1]
        model = PackedClassModel.from_classifier(clf)
        engine = BinaryHDCEngine(clf)
        q = random_hypervector(dim, 9, shape=(8,))
        packed_q = pack_bits(q)
        assert (model.distances(packed_q) == engine.distances(q)).all()
        assert (model.predict(packed_q) == engine.predict(q)).all()

    def test_similarities_are_normalized_dot(self):
        clf = self._fitted(dim=256)
        model = PackedClassModel.from_classifier(clf)
        q = random_hypervector(256, 4, shape=(3,))
        sims = model.similarities(pack_bits(q))
        signs = np.sign(clf.class_hvs_)
        signs[signs == 0] = 1
        expected = q.astype(np.float64) @ signs.T / 256.0
        assert np.allclose(sims, expected)

    def test_unfitted_raises(self):
        from repro.learning.hdc_classifier import HDCClassifier
        with pytest.raises(RuntimeError):
            PackedClassModel.from_classifier(
                HDCClassifier(n_classes=2, seed_or_rng=0))

    def test_nbytes_is_packed_footprint(self):
        model = PackedClassModel(random_hypervector(4096, 0, shape=(2,)))
        assert model.nbytes == 2 * (4096 // 64) * 8

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            PackedClassModel(np.ones(64, np.int8))


class TestCorruptedModel:
    def test_original_left_intact(self):
        model = PackedClassModel(random_hypervector(1024, 0, shape=(2,)))
        before = model.packed.copy()
        bad = model.corrupted(0.3, seed_or_rng=0)
        assert (model.packed == before).all()
        assert (bad.packed != before).any()
        assert bad.n_classes == model.n_classes and bad.dim == model.dim

    def test_pad_bits_never_corrupted(self):
        dim = 70
        model = PackedClassModel(random_hypervector(dim, 0, shape=(3,)))
        bad = model.corrupted(1.0, seed_or_rng=0)
        assert (bad.packed & ~packed_tail_mask(dim) == 0).all()

    def test_similarity_degrades_with_rate(self):
        model = PackedClassModel(random_hypervector(4096, 0, shape=(2,)))
        q = pack_bits(random_hypervector(4096, 1))
        drift = [
            np.abs(model.corrupted(rate, 5).similarities(q)
                   - model.similarities(q)).max()
            for rate in (0.0, 0.05, 0.3)
        ]
        assert drift[0] == 0.0
        assert drift[0] < drift[1] < drift[2]


class TestTruncatedClassModel:
    """The truncated class model: a word prefix scored through
    ``similarities(queries, words)``."""

    def _model(self, dim=512, n_classes=3):
        return PackedClassModel(random_hypervector(dim, 0,
                                                   shape=(n_classes,)))

    def test_full_prefix_is_bitwise_identical(self):
        model = self._model()
        q = pack_bits(random_hypervector(512, 1, shape=(16,)))
        full = model.similarities(q, model.n_words)
        assert (full == model.similarities(q)).all()
        assert (model.distance_block(q, 0, model.n_words)
                == model.distances(q)).all()
        assert (full.argmax(axis=1) == model.predict(q)).all()

    def test_full_prefix_identical_with_pad_bits(self):
        # dim 100 leaves 28 pad bits in the last word: the prefix mask
        # must equal the pad mask, not count the pads
        model = self._model(dim=100)
        q = pack_bits(random_hypervector(100, 1, shape=(8,)))
        assert (model.distance_block(q, 0, model.n_words)
                == model.distances(q)).all()
        assert (model.similarities(q, model.n_words)
                == model.similarities(q)).all()

    def test_effective_dim_and_footprint_shrink(self):
        # a 2-word prefix of a 512-component model scores 128 components
        # and reads only those words: garbage past the prefix is unseen
        model = self._model(dim=512)
        q = pack_bits(random_hypervector(512, 2, shape=(6,)))
        sims = model.similarities(q, 2)
        assert block_dim(model.dim, 0, 2) == 128
        assert np.array_equal(
            sims, 1.0 - 2.0 * model.distance_block(q, 0, 2) / 128.0)
        model.packed[:, 2:] = ~model.packed[:, 2:]
        assert np.array_equal(model.similarities(q, 2), sims)

    def test_last_word_prefix_caps_dim_at_model_dim(self):
        model = self._model(dim=100)  # 2 words, 100 real bits
        q = pack_bits(random_hypervector(100, 3, shape=(5,)))
        for words, n in ((2, 100), (1, 64)):
            d = model.distance_block(q, 0, words)
            assert np.array_equal(model.similarities(q, words),
                                  1.0 - 2.0 * d / float(n))

    def test_prefix_distance_matches_manual_slice(self):
        model = self._model(dim=512)
        words = 3
        q = pack_bits(random_hypervector(512, 2, shape=(5,)))
        manual = pairwise_hamming(q[:, :words], model.packed[:, :words],
                                  dim=64 * words)
        assert (model.distance_block(q, 0, words) == manual).all()
        assert np.array_equal(model.similarities(q, words),
                              1.0 - 2.0 * manual / (64.0 * words))

    def test_accepts_already_truncated_queries(self):
        model = self._model()
        q = pack_bits(random_hypervector(512, 3, shape=(4,)))
        assert np.array_equal(model.similarities(q[:, :4], 4),
                              model.similarities(q, 4))

    def test_similarities_normalized_by_effective_dim(self):
        model = self._model()
        q = pack_bits(random_hypervector(512, 5, shape=(6,)))
        sims = model.similarities(q, 4)
        assert (np.abs(sims) <= 1.0).all()
        assert np.array_equal(
            sims, 1.0 - 2.0 * model.distance_block(q, 0, 4) / 256.0)

    def test_word_bounds_validated(self):
        model = self._model()
        q = pack_bits(random_hypervector(512, 6, shape=(2,)))
        with pytest.raises(ValueError):
            model.similarities(q, 0)
        with pytest.raises(ValueError):
            model.similarities(q, model.n_words + 1)

    def test_wraps_raw_model_arrays(self):
        # holography: the word prefix of a model packed from a raw
        # bipolar matrix is the model packed from the matrix's leading
        # components
        raw = random_hypervector(256, 0, shape=(2,))
        q = random_hypervector(256, 1, shape=(3,))
        prefix = PackedClassModel(raw).similarities(pack_bits(q), 2)
        small = PackedClassModel(raw[:, :128]).similarities(
            pack_bits(q[:, :128]))
        assert np.array_equal(prefix, small)


class TestPrefixMonotonicity:
    """Prefix scores converge to the full-model scores as words grow.

    The deterministic envelope: a word-prefix of ``n`` of ``D`` components
    can move each class similarity by at most the mass of the unseen
    suffix, so ``|sim_prefix - sim_full| <= 2 (D - n) / D`` at every
    width - the concentration argument behind the cascade's early exit,
    with the probabilistic bound replaced by its worst case.
    """

    @given(seed=seeds, dim=st.integers(min_value=65, max_value=600))
    @settings(max_examples=25, deadline=None)
    def test_prefix_similarity_within_suffix_envelope(self, seed, dim):
        model = PackedClassModel(random_hypervector(dim, seed, shape=(3,)))
        q = pack_bits(random_hypervector(dim, seed + 1, shape=(4,)))
        full = model.similarities(q)
        for words in range(1, model.n_words + 1):
            n = block_dim(dim, 0, words)
            envelope = 2.0 * (dim - n) / dim + 1e-12
            # prefix sim is over n of D components; compare on the full-D
            # scale (sim = 1 - 2 d / D after rescaling by n / D)
            prefix_full_scale = 1.0 - 2.0 * model.distance_block(
                q, 0, words) / dim
            suffix_gap = np.abs(prefix_full_scale - full)
            assert (suffix_gap <= envelope).all()

    @given(seed=seeds, dim=st.integers(min_value=65, max_value=600))
    @settings(max_examples=25, deadline=None)
    def test_gap_shrinks_to_zero_at_full_width(self, seed, dim):
        model = PackedClassModel(random_hypervector(dim, seed, shape=(2,)))
        q = pack_bits(random_hypervector(dim, seed + 2, shape=(3,)))
        full = model.similarities(q)
        worst = [
            np.abs(1.0 - 2.0 * model.distance_block(q, 0, w) / dim
                   - full).max()
            for w in range(1, model.n_words + 1)
        ]
        # the deterministic envelope shrinks with the unseen suffix, so
        # the worst observed gap at each width must fit under it, and the
        # final width is exact
        assert worst[-1] == 0.0
        for w, g in zip(range(1, model.n_words + 1), worst):
            n = block_dim(dim, 0, w)
            assert g <= 2.0 * (dim - n) / dim + 1e-12

    def test_prediction_stabilizes_once_margin_clears_envelope(self):
        dim = 4096
        model = PackedClassModel(random_hypervector(dim, 0, shape=(2,)))
        q = model.packed[:1].copy()  # the face prototype itself
        full_margin = 2.0  # sim 1 vs sim ~0
        for words in range(1, model.n_words + 1):
            n = block_dim(dim, 0, words)
            if full_margin > 4.0 * (dim - n) / dim:
                # margin exceeds twice the per-class envelope: no wider
                # prefix can flip the argmax
                assert model.similarities(q, words).argmax(axis=1)[0] == 0


class TestBlockDim:
    def test_interior_blocks_are_word_sized(self):
        assert block_dim(4096, 0, 4) == 256
        assert block_dim(4096, 4, 16) == 768

    def test_tail_block_counts_real_bits_only(self):
        assert block_dim(100, 1, 2) == 36
        assert block_dim(100, 0, 2) == 100

    def test_bounds_validated(self):
        for w0, w1 in [(-1, 2), (2, 2), (3, 1), (0, 99)]:
            with pytest.raises(ValueError):
                block_dim(128, w0, w1)


class TestDistanceBlock:
    @given(seed=seeds, dim=st.integers(min_value=65, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_partition_sums_to_full_distance(self, seed, dim):
        model = PackedClassModel(random_hypervector(dim, seed, shape=(3,)))
        q = pack_bits(random_hypervector(dim, seed + 3, shape=(5,)))
        full = model.distances(q)
        rng = np.random.default_rng(seed)
        w = model.n_words
        cuts = sorted({0, w, *rng.integers(1, max(2, w), size=2).tolist()})
        acc = sum(model.distance_block(q, a, b)
                  for a, b in zip(cuts, cuts[1:]))
        assert (acc == full).all()

    def test_accepts_pre_sliced_queries(self):
        model = PackedClassModel(random_hypervector(512, 0, shape=(2,)))
        q = pack_bits(random_hypervector(512, 1, shape=(4,)))
        whole = model.distance_block(q, 2, 5)
        sliced = model.distance_block(q[:, 2:5], 2, 5)
        assert (whole == sliced).all()

    def test_single_word_prefix_matches_truncated(self):
        model = PackedClassModel(random_hypervector(256, 0, shape=(2,)))
        q = pack_bits(random_hypervector(256, 1, shape=(4,)))
        assert np.array_equal(
            1.0 - 2.0 * model.distance_block(q, 0, 1) / 64.0,
            model.similarities(q, 1))
