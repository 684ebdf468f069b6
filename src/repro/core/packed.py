"""Batched compute kernels over bit-packed (``uint64``) hypervectors.

The paper's hardware story (Sec. 6.5) processes *binary* hypervectors as
64-bit words: XOR gates bind, popcount trees measure similarity, and
majority (thresholded popcount) bundles.  :mod:`repro.core.hypervector`
provides the representation (:func:`~repro.core.hypervector.pack_bits` /
:func:`~repro.core.hypervector.unpack_bits`); this module provides the
*batched operations* on it, so the detection pipeline can run its hot path
on words that are 64x denser than the ``int8`` bipolar arrays:

* :func:`packed_bind` - the bipolar component-wise product.  Under the
  ``+1 -> 1`` bit convention the product's sign bit is the **XNOR** of the
  operand bits, i.e. one XOR plus a complement per word lane.
* :func:`packed_majority` - majority-vote bundling across a feature axis,
  computed entirely in the packed domain with bit-sliced vertical counters
  (the software mirror of a carry-save adder tree) and a bit-sliced
  threshold comparator.  No unpacking, no integer tensors.
* :func:`pairwise_hamming` / :func:`packed_nearest` - the XOR + popcount
  similarity search of the FPGA datapath, batched as ``(n, k)``.
* :class:`PackedClassModel` - a sign-quantized, packed class-hypervector
  matrix with the exact inference semantics of
  :class:`repro.learning.binary_inference.BinaryHDCEngine` (Hamming argmin
  against the sign-quantized model), reusable by the detection engine.

Every function is dimension-aware: pad bits (``D`` not a multiple of 64)
are masked out of results and never counted.
"""

from __future__ import annotations

import numpy as np

from .hypervector import (
    pack_bits,
    packed_hamming_distance,
    packed_tail_mask,
    packed_words,
)

__all__ = [
    "packed_bind",
    "packed_majority",
    "pairwise_hamming",
    "packed_nearest",
    "block_dim",
    "PackedScoring",
    "PackedClassModel",
]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO = np.uint64(0)


def packed_bind(a, b, dim):
    """Bipolar multiply in the packed domain: per-lane XNOR, pads cleared.

    With ``+1 -> 1`` bits, ``(+1)*(+1) = (+1)`` and ``(+1)*(-1) = (-1)``
    make the product bit ``NOT (a XOR b)``.  The complement would set the
    pad bits of the last word, so they are masked back to zero - results
    stay interchangeable with :func:`~repro.core.hypervector.pack_bits`
    output.  ``a`` and ``b`` broadcast over leading axes.
    """
    out = ~np.bitwise_xor(np.asarray(a, np.uint64), np.asarray(b, np.uint64))
    return out & packed_tail_mask(dim)


def _plane_count(n_features):
    """Bit planes needed to count up to ``n_features`` votes."""
    return max(int(n_features), 1).bit_length()


def packed_majority(packed, dim, valid=None):
    """Majority-vote bundling over the feature axis, in the packed domain.

    Parameters
    ----------
    packed:
        ``(..., F, W)`` uint64 sign bits (``+1 -> 1``) of ``F`` features,
        each ``W = packed_words(dim)`` words wide.
    dim:
        Real component count; pad bits of the result are zeroed.
    valid:
        Optional ``(..., F)`` boolean mask; invalid features cast no vote
        (their lanes are zeroed and the majority threshold shrinks
        accordingly).  With zero valid features every component ties.

    Returns
    -------
    numpy.ndarray
        ``(..., W)`` uint64: bit ``d`` is 1 iff at least half of the valid
        features have bit ``d`` set - the sign (``0 -> +1`` convention) of
        the bipolar component-wise sum.  Ties resolve to ``+1``, matching
        the sign-quantization convention used everywhere else.

    Notes
    -----
    The per-component vote counts are accumulated as *bit-sliced vertical
    counters*: plane ``i`` holds bit ``i`` of the running count for all 64
    components of a word at once, and adding a feature is a ripple-carry
    over the planes (one XOR + one AND each).  The ``count >= threshold``
    readout is a bit-sliced magnitude comparator over the same planes.
    This is exactly the carry-save adder + comparator tree an FPGA majority
    gate synthesizes to, executed on 64-component word lanes.
    """
    words = np.asarray(packed, dtype=np.uint64)
    if words.ndim < 2:
        raise ValueError(f"expected (..., F, W) packed array, got {words.shape}")
    batch = words.shape[:-2]
    n_feat = words.shape[-2]
    n_words = words.shape[-1]
    if n_words != packed_words(dim):
        raise ValueError(
            f"dim {dim} needs {packed_words(dim)} words, got {n_words}")
    tail = packed_tail_mask(dim)
    if n_feat == 0:
        # no votes: every component ties, and ties resolve to +1
        return np.broadcast_to(tail, batch + (n_words,)).copy()

    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != batch + (n_feat,):
            raise ValueError(
                f"valid mask {valid.shape} does not match features "
                f"{batch + (n_feat,)}")
        lane_mask = np.where(valid[..., None], _ONES, _ZERO)
        votes = valid.sum(axis=-1, dtype=np.int64)
    else:
        votes = np.full(batch, n_feat, dtype=np.int64) if batch else n_feat

    n_planes = _plane_count(n_feat)
    planes = [np.zeros(batch + (n_words,), dtype=np.uint64)
              for _ in range(n_planes)]
    for f in range(n_feat):
        carry = words[..., f, :]
        if valid is not None:
            carry = carry & lane_mask[..., f, :]
        for i in range(n_planes):
            plane = planes[i]
            planes[i] = plane ^ carry
            carry = plane & carry

    # threshold: sign(2*count - V) >= 0  <=>  count >= ceil(V / 2)
    thresh = ((np.asarray(votes, dtype=np.uint64) + np.uint64(1))
              >> np.uint64(1))[..., None]
    greater = np.zeros(batch + (n_words,), dtype=np.uint64)
    equal = np.full(batch + (n_words,), _ONES, dtype=np.uint64)
    for i in reversed(range(n_planes)):
        t_bit = (thresh >> np.uint64(i)) & np.uint64(1)
        t_mask = np.where(t_bit.astype(bool), _ONES, _ZERO)
        greater |= equal & planes[i] & ~t_mask
        equal &= ~(planes[i] ^ t_mask)
    return (greater | equal) & tail


def pairwise_hamming(queries, model, dim=None):
    """Hamming distances of every query to every model row: ``(n, k)``.

    ``queries`` is ``(n, W)`` (or ``(W,)``), ``model`` is ``(k, W)``;
    ``dim`` masks pad bits before counting.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.uint64))
    m = np.atleast_2d(np.asarray(model, dtype=np.uint64))
    return packed_hamming_distance(q[:, None, :], m[None, :, :], dim=dim)


def block_dim(dim, word_start, word_stop):
    """Real component count of the word block ``[word_start, word_stop)``.

    Words before the last hold 64 components each; the final word of a
    ``dim``-component vector holds only the tail.  The cascade scanner
    scores one block at a time, so its partial Hamming counts need the
    honest per-block denominator.
    """
    total = packed_words(dim)
    w0, w1 = int(word_start), int(word_stop)
    if not 0 <= w0 < w1 <= total:
        raise ValueError(
            f"word block [{word_start}, {word_stop}) out of range for "
            f"dim {dim} ({total} words)")
    return min(64 * w1, int(dim)) - 64 * w0


def packed_nearest(queries, model, dim=None):
    """Hamming-nearest model row per query: ``(labels, distances)``.

    The packed analogue of a similarity search - ``distances`` is the
    ``(n, k)`` matrix from :func:`pairwise_hamming` and ``labels`` its
    argmin, which is the Hamming-argmin inference rule of the FPGA
    datapath (ties resolve to the lowest class index, matching
    ``numpy.argmin`` and :class:`~repro.learning.binary_inference.
    BinaryHDCEngine`).
    """
    distances = pairwise_hamming(queries, model, dim=dim)
    return distances.argmin(axis=1), distances


class PackedScoring:
    """Hamming scoring against packed class rows: the one class-model protocol.

    Plain, guarded and adapting class models share this implementation
    (``n_words`` / ``distance_block`` / ``distances`` / ``similarities`` /
    ``predict``).  A subclass sets ``dim`` and ``n_classes`` and supplies
    :meth:`_rows`, the ``(n_classes, W)`` words one scoring call reads -
    stored words, a scrub-checked replica, or a copy taken under a lock.

    A word budget is a word range, not a model: information is spread
    uniformly over the components of a holographic model, so the first
    ``words`` words of every class row form a smaller model of their own
    (the uHD runtime-scaling observation).  ``similarities(queries,
    words)`` scores that prefix at ``words / W`` of the XOR + popcount
    cost, normalised by the prefix's real component count; with ``words``
    covering every word the result is bitwise the full-width score.
    """

    @property
    def n_words(self):
        """Packed words per class row (``ceil(dim / 64)``)."""
        return packed_words(self.dim)

    def _rows(self):
        """The ``(n_classes, W)`` uint64 class rows this call scores against."""
        raise NotImplementedError

    def distance_block(self, packed_queries, word_start, word_stop):
        """Partial Hamming distances over words ``[word_start, word_stop)``.

        The one scoring primitive.  Because Hamming distance is a sum over
        disjoint word blocks, the cascade scanner never recomputes the
        distance already paid for on a narrow prefix when a window
        escalates - the next stage scores only the *new* words and adds
        the counts:

        ``distances(q) == sum(distance_block(q, a, b) over a partition)``

        ``packed_queries`` may carry the block's words alone (shape
        ``(n, word_stop - word_start)``, as produced by the engine's
        prefix assembly) or the full query width (the block is sliced
        out).  Pad bits are masked when the block covers the final word.
        """
        w0, w1 = int(word_start), int(word_stop)
        bdim = block_dim(self.dim, w0, w1)
        q = np.atleast_2d(np.asarray(packed_queries, dtype=np.uint64))
        if q.shape[-1] != w1 - w0:
            q = q[:, w0:w1]
        return pairwise_hamming(q, self._rows()[:, w0:w1], dim=bdim)

    def distances(self, packed_queries):
        """Hamming distance of each packed query to each class: ``(n, k)``."""
        return self.distance_block(packed_queries, 0, self.n_words)

    def similarities(self, packed_queries, words=None):
        """Normalized similarities ``1 - 2 * hamming / n`` in ``[-1, 1]``.

        ``n`` is the real component count of the scored words: ``D`` at
        full width, ``block_dim(D, 0, words)`` on a ``words``-word prefix
        (queries may be full width or pre-sliced to the prefix).  This is
        exactly the dot product of the underlying bipolar vectors divided
        by ``n``, so downstream margin logic written for cosine
        similarities keeps its sign semantics.
        """
        w = self.n_words if words is None else int(words)
        d = self.distance_block(packed_queries, 0, w)
        return 1.0 - 2.0 * d / float(block_dim(self.dim, 0, w))

    def predict(self, packed_queries):
        """Label of the Hamming-nearest class per packed query."""
        return self.distances(packed_queries).argmin(axis=1)


class PackedClassModel(PackedScoring):
    """Sign-quantized, bit-packed class model for Hamming-argmin inference.

    The detection engine's packed backend classifies window queries against
    this object with one XOR + popcount pass; the semantics are identical
    to :class:`repro.learning.binary_inference.BinaryHDCEngine` (sign
    quantization with ``0 -> +1``, Hamming argmin), just factored so the
    model can be built once and shared by batched callers that already
    hold *packed* queries.  Scoring is the :class:`PackedScoring`
    protocol over the stored words.

    Parameters
    ----------
    model_bipolar:
        ``(n_classes, D)`` array of ``+1`` / ``-1``.
    """

    def __init__(self, model_bipolar):
        model = np.asarray(model_bipolar)
        if model.ndim != 2:
            raise ValueError(f"model must be (n_classes, D), got {model.shape}")
        self.n_classes, self.dim = model.shape
        self.packed = pack_bits(model.astype(np.int8, copy=False))

    @classmethod
    def from_classifier(cls, classifier):
        """Build from a fitted HDC classifier (sign-quantize ``class_hvs_``)."""
        if getattr(classifier, "class_hvs_", None) is None:
            raise RuntimeError("classifier is not fitted")
        model = np.sign(classifier.class_hvs_)
        model[model == 0] = 1
        return cls(model.astype(np.int8))

    @property
    def nbytes(self):
        """Stored model size in bytes (the packed hardware footprint)."""
        return int(self.packed.nbytes)

    def corrupted(self, rate, seed_or_rng=None):
        """Copy of this model with bit errors at ``rate`` in the stored words.

        The fault surface of the robustness campaigns: each of the ``dim``
        real bits of every class row flips independently
        (:func:`repro.reliability.faults.flip_packed_words`); pad bits are
        never touched.  The original model is left intact.
        """
        from ..reliability.faults import flip_packed_words
        clone = object.__new__(PackedClassModel)
        clone.n_classes = self.n_classes
        clone.dim = self.dim
        clone.packed = flip_packed_words(self.packed, self.dim, rate,
                                         seed_or_rng)
        return clone

    def _rows(self):
        return self.packed
