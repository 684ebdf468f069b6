"""Operation-count profiles of every workload in the evaluation.

The hardware comparison (paper Sec. 6.5, Fig. 7) is driven by *what kind of
operations* each pipeline executes: HDFace is bitwise logic, narrow integer
adds and RNG bits over hypervectors; original-space HOG is floating-point
arithmetic with square roots and arc-tangents; the DNN is dense fp32
multiply-accumulate.  This module counts those operations for each workload
so the platform models in :mod:`repro.hardware.platforms` can convert them
into time and energy.

Operation classes
-----------------
``bit``      one-bit logic operation (AND/OR/XOR/select lane)
``int_add``  narrow (<=16-bit) integer add/accumulate
``rng_bit``  one pseudorandom bit (LFSR lane on hardware)
``word64``   one 64-bit word operation on packed hypervectors
             (XOR/AND of a word, or one popcount-tree reduction of it)
``fp_mul`` / ``fp_add`` / ``fp_div``  fp32 arithmetic
``fp_sqrt`` / ``fp_atan``             fp32 iterative/transcendental
``mem_bytes`` bytes moved through the memory hierarchy
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "OperationProfile",
    "profile_from_counts",
    "hd_hog_profile",
    "hd_hog_fields_profile",
    "hd_hog_aggregate_profile",
    "shared_detection_profile",
    "perwindow_detection_profile",
    "incremental_extract_profile",
    "hog_profile",
    "dnn_forward_profile",
    "dnn_training_profile",
    "hdc_learn_profile",
    "hdc_infer_profile",
    "packed_infer_profile",
    "packed_assemble_profile",
    "cascade_stage_profile",
    "cascade_scan_profile",
    "replica_vote_profile",
    "scrub_profile",
    "guarded_infer_profile",
    "ecc_encode_profile",
    "ecc_scrub_profile",
    "remat_profile",
    "cache_scrub_profile",
    "encoder_profile",
]

OP_CLASSES = (
    "bit", "int_add", "rng_bit", "word64",
    "fp_mul", "fp_add", "fp_div", "fp_sqrt", "fp_atan",
    "mem_bytes",
)


@dataclass
class OperationProfile:
    """Bag of operation counts, addable and scalable."""

    counts: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        unknown = set(self.counts) - set(OP_CLASSES)
        if unknown:
            raise ValueError(f"unknown op classes: {sorted(unknown)}")
        self.counts = {k: float(v) for k, v in self.counts.items() if v}

    def __add__(self, other):
        merged = dict(self.counts)
        for k, v in other.counts.items():
            merged[k] = merged.get(k, 0.0) + v
        return OperationProfile(merged, label=self.label or other.label)

    def __mul__(self, factor):
        return OperationProfile(
            {k: v * factor for k, v in self.counts.items()}, label=self.label
        )

    __rmul__ = __mul__

    def get(self, op):
        """Count of one op class (0 if absent)."""
        return self.counts.get(op, 0.0)

    def total_ops(self):
        """All operations except memory traffic."""
        return sum(v for k, v in self.counts.items() if k != "mem_bytes")


# ----------------------------------------------------------------------
# HDFace stochastic pipeline
# ----------------------------------------------------------------------
def profile_from_counts(counts, label="measured"):
    """Wrap raw op counters (e.g. from :class:`repro.profiling.Profiler`)
    into an :class:`OperationProfile` so the platform models can convert a
    *measured* run into modeled time and energy."""
    return OperationProfile(dict(counts), label=label)


def hd_hog_fields_profile(image_shape, dim, n_bins=8, magnitude="l2_scaled",
                          sqrt_iters=8, gamma=True):
    """Per-image operation counts of HOG-HD stages 1-4 (the *fields* pass).

    Pixel encoding, gradients, angle binning and magnitudes - the per-pixel
    hypervector work that :meth:`HDHOGExtractor.extract_fields` runs once
    over a whole scene and the legacy path repeats per window.  Counts per
    hypervector primitive: a weighted average is ``D`` select bit-ops plus
    ``D`` RNG bits; a multiplication is ``2 D`` bit-ops; a decode readout is
    ``D`` bit-ops plus ``D`` add lanes; a binary-search iteration costs one
    average, one square (or product) and one decode.
    """
    h, w = image_shape
    px = float(h * w)
    d = float(dim)
    counts = {"bit": 0.0, "int_add": 0.0, "rng_bit": 0.0, "mem_bytes": 0.0}

    def average(n):
        counts["bit"] += n * d
        counts["rng_bit"] += n * d

    def multiply(n):
        counts["bit"] += 2 * n * d

    def decode(n):
        counts["bit"] += n * d
        counts["int_add"] += n * d

    def square(n):
        # decorrelate (2 binds + rotate) + multiply
        counts["bit"] += 2 * n * d
        multiply(n)

    # stage 1: pixel codebook lookup - pure memory traffic
    counts["mem_bytes"] += px * d / 8.0

    # stage 2: gradients - two stochastic subtractions per pixel
    average(2 * px)

    # stage 4: binning - two sign readouts, two conditional negations, and
    # per interior boundary one constant construction, one product and one
    # comparison readout
    decode(2 * px)
    counts["bit"] += 2 * px * d  # conditional negation lanes
    boundaries = max(n_bins // 4 - 1, 0)
    if boundaries:
        counts["rng_bit"] += boundaries * px * d  # constant construction
        counts["bit"] += boundaries * px * d
        multiply(boundaries * px)
        decode(boundaries * px)

    # stage 3: magnitude
    if magnitude == "l2_scaled":
        square(2 * px)
        average(px)
        sqrt_units = px
    else:  # l1: two abs (signs already computed) + one average
        counts["bit"] += 2 * px * d
        average(px)
        sqrt_units = 0.0
    if gamma:
        sqrt_units += px
    if sqrt_units:
        per_iter = sqrt_units
        for _ in range(int(sqrt_iters)):
            average(per_iter)       # midpoint
            square(per_iter)        # mid^2
            decode(per_iter)        # comparison readout
            counts["bit"] += 2 * per_iter * d  # bound selects
        average(sqrt_units)          # final midpoint
        decode(sqrt_units)           # hoisted target readout (once)

    counts["mem_bytes"] += px * d / 8.0 * 6  # streamed intermediate tensors
    return OperationProfile(counts, label=f"hd_hog_fields{image_shape}xD{dim}")


def hd_hog_aggregate_profile(image_shape, dim, n_bins=8, cell_size=8):
    """Per-image operation counts of HOG-HD stages 5-6 (aggregation).

    Histogram bundling (masked accumulate of every pixel into its bin lane)
    plus query bundling (bind + accumulate per (cell, bin)).
    """
    h, w = image_shape
    px = float(h * w)
    d = float(dim)
    counts = {"bit": px * d, "int_add": px * d}
    n_cells = (h // cell_size) * (w // cell_size)
    feats = n_cells * n_bins
    counts["bit"] += feats * d
    counts["int_add"] += feats * d
    return OperationProfile(counts, label=f"hd_hog_agg{image_shape}xD{dim}")


def hd_hog_profile(image_shape, dim, n_bins=8, magnitude="l2_scaled",
                   sqrt_iters=8, gamma=True, cell_size=8):
    """Per-image operation counts of the full hyperspace HOG pipeline.

    Composition of :func:`hd_hog_fields_profile` (stages 1-4) and
    :func:`hd_hog_aggregate_profile` (stages 5-6); counts follow the
    implementation in :class:`repro.features.hog_hd.HDHOGExtractor` stage
    by stage.
    """
    prof = (hd_hog_fields_profile(image_shape, dim, n_bins=n_bins,
                                  magnitude=magnitude, sqrt_iters=sqrt_iters,
                                  gamma=gamma)
            + hd_hog_aggregate_profile(image_shape, dim, n_bins=n_bins,
                                       cell_size=cell_size))
    prof.label = f"hd_hog{image_shape}xD{dim}"
    return prof


# ----------------------------------------------------------------------
# Sliding-window detection: shared-feature engine vs per-window recompute
# ----------------------------------------------------------------------
def _window_grid(scene_shape, window, stride):
    h, w = scene_shape
    if h < window or w < window:
        raise ValueError("scene smaller than the detection window")
    return ((h - window) // stride + 1), ((w - window) // stride + 1)


def shared_detection_profile(scene_shape, window, stride, dim, n_classes=2,
                             n_bins=8, magnitude="l2_scaled", sqrt_iters=8,
                             gamma=True, cell_size=8):
    """Modeled op counts of the shared-feature engine scanning one scene.

    One whole-scene fields pass, one per-bin box-filter cell-grid pass
    (membership select + two running-sum passes per bin), then per window
    only the cheap assembly (bind + weighted accumulate per (cell, bin))
    and one row of the batched similarity matmul.
    """
    h, w = scene_shape
    px = float(h * w)
    d = float(dim)
    n_wy, n_wx = _window_grid(scene_shape, window, stride)
    n_windows = n_wy * n_wx
    prof = hd_hog_fields_profile(scene_shape, dim, n_bins=n_bins,
                                 magnitude=magnitude, sqrt_iters=sqrt_iters,
                                 gamma=gamma)
    prof = prof + OperationProfile(
        {"bit": n_bins * px * d, "int_add": 2 * n_bins * px * d,
         "mem_bytes": n_bins * px * d / 4},
        label="cell_grid",
    )
    feats = (window // cell_size) ** 2 * n_bins
    prof = prof + OperationProfile(
        {"bit": feats * d, "int_add": feats * d}) * n_windows
    prof = prof + hdc_infer_profile(dim, n_classes) * n_windows
    prof.label = f"shared_detect{scene_shape}w{window}s{stride}xD{dim}"
    return prof


def perwindow_detection_profile(scene_shape, window, stride, dim, n_classes=2,
                                n_bins=8, magnitude="l2_scaled", sqrt_iters=8,
                                gamma=True, cell_size=8):
    """Modeled op counts of the legacy per-window path on the same scan.

    Every window re-runs the full per-image pipeline from raw pixels, so
    overlapping windows repeat the expensive fields stages; this is the
    baseline the shared engine is measured against.
    """
    n_wy, n_wx = _window_grid(scene_shape, window, stride)
    n_windows = n_wy * n_wx
    per = (hd_hog_profile((window, window), dim, n_bins=n_bins,
                          magnitude=magnitude, sqrt_iters=sqrt_iters,
                          gamma=gamma, cell_size=cell_size)
           + hdc_infer_profile(dim, n_classes))
    prof = per * n_windows
    prof.label = f"perwindow_detect{scene_shape}w{window}s{stride}xD{dim}"
    return prof


def incremental_extract_profile(scene_shape, dirty_shape, dim, n_bins=8,
                                magnitude="l2_scaled", sqrt_iters=8,
                                gamma=True, cell_size=8):
    """Modeled op counts of one frame-delta incremental extraction.

    Prices the :meth:`repro.pipeline.engine.SharedFeatureEngine.
    delta_update` patch path for one pyramid level: a whole-frame pixel
    diff (integer compares over both frames), stages 1-4 re-run over the
    padded dirty rectangle only (:func:`hd_hog_fields_profile` on
    ``dirty_shape``), and the cell-grid re-bundle over the cell-aligned
    cover of that rectangle - the region path bundles per bin, so the
    re-bundle is priced per (bin, pixel) like the engine's measured
    ``delta_grid`` stage.  ``dirty_shape`` is the dilated dirty rect
    (rows, cols); the cell cover allows one extra ``cell_size`` row and
    column of misalignment.  An empty dirty rect prices the diff alone.
    """
    h, w = scene_shape
    dh, dw = dirty_shape
    if not 0 <= dh <= h or not 0 <= dw <= w:
        raise ValueError("dirty_shape must fit inside scene_shape")
    px = float(h * w)
    d = float(dim)
    prof = OperationProfile(
        {"int_add": px, "mem_bytes": 16.0 * px}, label="frame_diff")
    if dh and dw:
        prof = prof + hd_hog_fields_profile(
            (dh, dw), dim, n_bins=n_bins, magnitude=magnitude,
            sqrt_iters=sqrt_iters, gamma=gamma)
        cover_h = min(h, (-(-dh // cell_size) + 1) * cell_size)
        cover_w = min(w, (-(-dw // cell_size) + 1) * cell_size)
        cover_px = float(cover_h * cover_w)
        prof = prof + OperationProfile(
            {"bit": n_bins * cover_px * d,
             "int_add": 2 * n_bins * cover_px * d,
             "mem_bytes": n_bins * cover_px * d / 4},
            label="delta_grid",
        )
    prof.label = f"incremental{scene_shape}dirty{dirty_shape}xD{dim}"
    return prof


# ----------------------------------------------------------------------
# Original-space HOG
# ----------------------------------------------------------------------
def hog_profile(image_shape, n_bins=8, cell_size=8, gamma=True):
    """Per-image operation counts of classic HOG on fp32 data."""
    h, w = image_shape
    px = float(h * w)
    counts = {
        # gradients: two subtractions + two halvings per pixel
        "fp_add": 2 * px,
        "fp_mul": 2 * px,
        # magnitude: two squares, one add, one sqrt
        "fp_sqrt": px * (2.0 if gamma else 1.0),
        "fp_atan": px,  # orientation
        "mem_bytes": px * 4 * 4,
    }
    counts["fp_mul"] += 2 * px
    counts["fp_add"] += px
    # histogram accumulate + per-cell normalization
    counts["fp_add"] += px
    n_cells = (h // cell_size) * (w // cell_size)
    counts["fp_div"] = n_cells * n_bins
    return OperationProfile(counts, label=f"hog{image_shape}")


# ----------------------------------------------------------------------
# DNN
# ----------------------------------------------------------------------
def dnn_forward_profile(layer_sizes):
    """Per-sample fp32 MACs of one forward pass."""
    macs = sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))
    params = macs + sum(layer_sizes[1:])
    return OperationProfile(
        {"fp_mul": macs, "fp_add": macs, "mem_bytes": params * 4.0},
        label=f"dnn_fwd{tuple(layer_sizes)}",
    )


def dnn_training_profile(layer_sizes):
    """Per-sample cost of one training step (forward + backward + update).

    The backward pass costs about two forwards (grad wrt activations and
    weights) and the optimizer touches every parameter once.
    """
    fwd = dnn_forward_profile(layer_sizes)
    macs = fwd.get("fp_mul")
    update = OperationProfile(
        {"fp_mul": macs * 0.05, "fp_add": macs * 0.05}, label="sgd_update"
    )
    prof = fwd * 3.0 + update
    prof.label = f"dnn_train{tuple(layer_sizes)}"
    return prof


# ----------------------------------------------------------------------
# HDC learning / inference over query hypervectors
# ----------------------------------------------------------------------
def hdc_learn_profile(dim, n_classes):
    """Per-sample cost of one adaptive HDC update.

    Similarity against every class (integer MACs over ``D``) plus a scaled
    accumulate into at most two class vectors.
    """
    d = float(dim)
    return OperationProfile(
        {"int_add": (n_classes + 2) * d, "bit": n_classes * d,
         "mem_bytes": (n_classes + 2) * d * 2},
        label=f"hdc_learn(D={dim})",
    )


def hdc_infer_profile(dim, n_classes):
    """Per-sample cost of an HDC similarity search."""
    d = float(dim)
    return OperationProfile(
        {"int_add": n_classes * d, "bit": n_classes * d,
         "mem_bytes": n_classes * d / 4},
        label=f"hdc_infer(D={dim})",
    )


def packed_infer_profile(dim, n_classes):
    """Per-query cost of the packed Hamming-argmin similarity search.

    One XOR word op plus one popcount-tree reduction per model word per
    class (:class:`repro.core.packed.PackedClassModel`), with the packed
    model streaming through memory at 8 bytes per word - the 64x traffic
    reduction over the dense ``int8`` path is the point of the backend.
    """
    w = float((int(dim) + 63) // 64)
    return OperationProfile(
        {"word64": 2 * n_classes * w, "int_add": n_classes,
         "mem_bytes": (n_classes + 1) * w * 8},
        label=f"packed_infer(D={dim})",
    )


def packed_assemble_profile(window, dim, cell_size=8, n_bins=8):
    """Per-window cost of packed query assembly (XNOR bind + majority).

    ``F = (window / cell_size)^2 * n_bins`` packed features are bound to
    their positional keys (XOR + pad mask per word) and bundled by the
    bit-sliced vertical-counter majority of
    :func:`repro.core.packed.packed_majority`: a ripple-carry add per
    feature (one XOR + one AND per plane per word) and a bit-sliced
    threshold comparator readout over the ``ceil(log2(F + 1))`` planes.
    """
    n = int(window) // int(cell_size)
    feats = n * n * n_bins
    w = float((int(dim) + 63) // 64)
    planes = float(max(feats, 1).bit_length())
    counts = {
        "word64": 2 * feats * w            # bind: XOR + mask
        + 2 * feats * planes * w           # vertical counters: XOR + AND
        + 4 * planes * w,                  # threshold comparator readout
        "mem_bytes": (feats + 1) * w * 8,
    }
    return OperationProfile(counts, label=f"packed_assemble(w{window},D{dim})")


def cascade_stage_profile(window, dim, word_start, word_stop, n_classes=2,
                          cell_size=8, n_bins=8):
    """Per-window cost of one cascade escalation stage.

    A stage assembles only the new word block ``[word_start, word_stop)``
    of the query (:func:`packed_assemble_profile` at the block's real
    component count) and adds the block's XOR+popcount Hamming distances
    onto the accumulated per-class popcounts - one XOR word op plus one
    popcount reduction per block word per class, plus one narrow add per
    class for the accumulate.  Stage 1 is ``word_start=0``; the sum of a
    full escalation chain's stages equals one full-width assembly plus
    :func:`packed_infer_profile`, which is the no-double-work property of
    the incremental rescoring.
    """
    w0, w1 = int(word_start), int(word_stop)
    total = (int(dim) + 63) // 64
    if not 0 <= w0 < w1 <= total:
        raise ValueError(f"word block [{w0}, {w1}) out of range for "
                         f"{total} words")
    bdim = min(64 * w1, int(dim)) - 64 * w0
    words = float(w1 - w0)
    prof = packed_assemble_profile(window, bdim, cell_size=cell_size,
                                   n_bins=n_bins)
    prof = prof + OperationProfile(
        {"word64": 2 * n_classes * words, "int_add": float(n_classes),
         "mem_bytes": (n_classes + 1) * words * 8},
    )
    prof.label = f"cascade_stage(w{window},D{dim},[{w0},{w1}))"
    return prof


def cascade_scan_profile(scene_shape, window, stride, dim, stage_words,
                         escalation=None, n_classes=2, cell_size=8,
                         n_bins=8, seed_fraction=1.0):
    """Expected op counts of one cascade scan of a scene.

    ``stage_words`` is the ascending cumulative word schedule;
    ``escalation[i]`` the fraction of candidate windows evaluated *at*
    stage ``i`` (``escalation[0]`` is normally 1.0; feed the measured
    rates from :class:`repro.pipeline.cascade.CascadeCalibration` - the
    default assumes 5% survive each rejection).  ``seed_fraction``
    scales the candidate set for coarse-seed-then-refine scans
    (``~1/seed_factor^2`` plus the refined neighborhoods).  Expected
    work is the sum over stages of the per-window stage cost times the
    windows expected to reach it.
    """
    words = [int(w) for w in stage_words]
    if words != sorted(set(words)) or not words:
        raise ValueError(f"stage_words must be strictly increasing, "
                         f"got {stage_words}")
    if escalation is None:
        escalation = [1.0] + [0.05] * (len(words) - 1)
    if len(escalation) != len(words):
        raise ValueError("escalation must give one rate per stage")
    n_wy, n_wx = _window_grid(scene_shape, window, stride)
    candidates = n_wy * n_wx * float(seed_fraction)
    prof = OperationProfile({})
    w_prev = 0
    for w1, rate in zip(words, escalation):
        prof = prof + cascade_stage_profile(
            window, dim, w_prev, w1, n_classes=n_classes,
            cell_size=cell_size, n_bins=n_bins) * (rate * candidates)
        w_prev = w1
    prof.label = (f"cascade_scan{tuple(scene_shape)}w{window}s{stride}"
                  f"xD{dim}{tuple(words)}")
    return prof


def replica_vote_profile(dim, n_classes, replicas=3):
    """Cost of one bitwise majority vote across ``replicas`` model copies.

    The repair step of :class:`repro.reliability.guard.GuardedClassModel`:
    for every class row, the ``R`` replica words feed the bit-sliced
    vertical counters of :func:`repro.core.packed.packed_majority`
    (``ceil(log2(R + 1))`` planes, one XOR + one AND per plane per
    feature) followed by the threshold-comparator readout, and the voted
    row is written back into every replica.
    """
    w = float((int(dim) + 63) // 64)
    k = float(n_classes)
    r = float(replicas)
    planes = float(max(int(replicas), 1).bit_length())
    return OperationProfile(
        {"word64": k * w * (2 * r * planes + 4 * planes),
         "mem_bytes": (2 * r + 1) * k * w * 8},  # read R, write back R + vote
        label=f"replica_vote(D={dim},R={replicas})",
    )


def scrub_profile(dim, n_classes, replicas=3, repair=False):
    """Cost of one scrub pass over a guarded class model.

    The detection half streams every replica row once through a word-wide
    mixing digest (model: two word ops per stored word - one mix, one
    accumulate - matching a hardware CRC/checksum lane) and compares
    against the ``R * k`` stored golden digests.  With ``repair=True`` the
    majority-vote restore (:func:`replica_vote_profile`) is included -
    the worst-case scrub in which corruption was detected.
    """
    w = float((int(dim) + 63) // 64)
    k = float(n_classes)
    r = float(replicas)
    prof = OperationProfile(
        {"word64": 2 * r * k * w + r * k,
         "mem_bytes": r * k * (w + 1) * 8},
        label=f"scrub(D={dim},R={replicas})",
    )
    if repair:
        prof = prof + replica_vote_profile(dim, n_classes, replicas)
        prof.label = f"scrub+repair(D={dim},R={replicas})"
    return prof


def guarded_infer_profile(dim, n_classes, replicas=3):
    """Per-query cost of inference through a guarded class model.

    The Hamming-argmin search itself is unchanged
    (:func:`packed_infer_profile` against the active replica); protection
    adds the detection-only scrub pass the guard runs before every
    scoring call.  Repair cost is excluded - it only triggers on actual
    corruption, which is rare by assumption; price it separately with
    ``scrub_profile(..., repair=True)``.
    """
    prof = packed_infer_profile(dim, n_classes) + scrub_profile(
        dim, n_classes, replicas)
    prof.label = f"guarded_infer(D={dim},R={replicas})"
    return prof


def ecc_encode_profile(n_words):
    """Cost of SEC-DED-encoding ``n_words`` packed 64-bit words.

    The Hamming(72,64) encoder of :mod:`repro.reliability.ecc`: each word
    is ANDed against the seven check-bit coverage masks and each product
    popcounted (two word ops per mask), plus one whole-word popcount and
    one combine for the overall-parity bit.  One parity byte is written
    back per word (the 12.5% sidecar).
    """
    n = float(n_words)
    return OperationProfile(
        {"word64": n * 16, "mem_bytes": n * 9},  # read 8B, write 1B parity
        label=f"ecc_encode(W={n_words})",
    )


def ecc_scrub_profile(n_words, repair_fraction=0.0):
    """Cost of one SEC-DED check pass over ``n_words`` protected words.

    The syndrome recompute is the encoder datapath again (seven masked
    popcounts plus overall parity) followed by an XOR against the stored
    parity byte.  ``repair_fraction`` is the fraction of words found
    corrupted: each costs a syndrome-to-position decode, one single-bit
    XOR correction and a word write-back.  At ``repair_fraction=0`` this
    is the steady-state patrol-scrub cost.
    """
    if not 0.0 <= repair_fraction <= 1.0:
        raise ValueError("repair_fraction must be in [0, 1]")
    n = float(n_words)
    f = float(repair_fraction)
    prof = OperationProfile(
        {"word64": n * (17 + f * 3),
         "mem_bytes": n * (9 + f * 9)},  # read word+parity; repaired: rewrite
        label=f"ecc_scrub(W={n_words})",
    )
    if f > 0.0:
        prof.label = f"ecc_scrub+repair(W={n_words},f={repair_fraction})"
    return prof


def remat_profile(n_elems, elem_bytes=1, bits_per_elem=1):
    """Cost of rematerializing an ``n_elems``-element item memory.

    :class:`repro.core.keyed_noise.RematerializingItemMemory` repairs by
    exact regeneration: ``bits_per_elem`` pseudorandom bits per element
    (one fair coin per bipolar lane; raise it for multi-bit draws), a
    digest pass over the regenerated bytes (two word ops per 8 bytes,
    the same mixing-digest lane :func:`scrub_profile` models), and the
    write-back.  This is the compute half of the recompute-as-repair
    trade: ``verify``/``remat`` policies swap resident-byte cost for
    exactly this profile per repair or access.
    """
    n = float(n_elems)
    nbytes = n * float(elem_bytes)
    words = (nbytes + 7.0) // 8.0
    return OperationProfile(
        {"rng_bit": n * float(bits_per_elem),
         "word64": 2 * words,
         "mem_bytes": 2 * nbytes},  # write regenerated + digest read
        label=f"remat(N={n_elems})",
    )


def cache_scrub_profile(cache_bytes, repair_fraction=0.0):
    """Cost of one background sweep over ``cache_bytes`` of scene cache.

    The shared-feature engine's scrubber digests every cached buffer (two
    word ops per 8 bytes through the mixing-digest lane) and, for the
    ``repair_fraction`` of bytes whose digest mismatched, runs the
    SEC-DED correct pass (:func:`ecc_scrub_profile`) to repair in place
    instead of evicting and recomputing.
    """
    if not 0.0 <= repair_fraction <= 1.0:
        raise ValueError("repair_fraction must be in [0, 1]")
    words = (float(cache_bytes) + 7.0) // 8.0
    prof = OperationProfile(
        {"word64": 2 * words,
         "mem_bytes": float(cache_bytes) * 1.125},  # data + parity sidecar
        label=f"cache_scrub(B={cache_bytes})",
    )
    if repair_fraction > 0.0:
        prof = prof + ecc_scrub_profile(words * repair_fraction,
                                        repair_fraction=1.0)
        prof.label = (f"cache_scrub+repair(B={cache_bytes},"
                      f"f={repair_fraction})")
    return prof


def encoder_profile(dim, n_features):
    """Per-sample cost of the nonlinear (cos) encoder (configuration 1)."""
    d = float(dim)
    return OperationProfile(
        {"fp_mul": d * n_features, "fp_add": d * n_features, "fp_atan": d,
         "mem_bytes": d * n_features * 4},
        label=f"encoder(D={dim})",
    )


def levelid_encoder_profile(dim, n_features):
    """Per-sample cost of the classical binary record encoder.

    Level-hypervector lookup, ID binding (XOR lanes) and integer bundling
    per feature - the conventional HDC encoding whose HOG front end the
    Sec. 2 motivation measures (the binary encoder is cheap; HOG dominates).
    """
    d = float(dim)
    return OperationProfile(
        {"bit": d * n_features, "int_add": d * n_features,
         "mem_bytes": d * n_features / 8},
        label=f"levelid_encoder(D={dim})",
    )
