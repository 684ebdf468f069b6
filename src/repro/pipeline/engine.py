"""Shared-feature detection engine: extract once, slice per window.

The legacy sliding-window detector re-runs the whole hyperspace HOG
pipeline on every window crop, so with stride < window the expensive
per-pixel stages (pixel encoding, gradients, angle binning, magnitudes)
are recomputed for every pixel once per overlapping window.
:class:`SharedFeatureEngine` restructures the scan around the shared-pass
API of :class:`repro.features.hog_hd.HDHOGExtractor`:

1. **Fields once** - ``extract_fields`` runs stages 1-4 a single time over
   the whole scene with position-keyed noise, yielding per-pixel magnitude
   hypervectors and orientation bins (:class:`~repro.features.hog_hd.
   HDHOGFields`).
2. **Cell grid once** - ``cell_grid_at`` box-filters those fields into
   (cell, bin) bundles at the union of every cell anchor any window needs,
   so overlapping windows share all histogram accumulation.
3. **Cheap per-window assembly** - each window's feature bundle is a pure
   slice of the cached grid, bound to positional keys and summed into its
   query hypervector.

Because the extractor's keyed noise is addressed by absolute scene
position, the queries this engine assembles are *bitwise identical* to a
per-window recompute (``HDHOGExtractor.window_query``) - the equivalence
the engine tests pin down.

Two compute backends execute stages 2-3:

* ``backend="dense"`` - the reference float path: int16 histogram bundles,
  float32 key binding and weighted accumulation, and a float similarity
  matmul downstream.  Bitwise identical to the per-window recompute.
* ``backend="packed"`` - the hardware-faithful binary path (paper Sec.
  6.5): cached fields and cell grids are sign-quantized and bit-packed 64
  components per ``uint64`` word (~8x smaller cache entries, so the LRU
  holds ~8x more scenes at the same byte budget), window assembly is an
  XNOR bind plus a bit-sliced majority vote over word lanes
  (:func:`repro.core.packed.packed_majority`), and classification is one
  XOR + popcount pass against the sign-quantized class model
  (:class:`repro.core.packed.PackedClassModel`) - no float arithmetic on
  the per-window path.  Scores follow
  :class:`~repro.learning.binary_inference.BinaryHDCEngine` semantics
  (Hamming argmin); the accuracy gap against the dense backend is
  quantified in ``benchmarks/bench_packed_backend.py``.

Scene fields - and the grids and assembled query sets derived from them
- are kept in a small LRU cache keyed by the scene contents, so an
image-pyramid detector that revisits levels, or any caller that rescans
the same scene, skips extraction and assembly alike and goes straight to
classification.

For video streams the cache grows a third reuse tier beyond hit/miss:
**frame-delta incremental extraction** (:meth:`SharedFeatureEngine.
delta_update`).  A new frame is diffed against the cached previous frame,
the changed pixels are dilated by the one-pixel gradient receptive field
into a dirty rectangle, and only that rectangle's per-pixel fields - plus
the cell-grid cells whose ``cell_size``-square receptive fields intersect
it - are recomputed and patched into the cached entry, which is then
re-keyed to the new frame (its stored query sets are dropped and
re-assemble on the next scan).  Because the extraction stages draw
position-keyed noise, the patched entry is *bitwise identical* to a full
re-extraction of the new frame on both backends - the property the
streaming equivalence tests pin down.  The cache and counters are guarded by a lock and
the extraction stages are pure, so concurrent ``window_queries`` calls
from a worker pool (see :class:`repro.pipeline.multiscale.
PyramidDetector`) are safe and return bitwise-identical results to serial
execution.  A :class:`repro.profiling.Profiler` can be attached to time
the stages and count their operations in the vocabulary of
:mod:`repro.hardware.opcount`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..core.hypervector import as_rng, pack_bits, packed_words, unpack_bits
from ..core.packed import block_dim, packed_majority
from ..features.hog_hd import HDHOGFields, HDHOGResult
from ..hardware.opcount import hd_hog_fields_profile, packed_assemble_profile
from ..profiling import NULL_PROFILER
from ..reliability.ecc import ecc_correct_array, ecc_encode_array
from ..reliability.integrity import digest_arrays

__all__ = ["SharedFeatureEngine", "scene_key", "validate_scene", "BACKENDS"]

BACKENDS = ("dense", "packed")


def scene_key(scene):
    """Content hash of a scene: cache key for its extracted fields."""
    arr = np.ascontiguousarray(scene, dtype=np.float64)
    digest = hashlib.blake2s(arr.tobytes(), digest_size=16).digest()
    return (arr.shape, digest)


def validate_scene(scene, name="scene"):
    """Boundary check for frames entering the engine; returns the array.

    Garbage that reaches the extraction stages does not crash - it
    silently poisons the scene cache (NaNs propagate through the float
    stages, then the poisoned entry is *served* to every later scan of
    the same content).  So the properties are checked once at entry and
    violations raise :class:`ValueError` naming the offending property:

    * ``dtype`` - must be real-numeric (no complex, object, bool, str);
    * ``ndim`` - must be a 2-D (H, W) grayscale frame;
    * ``empty`` - must contain at least one pixel;
    * ``nan`` / ``inf`` - every value must be finite.
    """
    arr = np.asarray(scene)
    if arr.dtype == object or not (np.issubdtype(arr.dtype, np.floating)
                                   or np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(
            f"{name} dtype must be real-numeric, got {arr.dtype}")
    if arr.ndim != 2:
        raise ValueError(
            f"{name} ndim must be 2 (H, W grayscale), got {arr.ndim} "
            f"(shape {arr.shape})")
    if arr.size == 0:
        raise ValueError(f"{name} is empty (shape {arr.shape})")
    if np.issubdtype(arr.dtype, np.floating):
        if np.isnan(arr).any():
            raise ValueError(f"{name} contains NaN values")
        if np.isinf(arr).any():
            raise ValueError(f"{name} contains infinite values")
    return arr


class _PackedFields:
    """Sign-packed per-pixel fields: the packed backend's cache payload.

    The magnitude hypervectors are bipolar, so packing them is lossless;
    ``dense()`` reconstitutes an :class:`~repro.features.hog_hd.
    HDHOGFields` bit-for-bit when a new anchor set needs the integer
    box-filter pass.
    """

    __slots__ = ("mag_packed", "bins", "dim")

    def __init__(self, fields, dim):
        self.mag_packed = pack_bits(fields.mag)
        self.bins = fields.bins
        self.dim = int(dim)

    @property
    def shape(self):
        """(H, W) of the underlying image."""
        return self.bins.shape

    def dense(self):
        """Exact dense reconstruction (transient, never cached)."""
        return HDHOGFields(unpack_bits(self.mag_packed, self.dim), self.bins)


class _PackedGrid:
    """Sign-packed cell-histogram grid plus the vote counts.

    ``packed`` is ``(n_y, n_x, B, W)`` uint64 - the sign (``0 -> +1``) of
    each (cell, bin) bundle - and ``counts`` keeps the integer votes so
    empty bins can be excluded from the majority during assembly.
    """

    __slots__ = ("packed", "counts")

    def __init__(self, packed, counts):
        self.packed = packed
        self.counts = counts


def _buffers(payload):
    """The long-lived buffers of a cached payload (any tier, either backend).

    The first buffer holds the hypervector words - what
    :meth:`SharedFeatureEngine.corrupt_cache` flips; a stored query set is
    a single array.
    """
    if isinstance(payload, np.ndarray):
        return (payload,)
    if isinstance(payload, _PackedFields):
        return (payload.mag_packed, payload.bins)
    if isinstance(payload, HDHOGFields):
        return (payload.mag, payload.bins)
    if isinstance(payload, _PackedGrid):
        return (payload.packed, payload.counts)
    return (payload.bundles, payload.counts)


def _seal(payload):
    """Insert-time content digest plus one SEC-DED parity sidecar per buffer."""
    bufs = _buffers(payload)
    return digest_arrays(*bufs), tuple(ecc_encode_array(a) for a in bufs)


class _CacheEntry:
    """Fields for one scene plus the payloads derived from them.

    ``grids`` maps an anchor union to its cell grid; ``queries`` maps
    ``(origins, window, word range, anchors)`` to the query set assembled
    from those grids, so a rescan of unchanged content skips assembly.
    When the owning engine scrubs, ``fields_seal`` / ``grid_seals`` /
    ``query_seals`` hold each payload's insert-time digest and SEC-DED
    parity (see :func:`_seal`); they are None on an unsealed entry.  A
    digest mismatch on a later hit means the cached words were corrupted
    in memory; the engine then tries an ECC correction in place (one byte
    of parity per ``uint64`` word corrects any single-bit error) and only
    falls back to a recompute when the digest still disagrees.
    """

    __slots__ = ("fields", "grids", "queries", "fields_seal", "grid_seals",
                 "query_seals")

    def __init__(self, fields, sealed=False):
        self.fields = fields
        self.grids = {}
        self.fields_seal = _seal(fields) if sealed else None
        self.grid_seals = {} if sealed else None
        self.drop_queries()

    def drop_queries(self):
        """Forget the stored query sets (their content is about to change).

        Fresh dicts rather than ``clear()``: an assembly still in flight
        on the old content stores into the orphaned ones.
        """
        self.queries = {}
        self.query_seals = None if self.grid_seals is None else {}

    def nbytes(self):
        """True byte footprint of the entry, whatever the backend stores."""
        payloads = [self.fields, *self.grids.values(), *self.queries.values()]
        total = sum(a.nbytes for p in payloads for a in _buffers(p))
        if self.fields_seal is not None:
            seals = [self.fields_seal, *self.grid_seals.values(),
                     *self.query_seals.values()]
            total += sum(a.nbytes for _, parity in seals for a in parity)
        return int(total)


class SharedFeatureEngine:
    """Whole-image feature extraction with per-window slicing and caching.

    Parameters
    ----------
    extractor:
        An :class:`repro.features.hog_hd.HDHOGExtractor` (or anything
        exposing its shared-pass API: ``extract_fields``, ``cell_grid_at``,
        ``bundle_query``, ``cell_size``, ``dim``).
    cache_size:
        Maximum number of scenes whose fields stay cached (LRU).  An image
        pyramid wants this at least as deep as its number of levels.
    profiler:
        Optional :class:`repro.profiling.Profiler`; stages ``fields``,
        ``cell_grid`` and ``assemble`` are timed and op-counted on it.
    backend:
        ``"dense"`` (float reference, bitwise equal to the per-window
        recompute) or ``"packed"`` (bit-packed binary path; see the module
        docstring).  Decides both what the cache stores and what
        :meth:`window_queries` returns.
    workers:
        Thread count for the strip-parallel fields pass (the stochastic
        per-pixel stages release the GIL inside NumPy).  1 = serial.
        Results are bitwise independent of the worker count.
    scrub:
        When True, every cached buffer (fields, cell grids and stored
        query sets) carries a content digest *and* a SEC-DED parity
        sidecar taken at insert time; the digest is re-checked on every
        hit.  A mismatch (memory corruption, see
        :meth:`corrupt_cache`) walks a repair ladder: ECC-correct the
        buffers in place (any single-bit error per 64-bit word, digest-
        verified), else recompute the entry - corrupt features are never
        served either way.  :meth:`scrub_cache` runs the same ladder as
        a background sweep so corruption is repaired before the unlucky
        hit, not on it.  Outcomes are counted in :meth:`cache_info`
        (``scrub_checks`` / ``scrub_mismatches`` / ``scrub_repairs`` /
        ``scrub_evictions``).

    Examples
    --------
    >>> from repro.features.hog_hd import HDHOGExtractor
    >>> ext = HDHOGExtractor(dim=256, cell_size=8, magnitude="l1",
    ...                      seed_or_rng=0)
    >>> eng = SharedFeatureEngine(ext)
    >>> scene = np.random.default_rng(0).random((32, 32))
    >>> q = eng.window_queries(scene, [(0, 0), (8, 8)], window=16)
    >>> q.shape
    (2, 256)
    """

    def __init__(self, extractor, cache_size=8, profiler=None,
                 backend="dense", workers=1, scrub=False):
        self.extractor = extractor
        self.cache_size = int(cache_size)
        if self.cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        self.backend = backend
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.scrub = bool(scrub)
        self._cache = OrderedDict()
        self._lock = threading.RLock()
        self._inflight = {}
        self._packed_keys = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.scrub_checks = 0
        self.scrub_mismatches = 0
        self.scrub_repairs = 0
        self.scrub_evictions = 0
        self.ecc_corrected_words = 0
        self.ecc_detected_words = 0
        # frame-delta reuse counters (see delta_update)
        self.delta_updates = 0
        self.delta_reused = 0
        self.delta_patched = 0
        self.delta_full = 0
        self.delta_pixels = 0
        self.delta_dirty_pixels = 0
        # cascade prefix-assembly counters (see window_queries_prefix)
        self.prefix_assembles = 0
        self.prefix_windows = 0
        self.prefix_words = 0

    # ------------------------------------------------------------------
    # scene-fields cache
    # ------------------------------------------------------------------
    def _entry(self, scene):
        """Cached fields for ``scene``, extracting (and evicting) as needed.

        Thread-safe: the dict and counters are touched under the lock, the
        slow extraction runs outside it.  Extraction is *single-flight*:
        when several threads miss on the same uncached scene (the fleet
        regime - N lockstepped streams serving the same content), one
        claims the key in ``_inflight`` and extracts while the rest wait
        on its marker and then serve the cached result, instead of all
        redundantly extracting.  (The keyed noise would make the
        redundant results bitwise identical - the stampede costs time,
        never correctness.)
        """
        key = scene_key(scene)
        while True:
            with self._lock:
                entry = self._cache.get(key)
                if entry is not None and self.scrub and \
                        not self._verified(entry.fields, entry.fields_seal):
                    # corrupt cached fields beyond SEC-DED reach: recompute,
                    # never serve corrupt features
                    del self._cache[key]
                    entry = None
                if entry is not None:
                    self.hits += 1
                    self._cache.move_to_end(key)
                    return entry
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    self.misses += 1
                    break
            # another thread is extracting this exact scene: wait for its
            # insert, then loop (a re-miss - eviction, scrub - re-claims)
            waiter.wait()
        try:
            fields = self._extract_fields(scene)
            if self.backend == "packed":
                fields = _PackedFields(fields, self.extractor.dim)
            fresh = _CacheEntry(fields, sealed=self.scrub)
            with self._lock:
                entry = self._cache.get(key)
                if entry is None:
                    entry = self._cache[key] = fresh
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
                        self.evictions += 1
                else:
                    self._cache.move_to_end(key)
                return entry
        finally:
            with self._lock:
                waiter = self._inflight.pop(key, None)
            if waiter is not None:
                waiter.set()

    def _extract_fields(self, scene, injector=None):
        ext = self.extractor
        with self.profiler.stage("fields"):
            if self.workers > 1:
                fields = ext.extract_fields(scene, injector,
                                            workers=self.workers)
            else:
                fields = ext.extract_fields(scene, injector)
        self.profiler.add_profile(
            "fields",
            hd_hog_fields_profile(fields.shape, ext.dim, n_bins=ext.n_bins,
                                  magnitude=ext.magnitude,
                                  sqrt_iters=ext.sqrt_iters, gamma=ext.gamma),
            items=fields.shape[0] * fields.shape[1],
        )
        return fields

    def scene_fields(self, scene):
        """Per-pixel fields for ``scene`` (cached).

        Dense backend returns :class:`~repro.features.hog_hd.HDHOGFields`;
        the packed backend returns its packed cache payload (call
        ``.dense()`` for the bipolar reconstruction).
        """
        return self._entry(validate_scene(scene)).fields

    def cache_info(self):
        """Cache statistics: backend, hit/miss/eviction counters, true bytes."""
        with self._lock:
            return {
                "backend": self.backend,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._cache),
                "capacity": self.cache_size,
                "bytes": sum(e.nbytes() for e in self._cache.values()),
                "scrub": self.scrub,
                "scrub_checks": self.scrub_checks,
                "scrub_mismatches": self.scrub_mismatches,
                "scrub_repairs": self.scrub_repairs,
                "scrub_evictions": self.scrub_evictions,
                "ecc_corrected_words": self.ecc_corrected_words,
                "ecc_detected_words": self.ecc_detected_words,
                "delta_updates": self.delta_updates,
                "delta_reused": self.delta_reused,
                "delta_patched": self.delta_patched,
                "delta_full": self.delta_full,
                "delta_pixels": self.delta_pixels,
                "delta_dirty_pixels": self.delta_dirty_pixels,
                "prefix_assembles": self.prefix_assembles,
                "prefix_windows": self.prefix_windows,
                "prefix_words": self.prefix_words,
            }

    def cache_nbytes(self):
        """Resident bytes of the scene cache (payloads + parity sidecars)."""
        with self._lock:
            return sum(e.nbytes() for e in self._cache.values())

    def _verified(self, payload, seal):
        """Digest-check ``payload``; True when it is clean or ECC-repaired.

        On a mismatch the buffers are SEC-DED-corrected in place against
        the parity in ``seal`` (see :func:`_seal`) and must then hash back
        to the insert-time digest, so a miscorrection (3+ flipped bits
        aliasing to a valid-looking syndrome) cannot pass as a repair.
        Counts every outcome; on False the payload is counted as evicted
        and the caller must drop it.  Caller holds the lock.
        """
        digest, parity = seal
        bufs = _buffers(payload)
        self.scrub_checks += 1
        if digest_arrays(*bufs) == digest:
            return True
        self.scrub_mismatches += 1
        for arr, par in zip(bufs, parity):
            corrected, detected = ecc_correct_array(arr, par)
            self.ecc_corrected_words += corrected
            self.ecc_detected_words += detected
        if digest_arrays(*bufs) == digest:
            self.scrub_repairs += 1
            return True
        self.scrub_evictions += 1
        return False

    def _lookup(self, store, seals, key):
        """``store[key]``, verified first when ``seals`` is kept; or None.

        A payload beyond ECC repair is dropped with its seal, so the
        caller recomputes it.  Caller holds the lock.
        """
        payload = store.get(key)
        if payload is not None and seals is not None and \
                not self._verified(payload, seals[key]):
            del store[key], seals[key]
            return None
        return payload

    def _insert(self, store, seals, key, payload):
        """Store ``payload`` (sealed when ``seals`` is kept) unless another
        thread already did; returns the stored one.  Caller holds the lock.
        """
        stored = store.setdefault(key, payload)
        if stored is payload and seals is not None:
            seals[key] = _seal(payload)
        return stored

    def _sweep(self, store, seals):
        """Verify every payload of one derived tier, dropping the bad."""
        for key in list(store):
            self._lookup(store, seals, key)

    def _scrub_counts(self):
        return (self.scrub_checks, self.scrub_mismatches, self.scrub_repairs,
                self.scrub_evictions)

    def scrub_cache(self):
        """Background sweep: verify and repair every cached buffer now.

        The push half of cache scrubbing (the hit-time check is the pull
        half): digest-checks every cached fields payload, derived grid and
        stored query set without waiting for an access, ECC-corrects
        mismatches in place, and evicts what SEC-DED cannot bring back (a
        later access then recomputes it - recompute-as-repair).  Called
        by :class:`repro.reliability.scrubber.MemoryScrubber` under its
        byte budget.  Returns the sweep report.
        """
        with self._lock:
            swept = sum(e.nbytes() for e in self._cache.values())
            before = self._scrub_counts()
            if self.scrub:
                for key, entry in list(self._cache.items()):
                    if not self._verified(entry.fields, entry.fields_seal):
                        # fields beyond ECC reach: everything derived from
                        # them is suspect too, drop the whole entry
                        del self._cache[key]
                        continue
                    self._sweep(entry.grids, entry.grid_seals)
                    self._sweep(entry.queries, entry.query_seals)
            checked, mismatches, repaired, evicted = (
                now - then for now, then in zip(self._scrub_counts(), before))
        return {"checked": checked, "mismatches": mismatches,
                "repaired": repaired, "evicted": evicted, "bytes": swept}

    def clear(self):
        """Drop every cached scene (counters keep accumulating)."""
        with self._lock:
            self._cache.clear()

    def corrupt_cache(self, rate, seed_or_rng=None):
        """Flip stored bits of every cached buffer in place (fault surface).

        Models memory corruption of the resident scene cache: each real
        bit of every cached fields tensor, cell grid and stored query set
        flips independently with ``rate`` (packed entries via
        :func:`repro.reliability.faults.flip_packed_words`, which never
        touches pad bits; dense entries via sign flips on the bipolar
        magnitude field and negation of histogram counters and query
        components, matching :func:`repro.noise.bitflip.flip_bipolar`
        conventions).  Seals taken at insert time are deliberately *not*
        refreshed, so a scrubbing engine detects the corruption on the
        next hit (or :meth:`scrub_cache` sweep) and repairs it, while a
        non-scrubbing engine serves it.  Returns the number of corrupted
        buffers.
        """
        from ..noise.bitflip import flip_bipolar
        from ..reliability.faults import flip_packed_words
        rng = as_rng(seed_or_rng)
        dim = self.extractor.dim
        corrupted = 0
        with self._lock:
            for entry in self._cache.values():
                targets = [(p, dim) for p in (entry.fields,
                                              *entry.grids.values())]
                # a stored word-prefix block holds only its block's bits
                targets += [(q, dim if qkey[2] is None
                             else block_dim(dim, *qkey[2]))
                            for qkey, q in entry.queries.items()]
                for payload, bits in targets:
                    arr = _buffers(payload)[0]
                    if self.backend == "packed":
                        arr[...] = flip_packed_words(arr, bits, rate, rng)
                    else:
                        arr[...] = flip_bipolar(arr, rate, rng)
                corrupted += len(targets)
        return corrupted

    # ------------------------------------------------------------------
    # frame-delta incremental extraction
    # ------------------------------------------------------------------
    @staticmethod
    def _dirty_rect(prev, scene, pad=1):
        """Dirty rectangle ``(y0, y1, x0, x1, n_changed)`` or None.

        The bounding box of the changed pixels, dilated by ``pad`` pixels
        and clamped to the frame: the per-pixel fields read a one-pixel
        gradient context ring (clamped at borders exactly like the
        replicate padding), so every field value outside the dilated box
        is a pure function of unchanged pixels and unchanged keyed noise.
        """
        diff = prev != scene
        rows = np.flatnonzero(diff.any(axis=1))
        if rows.size == 0:
            return None
        cols = np.flatnonzero(diff.any(axis=0))
        h, w = diff.shape
        return (max(int(rows[0]) - pad, 0), min(int(rows[-1]) + 1 + pad, h),
                max(int(cols[0]) - pad, 0), min(int(cols[-1]) + 1 + pad, w),
                int(diff.sum()))

    def _region_fields(self, scene, y0, y1, x0, x1):
        """Profiled stages 1-4 over one rectangle (strip-decomposed).

        Keyed noise makes the result bitwise equal to the matching slice
        of a whole-scene ``extract_fields`` pass, whatever the strip size.
        """
        ext = self.extractor
        w = x1 - x0
        strip_rows = max(8, (1 << 21) // max(w * ext.dim, 1))
        with self.profiler.stage("delta_fields"):
            ext.verify_items()
            parts = [
                ext._fields_region(scene, (r0, x0),
                                   (min(strip_rows, y1 - r0), w))
                for r0 in range(y0, y1, strip_rows)
            ]
            if len(parts) == 1:
                mag, bins = parts[0].mag, parts[0].bins
            else:
                mag = np.concatenate([p.mag for p in parts], axis=0)
                bins = np.concatenate([p.bins for p in parts], axis=0)
        self.profiler.add_profile(
            "delta_fields",
            hd_hog_fields_profile((y1 - y0, w), ext.dim, n_bins=ext.n_bins,
                                  magnitude=ext.magnitude,
                                  sqrt_iters=ext.sqrt_iters, gamma=ext.gamma),
            items=(y1 - y0) * w,
        )
        return mag, bins

    def _patch_grids(self, entry, y0, y1, x0, x1):
        """Recompute the cached grids' cells overlapping the dirty rect.

        A (cell, bin) bundle reads exactly the ``cell_size``-square pixel
        block at its anchor, so only cells whose block intersects
        ``[y0, y1) x [x0, x1)`` can change; the rest keep their cached
        words.  Returns ``(cells_total, cells_recomputed)``.
        """
        ext = self.extractor
        c = ext.cell_size
        fields = entry.fields
        total = dirty = 0
        for gkey, grid in entry.grids.items():
            ys = np.frombuffer(gkey[0], dtype=np.int64)
            xs = np.frombuffer(gkey[1], dtype=np.int64)
            total += ys.size * xs.size
            di = np.flatnonzero((ys < y1) & (ys + c > y0))
            dj = np.flatnonzero((xs < x1) & (xs + c > x0))
            if di.size == 0 or dj.size == 0:
                continue
            dirty += di.size * dj.size
            ra, rb = int(ys[di[0]]), int(ys[di[-1]]) + c
            ca, cb = int(xs[dj[0]]), int(xs[dj[-1]]) + c
            if isinstance(fields, _PackedFields):
                crop = HDHOGFields(
                    unpack_bits(fields.mag_packed[ra:rb, ca:cb], ext.dim),
                    fields.bins[ra:rb, ca:cb])
            else:
                crop = HDHOGFields(fields.mag[ra:rb, ca:cb],
                                   fields.bins[ra:rb, ca:cb])
            with self.profiler.stage("delta_grid"):
                sub = ext.cell_grid_at(crop, ys[di] - ra, xs[dj] - ca)
                if isinstance(grid, _PackedGrid):
                    sub = self._pack_grid(sub)
                    grid.packed[np.ix_(di, dj)] = sub.packed
                else:
                    grid.bundles[np.ix_(di, dj)] = sub.bundles
                grid.counts[np.ix_(di, dj)] = sub.counts
            px_d = float((rb - ra) * (cb - ca)) * ext.dim
            self.profiler.add_ops(
                "delta_grid", items=di.size * dj.size,
                bit=ext.n_bins * px_d, int_add=2 * ext.n_bins * px_d,
                mem_bytes=ext.n_bins * px_d / 4,
            )
            if entry.grid_seals is not None:
                entry.grid_seals[gkey] = _seal(grid)
        return total, dirty

    def delta_update(self, prev_scene, scene, full_fraction=0.85):
        """Re-key ``prev_scene``'s cached entry to ``scene``, patching deltas.

        The streaming fast path: instead of extracting ``scene`` from
        scratch, diff it against ``prev_scene`` (whose fields must already
        be cached for reuse to happen), recompute stages 1-4 over the
        dirty rectangle only, patch the rectangle and the dirty grid cells
        into the cached entry, and re-insert it under ``scene``'s cache
        key.  A subsequent ``window_queries(scene, ...)`` then hits the
        cache - with results *bitwise identical* to a cold full
        re-extraction, on both backends, because the stochastic stages
        draw position-keyed noise.  The previous frame's entry is *moved*,
        not copied: it leaves the cache as the patch claims it, and its
        stored query sets are dropped (they re-assemble on the next scan).

        Parameters
        ----------
        prev_scene, scene:
            The previous and the incoming frame (same shape).
        full_fraction:
            When the dirty rectangle covers at least this fraction of the
            frame, fall back to the strip-parallel full extraction pass
            (the patch path's bookkeeping would only add overhead).

        Returns
        -------
        dict with the reuse accounting: ``mode`` (``"reused"`` - frame
        content already cached; ``"full"`` - cold or near-whole-frame
        recompute; ``"patched"`` - the incremental path), ``pixels``,
        ``dirty_pixels``, ``dirty_rect``, ``cells`` / ``dirty_cells``
        (cached-grid cells total / recomputed).
        """
        validate_scene(prev_scene, "prev_scene")
        validate_scene(scene)
        prev = np.ascontiguousarray(prev_scene, dtype=np.float64)
        new = np.ascontiguousarray(scene, dtype=np.float64)
        if prev.shape != new.shape:
            raise ValueError(f"frame shape changed: {prev.shape} -> "
                             f"{new.shape}; delta reuse needs equal shapes")
        stats = {"mode": "patched", "pixels": int(new.size),
                 "dirty_pixels": 0, "dirty_rect": None,
                 "cells": 0, "dirty_cells": 0}
        with self._lock:
            self.delta_updates += 1
            self.delta_pixels += new.size
        new_key = scene_key(new)
        # single-flight per target frame: lockstepped streams all diffing
        # toward the same content (the fleet regime) patch once - the
        # claimer computes, the rest wait and then take the "reused" hit
        token = ("delta", new_key)
        while True:
            with self._lock:
                if new_key in self._cache:
                    # unchanged frame (or already-seen content): no work
                    self._cache.move_to_end(new_key)
                    self.hits += 1
                    self.delta_reused += 1
                    stats["mode"] = "reused"
                    return stats
                waiter = self._inflight.get(token)
                if waiter is None:
                    self._inflight[token] = threading.Event()
                    break
            waiter.wait()
        try:
            with self._lock:
                # claim the base in the same lock hold that finds it: two
                # streams leaving one frame for different frames must not
                # both patch the same entry object
                entry = self._cache.pop(scene_key(prev), None)
                if entry is not None:
                    entry.drop_queries()
                if entry is not None and self.scrub:
                    # the delta path *refreshes* seals after patching, so
                    # reusing a corrupted base would launder the corruption
                    # into the new frame's golden digest - verify (and
                    # repair) the base before trusting it
                    if self._verified(entry.fields, entry.fields_seal):
                        self._sweep(entry.grids, entry.grid_seals)
                    else:
                        entry = None
            rect = None if entry is None else self._dirty_rect(prev, new)
            if rect is not None:
                y0, y1, x0, x1, n_changed = rect
                stats["dirty_pixels"] = n_changed
                stats["dirty_rect"] = (y0, y1, x0, x1)
                with self._lock:
                    self.delta_dirty_pixels += n_changed
            if rect is None or \
                    (y1 - y0) * (x1 - x0) >= full_fraction * new.size:
                # cold start (no cached base) or near-whole-frame change:
                # the plain extraction path beats patching
                self._entry(new)
                with self._lock:
                    self.delta_full += 1
                stats["mode"] = "full"
                return stats
            mag, bins = self._region_fields(new, y0, y1, x0, x1)
            fields = entry.fields
            if isinstance(fields, _PackedFields):
                fields.mag_packed[y0:y1, x0:x1] = pack_bits(mag)
            else:
                fields.mag[y0:y1, x0:x1] = mag
            fields.bins[y0:y1, x0:x1] = bins
            stats["cells"], stats["dirty_cells"] = \
                self._patch_grids(entry, y0, y1, x0, x1)
            if entry.fields_seal is not None:
                entry.fields_seal = _seal(fields)
            with self._lock:
                self._cache.setdefault(new_key, entry)
                self._cache.move_to_end(new_key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                    self.evictions += 1
                self.delta_patched += 1
            return stats
        finally:
            with self._lock:
                waiter = self._inflight.pop(token, None)
            if waiter is not None:
                waiter.set()

    # ------------------------------------------------------------------
    # window queries
    # ------------------------------------------------------------------
    def _anchors(self, origins, window):
        """Union of cell anchors needed by ``origins``: sorted rows, cols."""
        c = self.extractor.cell_size
        if window % c:
            raise ValueError(
                f"window {window} not divisible by cell_size {c}")
        n = window // c
        ys = sorted({int(y) + c * i for y, _ in origins for i in range(n)})
        xs = sorted({int(x) + c * i for _, x in origins for i in range(n)})
        return np.asarray(ys, dtype=np.int64), np.asarray(xs, dtype=np.int64), n

    def _dense_grid(self, fields, ys, xs):
        """One profiled ``cell_grid_at`` pass over dense fields."""
        ext = self.extractor
        with self.profiler.stage("cell_grid"):
            grid = ext.cell_grid_at(fields, ys, xs)
        h, w = fields.shape
        px_d = float(h * w) * ext.dim
        self.profiler.add_ops(
            "cell_grid", items=len(ys) * len(xs),
            bit=ext.n_bins * px_d, int_add=2 * ext.n_bins * px_d,
            mem_bytes=ext.n_bins * px_d / 4,
        )
        return grid

    def _grid(self, entry, ys, xs):
        """Cell grid at the anchor union (cached per scene entry).

        For the packed backend the dense box-filter result is
        sign-quantized and packed before it enters the cache; the dense
        intermediates are transient.  On a sealed entry a cached grid is
        verified on every hit: ECC-corrected in place when possible, else
        recomputed from the (itself verified) cached fields.
        """
        gkey = (ys.tobytes(), xs.tobytes())
        with self._lock:
            grid = self._lookup(entry.grids, entry.grid_seals, gkey)
        if grid is not None:
            return grid
        if isinstance(entry.fields, _PackedFields):
            grid = self._pack_grid(
                self._dense_grid(entry.fields.dense(), ys, xs))
        else:
            grid = self._dense_grid(entry.fields, ys, xs)
        with self._lock:
            return self._insert(entry.grids, entry.grid_seals, gkey, grid)

    def _pack_grid(self, dense_grid):
        """Sign-quantize (``0 -> +1``) and bit-pack a dense cell grid."""
        signs = np.where(dense_grid.bundles >= 0, 1, -1).astype(np.int8)
        return _PackedGrid(pack_bits(signs), dense_grid.counts)

    def _window_keys_packed(self, n):
        """Packed positional keys for an ``n x n``-cell window (cached)."""
        with self._lock:
            keys = self._packed_keys.get(n)
            if keys is None:
                keys = pack_bits(self.extractor._keys(n, n))
                self._packed_keys[n] = keys
            return keys

    def window_queries(self, scene, origins, window, injector=None):
        """Query hypervectors for windows at ``origins``.

        Dense backend: float32 ``(n_windows, D)`` rows, each bitwise
        identical to ``extractor.window_query(scene, origin, window)`` -
        the per-window recompute - but with the expensive stages run once
        for the whole scene.

        Packed backend: uint64 ``(n_windows, ceil(D / 64))`` packed binary
        queries - each window's sign-quantized (cell, bin) bundles bound to
        the positional keys by XNOR and bundled by a majority vote over the
        non-empty bins, entirely in the packed domain.  Classify them with
        :class:`repro.core.packed.PackedClassModel`.

        The assembled set is kept in the scene's cache entry, so the next
        call for the same content and windows skips assembly; callers get
        a read-only view of it.  ``injector`` (fault-injection hook)
        bypasses the cache: corrupted fields and queries are computed
        fresh and never stored, so later clean scans of the same scene are
        unaffected.
        """
        return self._queries(scene, origins, window, injector, None)

    def window_queries_prefix(self, scene, origins, window,
                              word_start, word_stop, injector=None,
                              anchors=None):
        """Packed query *word block* ``[word_start, word_stop)`` only.

        The cascade scanner's assembly primitive (packed backend only):
        returns uint64 ``(n_windows, word_stop - word_start)`` - bitwise
        identical to the same word slice of :meth:`window_queries`,
        because :func:`~repro.core.packed.packed_majority` votes each
        word lane independently and the empty-bin mask is per-feature,
        not per-word.  Assembling a short prefix therefore costs only
        the prefix's fraction of the full bind+majority work, which is
        what makes stage-1 cascade rejection cheap.

        Blocks are stored like full query sets.  Assembly that runs is
        recorded under the profiler stage ``assemble_prefix`` (not
        ``assemble``) and counted in :meth:`cache_info` under
        ``prefix_assembles`` / ``prefix_windows`` / ``prefix_words``, so
        cascade reuse stays attributable in benchmarks.

        ``anchors=(ys, xs)`` substitutes a precomputed cell-anchor union
        (a superset of the origins' own anchors, e.g. the whole cascade
        pass's union) so successive escalation stages over shrinking
        survivor sets share one cached cell grid instead of deriving a
        new grid per subset.
        """
        if self.backend != "packed":
            raise ValueError(
                "window_queries_prefix requires backend='packed'; the dense "
                "backend has no word-prefix axis")
        w0, w1 = int(word_start), int(word_stop)
        block_dim(self.extractor.dim, w0, w1)  # validates the range
        return self._queries(scene, origins, window, injector, (w0, w1),
                             anchors)

    def _scan_entry(self, scene, origins, injector):
        """Validated ``origins`` and the cache entry a scan reads.

        ``injector`` scans get a transient, unsealed entry over freshly
        extracted (faulty) fields that is never cached.
        """
        scene = validate_scene(scene)
        origins = [(int(y), int(x)) for y, x in origins]
        if not origins:
            raise ValueError("need at least one window origin")
        if injector is None:
            return self._entry(scene), origins
        fields = self._extract_fields(scene, injector)
        if self.backend == "packed":
            fields = _PackedFields(fields, self.extractor.dim)
        return _CacheEntry(fields), origins

    def _scan_grid(self, entry, origins, window, anchors):
        """``(grid, ys, xs, n)``: the cell grid at the anchor union."""
        if anchors is None:
            ys, xs, n = self._anchors(origins, window)
        else:
            ys, xs = (np.asarray(a, dtype=np.int64) for a in anchors)
            n = window // self.extractor.cell_size
        return self._grid(entry, ys, xs), ys, xs, n

    def _queries(self, scene, origins, window, injector, word_range,
                 anchors=None):
        """Stored query set for these windows, assembling it on a miss."""
        window = int(window)
        entry, origins = self._scan_entry(scene, origins, injector)
        qkey = (np.asarray(origins, dtype=np.int64).tobytes(), window,
                word_range, None if anchors is None else tuple(
                    np.asarray(a, dtype=np.int64).tobytes() for a in anchors))
        with self._lock:
            # captured before assembly: a delta patch swaps in fresh
            # stores, so a set assembled from the old content lands in the
            # orphaned ones
            store, seals = entry.queries, entry.query_seals
            queries = self._lookup(store, seals, qkey)
        if queries is None:
            grid, ys, xs, n = self._scan_grid(entry, origins, window,
                                              anchors)
            if self.backend == "packed":
                queries = self._assemble_packed(grid, origins, ys, xs, n,
                                                injector, word_range)
            else:
                queries = self._assemble_dense(grid, origins, ys, xs, n,
                                               injector)
            with self._lock:
                queries = self._insert(store, seals, qkey, queries)
        # the engine keeps the writable base for ECC repair and faults
        view = queries.view()
        view.flags.writeable = False
        return view

    def _assemble_dense(self, grid, origins, ys, xs, n, injector):
        """Float reference assembly: slice, bind, weight, accumulate."""
        ext = self.extractor
        c = ext.cell_size
        offsets = c * np.arange(n, dtype=np.int64)
        queries = np.empty((len(origins), ext.dim), dtype=np.float32)
        with self.profiler.stage("assemble"):
            for k, (y, x) in enumerate(origins):
                ri = np.searchsorted(ys, y + offsets)
                ci = np.searchsorted(xs, x + offsets)
                sub = HDHOGResult(grid.bundles[np.ix_(ri, ci)],
                                  grid.counts[np.ix_(ri, ci)],
                                  grid.cell_pixels)
                if injector is not None:
                    sub.bundles = injector(sub.bundles, "histogram")
                queries[k] = ext.bundle_query(sub)
        feats_d = float(n * n * ext.n_bins) * ext.dim
        self.profiler.add_ops("assemble", items=len(origins),
                              bit=feats_d * len(origins),
                              int_add=feats_d * len(origins))
        return queries

    def _assemble_packed(self, grid, origins, ys, xs, n, injector,
                         word_range=None):
        """Packed assembly: gather cells, XNOR-bind keys, majority-bundle.

        Fully vectorized over windows; the only per-feature work is the
        bit-sliced vertical-counter accumulation inside
        :func:`~repro.core.packed.packed_majority`.  ``injector`` (stage
        ``"histogram"``) corrupts the packed cell words before binding.

        ``word_range=(w0, w1)`` restricts gather, bind and majority to
        that word block: the majority votes word lanes independently, so
        the result equals ``full_queries[:, w0:w1]`` bit for bit while
        touching only ``(w1 - w0) / W`` of the words.
        """
        ext = self.extractor
        dim = ext.dim
        if word_range is None:
            w0, w1 = 0, packed_words(dim)
            bdim, stage = dim, "assemble"
        else:
            w0, w1 = word_range
            bdim, stage = block_dim(dim, w0, w1), "assemble_prefix"
        c = ext.cell_size
        with self.profiler.stage(stage):
            offsets = c * np.arange(n, dtype=np.int64)
            oy = np.asarray([y for y, _ in origins], dtype=np.int64)
            ox = np.asarray([x for _, x in origins], dtype=np.int64)
            ri = np.searchsorted(ys, oy[:, None] + offsets[None, :])
            ci = np.searchsorted(xs, ox[:, None] + offsets[None, :])
            cells = grid.packed[ri[:, :, None], ci[:, None, :], :, w0:w1]
            counts = grid.counts[ri[:, :, None], ci[:, None, :]]
            if injector is not None:
                cells = injector(cells, "histogram")
            keys = self._window_keys_packed(n)[..., w0:w1]
            bound = ~np.bitwise_xor(cells, keys[None])
            n_feat = n * n * ext.n_bins
            queries = packed_majority(
                bound.reshape(len(origins), n_feat, w1 - w0), bdim,
                valid=(counts > 0).reshape(len(origins), n_feat))
        self.profiler.add_profile(
            stage,
            packed_assemble_profile(n * c, bdim, cell_size=c,
                                    n_bins=ext.n_bins) * len(origins),
            items=len(origins),
        )
        if word_range is not None:
            with self._lock:
                self.prefix_assembles += 1
                self.prefix_windows += len(origins)
                self.prefix_words += (w1 - w0) * len(origins)
        return queries
