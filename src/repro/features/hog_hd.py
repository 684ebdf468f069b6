"""HOG feature extraction performed entirely in hyperdimensional space.

This module implements Section 4.3 of the paper: every pixel becomes a
stochastic hypervector and the whole HOG pipeline - gradients, magnitude,
orientation binning, histogram accumulation - runs on hypervectors using the
arithmetic of :class:`repro.core.stochastic.StochasticCodec`:

* **Gradients** - ``V_Gx = V_C[y+1,x] (+) (-V_C[y-1,x])`` represents
  ``(C_down - C_up) / 2`` exactly as in the paper.
* **Magnitude** - ``sqrt((Gx^2 + Gy^2) / 2)`` with decorrelated squaring and
  the hyperspace binary-search square root (the paper notes the ``1/sqrt 2``
  scale cancels downstream).  A cheap ``l1`` mode (``(|Gx| + |Gy|)/2``) is
  provided for large sweeps.
* **Angle binning** - the paper's monotone-tan scheme: quadrant localization
  from the gradient signs, then comparisons of ``tan(theta)`` against bin
  boundaries via the alpha-vector ``0.5 (sigma V_|Gy|) (+) 0.5 (-V_{r |Gx|})``
  (and the reciprocal/cot form when ``|r| > 1``).  The bin decision - like
  every comparison in the paper - is a similarity readout, so bin indices
  and bin *counts* are legitimately scalar quantities.
* **Histogram accumulation** - each (cell, bin) accumulates the *bundle*
  (integer component-wise sum) of the magnitude hypervectors of every pixel
  that voted for the bin, plus the exact vote count from the binning stage.
  The bundle decodes to ``count * mean in-bin magnitude``; together with the
  count this is the classic per-cell histogram.  Bundling all in-bin pixels
  (rather than stochastic component subsampling) averages the sign noise of
  each component over the bin population, which keeps query-to-query
  similarity well above the ``1/sqrt(D)`` noise floor.

The extractor finally binds each (cell, bin) magnitude hypervector to a
fixed positional key, weights it by its count fraction, and bundles
everything into one *query hypervector*: feature extraction hands learning a
vector that is already in hyperspace, which is why HDFace's classifier needs
no encoding step (paper Sec. 5).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..core.hypervector import as_rng, random_hypervector
from ..core.keyed_noise import (KeyedNoise, RematerializingItemMemory,
                                replay_generator)
from ..core.stochastic import StochasticCodec, _bitselect, _bool_mask
from .gradients import cell_grid

__all__ = ["HDHOGExtractor", "HDHOGResult", "HDHOGFields"]


def _identity_injector(hv, stage):
    return hv


class _KeyedOps:
    """Codec facade whose randomness is position-keyed instead of stateful.

    Wraps a :class:`StochasticCodec` but replaces every rng-consuming
    primitive (fair-coin averages, constructions, the square-root search)
    with draws from a :class:`KeyedNoise` stream addressed by the op's
    sequence number and the *absolute* scene position of each element.  Two
    extractions that execute the same op sequence over regions of the same
    scene therefore agree bitwise wherever their regions overlap - the
    property that lets the shared-feature detection engine compute the
    expensive per-pixel stages once and slice them per window, while the
    per-window reference path recomputes them and still lands on identical
    hypervectors.

    The op counter advances only on rng-consuming calls, and the op
    sequence of an extraction is fixed by the extractor configuration (not
    by the data or the region size), so corresponding ops in different
    decompositions of the same scene always read the same stream.
    """

    def __init__(self, codec, noise, scene_shape, origin, size):
        self.codec = codec
        self.noise = noise
        self.scene_width = int(scene_shape[1])
        y0, x0 = origin
        h, w = size
        self.row0 = int(y0)
        self.n_rows = int(h)
        self._cols = slice(int(x0), int(x0) + int(w))
        self._op = 0

    def _stage(self, kind):
        name = f"hog.{self._op}.{kind}"
        self._op += 1
        return name

    def _rows_of(self, flat):
        """Reshape per-row stream values to (rows, W, D) and slice columns."""
        full = flat.reshape(self.n_rows, self.scene_width, self.codec.dim)
        return full[:, self._cols]

    # -- rng-consuming primitives, keyed ------------------------------
    def add_half(self, a, b):
        mask = self._rows_of(self.noise.coin_mask(
            self._stage("coin"), self.row0, self.n_rows,
            self.scene_width * self.codec.dim))
        return _bitselect(mask, np.asarray(a, np.int8), np.asarray(b, np.int8))

    def sub_half(self, a, b):
        return self.add_half(a, self.codec.negate(b))

    def construct(self, values):
        values = np.asarray(values, dtype=np.float64)
        p_plus = ((1.0 + values[..., None]) / 2.0).astype(np.float32)
        draws = self._rows_of(self.noise.uniform(
            self._stage("uniform"), self.row0, self.n_rows,
            self.scene_width * self.codec.dim))
        mask = _bool_mask(draws < p_plus)
        return _bitselect(mask, self.codec.basis, self.codec._neg_basis)

    def sqrt(self, hv, iters=12):
        hv = np.asarray(hv, np.int8)
        batch = hv.shape[:-1]
        low = self.construct(np.zeros(batch))
        high = self.codec.one(batch)
        target = self.codec.decode(hv)
        for _ in range(int(iters)):
            mid = self.add_half(low, high)
            mid_sq = self.codec.square(mid)
            mask = _bool_mask(self.codec.decode(mid_sq) > target)[..., None]
            high = _bitselect(mask, mid, high)
            low = _bitselect(mask, low, mid)
        return self.add_half(low, high)

    # -- deterministic primitives delegate to the codec ----------------
    def negate(self, hv):
        return self.codec.negate(hv)

    def multiply(self, a, b):
        return self.codec.multiply(a, b)

    def square(self, hv):
        return self.codec.square(hv)

    def decode(self, hv):
        return self.codec.decode(hv)

    def compare(self, a, b, tolerance=0.0):
        return self.codec.compare(a, b, tolerance)

    def sign_of(self, hv, tolerance=0.0):
        return self.codec.sign_of(hv, tolerance)


@dataclass
class HDHOGResult:
    """Output of the hyperspace HOG pipeline.

    Attributes
    ----------
    bundles:
        ``(n_y, n_x, B, D)`` int16 bundled hypervectors: the component-wise
        sum of the magnitude hypervectors of every pixel that voted for the
        (cell, bin).  Decodes to ``count * mean in-bin magnitude``.
    counts:
        ``(n_y, n_x, B)`` int64 vote counts per (cell, bin).
    cell_pixels:
        Pixels per cell (``cell_size ** 2``), the histogram normalizer.
    """

    bundles: np.ndarray
    counts: np.ndarray
    cell_pixels: int

    @property
    def grid(self):
        """(n_cells_y, n_cells_x, n_bins)."""
        return self.counts.shape

    @property
    def fractions(self):
        """Vote-count fractions ``counts / cell_pixels``."""
        return self.counts / float(self.cell_pixels)


@dataclass
class HDHOGFields:
    """Whole-image per-pixel products of the shared extraction pass.

    Holds everything the expensive stages (pixel encoding, gradients,
    magnitudes, angle binning) produce, at pixel granularity, so that any
    window's cell histograms can be assembled afterwards by pure integer
    aggregation - no hypervector arithmetic left.

    Attributes
    ----------
    mag:
        ``(H, W, D)`` int8 magnitude hypervector per pixel.
    bins:
        ``(H, W)`` int64 orientation bin index per pixel.
    """

    mag: np.ndarray
    bins: np.ndarray

    @property
    def shape(self):
        """(H, W) of the underlying image."""
        return self.bins.shape

    def nbytes(self):
        """Approximate memory footprint of the cached fields."""
        return int(self.mag.nbytes + self.bins.nbytes)


class HDHOGExtractor:
    """HOG computed with stochastic hypervector arithmetic.

    Parameters
    ----------
    dim:
        Hypervector dimensionality ``D`` (shared between feature extraction
        and learning, as in the paper's D=4k configuration).
    cell_size:
        Pixels per cell side.
    n_bins:
        Signed orientation bins; must be divisible by 4 so bin boundaries
        nest into quadrants (the paper uses 8).
    levels:
        Pixel-intensity quantization levels for the base-hypervector
        codebook (Fig. 1a); 256 matches 8-bit images.
    magnitude:
        ``"l2_scaled"`` (paper: squares + hyperspace sqrt) or ``"l1"``
        (fast ``(|Gx|+|Gy|)/2`` approximation).
    sqrt_iters:
        Binary-search iterations for the hyperspace square root.
    gamma:
        Apply Dalal-Triggs-style square-root compression: one extra
        hyperspace sqrt on the per-pixel magnitudes and a matching
        square root on the count weights.  Stochastic similarity is
        multiplicative (``delta(V_h, V_h') = h * h'``), so compressing the
        small HOG values toward 1 is what lifts image-to-image similarity
        above the ``1/sqrt(D)`` noise floor; without it (ablation bench)
        learning quality collapses.
    seed_or_rng:
        Randomness for the codec, codebook and positional keys.

    Examples
    --------
    >>> ext = HDHOGExtractor(dim=1024, cell_size=8, seed_or_rng=0)
    >>> q = ext.extract(np.random.default_rng(0).random((16, 16)))
    >>> q.shape
    (1024,)
    """

    def __init__(self, dim=4096, cell_size=8, n_bins=8, levels=256,
                 magnitude="l2_scaled", sqrt_iters=8, gamma=True,
                 seed_or_rng=None, codec=None, store_policy="store"):
        if n_bins % 4 != 0:
            raise ValueError("n_bins must be divisible by 4 (quadrant binning)")
        if magnitude not in ("l2_scaled", "l1"):
            raise ValueError(f"unknown magnitude mode {magnitude!r}")
        if store_policy not in RematerializingItemMemory.POLICIES:
            raise ValueError(
                f"unknown store_policy {store_policy!r}; expected one of "
                f"{RematerializingItemMemory.POLICIES}")
        rng = as_rng(seed_or_rng)
        basis_state = rng.bit_generator.state if codec is None else None
        self.codec = codec if codec is not None else StochasticCodec(dim, rng)
        self.dim = self.codec.dim
        self.cell_size = int(cell_size)
        self.n_bins = int(n_bins)
        self.levels = int(levels)
        self.magnitude = magnitude
        self.sqrt_iters = int(sqrt_iters)
        self.gamma = bool(gamma)
        self.store_policy = store_policy
        self._rng = rng
        # Deterministic per-intensity codebook: the paper's base hypervector
        # generation assigns *one* hypervector per pixel value (Fig. 1a).
        # Both item memories are pure functions of generator states captured
        # right before their construction draws, which is what makes them
        # rematerializable bitwise (the live stream still advances exactly
        # as before, so downstream consumers of ``rng`` are unaffected).
        grid = np.linspace(0.0, 1.0, self.levels)
        pixel_state = self.codec.rng.bit_generator.state
        pixel_table = self.codec.construct(grid)
        self._pixel_memory = RematerializingItemMemory(
            self._pixel_regen(pixel_state, grid),
            policy=store_policy, name="pixel_table", golden=pixel_table)
        # One random key per orientation bin; cell position is bound in by
        # rotating the bin key (the rho primitive), so any grid size works.
        key_state = rng.bit_generator.state
        bin_keys = random_hypervector(self.dim, rng, shape=(self.n_bins,))
        self._bin_key_memory = RematerializingItemMemory(
            lambda: random_hypervector(self.dim, replay_generator(key_state),
                                       shape=(self.n_bins,)),
            policy=store_policy, name="bin_keys", golden=bin_keys,
            on_repair=lambda _: self._key_cache.clear())
        # The codec basis (the base hypervector V_1) must stay resident -
        # every stochastic primitive binds against it - so under protective
        # policies it gets digest-verify + regenerate-repair instead of
        # full rematerialization.  Only possible when we created the codec.
        self._basis_memory = None
        if basis_state is not None:
            basis_policy = "store" if store_policy == "store" else "verify"
            self._basis_memory = RematerializingItemMemory(
                lambda: random_hypervector(self.dim,
                                           replay_generator(basis_state)),
                policy=basis_policy, name="basis", golden=self.codec.basis,
                on_repair=self._rebind_basis)
        self._key_cache = {}
        # Keyed noise for the shared-feature pass, seeded from the basis once,
        # here, while it is known good: a later basis corruption must not
        # leak into every stream the extractor ever draws.  Tied to the basis
        # (not the stateful rng) so creating it never perturbs the draw
        # sequence of the legacy per-image pipeline, and so that extractors
        # built from the same seed replay the same streams.
        digest = hashlib.blake2s(self.codec.basis.tobytes(),
                                 digest_size=8).digest()
        self._noise = KeyedNoise(int.from_bytes(digest, "little"))
        # Interior bin boundaries within the first-quadrant fold, as tangents.
        per_quad = self.n_bins // 4
        angles = (np.arange(1, per_quad)) * (2.0 * np.pi / self.n_bins)
        self._boundary_tans = np.tan(angles)

    def _pixel_regen(self, state, grid):
        """Closure regenerating the pixel codebook from a captured rng state."""
        def regen():
            clone = StochasticCodec(self.dim, replay_generator(state),
                                    basis=self.codec.basis)
            return clone.construct(grid)
        return regen

    def _rebind_basis(self, basis):
        """Refresh derived basis state after an in-place basis repair."""
        self.codec._neg_basis = (-basis).astype(np.int8)

    @property
    def _pixel_table(self):
        return self._pixel_memory.array()

    @_pixel_table.setter
    def _pixel_table(self, value):
        # adopt an external table (deserialization): the saved array itself
        # becomes the regeneration source
        self._pixel_memory = RematerializingItemMemory.from_array(
            value, policy=self.store_policy, name="pixel_table")

    @property
    def _bin_keys(self):
        return self._bin_key_memory.array()

    @_bin_keys.setter
    def _bin_keys(self, value):
        self._bin_key_memory = RematerializingItemMemory.from_array(
            value, policy=self.store_policy, name="bin_keys",
            on_repair=lambda _: self._key_cache.clear())

    def item_memories(self):
        """The extractor's long-lived item memories, for scrub registration.

        The basis comes first: the pixel-table regen closure binds against
        it, so a scrubber sweeping in order repairs the basis before any
        memory whose regeneration depends on it.
        """
        out = {}
        if self._basis_memory is not None:
            out["basis"] = self._basis_memory
        out["pixel_table"] = self._pixel_memory
        out["bin_keys"] = self._bin_key_memory
        return out

    # ------------------------------------------------------------------
    # stage 1: base hypervector generation
    # ------------------------------------------------------------------
    def encode_pixels(self, image):
        """Map an ``(H, W)`` image in [0, 1] to pixel hypervectors ``(H, W, D)``."""
        img = np.asarray(image, dtype=np.float64)
        if img.ndim != 2:
            raise ValueError(f"expected 2-D image, got {img.shape}")
        if img.min() < -1e-9 or img.max() > 1.0 + 1e-9:
            raise ValueError("image values must lie in [0, 1]")
        idx = np.round(np.clip(img, 0, 1) * (self.levels - 1)).astype(np.int64)
        return self._pixel_table[idx]

    # ------------------------------------------------------------------
    # stage 2: gradients
    # ------------------------------------------------------------------
    def gradients(self, pixel_hvs, ops=None):
        """Hyperspace gradients ``(V_Gx, V_Gy)``, replicate-padded borders.

        Each output hypervector represents the halved central difference of
        Sec. 4.3, computed by the stochastic subtraction ``V_a (+) (-V_b)``.
        ``ops`` substitutes the randomness source (the shared-feature engine
        passes a position-keyed facade); default is the stateful codec.
        """
        ops = self.codec if ops is None else ops
        p = np.pad(pixel_hvs, ((1, 1), (1, 1), (0, 0)), mode="edge")
        v_gx = ops.sub_half(p[2:, 1:-1], p[:-2, 1:-1])
        v_gy = ops.sub_half(p[1:-1, 2:], p[1:-1, :-2])
        return v_gx, v_gy

    # ------------------------------------------------------------------
    # stage 3: magnitude
    # ------------------------------------------------------------------
    def _abs(self, hv, signs):
        """Conditional negation: ``V_|a|`` given precomputed comparison signs."""
        flip = np.where(signs < 0, -1, 1).astype(np.int8)
        return (hv * flip[..., None]).astype(np.int8, copy=False)

    def magnitudes(self, v_gx, v_gy, signs_x=None, signs_y=None, ops=None):
        """Magnitude hypervectors for every pixel.

        ``l2_scaled`` follows the paper: square each gradient (decorrelated),
        average (which contributes the /2), then the binary-search square
        root.  ``l1`` uses hyperspace absolute values and one average.
        ``ops`` substitutes the randomness source (see :meth:`gradients`).
        """
        ops = self.codec if ops is None else ops
        if self.magnitude == "l2_scaled":
            sq = ops.add_half(ops.square(v_gx), ops.square(v_gy))
            mag = ops.sqrt(sq, iters=self.sqrt_iters)
        else:
            if signs_x is None:
                signs_x = np.asarray(ops.sign_of(v_gx))
            if signs_y is None:
                signs_y = np.asarray(ops.sign_of(v_gy))
            mag = ops.add_half(self._abs(v_gx, signs_x), self._abs(v_gy, signs_y))
        if self.gamma:
            mag = ops.sqrt(mag, iters=self.sqrt_iters)
        return mag

    # ------------------------------------------------------------------
    # stage 4: angle binning
    # ------------------------------------------------------------------
    def angle_bins(self, v_gx, v_gy, ops=None):
        """Signed orientation bin per pixel via the paper's tan comparisons.

        Returns the integer bin array plus the gradient sign arrays (reused
        by the ``l1`` magnitude path).  The quadrant comes from the signs of
        ``Gx``/``Gy`` (hyperspace comparisons against zero); the position
        within the quadrant fold comes from comparing ``|Gy|`` against
        ``r |Gx|`` (boundary tangent ``r <= 1``) or ``|Gy| / r`` against
        ``|Gx|`` (``r > 1``), each realized as the decoded sign of the
        paper's alpha hypervector.  ``ops`` substitutes the randomness
        source (see :meth:`gradients`).
        """
        ops = self.codec if ops is None else ops
        batch = v_gx.shape[:-1]
        signs_x = np.asarray(ops.sign_of(v_gx))
        signs_y = np.asarray(ops.sign_of(v_gy))
        abs_gx = self._abs(v_gx, signs_x)
        abs_gy = self._abs(v_gy, signs_y)

        # Count how many first-quadrant-fold boundaries theta_k the gradient
        # direction phi = atan(|Gy| / |Gx|) exceeds.  Each decision is the
        # sign of the paper's alpha quantity, read out as a similarity
        # difference (see StochasticCodec.compare).
        count = np.zeros(batch, dtype=np.int64)
        for r in self._boundary_tans:
            if abs(r) <= 1.0:
                # alpha = (|Gy| - r |Gx|) / 2 ; r|Gx| built by stochastic
                # multiplication with a freshly constructed constant.
                r_gx = ops.multiply(ops.construct(np.full(batch, r)), abs_gx)
                count += (np.asarray(ops.compare(abs_gy, r_gx)) > 0).astype(np.int64)
            else:
                # alpha = ((1/r) |Gy| - |Gx|) / 2 for steep boundaries.
                inv_gy = ops.multiply(
                    ops.construct(np.full(batch, 1.0 / r)), abs_gy
                )
                count += (np.asarray(ops.compare(inv_gy, abs_gx)) > 0).astype(np.int64)

        per_quad = self.n_bins // 4
        q1 = (signs_x >= 0) & (signs_y >= 0)
        q2 = (signs_x < 0) & (signs_y >= 0)
        q3 = (signs_x < 0) & (signs_y < 0)
        q4 = (signs_x >= 0) & (signs_y < 0)
        bins = np.zeros(batch, dtype=np.int64)
        bins[q1] = count[q1]
        bins[q2] = 2 * per_quad - 1 - count[q2]
        bins[q3] = 2 * per_quad + count[q3]
        bins[q4] = 4 * per_quad - 1 - count[q4]
        return np.clip(bins, 0, self.n_bins - 1), signs_x, signs_y

    # ------------------------------------------------------------------
    # stage 5: histogram accumulation
    # ------------------------------------------------------------------
    def cell_histograms(self, v_mag, bins):
        """Per-(cell, bin) bundled magnitude hypervectors and vote counts.

        For every (cell, bin), the magnitude hypervectors of the pixels that
        voted for the bin are bundled by component-wise integer summation -
        HDC's memorization primitive.  The bundle decodes to
        ``count * mean in-bin magnitude``; dividing by the cell pixel count
        recovers the classic normalized histogram.  Empty bins bundle to the
        zero vector.
        """
        h, w = bins.shape
        n_y, n_x = cell_grid((h, w), self.cell_size)
        c = self.cell_size
        cc = c * c
        mag = v_mag[: n_y * c, : n_x * c].reshape(n_y, c, n_x, c, self.dim)
        mag = mag.transpose(0, 2, 1, 3, 4).reshape(n_y, n_x, cc, self.dim)
        pix = bins[: n_y * c, : n_x * c].reshape(n_y, c, n_x, c)
        pix = pix.transpose(0, 2, 1, 3).reshape(n_y, n_x, cc)

        counts = np.empty((n_y, n_x, self.n_bins), dtype=np.int64)
        bundles = np.empty((n_y, n_x, self.n_bins, self.dim), dtype=np.int16)
        for b in range(self.n_bins):
            member = pix == b
            counts[:, :, b] = member.sum(axis=2)
            # Mask non-members to 0 with a bitwise select (0/-1 mask), then
            # bundle by summing over the cell's pixels.
            mask = (0 - member.view(np.int8))[..., None]
            bundles[:, :, b] = (mag & mask).sum(axis=2, dtype=np.int16)
        return HDHOGResult(bundles, counts, cc)

    # ------------------------------------------------------------------
    # stage 6: query bundling
    # ------------------------------------------------------------------
    def _keys(self, n_y, n_x):
        """Positional key tensor ``(n_y, n_x, B, D)`` (cached per grid)."""
        shape = (n_y, n_x)
        if shape not in self._key_cache:
            offsets = (np.arange(n_y)[:, None] * n_x + np.arange(n_x)[None, :]).ravel()
            cols = (np.arange(self.dim)[None, :] - offsets[:, None]) % self.dim
            rolled = self._bin_keys[:, cols]  # (B, n_cells, D)
            keys = rolled.transpose(1, 0, 2).reshape(n_y, n_x, self.n_bins, self.dim)
            self._key_cache[shape] = np.ascontiguousarray(keys)
        return self._key_cache[shape]

    def bundle_query(self, result):
        """Bind (cell, bin) bundles to positional keys and sum into a query.

        Each bundle is rescaled so the feature it carries is the gamma-aware
        cell descriptor (``sqrt(fraction) * mean in-bin magnitude`` under
        gamma, the normalized histogram otherwise).  The returned float32
        query hypervector ``(D,)`` has dot products that approximate the dot
        product of the underlying HOG descriptors (key near-orthogonality
        kills the cross terms), so HDC learning can run directly on it.
        """
        n_y, n_x, n_bins = result.counts.shape
        keys = self._keys(n_y, n_x)
        bound = result.bundles.astype(np.float32) * keys.astype(np.float32)
        weighted = bound * self._scales(result)[..., None]
        return weighted.reshape(-1, self.dim).sum(axis=0)

    def _scales(self, result):
        """Per-(cell, bin) rescale turning a bundle into its feature value.

        A bundle decodes to ``count * mean``; multiplying by
        ``weight(fraction) / count`` leaves ``weight(fraction) * mean``, the
        same descriptor :meth:`repro.features.hog.HOGDescriptor.cell_features`
        computes.  Empty bins get scale 0.
        """
        counts = result.counts.astype(np.float32)
        frac = counts / float(result.cell_pixels)
        weight = np.sqrt(frac) if self.gamma else frac
        return np.divide(weight, counts, out=np.zeros_like(weight), where=counts > 0)

    # ------------------------------------------------------------------
    # public pipeline
    # ------------------------------------------------------------------
    def extract_histogram(self, image, injector=None):
        """Run the hyperspace pipeline up to the (cell, bin) hypervectors.

        ``injector(hv_array, stage)`` - if given - is applied to each
        intermediate hypervector tensor (stages ``pixels``, ``gx``, ``gy``,
        ``magnitude``, ``histogram``); the robustness campaign uses it to
        flip hypervector components and demonstrate holographic tolerance.
        """
        inject = injector or _identity_injector
        pixel_hvs = inject(self.encode_pixels(image), "pixels")
        v_gx, v_gy = self.gradients(pixel_hvs)
        v_gx = inject(v_gx, "gx")
        v_gy = inject(v_gy, "gy")
        bins, signs_x, signs_y = self.angle_bins(v_gx, v_gy)
        v_mag = self.magnitudes(v_gx, v_gy, signs_x, signs_y)
        v_mag = inject(v_mag, "magnitude")
        result = self.cell_histograms(v_mag, bins)
        result.bundles = inject(result.bundles, "histogram")
        return result

    def extract(self, image, injector=None):
        """Full pipeline: image -> query hypervector ``(D,)`` (float32)."""
        return self.bundle_query(self.extract_histogram(image, injector))

    def extract_batch(self, images, injector=None):
        """Query hypervectors for an ``(n, H, W)`` batch: ``(n, D)``."""
        images = np.asarray(images)
        if images.ndim != 3:
            raise ValueError(f"expected (n, H, W) batch, got {images.shape}")
        return np.stack([self.extract(im, injector) for im in images])

    # ------------------------------------------------------------------
    # shared-feature pass: whole-image fields, window slicing
    # ------------------------------------------------------------------
    def verify_items(self):
        """Digest-check and repair the protected item memories before a read.

        Under a protective ``store_policy`` every fields pass calls this
        once, before any strip is read (or handed to a worker thread), so
        corruption that landed since the last scrub is repaired instead of
        extracted into cached fields.  Memories are checked in
        :meth:`item_memories` order: the basis first, because the pixel
        table regenerates against it.  The default ``store`` policy has no
        detection contract and skips the check.
        """
        if self.store_policy != "store":
            for memory in self.item_memories().values():
                memory.scrub()

    def _fields_region(self, scene, origin, size, injector=None):
        """Stages 1-4 over one region of ``scene`` with position-keyed noise.

        The region is extracted with a one-pixel context ring (clamped at
        the scene border, which reproduces the replicate padding of
        :meth:`gradients` there), so gradients at region edges use the true
        neighbouring scene pixels.  Together with the keyed noise this makes
        the per-pixel output independent of the region decomposition.
        """
        inject = injector or _identity_injector
        scene = np.asarray(scene, dtype=np.float64)
        if scene.ndim != 2:
            raise ValueError(f"expected 2-D scene, got {scene.shape}")
        if scene.min() < -1e-9 or scene.max() > 1.0 + 1e-9:
            raise ValueError("scene values must lie in [0, 1]")
        sh, sw = scene.shape
        y0, x0 = (int(origin[0]), int(origin[1]))
        h, w = (int(size[0]), int(size[1]))
        if y0 < 0 or x0 < 0 or y0 + h > sh or x0 + w > sw:
            raise ValueError(f"region {origin}+{size} outside scene {scene.shape}")
        rows = np.clip(np.arange(y0 - 1, y0 + h + 1), 0, sh - 1)
        cols = np.clip(np.arange(x0 - 1, x0 + w + 1), 0, sw - 1)
        idx = np.round(np.clip(scene[np.ix_(rows, cols)], 0, 1)
                       * (self.levels - 1)).astype(np.int64)
        pix = inject(self._pixel_table[idx], "pixels")

        ops = _KeyedOps(self.codec, self._noise, scene.shape, (y0, x0), (h, w))
        v_gx = ops.sub_half(pix[2:, 1:-1], pix[:-2, 1:-1])
        v_gy = ops.sub_half(pix[1:-1, 2:], pix[1:-1, :-2])
        v_gx = inject(v_gx, "gx")
        v_gy = inject(v_gy, "gy")
        bins, signs_x, signs_y = self.angle_bins(v_gx, v_gy, ops=ops)
        v_mag = self.magnitudes(v_gx, v_gy, signs_x, signs_y, ops=ops)
        v_mag = inject(v_mag, "magnitude")
        return HDHOGFields(np.ascontiguousarray(v_mag, dtype=np.int8), bins)

    def extract_fields(self, scene, injector=None, strip_rows=None,
                       workers=1):
        """One shared pass over a whole scene: per-pixel magnitudes and bins.

        Runs pixel encoding, gradients, angle binning and magnitudes *once*
        over the full image with position-keyed noise, returning an
        :class:`HDHOGFields` from which any window's histogram follows by
        integer aggregation (:meth:`cell_grid_at`, :meth:`cell_histograms`).
        This is the whole-image half of the shared-feature detection engine.

        The scene is processed in horizontal strips of ``strip_rows`` rows
        (auto-sized to keep each intermediate tensor cache-resident when
        None): the stochastic ops are memory-bound, and working on
        megabyte-scale tiles instead of the full ``(H, W, D)`` tensors is
        about 2x faster on large scenes.  Thanks to the position-keyed
        noise and the gradient context ring, the result is bitwise
        independent of the strip decomposition - which also makes the
        strips embarrassingly parallel: ``workers > 1`` processes them on
        a thread pool (each strip writes a disjoint row slice of the
        preallocated output, and the heavy NumPy kernels release the GIL)
        with results bitwise identical to the serial pass.
        """
        scene = np.asarray(scene, dtype=np.float64)
        if scene.ndim != 2:
            raise ValueError(f"expected 2-D scene, got {scene.shape}")
        self.verify_items()
        h, w = scene.shape
        if strip_rows is None:
            # ~2 MB int8 per intermediate tensor, at least 8 rows per strip.
            strip_rows = max(8, (1 << 21) // max(w * self.dim, 1))
        strip_rows = int(strip_rows)
        if strip_rows >= h:
            return self._fields_region(scene, (0, 0), scene.shape, injector)
        mag = np.empty((h, w, self.dim), dtype=np.int8)
        bins = np.empty((h, w), dtype=np.int64)
        spans = [(r0, min(r0 + strip_rows, h))
                 for r0 in range(0, h, strip_rows)]

        def _strip(span):
            r0, r1 = span
            part = self._fields_region(scene, (r0, 0), (r1 - r0, w), injector)
            mag[r0:r1] = part.mag
            bins[r0:r1] = part.bins

        workers = min(int(workers), len(spans))
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(_strip, spans))
        else:
            for span in spans:
                _strip(span)
        return HDHOGFields(mag, bins)

    def window_fields(self, scene, origin, window, injector=None):
        """Per-window recompute of the fields - the equivalence reference.

        Re-runs stages 1-4 on just the ``window``-square region anchored at
        ``origin``, drawing the *same* keyed noise the whole-scene pass
        would.  The result is bitwise equal to
        ``extract_fields(scene)`` sliced at the window, which is what the
        shared-vs-per-window equivalence test pins.
        """
        self.verify_items()
        return self._fields_region(scene, origin, (int(window), int(window)),
                                   injector)

    def window_query(self, scene, origin, window, injector=None):
        """Reference query hypervector for one window (slow path).

        Recomputes every stage for the window alone; used as the legacy
        per-window baseline the shared engine is validated against.
        """
        fields = self.window_fields(scene, origin, window, injector)
        result = self.cell_histograms(fields.mag, fields.bins)
        if injector is not None:
            result.bundles = injector(result.bundles, "histogram")
        return self.bundle_query(result)

    def cell_grid_at(self, fields, row_starts, col_starts):
        """Cell histograms for cells anchored at arbitrary pixel offsets.

        For every anchor ``(y, x)`` in ``row_starts x col_starts`` this
        produces the same (cell, bin) bundle and vote count
        :meth:`cell_histograms` computes for the ``cell_size``-square block
        at that anchor - but via one per-bin cumulative-sum (box-filter)
        pass over the whole field instead of per-window re-aggregation, so
        overlapping windows share all of it.  Integer arithmetic
        throughout: the output is bitwise equal to the per-window
        reference.

        Returns an :class:`HDHOGResult` whose grid axes index
        ``row_starts`` and ``col_starts``.
        """
        c = self.cell_size
        h, w = fields.shape
        ys = np.asarray(row_starts, dtype=np.int64)
        xs = np.asarray(col_starts, dtype=np.int64)
        if ys.size == 0 or xs.size == 0:
            raise ValueError("need at least one row and one column anchor")
        if ((ys < 0) | (ys + c > h)).any() or ((xs < 0) | (xs + c > w)).any():
            raise ValueError("cell anchors must keep the cell inside the field")
        bundles = np.empty((len(ys), len(xs), self.n_bins, self.dim),
                           dtype=np.int16)
        counts = np.empty((len(ys), len(xs), self.n_bins), dtype=np.int64)
        bands = np.empty((len(ys), w, self.dim), dtype=np.int16)
        cbands = np.empty((len(ys), w), dtype=np.int64)
        for b in range(self.n_bins):
            member = fields.bins == b
            mask = (0 - member.view(np.int8))[..., None]
            masked = fields.mag & mask
            # Box sums in two banded passes: collapse the cell_size rows at
            # each row anchor, then the cell_size columns at each column
            # anchor within the band array.  Only anchor bands are touched,
            # and a cell sums at most cell_size^2 values of +-1, so int16
            # holds every intermediate.  Integer sums are order-invariant,
            # which keeps the result bitwise equal to the per-window
            # aggregation of :meth:`cell_histograms`.
            for i, y in enumerate(ys):
                np.sum(masked[y : y + c], axis=0, dtype=np.int16,
                       out=bands[i])
                np.sum(member[y : y + c], axis=0, dtype=np.int64,
                       out=cbands[i])
            for j, x in enumerate(xs):
                np.sum(bands[:, x : x + c], axis=1, dtype=np.int16,
                       out=bundles[:, j, b])
                counts[:, j, b] = cbands[:, x : x + c].sum(axis=1)
        return HDHOGResult(bundles, counts, c * c)

    def readout_histogram(self, result):
        """Decode the factored histogram to scalars ``(n_y, n_x, B)``.

        Diagnostic bridge to the original domain: the rescaled bundle decode
        compares directly against
        :meth:`repro.features.hog.HOGDescriptor.cell_features` with the same
        magnitude mode and gamma setting, up to stochastic noise.
        """
        return self.codec.decode(result.bundles.astype(np.float64)) * self._scales(result)
