"""Efficiency reports: composes workloads into the paper's Fig. 5/7 numbers.

The report layer glues together the op-count profiles
(:mod:`repro.hardware.opcount`) and the platform cost models
(:mod:`repro.hardware.platforms`) into end-to-end workload estimates:

* **training** = feature extraction over the training set + ``epochs``
  passes of the learner's update rule;
* **inference** = feature extraction of one sample + one
  forward/similarity pass.

HDFace trains in a handful of adaptive epochs (single-pass memorization
plus refinement), while the DNN needs tens of epochs of backprop - the
structural reason HDFace's *training* advantage is much larger than its
inference advantage in Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.registry import SPECS
from .opcount import (
    OperationProfile,
    dnn_forward_profile,
    dnn_training_profile,
    ecc_scrub_profile,
    guarded_infer_profile,
    hd_hog_profile,
    hdc_infer_profile,
    hdc_learn_profile,
    hog_profile,
    packed_infer_profile,
    remat_profile,
    scrub_profile,
)
from .platforms import PLATFORMS

__all__ = [
    "WorkloadSpec",
    "EfficiencyRow",
    "ProtectionRow",
    "MemoryProtectionRow",
    "workload_for_dataset",
    "hdface_training_cost",
    "hdface_inference_cost",
    "dnn_training_cost",
    "dnn_inference_cost",
    "fig7_report",
    "protection_overhead_report",
    "memory_protection_report",
    "epoch_time_grid",
]

#: Default epoch counts: the paper describes HDFace as single-pass plus a
#: few adaptive iterations, versus tens of epochs of DNN backprop.
HD_EPOCHS = 5
DNN_EPOCHS = 20


@dataclass
class WorkloadSpec:
    """Everything the cost model needs about one dataset's task."""

    name: str
    image_size: int
    n_classes: int
    n_train: int
    dim: int = 4096
    cell_size: int = 8
    n_bins: int = 8
    hidden: tuple = (1024, 1024)

    @property
    def n_features(self):
        cells = (self.image_size // self.cell_size) ** 2
        return cells * self.n_bins

    @property
    def dnn_layers(self):
        return (self.n_features,) + tuple(self.hidden) + (self.n_classes,)


def workload_for_dataset(name, scale="paper", dim=4096, hidden=(1024, 1024)):
    """Build a :class:`WorkloadSpec` from the dataset registry (Table 1)."""
    spec = SPECS[(name.upper(), scale)]
    return WorkloadSpec(
        name=spec.name, image_size=spec.image_size, n_classes=spec.n_classes,
        n_train=spec.train_size, dim=dim, hidden=hidden,
    )


# ----------------------------------------------------------------------
# workload composition
# ----------------------------------------------------------------------
def hdface_training_cost(w, platform, epochs=HD_EPOCHS):
    """(seconds, joules) to train HDFace on workload ``w``.

    HDFace is modeled as *online* learning from raw data: every adaptive
    epoch streams the raw images through the hyperspace extractor again
    (nothing is cached on the embedded device), which is the configuration
    the paper's on-device single-pass narrative describes.
    """
    shape = (w.image_size, w.image_size)
    extract = hd_hog_profile(shape, w.dim, w.n_bins, cell_size=w.cell_size)
    learn = hdc_learn_profile(w.dim, w.n_classes)
    per_epoch = (extract + learn) * w.n_train
    total = per_epoch * epochs
    return (
        platform.time(total, stochastic=True),
        platform.energy(total, stochastic=True),
    )


def hdface_inference_cost(w, platform):
    """(seconds, joules) for one HDFace inference."""
    shape = (w.image_size, w.image_size)
    prof = hd_hog_profile(shape, w.dim, w.n_bins, cell_size=w.cell_size)
    prof = prof + hdc_infer_profile(w.dim, w.n_classes)
    return platform.time(prof, stochastic=True), platform.energy(prof, stochastic=True)


def dnn_training_cost(w, platform, epochs=DNN_EPOCHS):
    """(seconds, joules) to train the HOG+DNN baseline on ``w``."""
    shape = (w.image_size, w.image_size)
    extract = hog_profile(shape, w.n_bins, cell_size=w.cell_size) * w.n_train
    train = dnn_training_profile(w.dnn_layers) * (w.n_train * epochs)
    return (
        platform.time(extract) + platform.time(train),
        platform.energy(extract) + platform.energy(train),
    )


def dnn_inference_cost(w, platform):
    """(seconds, joules) for one HOG+DNN inference."""
    shape = (w.image_size, w.image_size)
    prof = hog_profile(shape, w.n_bins, cell_size=w.cell_size)
    prof = prof + dnn_forward_profile(w.dnn_layers)
    return platform.time(prof), platform.energy(prof)


# ----------------------------------------------------------------------
# Fig. 7
# ----------------------------------------------------------------------
@dataclass
class EfficiencyRow:
    """One bar pair of Fig. 7."""

    dataset: str
    platform: str
    phase: str
    hdface_time: float
    dnn_time: float
    hdface_energy: float
    dnn_energy: float

    @property
    def speedup(self):
        """DNN time / HDFace time (>1 means HDFace is faster)."""
        return self.dnn_time / self.hdface_time

    @property
    def energy_efficiency(self):
        """DNN energy / HDFace energy (>1 means HDFace is leaner)."""
        return self.dnn_energy / self.hdface_energy


def fig7_report(datasets=("EMOTION", "FACE1", "FACE2"), dim=4096,
                hidden=(1024, 1024), hd_epochs=HD_EPOCHS, dnn_epochs=DNN_EPOCHS,
                scale="paper"):
    """All Fig. 7 bars: training and inference on CPU and FPGA."""
    rows = []
    for name in datasets:
        w = workload_for_dataset(name, scale=scale, dim=dim, hidden=hidden)
        for key, platform in PLATFORMS.items():
            ht, he = hdface_training_cost(w, platform, hd_epochs)
            dt, de = dnn_training_cost(w, platform, dnn_epochs)
            rows.append(EfficiencyRow(name, key, "training", ht, dt, he, de))
            ht, he = hdface_inference_cost(w, platform)
            dt, de = dnn_inference_cost(w, platform)
            rows.append(EfficiencyRow(name, key, "inference", ht, dt, he, de))
    return rows


# ----------------------------------------------------------------------
# Active-protection overhead (reliability subsystem)
# ----------------------------------------------------------------------
@dataclass
class ProtectionRow:
    """Guarded vs unguarded inference cost on one platform."""

    platform: str
    replicas: int
    unguarded_cycles: float
    guarded_cycles: float
    unguarded_energy: float
    guarded_energy: float
    repair_cycles: float
    repair_energy: float

    @property
    def cycle_overhead(self):
        """Guarded / unguarded cycles (steady state, no corruption)."""
        return self.guarded_cycles / self.unguarded_cycles

    @property
    def energy_overhead(self):
        """Guarded / unguarded energy (steady state, no corruption)."""
        return self.guarded_energy / self.unguarded_energy


def protection_overhead_report(dim=4096, n_classes=2, replicas=3):
    """Price the guarded class model on every platform.

    Per platform: cycles and energy of one unguarded packed inference
    (:func:`~repro.hardware.opcount.packed_infer_profile`), of one guarded
    inference (:func:`~repro.hardware.opcount.guarded_infer_profile`:
    the same search plus the detection-only scrub that precedes every
    scoring call), and of the rare worst-case scrub that detects
    corruption and majority-vote repairs it
    (:func:`~repro.hardware.opcount.scrub_profile` with ``repair=True``).
    """
    plain = packed_infer_profile(dim, n_classes)
    guarded = guarded_infer_profile(dim, n_classes, replicas)
    repair = scrub_profile(dim, n_classes, replicas, repair=True)
    rows = []
    for key, platform in PLATFORMS.items():
        rows.append(ProtectionRow(
            platform=key, replicas=replicas,
            unguarded_cycles=platform.cycles(plain),
            guarded_cycles=platform.cycles(guarded),
            unguarded_energy=platform.energy(plain),
            guarded_energy=platform.energy(guarded),
            repair_cycles=platform.cycles(repair),
            repair_energy=platform.energy(repair),
        ))
    return rows


# ----------------------------------------------------------------------
# Memory-RAS scheme comparison (bytes and ops per protection scheme)
# ----------------------------------------------------------------------
@dataclass
class MemoryProtectionRow:
    """One protection scheme's resident footprint and scrub cost.

    Bytes follow :meth:`repro.reliability.guard.GuardedClassModel.nbytes`
    exactly: ``replicas * n_classes * words * 8`` for the replica arrays
    plus one parity byte per stored word when the SEC-DED sidecar is
    present.  ``scrub_*`` is the steady-state patrol pass (no corruption);
    ``repair_*`` the worst-case pass in which every protected word needed
    its repair rung (majority vote for TMR, ECC-correct plus one row
    rematerialization for ECC+remat).
    """

    scheme: str
    platform: str
    replicas: int
    resident_bytes: int
    scrub_cycles: float
    scrub_energy: float
    repair_cycles: float
    repair_energy: float

    def bytes_ratio(self, other):
        """``other.resident_bytes / resident_bytes`` (>1: this is leaner)."""
        return other.resident_bytes / self.resident_bytes


def memory_protection_report(dim=4096, n_classes=2, tmr_replicas=3):
    """Compare unguarded / TMR / ECC+remat class-model protection.

    The recompute-as-repair argument in numbers: modular redundancy pays
    ``R``x resident bytes to repair by vote, while SEC-DED plus
    rematerializable rows pays a 12.5% parity sidecar on a *single*
    replica and repairs by correction or exact recomputation.  Rows are
    returned per platform per scheme:

    * ``unguarded`` - one replica, no detection, no repair (bit errors
      persist silently);
    * ``tmr`` - ``tmr_replicas`` copies, digest scrub, majority-vote
      repair (:func:`~repro.hardware.opcount.scrub_profile`);
    * ``ecc_remat`` - one replica plus parity, SEC-DED patrol scrub
      (:func:`~repro.hardware.opcount.ecc_scrub_profile`), worst-case
      repair = correct every word then rematerialize one class row from
      its training counters (:func:`~repro.hardware.opcount.remat_profile`).
    """
    words = (int(dim) + 63) // 64
    k = int(n_classes)
    row_bytes = k * words * 8
    ecc_words = k * words
    zero = OperationProfile({}, label="unprotected")
    schemes = [
        ("unguarded", 1, row_bytes, zero, zero),
        ("tmr", int(tmr_replicas), int(tmr_replicas) * row_bytes,
         scrub_profile(dim, k, tmr_replicas),
         scrub_profile(dim, k, tmr_replicas, repair=True)),
        ("ecc_remat", 1, row_bytes + ecc_words,
         ecc_scrub_profile(ecc_words),
         ecc_scrub_profile(ecc_words, repair_fraction=1.0)
         + remat_profile(dim, elem_bytes=0.125)),
    ]
    rows = []
    for key, platform in PLATFORMS.items():
        for name, replicas, nbytes, scrub, repair in schemes:
            rows.append(MemoryProtectionRow(
                scheme=name, platform=key, replicas=replicas,
                resident_bytes=int(nbytes),
                scrub_cycles=platform.cycles(scrub),
                scrub_energy=platform.energy(scrub),
                repair_cycles=platform.cycles(repair),
                repair_energy=platform.energy(repair),
            ))
    return rows


# ----------------------------------------------------------------------
# Fig. 5 heatmaps and the Sec. 6.3 per-epoch numbers
# ----------------------------------------------------------------------
def epoch_time_grid(w, platform, dims=None, hidden_configs=None,
                    hd_epochs=HD_EPOCHS, dnn_epochs=DNN_EPOCHS):
    """Per-epoch training times for the Fig. 5 heatmaps.

    Returns ``(hd_times, dnn_times)``: seconds per epoch for HDFace at each
    dimensionality and for the DNN at each hidden configuration, with
    feature extraction amortized over the epochs (the paper's 0.9 s vs
    5.4 s comparison).
    """
    dims = dims or (1024, 2048, 4096, 8192, 10240)
    hidden_configs = hidden_configs or (
        (64, 64), (256, 256), (512, 512), (1024, 1024), (2048, 2048))
    hd_times = {}
    for d in dims:
        wd = WorkloadSpec(w.name, w.image_size, w.n_classes, w.n_train,
                          dim=d, cell_size=w.cell_size, n_bins=w.n_bins,
                          hidden=w.hidden)
        total, _ = hdface_training_cost(wd, platform, hd_epochs)
        hd_times[d] = total / hd_epochs
    dnn_times = {}
    for hidden in hidden_configs:
        wh = WorkloadSpec(w.name, w.image_size, w.n_classes, w.n_train,
                          dim=w.dim, cell_size=w.cell_size, n_bins=w.n_bins,
                          hidden=tuple(hidden))
        total, _ = dnn_training_cost(wh, platform, dnn_epochs)
        dnn_times[tuple(hidden)] = total / dnn_epochs
    return hd_times, dnn_times
