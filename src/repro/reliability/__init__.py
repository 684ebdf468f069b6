"""Reliability layer: packed-word fault models and active protection.

The paper's robustness claim (Sec. 6.6, Table 2) is that holographic
redundancy keeps HDFace accurate under bit errors that are catastrophic
for fixed-point HOG and quantized DNNs.  :mod:`repro.noise` exercises that
claim at the single-window classifier level; this package extends it to
the production detection stack:

* :mod:`repro.reliability.faults` - word-level bit-flip and stuck-at
  models over the bit-packed ``uint64`` buffers where physical faults
  actually land (scene cache entries, the window-assembly datapath, the
  stored class model), provably equivalent to the dense bipolar models.
* :mod:`repro.reliability.integrity` - content digests for fault
  *detection*: the scene-cache scrubber and the class-model checksums.
* :mod:`repro.reliability.guard` - :class:`GuardedClassModel`, an
  actively protected class model (R replicas + per-class checksums +
  bitwise majority-vote repair, or a single replica under ``check="ecc"``
  with the ECC-correct -> rematerialize -> vote -> degrade repair
  ladder) whose cycle/energy overhead is priced by
  :mod:`repro.hardware.opcount`.
* :mod:`repro.reliability.ecc` - the vectorized SEC-DED Hamming(72,64)
  codec over packed ``uint64`` words backing that mode and the scene
  cache's repair-in-place path.
* :mod:`repro.reliability.scrubber` - :class:`MemoryScrubber`, the
  background patrol that sweeps every registered memory surface (guard
  models, scene cache, item memories) under a bytes-per-tick budget.

The detection-level campaign that sweeps these fault models through the
full sliding-window/pyramid path lives in
:func:`repro.noise.campaign.detection_robustness`; the sustained-BER
serving soak (a :class:`~repro.runtime.chaos.ChaosScenario` with ``ber``) in
:func:`repro.runtime.chaos.run_scenario`.
"""

from .ecc import (
    ECC_CLEAN,
    ECC_CORRECTED,
    ECC_DETECTED,
    ecc_correct,
    ecc_correct_array,
    ecc_encode,
    ecc_encode_array,
    ecc_overhead_bytes,
)
from .faults import (
    DetectionFaultInjector,
    PackedFaultInjector,
    flip_packed_words,
    stuck_at_packed,
)
from .guard import REPAIR_RUNGS, AdaptiveGuardedModel, GuardedClassModel
from .incidents import Incident, IncidentLog
from .integrity import digest_array, digest_arrays
from .scrubber import MemoryScrubber

__all__ = [
    "flip_packed_words",
    "stuck_at_packed",
    "PackedFaultInjector",
    "DetectionFaultInjector",
    "GuardedClassModel",
    "AdaptiveGuardedModel",
    "REPAIR_RUNGS",
    "Incident",
    "IncidentLog",
    "digest_array",
    "digest_arrays",
    "ECC_CLEAN",
    "ECC_CORRECTED",
    "ECC_DETECTED",
    "ecc_encode",
    "ecc_correct",
    "ecc_encode_array",
    "ecc_correct_array",
    "ecc_overhead_bytes",
    "MemoryScrubber",
]
