"""Self-repairing class model: replication, checksums, majority-vote repair.

The packed class model is the smallest and longest-lived hypervector
structure in the detection stack (a few KB held for the process
lifetime), which makes it both the cheapest thing to protect and the
worst thing to lose: a corrupted class row biases *every* window of every
scene scanned afterwards.  :class:`GuardedClassModel` protects it with
the classic TMR recipe, priced in
:func:`repro.hardware.opcount.guarded_infer_profile`:

1. **Replication** - ``R`` (odd) copies of the packed class matrix.
2. **Detection** - a per-class checksum (golden digest taken at build
   time) re-checked before every scoring call.
3. **Repair** - bitwise majority vote across replicas
   (:func:`repro.core.packed.packed_majority` over the replica axis)
   rewrites every replica of a corrupted class; a vote that still fails
   its checksum (a majority of replicas corrupted in the same words) is
   *unrepairable*: the class is flagged in :attr:`degraded_classes`, the
   voted row is adopted as the new reference, and inference continues -
   graceful degradation instead of serving silently wrong similarities.

Inference reads replica 0 through the shared
:class:`~repro.core.packed.PackedScoring` protocol, word budgets
included, so the steady-state overhead is the scrub pass, not the vote
(which only runs on detected corruption).
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.hypervector import as_rng, packed_tail_mask, packed_words
from ..core.packed import (
    PackedClassModel,
    PackedScoring,
    packed_majority,
    pairwise_hamming,
)
from .ecc import ECC_CORRECTED, ECC_DETECTED, ecc_correct, ecc_encode
from .integrity import digest_array

__all__ = ["GuardedClassModel", "AdaptiveGuardedModel"]

CHECKS = ("checksum", "ecc")

#: Repair-ladder rungs of the ``check="ecc"`` mode, cheapest first.
REPAIR_RUNGS = ("ecc", "remat", "vote", "degrade")


class GuardedClassModel(PackedScoring):
    """Replicated, checksummed, self-repairing packed class model.

    Scores like :class:`repro.core.packed.PackedClassModel` (the shared
    :class:`~repro.core.packed.PackedScoring` protocol, with identical
    clean semantics at every word budget), with a scrub-and-repair pass
    in front of every scoring call.

    Parameters
    ----------
    model:
        A :class:`~repro.core.packed.PackedClassModel` or a
        ``(n_classes, D)`` bipolar matrix to build one from.
    replicas:
        Odd replica count ``R`` (default 3: classic TMR).  ``R = 1``
        degrades to detection-only (any corruption is unrepairable).
    check:
        ``"checksum"`` (default) verifies every replica row's digest on
        each scrub and repairs by majority vote; ``"ecc"`` adds a SEC-DED
        parity sidecar and repairs through the ECC -> remat -> vote ->
        degrade ladder.
    seed_or_rng:
        Randomness for the canary probe vector (the step bound of
        :meth:`AdaptiveGuardedModel.propose`).
    """

    def __init__(self, model, replicas=3, check="checksum",
                 seed_or_rng=None):
        base = model if isinstance(model, PackedClassModel) \
            else PackedClassModel(model)
        r = int(replicas)
        if r < 1 or r % 2 == 0:
            raise ValueError(f"replicas must be odd and >= 1, got {replicas}")
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}; expected one of {CHECKS}")
        self.dim = base.dim
        self.n_classes = base.n_classes
        self.n_replicas = r
        self.check = check
        #: ``(R, n_classes, W)`` stored replica words.  Tests and fault
        #: campaigns corrupt this array directly (or via
        #: :meth:`corrupt_replica`).
        self.replicas = np.repeat(base.packed[None, ...], r, axis=0).copy()
        #: SEC-DED parity sidecar, ``(R, n_classes, W)`` uint8 - only under
        #: ``check="ecc"``, where it replaces replication as the first
        #: repair rung (1/8 overhead instead of Rx).
        self._parity = ecc_encode(self.replicas) if check == "ecc" else None
        self._golden = [digest_array(base.packed[c])
                        for c in range(self.n_classes)]
        rng = as_rng(seed_or_rng)
        canary_bits = rng.integers(0, 2**64, size=packed_words(self.dim),
                                   dtype=np.uint64) & packed_tail_mask(self.dim)
        self._canary = canary_bits
        self._canary_golden = pairwise_hamming(canary_bits, base.packed,
                                               dim=self.dim)[0]
        #: Classes whose corruption could not be repaired (majority of
        #: replicas agreed on wrong words); inference continues on the
        #: voted rows.
        self.degraded_classes = set()
        self.scrubs = 0
        self.checks = 0
        self.detected = 0
        self.repaired = 0
        self.unrepairable = 0
        self.ecc_corrected_words = 0
        self.ecc_detected_words = 0
        #: Repairs per ladder rung (``ecc``/``remat`` count rows,
        #: ``vote``/``degrade`` count classes); populated in ecc mode.
        self.rungs = {rung: 0 for rung in REPAIR_RUNGS}

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    @property
    def nbytes(self):
        """Protected model footprint: replicas plus the ECC sidecar (if any)."""
        total = int(self.replicas.nbytes)
        if self._parity is not None:
            total += int(self._parity.nbytes)
        return total

    def _corrupt_rows(self):
        """``(replica, class)`` index pairs whose stored digest mismatches."""
        bad = []
        for rep in range(self.n_replicas):
            for c in range(self.n_classes):
                self.checks += 1
                if digest_array(self.replicas[rep, c]) != self._golden[c]:
                    bad.append((rep, c))
        return bad

    def scrub(self):
        """Verify the stored replicas; repair (or flag) corrupted classes.

        Returns the number of corrupted ``(replica, class)`` rows found.
        """
        self.scrubs += 1
        bad = self._corrupt_rows()
        if not bad:
            return 0
        self.detected += len(bad)
        if self.check == "ecc":
            return self._repair_ladder(bad)
        for c in sorted({c for _, c in bad}):
            voted = packed_majority(self.replicas[:, c, :], self.dim)
            if digest_array(voted) == self._golden[c]:
                self.repaired += 1
            else:
                # majority corrupted: degrade gracefully on the voted row
                self.unrepairable += 1
                self.degraded_classes.add(c)
                self._golden[c] = digest_array(voted)
                self._canary_golden[c] = pairwise_hamming(
                    self._canary, voted[None], dim=self.dim)[0, 0]
            self.replicas[:, c, :] = voted
        return len(bad)

    # ------------------------------------------------------------------
    # ecc repair ladder
    # ------------------------------------------------------------------
    def _refresh_parity(self, rep, class_id):
        if self._parity is not None:
            self._parity[rep, class_id] = ecc_encode(
                self.replicas[rep, class_id])

    def _rematerialize_row(self, rep, class_id):
        """Regenerate one replica row from redundant state, or ``None``.

        The base guard has no recomputable source for a learned row;
        :class:`AdaptiveGuardedModel` overrides this with its per-replica
        bit-sliced counters (:meth:`~repro.learning.online.OnlineCounters.
        materialize`), which encode every committed row exactly.
        """
        return None

    def _repair_ladder(self, bad_rows):
        """``check="ecc"`` repair: correct, rematerialize, vote, degrade.

        Per corrupted row, cheapest rung first: (1) SEC-DED correction of
        single-bit errors through the parity sidecar; (2) exact row
        rematerialization from redundant counters (adaptive models); per
        corrupted *class* if rows remain: (3) bitwise majority vote across
        replicas; (4) graceful degradation - the best-effort row becomes
        the new reference and the class is flagged.  Every rung's outcome
        is digest-verified before it counts as a repair, so nothing wrong
        is ever silently re-adopted.
        """
        by_class = {}
        for rep, c in bad_rows:
            by_class.setdefault(c, []).append(rep)
        for c in sorted(by_class):
            still_bad = []
            for rep in by_class[c]:
                words, parity, status = ecc_correct(self.replicas[rep, c],
                                                    self._parity[rep, c])
                self.replicas[rep, c] = words
                self._parity[rep, c] = parity
                self.ecc_corrected_words += int(
                    (status == ECC_CORRECTED).sum())
                self.ecc_detected_words += int((status == ECC_DETECTED).sum())
                if digest_array(self.replicas[rep, c]) == self._golden[c]:
                    self.rungs["ecc"] += 1
                else:
                    still_bad.append(rep)
            unrepaired = []
            for rep in still_bad:
                row = self._rematerialize_row(rep, c)
                if row is not None and digest_array(row) == self._golden[c]:
                    self.replicas[rep, c] = row
                    self._refresh_parity(rep, c)
                    self.rungs["remat"] += 1
                else:
                    unrepaired.append(rep)
            if unrepaired:
                voted = packed_majority(self.replicas[:, c, :], self.dim) \
                    if self.n_replicas > 1 else self.replicas[0, c]
                if digest_array(voted) == self._golden[c]:
                    for rep in unrepaired:
                        self.replicas[rep, c] = voted
                        self._refresh_parity(rep, c)
                    self.rungs["vote"] += 1
                else:
                    # end of the ladder: adopt the best-effort row, flag
                    # the class - degraded, never silently wrong
                    self.unrepairable += 1
                    self.degraded_classes.add(c)
                    self._golden[c] = digest_array(voted)
                    self._canary_golden[c] = pairwise_hamming(
                        self._canary, voted[None], dim=self.dim)[0, 0]
                    self.replicas[:, c, :] = voted
                    for rep in range(self.n_replicas):
                        self._refresh_parity(rep, c)
                    self.rungs["degrade"] += 1
                    continue
            self.repaired += 1
        return len(bad_rows)

    def stats(self):
        """Counters of the protection machinery (for reports and tests)."""
        return {
            "replicas": self.n_replicas,
            "check": self.check,
            "scrubs": self.scrubs,
            "checks": self.checks,
            "detected": self.detected,
            "repaired": self.repaired,
            "unrepairable": self.unrepairable,
            "ecc_corrected_words": self.ecc_corrected_words,
            "ecc_detected_words": self.ecc_detected_words,
            "rungs": dict(self.rungs),
            "degraded_classes": sorted(self.degraded_classes),
        }

    # ------------------------------------------------------------------
    # fault surface
    # ------------------------------------------------------------------
    def corrupt_replica(self, index, word_rate, seed_or_rng=None):
        """Overwrite a fraction of one replica's words with random garbage.

        The word-granular corruption model of a failed memory burst: each
        word of replica ``index`` is independently replaced with random
        bits with probability ``word_rate`` (pad bits stay clear so rows
        remain comparable).  Returns the number of words corrupted.
        """
        if not 0.0 <= word_rate <= 1.0:
            raise ValueError(f"word_rate must be in [0, 1], got {word_rate}")
        rng = as_rng(seed_or_rng)
        rep = self.replicas[index]
        hit = rng.random(rep.shape) < word_rate
        garbage = rng.integers(0, 2**64, size=rep.shape, dtype=np.uint64)
        garbage &= packed_tail_mask(self.dim)
        rep[hit] = garbage[hit]
        return int(hit.sum())

    # ------------------------------------------------------------------
    # inference (the PackedScoring protocol)
    # ------------------------------------------------------------------
    def _rows(self):
        """Replica 0, scrub-checked (and repaired) before it is read."""
        self.scrub()
        return self.replicas[0]


class AdaptiveGuardedModel(GuardedClassModel):
    """A guarded class model that accepts vetted *online updates*.

    The continual-learning half of the reliability story: tracker-
    confirmed detections become weak labels
    (:class:`~repro.learning.online.OnlineUpdate`) that refine the class
    rows while serving - but an update is itself a fault surface (label
    poisoning, corrupted delivery), so every proposal runs the full TMR
    treatment before it can touch inference:

    1. **Propose to all replicas.**  Each of the ``R`` replicas keeps its
       own :class:`~repro.learning.online.OnlineCounters` and applies the
       update payload *it* received, then rematerializes its row.
    2. **Outvote divergence.**  A replica whose rematerialized row
       disagrees with the bitwise majority saw a different (corrupted /
       poisoned) payload: it is outvoted - its counters are overwritten
       from a majority replica - and counted in :attr:`outvoted`.
    3. **Vet the voted row.**  The surviving candidate must pass the
       *similarity canary* (the fixed probe's distance may move at most
       ``max_step_frac * dim`` bits per proposal - gradual drift passes,
       a bulk rewrite cannot) and the *held-out probe check* (perturbed
       copies of every class row, re-anchored after each accepted update,
       must still classify to their classes).
    4. **Commit or reject.**  A committed update rewrites every replica's
       row and refreshes the golden digests + canary baselines (the model
       legitimately changed; the scrubber must not "repair" it back).  A
       rejected proposal leaves the served rows untouched but the
       counters *dirty*: the caller must restore the pre-proposal
       snapshot - the serving adapter does exactly that through
       :func:`repro.runtime.checkpoint.model_state` /
       :func:`~repro.runtime.checkpoint.load_model_state`, which is the
       same machinery that persists the model across worker restarts.

    Every scoring call reads a copy of replica 0 taken under the update
    lock, so fleet streams can scan while another stream's proposal is
    mid-flight; proposals themselves are serialized on :attr:`_lock`.
    """

    def __init__(self, model, replicas=3, check="checksum",
                 seed_or_rng=None, prior=32, max_planes=16,
                 max_step_frac=0.05, probe_flip=0.1, probes_per_class=4,
                 min_probe_accuracy=1.0):
        from ..learning.online import OnlineCounters
        base = model if isinstance(model, PackedClassModel) \
            else PackedClassModel(model)
        super().__init__(base, replicas=replicas, check=check,
                         seed_or_rng=seed_or_rng)
        self._lock = threading.RLock()
        self.counters = [OnlineCounters(base, prior=prior,
                                        max_planes=max_planes)
                         for _ in range(self.n_replicas)]
        self.prior = int(prior)
        self.max_step_bits = max(1, int(round(float(max_step_frac)
                                              * self.dim)))
        self.probe_flip = float(probe_flip)
        self.probes_per_class = int(probes_per_class)
        self.min_probe_accuracy = float(min_probe_accuracy)
        self._probe_rng = as_rng(seed_or_rng)
        self.applied = 0
        self.rejected = 0
        self.outvoted = 0
        self._probes, self._probe_labels = self._make_probes()

    # ------------------------------------------------------------------
    # held-out probes
    # ------------------------------------------------------------------
    def _probe_rows(self, class_id):
        from .faults import flip_packed_words
        row = self.replicas[0, class_id]
        return np.stack([
            flip_packed_words(row, self.dim, self.probe_flip,
                              self._probe_rng)
            for _ in range(self.probes_per_class)])

    def _make_probes(self):
        probes = np.concatenate([self._probe_rows(c)
                                 for c in range(self.n_classes)])
        labels = np.repeat(np.arange(self.n_classes), self.probes_per_class)
        return probes, labels

    def _refresh_probes(self, class_id):
        """Re-anchor one class's probes on its (just committed) row."""
        lo = class_id * self.probes_per_class
        self._probes[lo:lo + self.probes_per_class] = \
            self._probe_rows(class_id)

    def _probe_accuracy(self, candidate_rows):
        preds = pairwise_hamming(self._probes, candidate_rows,
                                 dim=self.dim).argmin(axis=1)
        return float((preds == self._probe_labels).mean())

    # ------------------------------------------------------------------
    # the guarded update
    # ------------------------------------------------------------------
    def propose(self, update):
        """Run one :class:`~repro.learning.online.OnlineUpdate` through
        the propose / outvote / vet / commit pipeline.

        Returns a verdict dict: ``applied`` (bool), ``reason`` (None or
        ``"step_bound"`` / ``"probe_check"``), ``step_bits``,
        ``canary_step``, ``probe_accuracy``, ``diverged`` (outvoted
        replica indices).  On ``applied=False`` the stored rows and
        goldens are untouched but the replica counters carry the rejected
        votes - restore a pre-proposal
        :func:`~repro.runtime.checkpoint.model_state` snapshot to roll
        them back (see the class docstring).
        """
        with self._lock:
            c = int(update.label)
            if not 0 <= c < self.n_classes:
                raise ValueError(f"update label {update.label} out of range")
            old_row = self.replicas[0, c].copy()
            rows = []
            for r in range(self.n_replicas):
                self.counters[r].add(c, update.payload_for(r))
                rows.append(self.counters[r].materialize()[c])
            rows = np.stack(rows)
            voted = packed_majority(rows, self.dim)
            diverged = [r for r in range(self.n_replicas)
                        if not np.array_equal(rows[r], voted)]
            if diverged:
                self.outvoted += len(diverged)
                healthy = next(r for r in range(self.n_replicas)
                               if r not in diverged)
                for r in diverged:
                    self.counters[r].load_state(
                        self.counters[healthy].state())
            step_bits = int(pairwise_hamming(voted, old_row[None],
                                             dim=self.dim)[0, 0])
            canary_new = int(pairwise_hamming(self._canary, voted[None],
                                              dim=self.dim)[0, 0])
            canary_step = abs(canary_new - int(self._canary_golden[c]))
            candidate = self.replicas[0].copy()
            candidate[c] = voted
            probe_accuracy = self._probe_accuracy(candidate)
            reason = None
            if step_bits > self.max_step_bits or \
                    canary_step > self.max_step_bits:
                reason = "step_bound"
            elif probe_accuracy < self.min_probe_accuracy:
                reason = "probe_check"
            verdict = {
                "applied": reason is None,
                "reason": reason,
                "label": c,
                "votes": len(update),
                "step_bits": step_bits,
                "canary_step": canary_step,
                "probe_accuracy": probe_accuracy,
                "diverged": diverged,
            }
            if reason is not None:
                self.rejected += 1
                return verdict
            self.replicas[:, c, :] = voted
            if self._parity is not None:
                self._parity[:, c, :] = ecc_encode(voted)
            self._golden[c] = digest_array(voted)
            self._canary_golden[c] = canary_new
            self._refresh_probes(c)
            self.applied += 1
            return verdict

    def _rematerialize_row(self, rep, class_id):
        """Exact row regeneration from replica ``rep``'s vertical counters."""
        return self.counters[rep].materialize()[class_id]

    # ------------------------------------------------------------------
    # checkpoint surface (see repro.runtime.checkpoint)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Bitwise snapshot of everything a proposal can mutate."""
        with self._lock:
            return {
                "replicas": self.replicas.copy(),
                "golden": list(self._golden),
                "canary_golden": self._canary_golden.copy(),
                "counters": [cnt.state() for cnt in self.counters],
                "probes": self._probes.copy(),
                "probe_labels": self._probe_labels.copy(),
                "applied": self.applied,
                "rejected": self.rejected,
                "outvoted": self.outvoted,
                "degraded_classes": set(self.degraded_classes),
            }

    def load_state_dict(self, state):
        """Restore a :meth:`state_dict` snapshot bitwise; returns self."""
        with self._lock:
            replicas = np.asarray(state["replicas"], dtype=np.uint64)
            if replicas.shape != self.replicas.shape:
                raise ValueError(
                    f"state replicas {replicas.shape} do not match "
                    f"{self.replicas.shape}")
            self.replicas[...] = replicas
            if self._parity is not None:
                self._parity = ecc_encode(self.replicas)
            self._golden = list(state["golden"])
            self._canary_golden = np.asarray(state["canary_golden"]).copy()
            for cnt, snap in zip(self.counters, state["counters"]):
                cnt.load_state(snap)
            self._probes = np.asarray(state["probes"],
                                      dtype=np.uint64).copy()
            self._probe_labels = np.asarray(state["probe_labels"]).copy()
            self.applied = int(state["applied"])
            self.rejected = int(state["rejected"])
            self.outvoted = int(state["outvoted"])
            self.degraded_classes = set(state["degraded_classes"])
            return self

    # ------------------------------------------------------------------
    # locked inference / scrub (fleet streams read while updates land)
    # ------------------------------------------------------------------
    def scrub(self):
        with self._lock:
            return super().scrub()

    def _rows(self):
        with self._lock:
            return super()._rows().copy()

    def stats(self):
        """Protection counters plus the adaptation ledger."""
        base = super().stats()
        with self._lock:
            base.update({
                "updates_applied": self.applied,
                "updates_rejected": self.rejected,
                "replicas_outvoted": self.outvoted,
                "counter_decays": sum(cnt.decays for cnt in self.counters),
                "counter_nbytes": sum(cnt.nbytes for cnt in self.counters),
                "prior": self.prior,
                "max_step_bits": self.max_step_bits,
            })
        return base
