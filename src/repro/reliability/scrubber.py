"""Background memory scrubber: continuous repair under a bytes budget.

The reliability layer's detection/repair primitives are all *pull*:
:meth:`GuardedClassModel.scrub` runs before inference, the shared engine
digest-checks on cache *hits*, item memories verify when asked.  Corruption
in a surface nobody touches therefore ages silently until the unlucky
access - and the older a bit error gets, the more likely a second hit in
the same word turns a correctable fault into an unrepairable one.

:class:`MemoryScrubber` turns repair into a *push*: it keeps a registry of
every long-lived memory surface (guard models, the engine scene cache,
extractor item memories), and each :meth:`tick` sweeps as many of them as
a **bytes-per-tick budget** allows, round-robin, banking unused credit so
large surfaces are still reached.  The serving loop ticks it once per
committed frame and the fleet dispatcher once per batch, which bounds the
scrub-latency of every registered byte at
``total_registered_bytes / budget`` ticks - the "scrub budget math" of
``docs/robustness.md``.

Every sweep's outcome lands in the :class:`~repro.reliability.incidents.
IncidentLog` (``memory_scrubbed`` / ``row_repaired`` /
``row_unrepairable``), so repairs are first-class operational events, not
silent background magic.
"""

from __future__ import annotations

import threading

__all__ = ["MemoryScrubber"]


class _Target:
    """One registered surface: a cost estimate and a normalized scrub."""

    __slots__ = ("name", "kind", "cost", "scrub")

    def __init__(self, name, kind, cost, scrub):
        self.name = name
        self.kind = kind
        self.cost = cost      # () -> resident bytes to sweep
        self.scrub = scrub    # () -> {detected, repaired, unrepairable}


class MemoryScrubber:
    """Round-robin, budgeted sweeper over registered memory surfaces.

    Parameters
    ----------
    budget:
        Bytes of scrub work per :meth:`tick`.  ``None`` removes the bound
        (every tick sweeps everything).  Unused credit is banked - capped
        at one full sweep - so a surface larger than the budget is still
        scrubbed, just less often.
    incidents:
        Optional :class:`~repro.reliability.incidents.IncidentLog`; sweep
        outcomes are recorded there.
    """

    def __init__(self, budget=1 << 20, incidents=None):
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive or None, got {budget}")
        self.budget = None if budget is None else int(budget)
        self.incidents = incidents
        self._targets = []
        self._lock = threading.RLock()
        self._cursor = 0
        self._credit = 0.0
        self.ticks = 0
        self.sweeps = 0
        self.bytes_scanned = 0
        self.detected = 0
        self.repaired = 0
        self.unrepairable = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_guard(self, model, name="guard"):
        """Register a (possibly adaptive) :class:`GuardedClassModel`."""
        seen = {"repaired": model.repaired, "bad": model.unrepairable}

        def scrub():
            detected = model.scrub()
            repaired = model.repaired - seen["repaired"]
            unrepairable = model.unrepairable - seen["bad"]
            seen["repaired"] = model.repaired
            seen["bad"] = model.unrepairable
            return {"detected": detected, "repaired": repaired,
                    "unrepairable": unrepairable}

        self._add(_Target(name, "guard", lambda: model.nbytes, scrub))
        return self

    def add_engine(self, engine, name="engine"):
        """Register a :class:`SharedFeatureEngine`'s scene cache."""
        def scrub():
            report = engine.scrub_cache()
            return {"detected": report["mismatches"],
                    "repaired": report["repaired"],
                    "unrepairable": report["evicted"]}

        self._add(_Target(name, "cache", engine.cache_nbytes, scrub))
        return self

    def add_item_memory(self, memory, name=None):
        """Register one :class:`RematerializingItemMemory`."""
        def scrub():
            report = memory.scrub()
            return {"detected": report["repaired"],
                    "repaired": report["repaired"], "unrepairable": 0}

        self._add(_Target(name or memory.name, "item",
                          lambda: memory.nbytes, scrub))
        return self

    def add_extractor(self, extractor, name="extractor"):
        """Register every item memory of an :class:`HDHOGExtractor`."""
        for key, memory in extractor.item_memories().items():
            self.add_item_memory(memory, name=f"{name}.{key}")
        return self

    def _add(self, target):
        with self._lock:
            if any(t.name == target.name for t in self._targets):
                raise ValueError(f"duplicate scrub target {target.name!r}")
            self._targets.append(target)

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------
    def tick(self, frame=-1):
        """One budgeted sweep step; returns per-surface reports.

        Walks the registry round-robin from where the last tick stopped,
        scrubbing surfaces while banked credit covers their resident
        bytes.  Sub-budget surfaces are swept every tick; a surface
        costing ``N x budget`` is swept every ~``N`` ticks.
        """
        with self._lock:
            self.ticks += 1
            if not self._targets:
                return []
            costs = [max(float(t.cost()), 1.0) for t in self._targets]
            full_sweep = sum(costs)
            if self.budget is None:
                self._credit = full_sweep
            else:
                self._credit = min(self._credit + self.budget, full_sweep)
            reports = []
            for _ in range(len(self._targets)):
                idx = self._cursor % len(self._targets)
                cost = costs[idx]
                if self._credit < cost:
                    break
                target = self._targets[idx]
                outcome = target.scrub()
                self._credit -= cost
                self._cursor = idx + 1
                self.sweeps += 1
                self.bytes_scanned += int(cost)
                self.detected += outcome["detected"]
                self.repaired += outcome["repaired"]
                self.unrepairable += outcome["unrepairable"]
                reports.append({"name": target.name, "kind": target.kind,
                                "bytes": int(cost), **outcome})
        if self.incidents is not None and reports:
            self.incidents.record(
                "memory_scrubbed", frame=frame,
                surfaces=len(reports),
                bytes=sum(r["bytes"] for r in reports))
            repaired = sum(r["repaired"] for r in reports)
            if repaired:
                self.incidents.record(
                    "row_repaired", frame=frame, rows=repaired,
                    surfaces=[r["name"] for r in reports if r["repaired"]])
            unrepairable = sum(r["unrepairable"] for r in reports)
            if unrepairable:
                self.incidents.record(
                    "row_unrepairable", frame=frame, rows=unrepairable,
                    surfaces=[r["name"] for r in reports
                              if r["unrepairable"]])
        return reports

    def sweep(self, frame=-1):
        """Scrub *everything* now, budget notwithstanding (shutdown/gates)."""
        with self._lock:
            saved, self._credit = self.budget, 0.0
            self.budget = None
        try:
            return self.tick(frame=frame)
        finally:
            with self._lock:
                self.budget = saved

    def stats(self):
        """Counters + registry view for reports and serving stats."""
        with self._lock:
            return {
                "budget": self.budget,
                "targets": [{"name": t.name, "kind": t.kind,
                             "bytes": int(t.cost())} for t in self._targets],
                "ticks": self.ticks,
                "sweeps": self.sweeps,
                "bytes_scanned": self.bytes_scanned,
                "detected": self.detected,
                "repaired": self.repaired,
                "unrepairable": self.unrepairable,
            }
