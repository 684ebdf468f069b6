"""Execution plans: one value object that fully describes a frame's scan.

Eight PRs of growth left the detection stack with a pile of knobs -
engine {shared,perwindow,legacy}, backend {dense,packed}, stride,
workers, pyramid depth, frame-delta reuse, word truncation, cascade
schedules, keyframe skipping - and every caller (CLI, stream, serving,
fleet) picked them ad hoc.  A :class:`Plan` collects the complete knob
assignment for scanning one frame into a single frozen dataclass, so

* there is exactly one executable description of "how this frame will be
  scanned" (run it with :func:`repro.pipeline.multiscale.execute_plan`);
* the planner (:mod:`repro.runtime.planner`) can price a candidate
  against the :mod:`repro.hardware.opcount` cost model *before* running
  it, and the serving ladder's rungs become planner-generated plans
  instead of a hand-tuned table;
* plans serialize (:meth:`Plan.to_dict` / :meth:`Plan.from_dict`), so a
  chosen plan can be logged, diffed and replayed.

A ``Plan`` is *pure data*: it never touches a detector.  Validation here
covers only internal consistency (the packed-only knobs, positive
strides); whether a plan fits a particular detector is checked by
``execute_plan`` at execution time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..core.hypervector import packed_words

__all__ = ["Plan", "BACKENDS", "PLAN_ENGINES"]

BACKENDS = ("dense", "packed")
PLAN_ENGINES = ("shared", "perwindow", "legacy")


@dataclass(frozen=True)
class Plan:
    """The complete knob assignment for scanning one frame.

    Attributes
    ----------
    name:
        Stable identifier (reported in stats, rung transitions and the
        planner's tables).
    backend:
        ``"dense"`` or ``"packed"`` - must match the executing
        detector's backend.
    engine:
        ``"shared"``, ``"perwindow"`` or ``"legacy"`` - must match the
        executing detector's engine mode.
    stride:
        Absolute scan stride in pixels (None = the detector's configured
        stride).
    level_strides:
        Optional per-pyramid-level stride overrides; entries may be None
        (fall back to ``stride``).  Levels beyond the tuple use
        ``stride``.
    max_levels:
        Scan only the first N pyramid levels (None = all).
    max_words:
        Packed word budget per window, for any class model: flat scans
        score the word prefix (:meth:`repro.core.packed.PackedScoring.
        similarities` with ``words``), cascade scans cap their escalation
        depth.  Packed backend only.
    stage_words:
        The cascade's cumulative word schedule this plan assumes (purely
        descriptive - execution uses the detector's own cascade scanner;
        the planner records the schedule it priced).  Packed only.
    delta_reuse:
        Whether a serving loop executing this plan should reuse cached
        per-level features via
        :meth:`repro.pipeline.engine.SharedFeatureEngine.delta_update`
        (bitwise-identical either way; this is purely a cost knob).
    workers:
        Threads scanning pyramid levels concurrently (bitwise-identical
        to serial).
    keyframe_every:
        Detect every k-th frame, predict the rest from the tracker
        (serving loops only; single scans ignore it).
    """

    name: str = "plan"
    backend: str = "packed"
    engine: str = "shared"
    stride: int | None = None
    level_strides: tuple | None = None
    max_levels: int | None = None
    max_words: int | None = None
    stage_words: tuple | None = None
    delta_reuse: bool = True
    workers: int = 1
    keyframe_every: int = 1

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"expected one of {BACKENDS}")
        if self.engine not in PLAN_ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"expected one of {PLAN_ENGINES}")
        if self.stride is not None and int(self.stride) < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.level_strides is not None:
            strides = tuple(None if s is None else int(s)
                            for s in self.level_strides)
            if any(s is not None and s < 1 for s in strides):
                raise ValueError(
                    f"level_strides must be >= 1, got {self.level_strides}")
            object.__setattr__(self, "level_strides", strides)
        if self.max_levels is not None and int(self.max_levels) < 1:
            raise ValueError(
                f"max_levels must be >= 1 or None, got {self.max_levels}")
        if self.max_words is not None:
            if self.backend != "packed":
                raise ValueError("max_words requires backend='packed'")
            if int(self.max_words) < 1:
                raise ValueError(
                    f"max_words must be >= 1 or None, got {self.max_words}")
        if self.stage_words is not None:
            if self.backend != "packed":
                raise ValueError("stage_words requires backend='packed'")
            words = tuple(int(w) for w in self.stage_words)
            if list(words) != sorted(set(words)) or (words and words[0] < 1):
                raise ValueError("stage_words must be strictly increasing "
                                 f"positive, got {self.stage_words}")
            object.__setattr__(self, "stage_words", words)
        if int(self.workers) < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if int(self.keyframe_every) < 1:
            raise ValueError(
                f"keyframe_every must be >= 1, got {self.keyframe_every}")

    # ------------------------------------------------------------------
    # knob readouts
    # ------------------------------------------------------------------
    def stride_for(self, level):
        """Effective stride override for pyramid level ``level`` (or None)."""
        if self.level_strides is not None and level < len(self.level_strides):
            s = self.level_strides[level]
            if s is not None:
                return s
        return self.stride

    def prefix_words(self, dim):
        """Model words this plan scores against, for dimension ``dim``."""
        total = packed_words(dim)
        if self.max_words is None:
            return total
        return max(1, min(int(self.max_words), total))

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    @classmethod
    def from_rung(cls, rung, *, backend, base_stride, dim, engine="shared",
                  workers=1, delta_reuse=True):
        """Translate a ladder :class:`~repro.runtime.ladder.Rung` to a plan.

        The compatibility bridge for hand-tuned ladders: rungs describe
        knobs *relative* to a detector (``stride_scale``,
        ``prefix_fraction``), plans describe them absolutely.  Planner
        -generated rungs carry their plan directly (``rung.plan``) and
        skip this translation.
        """
        words = rung.prefix_words(dim)
        max_words = words if words < packed_words(dim) else None
        if backend != "packed":
            max_words = None
        stride = int(base_stride) * int(rung.stride_scale) \
            if rung.stride_scale > 1 else None
        return cls(name=rung.name, backend=backend, engine=engine,
                   stride=stride, max_levels=rung.max_levels,
                   max_words=max_words, delta_reuse=delta_reuse,
                   workers=workers, keyframe_every=rung.keyframe_every)

    def with_name(self, name):
        """Copy of this plan under a different name."""
        return replace(self, name=str(name))

    def to_dict(self):
        """JSON-serializable description (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a plan from :meth:`to_dict` output."""
        data = dict(data)
        for key in ("level_strides", "stage_words"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)

    def describe(self):
        """One human line: the non-default knobs only."""
        bits = [f"backend={self.backend}", f"engine={self.engine}"]
        if self.stride is not None:
            bits.append(f"stride={self.stride}")
        if self.level_strides is not None:
            bits.append(f"level_strides={self.level_strides}")
        if self.max_levels is not None:
            bits.append(f"max_levels={self.max_levels}")
        if self.max_words is not None:
            bits.append(f"max_words={self.max_words}")
        if self.stage_words is not None:
            bits.append(f"stages={self.stage_words}")
        if not self.delta_reuse:
            bits.append("delta_reuse=off")
        if self.workers > 1:
            bits.append(f"workers={self.workers}")
        if self.keyframe_every > 1:
            bits.append(f"keyframe_every={self.keyframe_every}")
        return f"{self.name}({', '.join(bits)})"
