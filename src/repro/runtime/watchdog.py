"""Stall watchdog: detect hung frame processing, cancel, then restart.

A serving loop can hang in ways no exception handler sees - a pathological
input driving a quadratic corner, a stuck I/O dependency, a livelocked
native call.  The watchdog is the escalation path, a two-stage state
machine per frame:

``watching`` --(frame exceeds ``stall_timeout``)--> ``cancelling``
    The frame's cancel event is set.  Processing checks it at its
    cooperative checkpoints (between pyramid levels, before
    classification, inside injected chaos stalls) and aborts the frame
    with :class:`FrameCancelled` - state intact, next frame proceeds.

``cancelling`` --(no reaction within ``grace``)--> ``restarting``
    The consumer thread is wedged somewhere that honors no flag.  The
    watchdog fires the restart callback: the runtime bumps its
    *generation* counter, abandons the wedged thread (whose eventual
    result will be discarded as stale), and spawns a fresh consumer that
    resumes from the shared state - tracker, ladder rung, counters and
    engine cache all survive, because they live on the runtime, not the
    thread.

Both escalations are recorded as incidents by the runtime's callbacks.
The watchdog itself is policy-free: it knows timestamps and callbacks,
nothing about detection.
"""

from __future__ import annotations

import threading
import time
import weakref

__all__ = ["FrameCancelled", "Watchdog", "weak_method"]


def weak_method(method):
    """A callback that forwards to the bound ``method`` while its object lives.

    A helper that the runtime owns (its watchdog, the fleet's batch gate)
    calls back into it; holding a plain bound method would close a cycle,
    so a stopped, dropped runtime - engine cache included - would stay
    resident until the cyclic garbage collector happens to run.
    """
    ref = weakref.WeakMethod(method)

    def call(*args):
        target = ref()
        if target is not None:
            target(*args)

    return call


class FrameCancelled(RuntimeError):
    """Raised inside frame processing when the watchdog cancelled it."""


class _BusyFrame:
    """Watchdog-side record of the frame currently being processed."""

    __slots__ = ("token", "frame", "started_at", "cancelled", "restarted")

    def __init__(self, token, frame, started_at):
        self.token = token
        self.frame = frame
        self.started_at = started_at
        self.cancelled = False
        self.restarted = False


class Watchdog:
    """Monitors frame-processing heartbeats and escalates stalls.

    Parameters
    ----------
    stall_timeout:
        Seconds a single frame may process before the cancel stage fires.
    grace:
        Additional seconds after cancellation before the restart stage
        fires (default: ``stall_timeout``).
    interval:
        Poll period of the monitor thread (default: a quarter of the
        stall timeout, floored at 10 ms).
    on_cancel / on_restart:
        Callbacks ``f(frame_index)`` for the two escalation stages.
    clock:
        Injectable time source for deterministic tests.
    """

    def __init__(self, stall_timeout, grace=None, interval=None,
                 on_cancel=None, on_restart=None, clock=time.monotonic):
        if stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive seconds")
        self.stall_timeout = float(stall_timeout)
        self.grace = float(grace) if grace is not None else self.stall_timeout
        if self.grace < 0:
            raise ValueError("grace must be non-negative")
        self.interval = (float(interval) if interval is not None
                         else max(self.stall_timeout / 4.0, 0.01))
        self.on_cancel = on_cancel
        self.on_restart = on_restart
        self._clock = clock
        self._lock = threading.Lock()
        self._busy = None
        self._next_token = 0
        self._stop = threading.Event()
        self._thread = None
        self.cancels = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # heartbeat API (called by the consumer thread)
    # ------------------------------------------------------------------
    def frame_started(self, frame_index):
        """Mark a frame as in flight; returns a token for frame_finished."""
        with self._lock:
            self._next_token += 1
            token = self._next_token
            self._busy = _BusyFrame(token, int(frame_index), self._clock())
            return token

    def frame_finished(self, token):
        """Clear the in-flight mark - only if ``token`` is still current.

        A consumer abandoned by the restart stage eventually finishes its
        stuck frame; its stale token must not clear the *new* consumer's
        heartbeat, hence the token check.
        """
        with self._lock:
            if self._busy is not None and self._busy.token == token:
                self._busy = None

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def poll(self):
        """One monitor pass; returns the stage fired (None/"cancel"/"restart").

        Exposed for deterministic tests; the background thread just calls
        this on its interval.
        """
        with self._lock:
            busy = self._busy
            if busy is None:
                return None
            elapsed = self._clock() - busy.started_at
            fire_cancel = (not busy.cancelled
                           and elapsed > self.stall_timeout)
            fire_restart = (busy.cancelled and not busy.restarted
                            and elapsed > self.stall_timeout + self.grace)
            if fire_cancel:
                busy.cancelled = True
                self.cancels += 1
            if fire_restart:
                busy.restarted = True
                self.restarts += 1
                # the wedged frame is abandoned: stop watching it so the
                # replacement consumer starts from a clean heartbeat
                self._busy = None
        # callbacks run outside the lock: they take runtime locks
        if fire_cancel and self.on_cancel is not None:
            self.on_cancel(busy.frame)
            return "cancel"
        if fire_restart and self.on_restart is not None:
            self.on_restart(busy.frame)
            return "restart"
        if fire_cancel:
            return "cancel"
        if fire_restart:
            return "restart"
        return None

    def _run(self):
        while not self._stop.wait(self.interval):
            self.poll()

    def start(self):
        """Start the monitor thread (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="repro-watchdog")
            self._thread.start()
        return self

    def stop(self):
        """Stop the monitor thread and clear any heartbeat."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._lock:
            self._busy = None

    def stats(self):
        """Escalation counters."""
        return {"cancels": self.cancels, "restarts": self.restarts}
