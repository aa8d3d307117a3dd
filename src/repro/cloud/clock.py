"""Virtual time: a monotonic clock plus a discrete-event queue.

Every TTC and cost figure in the reproduction is measured on this clock.
The event queue is a plain heap keyed by (time, sequence) so simultaneous
events fire in submission order — enough for the pipeline's needs and
fully deterministic.

Every scheduled event carries a ``tag`` naming the action; untagged
submissions default to the action's qualified name, so the tracer (and
tests) can always see which scheduled action fired — :meth:`EventQueue.step`
returns the fired tag and emits an ``eq.fire`` trace event.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import get_tracer


class ClockError(RuntimeError):
    """Illegal clock manipulation (e.g. moving time backwards)."""


class SimClock:
    """A monotonic virtual clock, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Advance by ``dt`` seconds (must be non-negative)."""
        if dt < 0:
            raise ClockError(f"cannot advance by negative dt={dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Jump forward to absolute time ``t`` (must not be in the past)."""
        if t < self._now - 1e-9:
            raise ClockError(f"cannot move clock backwards to {t} < {self._now}")
        self._now = max(self._now, t)
        return self._now


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], Any] = field(compare=False)
    tag: str = field(compare=False, default="")


class EventQueue:
    """A discrete-event loop bound to a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        #: Tag of the most recently fired event (None before the first).
        self.last_tag: str | None = None

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(self, t: float, action: Callable[[], Any], tag: str = "") -> None:
        """Schedule ``action`` at absolute time ``t``.

        ``tag`` names the action for observability; when empty it is
        derived from the action's qualified name so no event is anonymous.
        """
        if t < self.clock.now - 1e-9:
            raise ClockError(f"cannot schedule in the past ({t} < {self.clock.now})")
        if not tag:
            tag = getattr(action, "__qualname__", "") or type(action).__name__
        heapq.heappush(self._heap, _Event(t, next(self._seq), action, tag))

    def schedule_in(self, dt: float, action: Callable[[], Any], tag: str = "") -> None:
        """Schedule ``action`` ``dt`` seconds from now."""
        if dt < 0:
            raise ClockError(f"negative delay {dt}")
        self.schedule_at(self.clock.now + dt, action, tag)

    def step(self) -> str | None:
        """Fire the next event (advancing the clock).

        Returns the fired event's tag, or ``None`` when the queue is
        empty — test emptiness with ``is None``, not truthiness.
        """
        if not self._heap:
            return None
        ev = heapq.heappop(self._heap)
        self.clock.advance_to(ev.time)
        self.last_tag = ev.tag
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("eq.fire", category="events", v=ev.time, tag=ev.tag)
        ev.action()
        return ev.tag

    def run(self, until: float | None = None) -> list[str]:
        """Drain the queue, optionally stopping once ``until`` is reached;
        returns the tags of the events fired, in firing order."""
        fired: list[str] = []
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self.clock.advance_to(until)
                return fired
            tag = self.step()
            if tag is not None:
                fired.append(tag)
        return fired
