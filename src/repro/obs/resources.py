"""Host resource telemetry: RSS and CPU snapshots, without new deps.

The STAR-aligner cloud studies pick instance types off per-task resource
profiles; this module supplies the raw samples.  Two sources, both in
the standard library / procfs:

* ``/proc/self/status`` ``VmRSS`` — the process's *current* resident set
  (Linux only; falls back to ``ru_maxrss``, the high-water mark, where
  procfs is unavailable);
* ``resource.getrusage(RUSAGE_SELF)`` — cumulative user+system CPU
  seconds and the RSS high-water mark.

A :class:`ResourceSampler` snapshots both on demand (the worker-side
tracer samples at span open/close), and a :class:`CadenceSampler`
invokes a callback every ``interval`` seconds inside long workloads on
a :class:`PeriodicThread`, the one periodic loop of the obs package.  Samples are plain picklable dataclasses so they cross
the process boundary inside a worker trace.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

try:
    import resource as _resource
except ImportError:  # non-POSIX platform
    _resource = None

_PROC_STATUS = Path("/proc/self/status")

#: ru_maxrss unit: kilobytes on Linux, bytes on macOS.
_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


@dataclass(frozen=True)
class ResourceSample:
    """One resource snapshot on the sampling process's real clock."""

    r_time: float  # perf_counter seconds (sampler-process domain)
    rss_bytes: int  # current RSS (or high-water mark as a fallback)
    cpu_seconds: float  # cumulative user + system CPU


def read_rss_bytes() -> int:
    """Current resident set size in bytes (0 when unreadable)."""
    try:
        with _PROC_STATUS.open() as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    if _resource is not None:
        return _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss * _MAXRSS_UNIT
    return 0


def read_cpu_seconds() -> float:
    """Cumulative user + system CPU seconds of this process."""
    if _resource is None:
        return 0.0
    ru = _resource.getrusage(_resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class ResourceSampler:
    """Snapshots RSS/CPU on demand."""

    def sample(self) -> ResourceSample:
        return ResourceSample(
            r_time=time.perf_counter(),
            rss_bytes=read_rss_bytes(),
            cpu_seconds=read_cpu_seconds(),
        )


class PeriodicThread:
    """Calls :meth:`tick` every ``interval`` real seconds on a daemon
    thread, from :meth:`start` until :meth:`stop`.

    A daemon, so a crashing workload can never be kept alive by its own
    telemetry.  :meth:`start` on a running thread is a no-op, and
    start -> stop -> start runs again.  :meth:`stop` is idempotent, safe
    before start and under concurrent stops (the lock makes take-and-join
    atomic, so only one caller joins); called from the thread itself (a
    tick deciding to stop) it signals shutdown without the illegal
    self-join.
    """

    def __init__(self, interval: float, name: str) -> None:
        if interval <= 0:
            raise ValueError(f"{name}: interval must be > 0, got {interval}")
        self.interval = interval
        self._name = name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    def tick(self) -> None:
        raise NotImplementedError

    def start(self) -> bool:
        """Start the thread; False when it was already running."""
        with self._lock:
            if self._thread is not None:
                return False
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=self._name, daemon=True
            )
            self._thread.start()
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def stop(self) -> None:
        with self._lock:
            self._stop.set()
            thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join()


class CadenceSampler(PeriodicThread):
    """Calls ``callback(sample)`` every ``interval`` seconds until stopped.

    The thread only reads clocks and procfs — it never touches the
    workload's state, so sampling cannot perturb results.
    """

    def __init__(
        self,
        interval: float,
        callback: Callable[[ResourceSample], None],
        sampler: ResourceSampler | None = None,
    ) -> None:
        super().__init__(interval, "repro-resource-sampler")
        self.callback = callback
        self.sampler = sampler or ResourceSampler()

    def tick(self) -> None:
        self.callback(self.sampler.sample())
