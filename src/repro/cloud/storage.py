"""Data staging and transfer-time model.

The sample run in §IV.C times the upload of the 4.4 GB input from the
local server to the first VM at ~3 min 35 s (≈20 MB/s WAN); transfers
between VMs inside the region ride the instance network.  The model
prices both, and tracks what data sets exist where so the S1 scheme's
inter-pilot staging costs are visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.clock import SimClock

#: Default WAN bandwidth (local lab -> EC2), bytes/s.
DEFAULT_WAN_BANDWIDTH = 20.5e6
#: Default intra-region VM-to-VM bandwidth, bytes/s.
DEFAULT_LAN_BANDWIDTH = 125e6


@dataclass(frozen=True)
class TransferRecord:
    src: str
    dst: str
    n_bytes: int
    seconds: float
    started_at: float


@dataclass
class TransferModel:
    """Prices and logs data movement on the virtual clock."""

    clock: SimClock
    wan_bandwidth: float = DEFAULT_WAN_BANDWIDTH
    lan_bandwidth: float = DEFAULT_LAN_BANDWIDTH
    log: list[TransferRecord] = field(default_factory=list)

    def upload(self, n_bytes: int, dst: str = "vm") -> float:
        """Local server -> cloud; advances the clock; returns seconds."""
        return self._move("local", dst, n_bytes, self.wan_bandwidth)

    def copy(self, n_bytes: int, src: str, dst: str) -> float:
        """VM -> VM inside the region (the S1 scheme's handoff cost)."""
        if src == dst:
            return 0.0  # same VM: no movement (the S2 scheme's win)
        return self._move(src, dst, n_bytes, self.lan_bandwidth)

    def _move(self, src: str, dst: str, n_bytes: int, bandwidth: float) -> float:
        if n_bytes < 0:
            raise ValueError("negative transfer size")
        seconds = n_bytes / bandwidth
        self.log.append(
            TransferRecord(
                src=src,
                dst=dst,
                n_bytes=n_bytes,
                seconds=seconds,
                started_at=self.clock.now,
            )
        )
        self.clock.advance(seconds)
        return seconds

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.log)
