"""Durable checkpoint/resume store for pipeline runs.

A pipeline killed mid-run (spot reclaim of the submit host, an operator
``kill -9``, a crashed driver) must be resumable without redoing work —
and the resumed run must be *bit-identical* to an uninterrupted one:
same contigs, same usage records, same virtual TTCs.  The store here
makes that possible by durably recording **unit records**: the
:class:`~repro.parallel.executor.WorkloadOutcome` the pilot agent
collected for a DONE compute unit (result, the usage the workload
returned, real wall seconds, and the buffered worker trace), keyed by
the unit's content address.  For assembly units that key is
``(ReadStore digest, assembler, params, sweep k·ranks)`` — the same
address the in-memory :class:`~repro.core.assembly_cache.AssemblyCache`
uses — so a digest change (different reads, different preprocessing)
invalidates the record automatically by never matching it.

The pilot agent asks this store about a unit's key first, before the run
cache.  It replays a hit *through the regular execution path* (the
configured executor, SGE pricing on the virtual clock, trace emission),
substituting only the real computation — which is what makes the replay
bit-identical AND structurally indistinguishable in traces.  The stored
usage is what the workload returned, before the agent's 1/scale
extrapolation; an assembly job's replay prices the raw usage its result
carries with the *current* workload's ratios (its key holds no scale),
so a replayed unit's virtual TTC equals a live run's exactly.

Durability model: records are single pickle files written atomically
(tmp + fsync + ``os.replace``), so a kill at any instant leaves either
the complete record or nothing.  Unreadable or version-skewed files are
treated as misses and discarded.  Writes are first-one-wins.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.parallel.executor import WorkloadOutcome

#: Bump when the record layout changes; older files become misses.
#: Format 2 stores the agent's ``WorkloadOutcome`` itself.
FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    pass


def checkpoint_key_id(key: Any) -> str:
    """Stable filename-safe id of a checkpoint key.

    Keys are plain tuples of strings/numbers/frozen dataclasses with
    deterministic ``repr``; the id is a SHA-256 of that repr.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:40]


@dataclass
class CheckpointStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0


class CheckpointStore:
    """One directory of durable unit records."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._units = self.root / "units"
        self._units.mkdir(parents=True, exist_ok=True)
        self.stats = CheckpointStats()

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.root)!r})"

    def get_unit(self, key: Any) -> WorkloadOutcome | None:
        record = self._load(key)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    def has_unit(self, key: Any) -> bool:
        """Whether a unit record exists for ``key`` — one ``stat``, no
        read and no hit/miss counted.  A torn record still answers True;
        :meth:`get_unit` is what discovers (and discards) it."""
        return self._path(key).exists()

    def put_unit(self, key: Any, record: WorkloadOutcome) -> bool:
        """Durably record a unit outcome; first write wins."""
        written = self._dump(key, record)
        if written:
            self.stats.puts += 1
        return written

    # -- internals ---------------------------------------------------------

    def _path(self, key: Any) -> Path:
        return self._units / f"{checkpoint_key_id(key)}.pkl"

    def _load(self, key: Any):
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                envelope = pickle.load(f)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn/corrupt/unpicklable file: a miss, and removed so the
            # fresh record can land.
            path.unlink(missing_ok=True)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != FORMAT_VERSION
            or envelope.get("key") != repr(key)
        ):
            # Version skew or a (vanishingly unlikely) digest collision.
            path.unlink(missing_ok=True)
            return None
        return envelope["record"]

    def _dump(self, key: Any, record: Any) -> bool:
        path = self._path(key)
        if path.exists():
            return False
        envelope = {
            "format": FORMAT_VERSION,
            "key": repr(key),
            "record": record,
        }
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as f:
                pickle.dump(envelope, f, protocol=pickle.HIGHEST_PROTOCOL)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except Exception as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}")
        return True
