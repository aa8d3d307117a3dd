"""Named read-only arrays that may move into one shared-memory segment.

The assembly fan-out runs many jobs over the same encoded reads and the
same counted spectra.  :class:`SharedArrays` makes handing those to pool
workers cheap: a fixed set of named numpy arrays that starts as process
memory and, on ``share()``, moves into one
:mod:`multiprocessing.shared_memory` segment other processes attach
zero-copy.  :class:`~repro.seq.readstore.ReadStore` and
:class:`~repro.assembly.sweep.KmerSpectrum` each *hold* one and add
their identity and a compact pickle handle.

Ownership (the rule is stated here and in DESIGN §7 only):

* The process that called ``share()`` **owns** the segment and must
  ``close()`` it.  ``close`` unlinks exactly when the caller is the
  owner, so an attacher only ever detaches; it is idempotent, and after
  it every array access raises ``ValueError("<what> is closed")``.
* Never-shared arrays are plain memory with nothing to release:
  ``close`` is a no-op and the object stays usable.
* A ``weakref.finalize`` backstop does the same for an object collected
  unclosed, so no ``/dev/shm`` segment outlives its owner; an explicit
  ``close`` detaches it first.
* One per-process registry maps segment name to the object holding it:
  attaching a name that is live here returns that object, so an
  in-process unpickle is the identity, and fork children inherit the
  registry and with it the parent's views and derived caches.
* Attaching never registers with the resource tracker
  (:func:`_attach_untracked`).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

#: The object holding each shared or attached segment, by segment name.
_ATTACHED: "weakref.WeakValueDictionary[str, object]" = weakref.WeakValueDictionary()


def _cleanup_shm(shm: SharedMemory, unlink: bool) -> None:
    try:
        shm.close()
    except BufferError:
        # A numpy view still exports pointers into the mapping (typical
        # at interpreter shutdown, where GC order is arbitrary).  Disarm
        # the SharedMemory destructor so it does not retry the close and
        # print "Exception ignored in __del__"; the OS reclaims the
        # mapping itself at process exit.
        import os

        shm._buf = None
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
            shm._fd = -1
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _segment(**kwargs) -> SharedMemory:
    """``SharedMemory(**kwargs)``, its module loaded on first use."""
    from multiprocessing.shared_memory import SharedMemory

    return SharedMemory(**kwargs)


def _attach_untracked(name: str) -> SharedMemory:
    """Attach to a segment without resource-tracker registration.

    Python < 3.13 has no ``SharedMemory(track=False)``: every attach also
    registers the segment with the process's resource tracker, which
    would unlink it when *this* process exits even though the owner is
    still using it.  Unregistering after the attach is racy when
    fork-pool workers share the parent's tracker: the tracker's
    per-type cache is a *set*, so interleaved attach pairs from two
    workers collapse into one entry and the surplus unregister — or the
    owner's eventual unlink — dies with a ``KeyError`` inside the
    tracker process.  Suppressing the registration instead keeps the
    owner's create/unlink pair the only bookkeeping the tracker ever
    sees, however many processes attach and whenever they forked.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return _segment(name=name)
    finally:
        resource_tracker.register = original


def _padded(nbytes: int) -> int:
    """A field's section: 8-byte aligned, so field order never matters."""
    return -(-nbytes // 8) * 8


def _views(buf, fields: Iterable[tuple[str, np.dtype, tuple]]) -> dict:
    """The named arrays over one flat buffer, laid end to end."""
    views = {}
    off = 0
    for name, dtype, shape in fields:
        arr = np.frombuffer(
            buf, dtype=dtype, count=int(np.prod(shape)), offset=off
        ).reshape(shape)
        views[name] = arr
        off += _padded(arr.nbytes)
    return views


class SharedArrays:
    """Named read-only arrays: process memory at first, one segment
    after :meth:`share` or :meth:`attach`.  ``what`` names the holding
    class in errors; ``dtypes`` is its ``{field: dtype}`` constant, whose
    order is the layout an attacher rebuilds from the shapes alone."""

    def __init__(
        self,
        what: str,
        dtypes: Mapping[str, type],
        arrays: Mapping[str, np.ndarray],
        shm: SharedMemory | None = None,
    ) -> None:
        self.what = what
        self._fields = tuple(dtypes)
        coerced = {
            field: np.ascontiguousarray(arrays[field], dtype=dtype)
            for field, dtype in dtypes.items()
        }
        self._hold(coerced, shm, owns_shm=False)

    def _hold(self, arrays: dict, shm, owns_shm: bool) -> None:
        """Serve ``arrays`` from now on; with a segment, arm the backstop."""
        for arr in arrays.values():
            arr.flags.writeable = False
        self._arrays: dict[str, np.ndarray] | None = arrays
        self._shm = shm
        self._owns_shm = owns_shm
        self._finalizer: weakref.finalize | None = None
        if shm is not None:
            self._finalizer = weakref.finalize(self, _cleanup_shm, shm, owns_shm)

    @classmethod
    def attach(
        cls,
        what: str,
        dtypes: Mapping[str, type],
        shm_name: str,
        shapes: Sequence,
        build: Callable[["SharedArrays"], object],
    ):
        """The object holding segment ``shm_name``: the live one when
        this process owns or already attached the segment, else
        ``build(arrays)`` over a fresh zero-copy attachment whose fields
        have ``shapes`` (in ``dtypes`` order)."""
        existing = _ATTACHED.get(shm_name)
        if existing is not None and not existing.closed:
            return existing
        shm = _attach_untracked(shm_name)
        views = _views(shm.buf, zip(dtypes, dtypes.values(), shapes))
        holder = build(cls(what, dtypes, views, shm=shm))
        _ATTACHED[shm_name] = holder
        return holder

    @property
    def shared(self) -> bool:
        return self._shm is not None

    @property
    def owns_shm(self) -> bool:
        return self._owns_shm

    @property
    def closed(self) -> bool:
        return self._arrays is None

    @property
    def shm_name(self) -> str:
        """Name of the segment (see :meth:`share`)."""
        if self._shm is None:
            raise ValueError(f"{self.what} is not shared; call share() first")
        return self._shm.name

    def share(self, holder) -> None:
        """Move the arrays into one segment (idempotent) and register
        ``holder``, which exposes ``closed``, as what attaching it returns."""
        if self.closed:
            raise ValueError(f"cannot share a closed {self.what}")
        if self._shm is not None:
            return
        local = self._arrays
        total = sum(_padded(arr.nbytes) for arr in local.values())
        shm = _segment(create=True, size=max(total, 1))
        views = _views(
            shm.buf, ((f, arr.dtype, arr.shape) for f, arr in local.items())
        )
        for name, view in views.items():
            view[...] = local[name]
        # Rebind onto the segment so exactly one copy stays resident.
        self._hold(views, shm, owns_shm=True)
        _ATTACHED[shm.name] = holder

    def close(self, unlink: bool | None = None) -> bool:
        """Release the segment, if there is one, and say whether there
        was (idempotent).  ``unlink`` destroys it and defaults to True
        exactly when this object created it."""
        shm = self._shm
        if shm is None:
            return False
        if unlink is None:
            unlink = self._owns_shm
        self._shm = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._arrays = None
        _cleanup_shm(shm, unlink)
        return True

    def __getitem__(self, field: str) -> np.ndarray:
        try:
            return self._arrays[field]
        except TypeError:
            raise ValueError(f"{self.what} is closed") from None

    @property
    def nbytes(self) -> int:
        """Resident size of the arrays."""
        return int(sum(self[field].nbytes for field in self._fields))
