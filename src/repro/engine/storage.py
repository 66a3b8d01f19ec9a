"""Injectable storage layer: every durable byte goes through one shim.

All persistence code — the service WAL (:mod:`repro.service.journal`),
the content-addressed result cache (:mod:`repro.service.results`), the
checkpoint store (:mod:`repro.engine.checkpoint`), golden files,
manifests, the graph cache (:mod:`repro.workloads.graph`), and the
:func:`~repro.engine.atomic.atomic_write` helper
they share — routes its filesystem operations through a
:class:`Storage` instance.  With no faults configured the shim is a
pass-through: the same syscalls in the same order, so goldens and
determinism gates stay byte-identical.  With faults configured, the
*storage itself* can lie, which is the failure class process-level
injection (:mod:`repro.engine.faults`) can never produce:

* ``enospc`` — a write raises ``OSError(ENOSPC)`` before any byte lands;
* ``eio``    — a read raises ``OSError(EIO)`` (media error on recovery);
* ``fsync``  — an fsync fails with ``EIO`` *and the unflushed bytes are
  gone* (fsyncgate semantics: the kernel marked the dirty pages clean
  when it reported the error, so retrying the fsync later "succeeds"
  without the data ever reaching the platter);
* ``torn``   — a write persists only a prefix (half the payload), then
  raises ``EIO``;
* ``crash``  — a write persists a prefix, then the process dies on the
  spot (``os._exit``), leaving a torn file for the *next* process.

Faults are deterministic and single-shot: ``disk:<layer>:<kind>[:<nth>]``
fires on the nth matching operation of that layer (1-based, default 1)
and never again, so a test can assert both the failure and the
recovery.  Specs ride in the same ``REPRO_FAULT`` environment variable
as process faults (see :class:`~repro.engine.faults.FaultPlan`), so CI
injects through real CLI invocations.

The shim also *records*: every operation is reported to an optional
``record`` hook as a :class:`StorageOp`, which is what lets the
crash-point explorer (:mod:`repro.service.crashpoints`) enumerate every
operation boundary of a scripted session and replay a crash at each
one (``crash_at_op`` + a ``crash`` handler that raises
:class:`SimulatedCrash` instead of killing the test process).
"""

from __future__ import annotations

import enum
import errno
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import ConfigError

#: environment variable fault specs ride in (shared with engine.faults;
#: defined here so faults.py can import it without a cycle)
FAULT_ENV_VAR = "REPRO_FAULT"

#: spec prefix distinguishing disk faults from process faults
DISK_PREFIX = "disk"

#: layer wildcard: the fault fires for any persistence layer
ANY_LAYER = "*"

#: persistence layers that tag their operations (documentation; the
#: shim accepts any tag so a new layer cannot silently bypass matching)
LAYERS = (
    "journal", "results", "checkpoint", "goldens", "manifest", "atomic",
    "graph",
)

#: operation kinds that mutate durable state (crash-point boundaries)
MUTATING_OPS = frozenset(
    {"write", "fsync", "rename", "truncate", "remove", "fsync_dir"}
)


class DiskFaultKind(enum.Enum):
    """What the injected disk fault does (see module docstring)."""

    ENOSPC = "enospc"
    EIO = "eio"
    FSYNC = "fsync"
    TORN = "torn"
    CRASH = "crash"


#: which operation kind each fault attacks (nth-op counting scope)
FAULT_OPS: Dict[DiskFaultKind, str] = {
    DiskFaultKind.ENOSPC: "write",
    DiskFaultKind.TORN: "write",
    DiskFaultKind.CRASH: "write",
    DiskFaultKind.FSYNC: "fsync",
    DiskFaultKind.EIO: "read",
}


@dataclass(frozen=True)
class DiskFaultSpec:
    """One injected disk fault: layer, kind, and which matching op."""

    layer: str
    kind: DiskFaultKind
    #: 1-based index among this layer's ops of the attacked kind
    nth: int = 1

    def to_part(self) -> str:
        part = f"{DISK_PREFIX}:{self.layer}:{self.kind.value}"
        if self.nth != 1:
            part += f":{self.nth}"
        return part


def parse_disk_spec(part: str) -> DiskFaultSpec:
    """Parse ``disk:<layer>:<kind>[:<nth>]`` (ConfigError on garbage)."""
    fields = part.split(":")
    if fields[0] != DISK_PREFIX or len(fields) not in (3, 4):
        raise ConfigError(
            f"bad disk fault spec {part!r}; expected "
            f"disk:<layer>:<kind>[:<nth-op>]",
            field=FAULT_ENV_VAR,
        )
    layer, kind_name = fields[1], fields[2]
    try:
        kind = DiskFaultKind(kind_name)
    except ValueError:
        raise ConfigError(
            f"unknown disk fault kind {kind_name!r}; choose from "
            f"{[k.value for k in DiskFaultKind]}",
            field=FAULT_ENV_VAR,
        ) from None
    nth = 1
    if len(fields) == 4:
        try:
            nth = int(fields[3])
        except ValueError:
            raise ConfigError(
                f"bad disk fault op index {fields[3]!r} in {part!r}",
                field=FAULT_ENV_VAR,
            ) from None
        if nth < 1:
            raise ConfigError(
                f"disk fault op index must be >= 1 in {part!r}",
                field=FAULT_ENV_VAR,
            )
    return DiskFaultSpec(layer, kind, nth)


@dataclass
class StorageOp:
    """One recorded storage operation (crash-explorer input)."""

    index: int
    layer: str
    kind: str
    path: str
    nbytes: int = 0
    #: index among mutating ops only (-1 for reads): the boundary id
    mutating_index: int = -1


class SimulatedCrash(BaseException):
    """In-process stand-in for abrupt process death.

    ``BaseException`` so no recovery code path can accidentally catch
    and survive it — exactly like SIGKILL, the only observer is whoever
    restarts the "process" (the crash-point explorer).
    """


def _hard_exit() -> None:
    # same exit code an injected worker crash uses; bypasses Python
    # teardown so no buffered state escapes — a real torn file remains
    os._exit(86)


class Storage:
    """Filesystem shim: pass-through by default, a liar on request.

    ``faults`` are explicit specs; specs parsed from ``REPRO_FAULT``
    are folded in automatically (re-read whenever the variable
    changes, so CLI-driven tests need no plumbing).  ``record`` sees
    every op; ``crash_at_op`` crashes (via ``crash``, default
    ``os._exit``) immediately *before* executing that mutating-op
    index — or mid-write, after half the payload, when
    ``crash_torn`` is set.
    """

    def __init__(
        self,
        faults: Optional[List[DiskFaultSpec]] = None,
        record: Optional[Callable[[StorageOp], None]] = None,
        crash: Callable[[], None] = _hard_exit,
        crash_at_op: Optional[int] = None,
        crash_torn: bool = False,
    ) -> None:
        self.faults: List[DiskFaultSpec] = list(faults or [])
        self.record = record
        self.crash = crash
        self.crash_at_op = crash_at_op
        self.crash_torn = crash_torn
        #: spec -> fired yet (single-shot, deterministic)
        self.fired: List[DiskFaultSpec] = []
        self._op_index = 0
        self._mutating_index = 0
        self._counts: Dict[Tuple[str, str], int] = {}
        #: path -> durably-fsynced byte watermark (fsyncgate bookkeeping)
        self._durable: Dict[str, int] = {}
        self._env_text: Optional[str] = None
        self._env_specs: List[DiskFaultSpec] = []

    # ------------------------------------------------------------------ #
    # Fault matching
    # ------------------------------------------------------------------ #
    def _refresh_env(self) -> None:
        text = os.environ.get(FAULT_ENV_VAR, "")
        if text == self._env_text:
            return
        self._env_text = text
        self._env_specs = [
            parse_disk_spec(part.strip())
            for part in text.split(";")
            if part.strip().startswith(DISK_PREFIX + ":")
        ]
        # nth-op counting starts when the plan changes: a long-lived
        # process (test harness, daemon) that gains a fault spec counts
        # from that moment, exactly like a fresh CLI process would
        self._counts = {}

    def _enter(self, layer: str, kind: str, path: str, nbytes: int = 0):
        """Count + record one op; return (op, spec-to-fire-or-None)."""
        self._refresh_env()
        mutating = kind in MUTATING_OPS
        op = StorageOp(
            index=self._op_index,
            layer=layer,
            kind=kind,
            path=path,
            nbytes=nbytes,
            mutating_index=self._mutating_index if mutating else -1,
        )
        self._op_index += 1
        if mutating:
            self._mutating_index += 1
        for scope in (layer, ANY_LAYER):
            self._counts[(scope, kind)] = (
                self._counts.get((scope, kind), 0) + 1
            )
        if self.record is not None:
            self.record(op)
        if (
            mutating
            and self.crash_at_op is not None
            and op.mutating_index == self.crash_at_op
            and not (self.crash_torn and kind == "write")
        ):
            # crash-point explorer: die at the boundary, before the op
            self.crash()
        spec = None
        for candidate in list(self.faults) + self._env_specs:
            if candidate in self.fired:
                continue
            if FAULT_OPS[candidate.kind] != kind:
                continue
            if candidate.layer not in (layer, ANY_LAYER):
                continue
            if self._counts[(candidate.layer, kind)] == candidate.nth:
                spec = candidate
                self.fired.append(candidate)
                break
        return op, spec

    @staticmethod
    def _err(code: int, spec: DiskFaultSpec, doing: str) -> OSError:
        return OSError(
            code,
            f"injected disk fault {spec.to_part()!r} during {doing}",
        )

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def read_bytes(self, path: str, layer: str) -> bytes:
        """Whole-file read (the only read shape the repo uses)."""
        _, spec = self._enter(layer, "read", path)
        if spec is not None:
            raise self._err(errno.EIO, spec, f"read of {path}")
        with open(path, "rb") as handle:
            return handle.read()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def open_append(self, path: str, layer: str):
        """Open ``path`` for appending (binary); durable watermark is
        the current size (everything already on disk is presumed
        fsynced by whoever wrote it)."""
        handle = open(path, "ab")
        self._durable.setdefault(path, handle.tell())
        return handle

    def _enter_write(self, layer: str, path: str, data: bytes):
        """Fault/boundary decision for one write, *before* any effect.

        Returns (spec, torn_crash): ``spec`` is an injected fault to
        apply mid-write, ``torn_crash`` marks this write as the
        explorer's torn crash point.  An ENOSPC fault raises here — no
        byte (and for :meth:`write_file`, not even the truncating
        ``open``) may land first.
        """
        op, spec = self._enter(layer, "write", path, nbytes=len(data))
        torn_crash = (
            self.crash_torn
            and self.crash_at_op is not None
            and op.mutating_index == self.crash_at_op
        )
        if spec is not None and spec.kind is DiskFaultKind.ENOSPC:
            raise self._err(errno.ENOSPC, spec, f"write to {path}")
        return spec, torn_crash

    def _finish_write(
        self,
        handle,
        data: bytes,
        spec: Optional[DiskFaultSpec],
        torn_crash: bool,
        path: str,
    ) -> None:
        if spec is not None or torn_crash:
            # torn/crash: a prefix reaches the file, the rest never does
            handle.write(data[: len(data) // 2])
            handle.flush()
            if spec is not None and spec.kind is DiskFaultKind.TORN:
                raise self._err(errno.EIO, spec, f"torn write to {path}")
            self.crash()
            return  # pragma: no cover — crash() never returns
        handle.write(data)
        handle.flush()

    def write_handle(
        self, handle, data: bytes, layer: str, path: str
    ) -> None:
        """Write ``data`` through an open handle (flushed to the OS, so
        a later simulated crash cannot silently lose it from a user
        buffer — only injected faults lose bytes)."""
        spec, torn_crash = self._enter_write(layer, path, data)
        self._finish_write(handle, data, spec, torn_crash, path)

    def write_file(self, path: str, data: bytes, layer: str) -> None:
        """Create/overwrite ``path`` with ``data`` in one faultable op
        (the temp-file half of :func:`~repro.engine.atomic.atomic_write`).
        The fault/crash decision precedes the (truncating) ``open``, so
        a crash at this boundary leaves the previous contents intact."""
        spec, torn_crash = self._enter_write(layer, path, data)
        with open(path, "wb") as handle:
            self._finish_write(handle, data, spec, torn_crash, path)

    def fsync_handle(self, handle, layer: str, path: str) -> None:
        op, spec = self._enter(layer, "fsync", path)
        handle.flush()
        if spec is not None:
            # fsyncgate: the kernel reports the error exactly once and
            # drops the dirty pages — bytes since the last successful
            # fsync are gone, and a retried fsync "succeeds" without them
            os.ftruncate(handle.fileno(), self._durable.get(path, 0))
            raise self._err(errno.EIO, spec, f"fsync of {path}")
        os.fsync(handle.fileno())
        self._durable[path] = os.fstat(handle.fileno()).st_size

    def fsync_path(self, path: str, layer: str) -> None:
        """fsync by path (atomic_write's temp file before the rename)."""
        fd = os.open(path, os.O_RDONLY)
        try:
            _, spec = self._enter(layer, "fsync", path)
            if spec is not None:
                # dropping to the watermark needs a writable fd
                wfd = os.open(path, os.O_WRONLY)
                try:
                    os.ftruncate(wfd, self._durable.get(path, 0))
                finally:
                    os.close(wfd)
                raise self._err(errno.EIO, spec, f"fsync of {path}")
            os.fsync(fd)
            self._durable[path] = os.fstat(fd).st_size
        finally:
            os.close(fd)

    def fsync_dir(self, directory: str, layer: str) -> None:
        """Persist a rename by fsyncing its directory (best effort)."""
        self._enter(layer, "fsync_dir", directory or ".")
        try:
            fd = os.open(directory or ".", os.O_RDONLY)
        except OSError:
            return  # e.g. a filesystem that cannot open directories
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def replace(self, src: str, dst: str, layer: str) -> None:
        self._enter(layer, "rename", dst)
        os.replace(src, dst)
        self._durable[dst] = self._durable.pop(
            src, os.path.getsize(dst) if os.path.exists(dst) else 0
        )

    def truncate(self, path: str, size: int, layer: str) -> None:
        self._enter(layer, "truncate", path, nbytes=size)
        os.truncate(path, size)
        self._durable[path] = min(self._durable.get(path, size), size)

    def remove(self, path: str, layer: str) -> None:
        self._enter(layer, "remove", path)
        os.remove(path)
        self._durable.pop(path, None)


#: process-wide default instance (pure pass-through unless REPRO_FAULT
#: carries disk specs); persistence layers take an optional ``storage``
#: argument and fall back to this
_STORAGE = Storage()


def get_storage() -> Storage:
    return _STORAGE
