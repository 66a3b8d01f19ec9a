"""Versioned on-disk checkpoint store for completed simulation cells.

A store is a single append-only JSONL file:

* line 1 — header: ``{"kind": "repro-checkpoint", "version": N,
  "scale": ..., "seed": ...}``;
* each further line — one simulated cell:
  ``{"key": [...], "config_hash": ..., "crc": <crc32>, "result": {...}}``:
  the cell's label (benchmark, tag, *flags), the hash of the config it
  simulated, and the CRC-32 of the canonical JSON of the other three.

Append-only writing makes the store crash-tolerant: a worker SIGKILLed
mid-append leaves at most one truncated *final* line, which ``load``
silently drops (that cell simply re-runs on resume).  Anything else that
fails to decode — a garbled middle line, a CRC mismatch from bit rot or
tampering, a header from a different store version or a different
(scale, seed) sweep — raises :class:`CheckpointError`: a cache we cannot
trust end-to-end is worse than no cache.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from typing import Any, Dict, Optional, Tuple

from .errors import CheckpointError
from .storage import Storage, get_storage

#: storage-shim layer tag for every checkpoint filesystem operation
STORAGE_LAYER = "checkpoint"

#: bump when the RunResult wire format or cell-key shape changes
#: incompatibly (v2: keys grew telemetry fields, results grew timeseries;
#: v3: records carry the config hash, covered by the CRC)
CHECKPOINT_VERSION = 3

_HEADER_KIND = "repro-checkpoint"

CellKey = Tuple[Any, ...]


def _record(key: CellKey, config_hash: Optional[str], result: Dict) -> str:
    fields = {"key": list(key), "config_hash": config_hash, "result": result}
    return json.dumps(dict(fields, crc=_crc(fields)))


def _crc(fields: Dict[str, Any]) -> int:
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode())


class CheckpointStore:
    """Append-only cell-result cache bound to one (scale, seed) sweep."""

    def __init__(
        self,
        path: str,
        scale: str = "",
        seed: int = 0,
        storage: Optional[Storage] = None,
    ) -> None:
        self.path = path
        self.scale = scale
        self.seed = seed
        self.storage = storage if storage is not None else get_storage()
        self._handle = None
        #: label -> config hash of every record the last ``load`` read
        self.config_hashes: Dict[CellKey, Optional[str]] = {}

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> Dict[CellKey, Dict[str, Any]]:
        """Read every intact record as ``{label: result}`` (and each
        label's :attr:`config_hashes`); raise on untrustworthy files."""
        results: Dict[CellKey, Dict[str, Any]] = {}
        self.config_hashes = {}
        if not self.exists():
            return results
        # errors="replace": a flipped byte must surface as a corrupt
        # record (CheckpointError), not a UnicodeDecodeError
        blob = self.storage.read_bytes(self.path, STORAGE_LAYER)
        lines = blob.decode("utf-8", errors="replace").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            return results
        self._check_header(lines[0])
        for i, line in enumerate(lines[1:], start=2):
            is_last = i == len(lines)
            try:
                record = json.loads(line)
                crc = record.pop("crc")
                key = tuple(record["key"])
                config_hash = record["config_hash"]
                result = record["result"]
            except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
                if is_last:
                    # torn final append (crash mid-write): drop, re-run cell
                    break
                raise CheckpointError(
                    f"{self.path}: corrupt record on line {i}"
                ) from None
            if _crc(record) != crc:
                raise CheckpointError(
                    f"{self.path}: checksum mismatch on line {i} "
                    f"(key={list(key)!r})"
                )
            results[key] = result
            self.config_hashes[key] = config_hash
        return results

    def _check_header(self, line: str) -> None:
        try:
            header = json.loads(line)
            kind = header["kind"]
            version = header["version"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise CheckpointError(
                f"{self.path}: unreadable checkpoint header"
            ) from None
        if kind != _HEADER_KIND:
            raise CheckpointError(
                f"{self.path}: not a checkpoint file (kind={kind!r})"
            )
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{self.path}: checkpoint version {version} does not match "
                f"supported version {CHECKPOINT_VERSION}"
            )
        if self.scale and header.get("scale") not in ("", None, self.scale):
            raise CheckpointError(
                f"{self.path}: checkpoint was taken at scale "
                f"{header.get('scale')!r}, this run is {self.scale!r}"
            )
        if header.get("seed") not in (None, self.seed):
            raise CheckpointError(
                f"{self.path}: checkpoint seed {header.get('seed')!r} does "
                f"not match this run's seed {self.seed!r}"
            )

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._handle is not None:
            return
        fresh = not self.exists() or os.path.getsize(self.path) == 0
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = self.storage.open_append(self.path, STORAGE_LAYER)
        if fresh:
            self._write_line(self._header())
            self._handle.flush()

    def _header(self) -> str:
        return json.dumps({
            "kind": _HEADER_KIND, "version": CHECKPOINT_VERSION,
            "scale": self.scale, "seed": self.seed,
        })

    def append(
        self,
        key: CellKey,
        result: Dict[str, Any],
        config_hash: Optional[str] = None,
    ) -> None:
        """Durably record one simulated cell (flushed immediately).

        A storage failure (ENOSPC, failed fsync, torn write) surfaces
        as :class:`CheckpointError` after rolling the file back to its
        pre-append size, so a torn partial line can never corrupt the
        *middle* of the store for the next ``load``.
        """
        line = _record(key, config_hash, result)
        try:
            self._ensure_open()
        except OSError as exc:
            raise CheckpointError(
                f"{self.path}: checkpoint open failed: {exc}"
            ) from exc
        pre_size = self._handle.tell()
        try:
            self._write_line(line)
            self.storage.fsync_handle(
                self._handle, STORAGE_LAYER, self.path
            )
        except OSError as exc:
            self.close()
            with contextlib.suppress(OSError):
                if os.path.getsize(self.path) > pre_size:
                    os.truncate(self.path, pre_size)
            raise CheckpointError(
                f"{self.path}: checkpoint append failed: {exc}"
            ) from exc

    def _write_line(self, line: str) -> None:
        self.storage.write_handle(
            self._handle, (line + "\n").encode(), STORAGE_LAYER, self.path
        )

    def compact(self) -> None:
        """Atomically rewrite the store from its intact records.

        Appends are crash-tolerant but not atomic: a SIGKILL mid-write
        leaves a torn final line that every later ``load`` must skip.
        Compaction squeezes that tail out by round-tripping the intact
        records through :func:`~repro.engine.atomic.atomic_write`, so a
        store that was closed cleanly is byte-exact JSONL with no
        salvage needed on resume.
        """
        from .atomic import atomic_write

        results = self.load()
        lines = [self._header()] + [
            _record(key, self.config_hashes[key], result)
            for key, result in results.items()
        ]
        atomic_write(
            self.path,
            "\n".join(lines) + "\n",
            layer=STORAGE_LAYER,
            storage=self.storage,
        )

    def close(self, compact: bool = False) -> None:
        wrote = self._handle is not None
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if compact and wrote and self.exists():
            self.compact()

    def discard(self) -> None:
        """Delete the on-disk file (start-fresh semantics)."""
        self.close()
        if self.exists():
            os.remove(self.path)
