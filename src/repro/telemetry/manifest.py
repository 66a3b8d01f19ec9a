"""Run manifests: reproducibility sidecars for every artifact.

A :class:`RunManifest` is a small JSON file written next to traces,
checkpoint stores, and reports.  It records everything needed to
re-produce the artifact from a clean checkout — config hashes, seed,
scale, benchmark set, the exact command line, the git SHA — plus
wall-clock provenance (when, how long) and the telemetry files the run
produced.  Determinism tests ignore the fields listed in
:data:`WALL_TIME_FIELDS`; everything else is a pure function of the
run's inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

MANIFEST_VERSION = 1
_MANIFEST_KIND = "repro-manifest"

#: provenance fields that legitimately differ between equal-seed runs
WALL_TIME_FIELDS = ("created_unix", "created_iso", "wall_time_s", "git_sha")


def config_hash(config: Any, tenancy: Optional[dict] = None) -> str:
    """Stable short hash of a (dataclass) GPUConfig.

    Enums and other non-JSON values are serialized via ``str`` so the
    hash depends only on the config's contents, not object identity.

    ``tenancy`` folds a tenant composition (tenant ids, workload mix,
    partition mode — ``TenancySpec.describe()``) into the hash, so a
    multi-tenant run can never collide with a single-tenant cache,
    checkpoint, or golden entry that used the same GPU config.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    elif isinstance(config, dict):
        payload = config
    else:
        payload = {"repr": repr(config)}
    if tenancy is not None:
        payload = {"gpu": payload, "tenancy": tenancy}
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """HEAD commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode().strip() or None


def manifest_path_for(artifact_path: str) -> str:
    """Sidecar path convention: ``<artifact>.manifest.json``."""
    return f"{artifact_path}.manifest.json"


@dataclass
class RunManifest:
    """Reproducibility record for one run/sweep artifact."""

    #: what artifact this manifest describes ("trace", "checkpoint", "report")
    artifact_kind: str
    artifact_path: str
    command: List[str] = field(default_factory=lambda: list(sys.argv))
    scale: str = "small"
    seed: int = 0
    benchmarks: List[str] = field(default_factory=list)
    #: config tag -> short config hash, for every config the run touched
    config_hashes: Dict[str, str] = field(default_factory=dict)
    #: telemetry file paths produced alongside the artifact
    trace_path: Optional[str] = None
    sample_every: Optional[int] = None
    cells_simulated: int = 0
    cells_restored: int = 0
    # --- wall-clock provenance (excluded from determinism checks) ----- #
    created_unix: float = field(default_factory=time.time)
    created_iso: str = field(
        default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S%z")
    )
    wall_time_s: float = 0.0
    git_sha: Optional[str] = field(default_factory=git_sha)
    python: str = field(
        default_factory=lambda: ".".join(map(str, sys.version_info[:3]))
    )
    extra: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["kind"] = _MANIFEST_KIND
        payload["version"] = MANIFEST_VERSION
        return payload

    def deterministic_dict(self) -> Dict[str, Any]:
        """The manifest minus its wall-time fields (determinism tests)."""
        payload = self.to_dict()
        for name in WALL_TIME_FIELDS:
            payload.pop(name, None)
        return payload

    def write(self, path: Optional[str] = None) -> str:
        """Write next to the artifact (default) or to an explicit path.

        Atomic (temp + rename + fsync): a manifest either exists in
        full or not at all, so no reader ever sees a torn sidecar.
        """
        if path is None:
            path = manifest_path_for(self.artifact_path)
        from ..engine.atomic import atomic_write

        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        return atomic_write(path, payload + "\n", layer="manifest")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        from ..engine.storage import get_storage

        payload = json.loads(
            get_storage().read_bytes(path, "manifest").decode("utf-8")
        )
        if payload.get("kind") != _MANIFEST_KIND:
            raise ValueError(f"{path}: not a repro manifest")
        if payload.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"{path}: manifest version {payload.get('version')} "
                f"!= supported {MANIFEST_VERSION}"
            )
        payload.pop("kind")
        payload.pop("version")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})
