"""Correctness gate: every simulated cell's ``GOLDEN_METRICS`` against a
reference.

References, in order of preference:

* ``tools/goldens/<scale>.json`` of the checkout, for the cells it pins
  (micro scale, seed 0, keyed ``benchmark:config``);
* ``reference.json`` next to this file, recorded by
  ``record_reference.py``.  It is keyed by benchmark, config and a digest
  of the kernel's content, so it applies to every seed that generates the
  same trace;
* otherwise the first repetition within the run (identity across
  repetitions).

A cell that does not match counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from array import array
from typing import Dict, List, Optional

#: ``repro.sanitizer.goldens.GOLDEN_METRICS`` at the commit that
#: recorded ``reference.json``; kept here so the recorded file stays
#: comparable if the simulator's list changes
METRICS = (
    "cycles",
    "l1_tlb_hits",
    "l1_tlb_accesses",
    "l2_tlb_hits",
    "l2_tlb_accesses",
    "walks",
    "far_faults",
    "tbs_completed",
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
#: relative tolerance; the simulator is deterministic, this only absorbs
#: float serialization (the golden files use the same value)
TOLERANCE = 1e-9

Cells = Dict[str, Dict[str, float]]


def metrics_of(result) -> Dict[str, float]:
    """The gated metrics of a ``RunResult`` or of its ``to_dict()``."""
    if isinstance(result, dict):
        return {m: result[m] for m in METRICS}
    return {m: getattr(result, m) for m in METRICS}


def mismatches(cells: Cells, reference: Cells, tolerance: float = TOLERANCE) -> List[str]:
    """One line per cell of ``cells`` that ``reference`` pins and that
    differs from it in any metric (cells without a reference pass)."""
    problems = []
    for key in sorted(set(cells) & set(reference)):
        bad = [
            f"{m}={cells[key].get(m)} (reference {reference[key][m]})"
            for m in METRICS
            if m in reference[key]
            and not _close(cells[key].get(m), reference[key][m], tolerance)
        ]
        if bad:
            problems.append(f"{key}: " + ", ".join(bad))
    return problems


def _close(value, expected, tolerance: float) -> bool:
    if value is None or expected is None:
        return value == expected
    return math.isclose(value, expected, rel_tol=tolerance, abs_tol=0.0)


def kernel_digest(kernel) -> str:
    """Digest of a kernel's content through its public API: its name and
    every transaction address in trace order."""
    digest = hashlib.sha256(kernel.name.encode())
    digest.update(array("Q", kernel.addresses()).tobytes())
    return digest.hexdigest()[:16]


def reference_key(benchmark: str, config: str, digest: str) -> str:
    return f"{benchmark}:{config}:{digest}"


def recorded_reference(digests: Dict[str, str], configs, path: Optional[str] = None) -> Cells:
    """``{"benchmark:config": metrics}`` recorded for the kernels whose
    digests are given (``{benchmark: kernel_digest}``)."""
    path = path or REFERENCE_PATH
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        recorded = json.load(handle).get("cells", {})
    cells = {}
    for benchmark, digest in digests.items():
        for config in configs:
            entry = recorded.get(reference_key(benchmark, config, digest))
            if entry is not None:
                cells[f"{benchmark}:{config}"] = entry
    return cells


def golden_reference(root: str, scale: str, seed: int) -> Optional[Cells]:
    """The checkout's golden cells for (scale, seed), or ``None``."""
    path = os.path.join(root, "tools", "goldens", f"{scale}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("scale") != scale or payload.get("seed") != seed:
        return None
    return payload.get("cells")
