"""Versioned ``BENCH_<figure>.json`` benchmark artifacts.

Every figure driver emits one artifact per run: the simulated series
(throughput / latency / cost numbers — deterministic in the seed), the
figure's named gate verdicts, a metrics-registry snapshot, the seeds,
the experiment parameters, the git SHA, and the host wall clock.  Artifacts are the repo's bench
trajectory: CI regenerates them at smoke scale and diffs them against
committed baselines with :mod:`repro.obs.compare` (zero tolerance on
the simulated sections — determinism is a correctness property here).

The JSON encoding is canonical (sorted keys, fixed indent, NaN
rejected) so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, Optional

from repro._version import __version__
from repro.obs.registry import MetricsRegistry

__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_SCHEMA_VERSION",
    "PERF_KIND",
    "ArtifactError",
    "artifact_filename",
    "perf_filename",
    "make_artifact",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
    "make_perf_artifact",
    "write_perf_artifact",
    "load_perf_artifact",
    "validate_perf_artifact",
]

ARTIFACT_KIND = "repro.obs.bench-artifact"
PERF_KIND = "repro.obs.perf-artifact"
ARTIFACT_SCHEMA_VERSION = 1

#: Keys every artifact must carry, checked by :func:`validate_artifact`.
_REQUIRED = (
    "kind",
    "schema_version",
    "figure",
    "seeds",
    "params",
    "simulated",
    "gates",
    "registry",
    "git_sha",
    "created_unix",
    "host",
)

#: Sections whose contents are deterministic in the seeds (compared with
#: zero tolerance by :mod:`repro.obs.compare`).
DETERMINISTIC_SECTIONS = ("figure", "seeds", "params", "simulated", "gates", "registry")

#: Sections that vary between hosts/runs (never strictly compared).
VOLATILE_SECTIONS = ("git_sha", "created_unix", "host")


class ArtifactError(ValueError):
    """A document is not a valid benchmark artifact."""


def artifact_filename(figure: str) -> str:
    """Canonical file name for one figure's artifact."""
    if not figure or any(c in figure for c in "/\\ "):
        raise ArtifactError(f"bad figure name: {figure!r}")
    return f"BENCH_{figure}.json"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def make_artifact(
    figure: str,
    simulated: Dict[str, Any],
    *,
    seeds: Iterable[int],
    params: Optional[Dict[str, Any]] = None,
    gates: Optional[Dict[str, Any]] = None,
    registry: Optional[MetricsRegistry] = None,
    wall_clock_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble one artifact document (not yet written to disk).

    *simulated* holds every virtual-time-derived number of the figure;
    anything in it must be reproducible bit-for-bit from *seeds*.
    *gates* maps each gate name to ``{"pass", "observed", "bound"}``.
    """
    if not isinstance(simulated, dict):
        raise ArtifactError("simulated section must be a dict")
    return {
        "kind": ARTIFACT_KIND,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "figure": figure,
        "seeds": sorted(set(int(s) for s in seeds)),
        "params": dict(params or {}),
        "simulated": simulated,
        "gates": dict(gates or {}),
        "registry": registry.snapshot() if registry is not None else None,
        "git_sha": _git_sha(),
        "created_unix": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "repro_version": __version__,
            "wall_clock_s": wall_clock_s,
        },
    }


def write_artifact(
    out_dir: str,
    figure: str,
    simulated: Dict[str, Any],
    *,
    seeds: Iterable[int],
    params: Optional[Dict[str, Any]] = None,
    gates: Optional[Dict[str, Any]] = None,
    registry: Optional[MetricsRegistry] = None,
    wall_clock_s: Optional[float] = None,
) -> str:
    """Build, validate and write ``<out_dir>/BENCH_<figure>.json``.

    Returns the path written.  The directory is created if missing.
    """
    doc = make_artifact(
        figure,
        simulated,
        seeds=seeds,
        params=params,
        gates=gates,
        registry=registry,
        wall_clock_s=wall_clock_s,
    )
    validate_artifact(doc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, artifact_filename(figure))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def load_artifact(path: str) -> Dict[str, Any]:
    """Read and validate one artifact; raises :class:`ArtifactError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact {path} is not valid JSON: {exc}") from exc
    validate_artifact(doc)
    return doc


def perf_filename(name: str) -> str:
    """Canonical file name for one perf-harness artifact."""
    if not name or any(c in name for c in "/\\ "):
        raise ArtifactError(f"bad perf artifact name: {name!r}")
    return f"PERF_{name}.json"


def make_perf_artifact(
    name: str,
    results: Dict[str, Any],
    *,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one wall-clock perf artifact (``PERF_<name>.json``).

    Unlike bench artifacts, *everything* here is host-dependent — the
    results are wall-clock measurements — so perf artifacts are never
    strictly compared; they record a machine's measured numbers next to
    the host description needed to interpret them.
    """
    if not isinstance(results, dict):
        raise ArtifactError("results section must be a dict")
    return {
        "kind": PERF_KIND,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "name": name,
        "params": dict(params or {}),
        "results": results,
        "git_sha": _git_sha(),
        "created_unix": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "repro_version": __version__,
        },
    }


def write_perf_artifact(
    out_dir: str,
    name: str,
    results: Dict[str, Any],
    *,
    params: Optional[Dict[str, Any]] = None,
) -> str:
    """Build, validate and write ``<out_dir>/PERF_<name>.json``."""
    doc = make_perf_artifact(name, results, params=params)
    validate_perf_artifact(doc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, perf_filename(name))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def load_perf_artifact(path: str) -> Dict[str, Any]:
    """Read and validate one perf artifact; raises :class:`ArtifactError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact {path} is not valid JSON: {exc}") from exc
    validate_perf_artifact(doc)
    return doc


def validate_perf_artifact(doc: Any) -> None:
    """Check the perf-artifact schema; raises :class:`ArtifactError`."""
    if not isinstance(doc, dict):
        raise ArtifactError("artifact must be a JSON object")
    missing = [
        k
        for k in ("kind", "schema_version", "name", "params", "results", "host")
        if k not in doc
    ]
    if missing:
        raise ArtifactError(f"perf artifact missing keys: {', '.join(missing)}")
    if doc["kind"] != PERF_KIND:
        raise ArtifactError(f"not a perf artifact (kind={doc['kind']!r})")
    if doc["schema_version"] != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported schema version {doc['schema_version']!r} "
            f"(this build reads {ARTIFACT_SCHEMA_VERSION})"
        )
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise ArtifactError("name must be a non-empty string")
    if not isinstance(doc["params"], dict):
        raise ArtifactError("params must be an object")
    if not isinstance(doc["results"], dict):
        raise ArtifactError("results must be an object")
    if not isinstance(doc["host"], dict):
        raise ArtifactError("host must be an object")


def validate_artifact(doc: Any) -> None:
    """Check the artifact schema; raises :class:`ArtifactError` on violation."""
    if not isinstance(doc, dict):
        raise ArtifactError("artifact must be a JSON object")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ArtifactError(f"artifact missing keys: {', '.join(missing)}")
    if doc["kind"] != ARTIFACT_KIND:
        raise ArtifactError(f"not a bench artifact (kind={doc['kind']!r})")
    if doc["schema_version"] != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported schema version {doc['schema_version']!r} "
            f"(this build reads {ARTIFACT_SCHEMA_VERSION})"
        )
    if not isinstance(doc["figure"], str) or not doc["figure"]:
        raise ArtifactError("figure must be a non-empty string")
    if not isinstance(doc["seeds"], list) or not all(
        isinstance(s, int) for s in doc["seeds"]
    ):
        raise ArtifactError("seeds must be a list of integers")
    if not isinstance(doc["params"], dict):
        raise ArtifactError("params must be an object")
    if not isinstance(doc["simulated"], dict):
        raise ArtifactError("simulated must be an object")
    if not isinstance(doc["gates"], dict) or not all(
        isinstance(g, dict) and isinstance(g.get("pass"), bool)
        for g in doc["gates"].values()
    ):
        raise ArtifactError("gates must map names to {pass, observed, bound}")
    if doc["registry"] is not None and not isinstance(doc["registry"], dict):
        raise ArtifactError("registry must be an object or null")
    if not isinstance(doc["host"], dict):
        raise ArtifactError("host must be an object")
