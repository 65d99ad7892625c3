"""Result serialization: simulation and experiment results to/from JSON.

Downstream pipelines (plotting, regression tracking) want machine-readable
artifacts next to the printed tables; these helpers provide a stable JSON
schema for :class:`~repro.gpu.metrics.SimulationResult` and
:class:`~repro.experiments.common.ExperimentResult`, plus the low-level
JSON primitives (:func:`canonical_json`, :func:`write_json_atomic`,
:func:`load_json`) the telemetry layer builds its run manifests and
content-keyed result cache on.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Union

from repro.errors import ReproError
from repro.experiments.common import ExperimentResult
from repro.gpu.metrics import SimulationResult

PathLike = Union[str, Path]

#: Schema version stamped into every file this module writes.
SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace).

    Two structurally-equal payloads always produce the same string, which
    makes the output suitable for content hashing (cache keys, config
    fingerprints).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_json_atomic(payload: Any, path: PathLike, indent: int = 2) -> None:
    """Write JSON via a same-directory temp file + atomic rename.

    Concurrent readers (another runner sharing the result cache) never see
    a half-written file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=indent, sort_keys=True))
    os.replace(tmp, path)


def load_json(path: PathLike) -> Any:
    """Read one JSON document, wrapping failures in :class:`ReproError`."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot load JSON from {path}: {error}") from error


def simulation_result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Flatten a simulation result to plain JSON-able types.

    ``bank_stats`` is observability-only and deliberately excluded: the
    canonical dict feeds result digests (the tier-1 digest table in
    ``tests/pinned.py``, the repo benchmark's ``bench/digests.json``),
    and per-bank counters must not perturb digests pinned before
    per-bank accounting existed — nor differ between engines that do and
    do not populate them.
    """
    payload = dataclasses.asdict(result)
    payload.pop("bank_stats", None)
    payload["l2_total_power_w"] = result.l2_total_power_w
    return payload


def experiment_result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Flatten an experiment result (headers/rows/extras)."""
    return {
        "name": result.name,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "extras": dict(result.extras),
    }


def experiment_result_from_dict(payload: Mapping[str, Any]) -> ExperimentResult:
    """Inverse of :func:`experiment_result_to_dict`."""
    try:
        return ExperimentResult(
            name=payload["name"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            extras=dict(payload.get("extras", {})),
        )
    except KeyError as missing:
        raise ReproError(f"experiment payload missing key {missing}") from None


def save_experiments(
    results: Mapping[str, ExperimentResult], path: PathLike
) -> None:
    """Write a battery of experiment results to one JSON file."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "experiments": {
            name: experiment_result_to_dict(result)
            for name, result in results.items()
        },
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def load_experiments(path: PathLike) -> Dict[str, ExperimentResult]:
    """Read a battery written by :func:`save_experiments`."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot load experiments from {path}: {error}") from error
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ReproError(
            f"unsupported schema version {document.get('schema_version')!r} "
            f"in {path} (expected {SCHEMA_VERSION})"
        )
    return {
        name: experiment_result_from_dict(payload)
        for name, payload in document.get("experiments", {}).items()
    }


def save_simulations(
    results: Iterable[SimulationResult], path: PathLike
) -> None:
    """Write a list of simulation results to one JSON file."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "simulations": [simulation_result_to_dict(r) for r in results],
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))
