"""Result digests and host metadata for benchmark and validation records.

Two helpers every recorded measurement shares:

* :func:`result_digest` — the SHA-256 of a simulation result's canonical
  JSON.  A performance change that moves a digest changed *results*, not
  speed; the repo benchmark (``bench/``) and the tier-1 digest table
  (``tests/pinned.py``) both key on it.
* :func:`host_metadata` — platform, Python and CPU context recorded
  alongside the numbers, so cross-host comparisons can be discounted.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from typing import Any, Dict

from repro.io import canonical_json, simulation_result_to_dict


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one.

    ``os.cpu_count()`` counts the host's CPUs, which overstates what a
    process pinned with ``taskset`` (or a container CPU set) can use.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def host_metadata() -> Dict[str, Any]:
    """Machine context recorded alongside the numbers."""
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": usable_cpus(),
    }


def result_digest(result: Any) -> str:
    """SHA-256 of a simulation result's canonical JSON rendering."""
    payload = simulation_result_to_dict(result)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
