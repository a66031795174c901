"""Persistent, content-keyed cache of sweep point results.

Every cached point lives in one JSON file under the cache root (by default
``benchmarks/results/cache/``), named by a SHA-256 over everything that
determines the simulated outcome:

* the spec fields (kind, profile name, approach, n, seed, overrides, params),
* the resolved profile fields (pool size, image geometry, workload knobs),
* the resolved calibration constants the point runs under,
* a code-version token (:data:`CODE_VERSION`) bumped when the simulation's
  semantics change.

Editing the calibration, the profile, or the spec therefore *misses* and
recomputes; re-running after an unrelated edit *hits* and replays instantly.
Wall time is stored for information but is not part of the identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from .profiles import profile_calibration, resolve_profile
from .spec import PointResult, PointSpec

#: bump when a change to the simulator alters simulated outcomes; stale
#: cache entries keyed under the old token are then never replayed
CODE_VERSION = "sweep-cache-v7"  # v7: churn points drop the histogram boot_p50/p95/p99

#: environment variable overriding the default cache directory
CACHE_ENV = "REPRO_SWEEP_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    # src/repro/runner/cache.py -> repo root is three levels above the package
    return Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "cache"


def point_key(spec: PointSpec) -> str:
    """Content hash identifying a spec's simulated outcome."""
    profile = resolve_profile(spec.profile)
    calib = profile_calibration(profile, spec.overrides)
    material = {
        "code_version": CODE_VERSION,
        "spec": spec.to_json(),
        "profile": dataclasses.asdict(profile),
        "calibration": dataclasses.asdict(calib),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """A directory of ``<content-key>.json`` point results."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def lookup(self, spec: PointSpec, key: Optional[str] = None) -> Optional[PointResult]:
        """Replay a cached result, or ``None`` on a miss / unreadable entry."""
        key = key or point_key(spec)
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            result = PointResult.from_json(data["result"], cached=True)
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, result: PointResult, key: Optional[str] = None) -> Path:
        key = key or point_key(result.spec)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        payload = {
            "key": key,
            "code_version": CODE_VERSION,
            "result": result.to_json(),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)  # atomic vs concurrent writers of the same key
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) if self.root.is_dir() else 0
