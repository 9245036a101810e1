"""Deterministic result cache for experiment-matrix cells.

Every quantity a matrix cell reports is a pure function of
``(config label, NVM kind, Workload fields, seed)`` — the replay
pipeline is seeded and deterministic — so results can be cached and
shared across figures, sweeps and sessions.  Two entry types exist:

* **cell** — the :class:`~repro.experiments.runner.ConfigResult` of one
  ``run_config`` call (minus the heavyweight ``metrics`` object, which
  is never cached),
* **peak** — the unconstrained-interface media peak (MB/s) behind the
  "bandwidth remaining" figures; caching it separately deduplicates the
  second replay across callers (Figure 7b and Figure 8b share every
  overlapping baseline) and lets a ``with_remaining=False`` cell be
  upgraded to a ``with_remaining=True`` one without replaying.

Keys are SHA-256 hashes of a canonical JSON rendering of
``(schema version, entry type, label, kind, workload fields, seed
[, with_remaining])``.  Bump :data:`SCHEMA_VERSION` whenever the
simulation's numbers can change (scheduler, FS models, FTL, timing
constants): every old entry then misses and is recomputed.  ``root=None``
gives a process-local in-memory cache; with a directory, entries are
JSON files written atomically so concurrent processes can share them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.plan import FaultSpec
    from ..lifetime.aging import AgingSpec
    from ..lifetime.sweep import LifetimeCellResult
    from ..lifetime.wear import WearPolicy
    from .runner import ConfigResult, Workload

logger = logging.getLogger(__name__)

__all__ = [
    "SCHEMA_VERSION",
    "ResultCache",
    "cell_key",
    "cell_payload",
    "key_digest",
    "peak_key",
    "lifetime_key",
]

#: bump when simulated numbers can change; invalidates every entry.
#: v2: cell entries grew the ``backend`` provenance field (columnar
#: batch kernel) — the numbers are golden-tested bit-identical, but v1
#: entries lack the field and must miss rather than half-load.
#: v3: job specs grew the ``trace_id`` correlation field (repro.obs);
#: it is excluded from coalescing/cache keys, but the watched JobSpec
#: schema changed, so the version moves with it
#: v4: repro.lifetime — a new ``lifetime`` entry type, and job specs
#: grew the age/wear-policy fields (LifetimeJob); age-0 numbers are
#: golden-tested bit-identical, but the watched schema changed
#: v5: repro.netfault — Workload grew the ``stream`` selector, job
#: specs the ``arrival_offset_s`` replay field (excluded from keys,
#: like ``trace_id``) and the NetfaultJob type; eigensolver numbers are
#: golden-tested bit-identical, but the watched schemas changed
SCHEMA_VERSION = 5

#: ConfigResult fields persisted in a cell entry (metrics excluded)
_CELL_FIELDS = (
    "label",
    "kind",
    "bandwidth_mb",
    "aggregate_mb",
    "remaining_mb",
    "channel_utilization",
    "package_utilization",
    "breakdown",
    "parallelism",
    "backend",
)


def key_digest(parts: dict) -> str:
    """SHA-256 of the canonical JSON rendering of a key's parts."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _entry_key(
    entry: str,
    label: str,
    kind: str,
    workload: "Workload",
    seed: int,
    faults: Optional["FaultSpec"] = None,
    **extra: object,
) -> str:
    """The one key body every entry type shares; ``extra`` adds the
    entry type's own identity fields.  ``faults`` participates only
    when present, so fault-free keys never carry it."""
    parts = {
        "schema": SCHEMA_VERSION,
        "entry": entry,
        "label": label,
        "kind": kind,
        "workload": dataclasses.asdict(workload),
        "seed": seed,
        **extra,
    }
    if faults is not None:
        parts["faults"] = faults.signature()
    return key_digest(parts)


def cell_key(
    label: str,
    kind: str,
    workload: "Workload",
    seed: int,
    with_remaining: bool,
    faults: Optional["FaultSpec"] = None,
) -> str:
    """Cache key of one ``run_config`` cell.

    ``faults`` (a :class:`~repro.faults.plan.FaultSpec`) is part of the
    identity only when present, so fault-free keys are unchanged and
    faulty results can never be served for healthy requests (or vice
    versa).
    """
    return _entry_key(
        "cell", label, kind, workload, seed, faults,
        with_remaining=bool(with_remaining),
    )


def cell_payload(result: "ConfigResult") -> dict:
    """A ConfigResult's cached fields: the cell entry and wire payload."""
    return {name: getattr(result, name) for name in _CELL_FIELDS}


def lifetime_key(
    label: str,
    kind: str,
    workload: "Workload",
    seed: int,
    aging: "AgingSpec",
    policy: "WearPolicy",
    faults: Optional["FaultSpec"] = None,
) -> str:
    """Cache key of one aged-device sweep cell.

    The aging spec and wear policy are part of the identity (their
    ``signature()`` dicts), so cells at different ages or under
    different leveling regimes never collide; ``faults`` participates
    only when present, like :func:`cell_key`.
    """
    return _entry_key(
        "lifetime", label, kind, workload, seed, faults,
        aging=aging.signature(), policy=policy.signature(),
    )


def peak_key(label: str, kind: str, workload: "Workload", seed: int) -> str:
    """Cache key of one unconstrained-media-peak replay."""
    return _entry_key("peak", label, kind, workload, seed)


class ResultCache:
    """Two-level (memory, optional disk) cache of matrix-cell results."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            if self.root.exists() and not self.root.is_dir():
                raise NotADirectoryError(
                    f"cache root exists and is not a directory: {self.root}"
                )
            self.root.mkdir(parents=True, exist_ok=True)
        self._mem: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.puts = 0
        self.corrupt_entries = 0

    # -- raw entry storage ---------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.json"

    def _quarantine(self, path: Path, why: str) -> None:
        """A disk entry exists but is unusable: treat as a miss.

        The entry is logged, counted (``corrupt_entries`` in
        :meth:`stats`) and deleted so the recompute's put overwrites it
        — a torn write or disk corruption must never poison the run.
        """
        self.corrupt_entries += 1
        logger.warning(
            "treating corrupt cache entry %s as a miss (%s); recomputing",
            path.name,
            why,
        )
        try:
            path.unlink()
        except OSError:
            pass

    def _load(self, key: str, required: tuple = ()) -> Optional[dict]:
        """Fetch one entry; unreadable/truncated disk entries are misses.

        ``required`` names fields the payload must carry — a JSON file
        that parses but lost fields to truncation is as corrupt as one
        that does not parse.
        """
        payload = self._mem.get(key)
        if payload is not None:
            self._last_source = "memory"
            return payload
        if self.root is None:
            return None
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(path, f"unreadable: {exc}")
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._quarantine(path, "not valid JSON")
            return None
        if not isinstance(payload, dict) or any(
            name not in payload for name in required
        ):
            self._quarantine(path, "missing required fields (truncated?)")
            return None
        self._mem[key] = payload
        self._last_source = "disk"
        return payload

    def _count_hit(self) -> None:
        self.hits += 1
        if getattr(self, "_last_source", "memory") == "disk":
            self.disk_hits += 1
        else:
            self.memory_hits += 1

    def _store(self, key: str, payload: dict) -> None:
        self._mem[key] = payload
        self.puts += 1
        if self.root is not None:
            path = self._path(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(path)  # atomic: concurrent readers see old or new

    # -- cells ----------------------------------------------------------
    def get_cell(
        self,
        label: str,
        kind: str,
        workload: "Workload",
        seed: int,
        with_remaining: bool,
        faults: Optional["FaultSpec"] = None,
    ) -> Optional["ConfigResult"]:
        """Return a cached :class:`ConfigResult`, or ``None`` on miss.

        A ``with_remaining=True`` entry satisfies a ``False`` request
        (the remainder is simply re-zeroed, matching a fresh run), and a
        ``False`` entry plus a cached peak satisfies a ``True`` request.
        """
        from .runner import ConfigResult

        payload = self._load(
            cell_key(label, kind, workload, seed, with_remaining, faults),
            required=_CELL_FIELDS,
        )
        remaining_override = None
        if payload is None:
            other = self._load(
                cell_key(label, kind, workload, seed, not with_remaining, faults),
                required=_CELL_FIELDS,
            )
            if other is not None and not with_remaining:
                payload = other
                remaining_override = 0.0
            elif other is not None and with_remaining:
                peak = self.get_peak(label, kind, workload, seed, _count=False)
                if peak is not None:
                    payload = other
                    remaining_override = max(0.0, peak - other["aggregate_mb"])
        if payload is None:
            self.misses += 1
            return None
        self._count_hit()
        fields = {name: payload[name] for name in _CELL_FIELDS}
        if remaining_override is not None:
            fields["remaining_mb"] = remaining_override
        return ConfigResult(**fields)

    def put_cell(
        self,
        result: "ConfigResult",
        workload: "Workload",
        seed: int,
        with_remaining: bool,
        faults: Optional["FaultSpec"] = None,
    ) -> None:
        self._store(
            cell_key(
                result.label, result.kind, workload, seed, with_remaining, faults
            ),
            cell_payload(result),
        )

    # -- lifetime cells -------------------------------------------------
    def get_lifetime(
        self,
        label: str,
        kind: str,
        workload: "Workload",
        seed: int,
        aging: "AgingSpec",
        policy: "WearPolicy",
        faults: Optional["FaultSpec"] = None,
    ) -> Optional["LifetimeCellResult"]:
        """Return a cached aged-sweep cell, or ``None`` on miss.

        A lifetime entry persists every :class:`LifetimeCellResult` field.
        """
        from ..lifetime.sweep import LifetimeCellResult

        names = [f.name for f in dataclasses.fields(LifetimeCellResult)]
        payload = self._load(
            lifetime_key(label, kind, workload, seed, aging, policy, faults),
            required=tuple(names),
        )
        if payload is None:
            self.misses += 1
            return None
        self._count_hit()
        return LifetimeCellResult(**{name: payload[name] for name in names})

    def put_lifetime(
        self,
        result: "LifetimeCellResult",
        workload: "Workload",
        seed: int,
        aging: "AgingSpec",
        policy: "WearPolicy",
        faults: Optional["FaultSpec"] = None,
    ) -> None:
        self._store(
            lifetime_key(
                result.label, result.kind, workload, seed, aging, policy, faults
            ),
            dataclasses.asdict(result),
        )

    # -- peaks ----------------------------------------------------------
    def get_peak(
        self,
        label: str,
        kind: str,
        workload: "Workload",
        seed: int,
        _count: bool = True,
    ) -> Optional[float]:
        payload = self._load(peak_key(label, kind, workload, seed), required=("peak_mb",))
        if payload is None:
            if _count:
                self.misses += 1
            return None
        if _count:
            self._count_hit()
        return float(payload["peak_mb"])

    def put_peak(
        self, label: str, kind: str, workload: "Workload", seed: int, peak_mb: float
    ) -> None:
        self._store(
            peak_key(label, kind, workload, seed), {"peak_mb": float(peak_mb)}
        )

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """Counters since construction plus current entry counts.

        ``hits`` splits into ``memory_hits``/``disk_hits`` (an entry read
        from disk is promoted to memory, so later hits on it are memory
        hits); ``hit_ratio`` is hits over all counted lookups.
        """
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt_entries": self.corrupt_entries,
            "hit_ratio": self.hits / lookups if lookups else 0.0,
            "memory_entries": len(self._mem),
            "disk_entries": (
                len(list(self.root.glob("*.json"))) if self.root is not None else 0
            ),
            "persistent": self.root is not None,
        }

    # -- maintenance ----------------------------------------------------
    def clear(self) -> int:
        """Drop every entry (memory and disk); returns entries removed."""
        n = len(self._mem)
        self._mem.clear()
        if self.root is not None:
            files = list(self.root.glob("*.json"))
            n = max(n, len(files))
            for f in files:
                try:
                    f.unlink()
                except OSError:
                    pass
        return n

    def __len__(self) -> int:
        if self.root is not None:
            return len(list(self.root.glob("*.json")))
        return len(self._mem)
