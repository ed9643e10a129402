"""Content-addressed result cache: in-memory LRU + optional on-disk store.

Entries are JSON-able dicts (a serialized result plus its original compute
cost) keyed by the request fingerprint.  The in-memory tier is a bounded
LRU; the optional disk tier (one ``<fingerprint>.json`` per entry under
``directory``) survives process restarts and is shared by every service
instance pointed at the same directory.  Reads promote disk entries into
memory; writes go to both tiers.  A corrupt or unreadable disk entry is
treated as a miss (and counted in ``stats``), never as an error — a cache
must degrade, not crash, the service.

Disk-tier eviction
------------------
Long-running servers need the disk tier bounded.  Three independent caps —
``max_entries``, ``max_bytes``, ``max_age_seconds`` — are enforced after
every disk write (and on demand via :meth:`evict`): entries older than the
age cap are expired first, then the oldest-by-mtime entries are evicted
until the count and byte caps hold.  Disk reads touch the entry's mtime,
so eviction order is LRU, not insertion order.  All caps are disk-tier
policy only; the memory tier keeps its own ``capacity`` LRU.

Verify once
-----------
The cache stores entries; it does not interpret them.  A caller that
fully decodes a memory-tier entry may record the canonical JSON text of
the decoded result next to it (:meth:`ResultCache.note_verified`), and
later lookups of the *same entry object* return that text
(:meth:`ResultCache.lookup`), so the service serves a warm hit as stored
bytes without decoding it again.  Entries that never went through a
caller's decode — disk-tier promotions, dicts a caller ``put`` directly —
come back without text and are decoded in full.

Thread safety: every public method takes an internal lock, so one cache
instance can back a threaded HTTP server (concurrent sync compiles, the
job executor, and introspection endpoints) without corrupting the LRU.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .. import faults
from ..obs import metrics as obs_metrics
from .fingerprint import canonical_json

#: Version of the on-disk entry envelope.
ENTRY_SCHEMA_VERSION = 1


def _note(event: str, amount: int = 1) -> None:
    """Mirror one :class:`CacheStats` increment into the armed metrics
    registry (:data:`~repro.obs.metrics.CACHE_EVENTS`); no-op disarmed."""
    if obs_metrics._ACTIVE is not None:
        obs_metrics.CACHE_EVENTS.inc(amount, event=event)


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    #: Hits served from the disk tier (subset of ``hits``).
    disk_hits: int = 0
    #: Disk writes that failed (entry kept in memory only).
    write_errors: int = 0
    #: Entries a caller reported as undecodable via ``note_stale``
    #: (reclassified from hit to miss).
    stale: int = 0
    #: Disk entries evicted by the ``max_entries``/``max_bytes`` caps.
    disk_evictions: int = 0
    #: Disk entries expired by the ``max_age_seconds`` cap.
    expired: int = 0
    #: Corrupt disk entries renamed to ``<fingerprint>.corrupt`` on their
    #: first decode failure (subset of ``corrupt``; see module docstring).
    corrupt_quarantined: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits, "misses": self.misses, "puts": self.puts,
            "evictions": self.evictions, "corrupt": self.corrupt,
            "disk_hits": self.disk_hits, "write_errors": self.write_errors,
            "stale": self.stale, "disk_evictions": self.disk_evictions,
            "expired": self.expired,
            "corrupt_quarantined": self.corrupt_quarantined,
        }

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ResultCache:
    """LRU result cache with an optional persistent directory tier.

    ``max_entries``/``max_bytes``/``max_age_seconds`` bound the disk tier
    (``None`` = unbounded); see the module docstring for the eviction
    policy.
    """

    capacity: int = 1024
    directory: Optional[str] = None
    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    max_age_seconds: Optional[float] = None
    stats: CacheStats = field(default_factory=CacheStats)  # guarded-by: _lock

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        for cap in ("max_entries", "max_bytes", "max_age_seconds"):
            value = getattr(self, cap)
            if value is not None and value <= 0:
                raise ValueError(f"{cap} must be positive (or None)")
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()  # guarded-by: _lock
        # Verify-once memo: key -> (the memory-tier entry object a caller
        # fully decoded, the canonical JSON text of its result).  Lives
        # and dies with that entry (put, eviction, note_stale, clear), so
        # it is bounded by ``capacity`` and never outlives what it vouches
        # for.
        self._texts: Dict[str, Tuple[Dict[str, object], str]] = {}  # guarded-by: _lock
        self._lock = threading.RLock()
        # Incrementally tracked disk-tier footprint (None = unknown, next
        # cap enforcement rescans); spares the hot write path a full
        # directory scan when the caps demonstrably hold.  Because the
        # counters only see *this* process's writes, a periodic full sweep
        # (``_sweep_due``) re-grounds them — the mechanism that both
        # expires by age and keeps the caps honest when several processes
        # share one directory.
        self._disk_count: Optional[int] = None  # guarded-by: _lock
        self._disk_bytes: Optional[int] = None  # guarded-by: _lock
        self._sweep_due = 0.0  # guarded-by: _lock
        if self.directory is not None:
            self.directory = str(self.directory)
            Path(self.directory).mkdir(parents=True, exist_ok=True)

    # -- lookup ----------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached entry for ``key``, or ``None`` (recorded as a miss)."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> Tuple[Optional[Dict[str, object]],
                                        Optional[str]]:
        """:meth:`get` plus the entry's verified result text: ``(entry,
        text)``, where ``text`` is what :meth:`note_verified` recorded
        for this very entry object and ``None`` for an entry nobody has
        verified yet (a disk-tier promotion, a fresh ``put``)."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                _note("hit")
                return entry, self._text_for(key, entry)
            entry = self._disk_read(key)
            if entry is not None:
                self._remember(key, entry)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                _note("hit")
                _note("disk_hit")
                return entry, None
            self.stats.misses += 1
            _note("miss")
            return None, None

    def verified_text(self, key: str,
                      entry: Dict[str, object]) -> Optional[str]:
        """The verified result text recorded for exactly ``entry`` (as
        returned by :meth:`get`/:meth:`peek`), else ``None``; no stats."""
        with self._lock:
            return self._text_for(key, entry)

    def note_verified(self, key: str, entry: Dict[str, object],
                      text: str) -> None:
        """Record that ``entry`` decoded cleanly and that ``text`` is the
        canonical JSON of its decoded result.  Ignored unless ``entry`` is
        still the memory-tier entry for ``key`` (a concurrent ``put`` or
        eviction wins)."""
        with self._lock:
            if self._memory.get(key) is entry:
                self._texts[key] = (entry, text)

    def _text_for(self, key: str,  # requires-lock: _lock
                  entry: Dict[str, object]) -> Optional[str]:
        memo = self._texts.get(key)
        return memo[1] if memo is not None and memo[0] is entry else None

    def peek(self, key: str) -> Optional[Dict[str, object]]:
        """The entry for ``key`` if present and readable, else ``None`` —
        a pure probe: no hit/miss/corrupt counting, no memory-LRU
        promotion, and no disk-LRU mtime refresh (an entry that is only
        ever probed must still age-expire).  For job admission and health
        checks that must stay invisible in the serving statistics."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                return entry
            return self._disk_read(key, touch=False, count=False)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
            path = self._disk_path(key)
            return path is not None and path.exists()

    def __len__(self) -> int:
        """Distinct entries across both tiers."""
        with self._lock:
            keys = set(self._memory)
            if self.directory is not None:
                keys.update(path.stem
                            for path in Path(self.directory).glob("*.json"))
            return len(keys)

    def keys(self) -> List[str]:
        with self._lock:
            keys = set(self._memory)
            if self.directory is not None:
                keys.update(path.stem
                            for path in Path(self.directory).glob("*.json"))
            return sorted(keys)

    # -- storage ---------------------------------------------------------------

    def put(self, key: str, entry: Dict[str, object]) -> None:
        """Store ``entry`` under ``key`` in both tiers."""
        with self._lock:
            self.stats.puts += 1
            _note("put")
            self._remember(key, entry)
            self._disk_write(key, entry)
            self._enforce_disk_caps()

    def note_stale(self, key: str) -> None:
        """Report that the entry just served for ``key`` failed payload
        decoding (stale entry version, unknown result schema).

        Reclassifies the lookup from hit to miss — so hit rates reflect
        *served results*, not raw lookups — and drops the entry from the
        memory tier so it cannot be served again; the recomputation that
        follows overwrites both tiers.
        """
        with self._lock:
            self.stats.hits = max(0, self.stats.hits - 1)
            self.stats.misses += 1
            self.stats.stale += 1
            _note("stale")
            self._memory.pop(key, None)
            self._texts.pop(key, None)

    def clear(self) -> int:
        """Drop every entry from both tiers; returns the count removed."""
        with self._lock:
            removed = len(self)
            self._memory.clear()
            self._texts.clear()
            if self.directory is not None:
                for path in (list(Path(self.directory).glob("*.json"))
                             + list(Path(self.directory).glob("*.corrupt"))):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            self._disk_count = None  # footprint unknown if unlinks failed
            self._disk_bytes = None
            return removed

    def evict(self) -> int:
        """Apply the disk-tier caps now; returns the entries removed.

        Cap checks also run after every write (cheaply, against the
        tracked footprint) — this entry point exists for callers that
        changed the caps on an existing directory or want an age sweep
        without writing anything, so it always rescans.
        """
        with self._lock:
            return self._enforce_disk_caps(force=True)

    def _remember(self, key: str, entry: Dict[str, object]) -> None:  # requires-lock: _lock
        self._memory[key] = entry
        self._memory.move_to_end(key)
        self._texts.pop(key, None)  # a new entry is unverified
        while len(self._memory) > self.capacity:
            evicted, _ = self._memory.popitem(last=False)
            self._texts.pop(evicted, None)
            self.stats.evictions += 1
            _note("memory_eviction")

    # -- disk tier -------------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        if not key or any(ch in key for ch in "/\\."):
            # Fingerprints are hex; anything else must not touch the fs.
            return None
        return Path(self.directory) / f"{key}.json"

    def _disk_read(self, key: str, touch: bool = True,  # requires-lock: _lock
                   count: bool = True) -> Optional[Dict[str, object]]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        point = faults.poll(faults.CACHE_DISK_READ) \
            if faults._ACTIVE is not None else None
        if point is not None and point.kind == faults.DELAY:
            time.sleep(point.seconds)
        try:
            if point is not None and point.kind == faults.OS_ERROR:
                raise point.os_error()
            text = path.read_text(encoding="utf-8")
            if point is not None and point.kind == faults.CORRUPT:
                text = text[:max(1, len(text) // 2)] + "\x00#corrupt"
            envelope = json.loads(text)
            if envelope.get("schema") != ENTRY_SCHEMA_VERSION:
                raise ValueError("entry schema mismatch")
            entry = envelope["entry"]
        except OSError:
            # I/O failures (EIO, ENOSPC, permissions) may be transient:
            # miss, but leave the file alone — the data might be fine.
            if count:
                self.stats.corrupt += 1
                _note("corrupt")
            return None
        except (ValueError, KeyError, TypeError):
            # The bytes themselves are bad: quarantine on first decode
            # failure so every later lookup of this fingerprint is a
            # plain miss instead of a re-read + re-decode of junk (and
            # so the recompute that follows can store a clean entry).
            if count:
                self.stats.corrupt += 1
                _note("corrupt")
            self._quarantine(path)
            return None
        if touch:
            try:
                # A read is a use: refresh the mtime so LRU-by-mtime
                # eviction removes cold entries, not recently served ones.
                os.utime(path, None)
            except OSError:
                pass
        return entry

    def _quarantine(self, path: Path) -> None:  # requires-lock: _lock
        """Rename an undecodable ``<fingerprint>.json`` to
        ``<fingerprint>.corrupt`` (kept for post-mortems, invisible to
        every ``*.json`` scan, overwritten by the next recompute)."""
        target = path.with_suffix(".corrupt")
        try:
            size = path.stat().st_size
            os.replace(path, target)
        except OSError:
            return
        self.stats.corrupt_quarantined += 1
        _note("quarantined")
        if self._disk_count is not None:
            self._disk_count = max(0, self._disk_count - 1)
            self._disk_bytes = max(0, self._disk_bytes - size)

    def _disk_write(self, key: str, entry: Dict[str, object]) -> None:  # requires-lock: _lock
        path = self._disk_path(key)
        if path is None:
            return
        point = faults.poll(faults.CACHE_DISK_WRITE) \
            if faults._ACTIVE is not None else None
        if point is not None and point.kind == faults.DELAY:
            time.sleep(point.seconds)
        envelope = {"schema": ENTRY_SCHEMA_VERSION, "key": key, "entry": entry}
        data = canonical_json(envelope)
        try:
            previous = path.stat().st_size
        except OSError:
            previous = None
        tmp = path.with_name(path.name + ".tmp")
        try:
            if point is not None and point.kind == faults.OS_ERROR:
                raise point.os_error()
            tmp.write_text(data, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            # Same degrade-don't-crash contract as the read path: a full or
            # read-only disk must not lose the compile that just finished —
            # the entry stays served from the memory tier.
            self.stats.write_errors += 1
            _note("write_error")
            return
        if self._disk_count is not None:
            size = len(data.encode("utf-8"))
            if previous is None:
                self._disk_count += 1
                self._disk_bytes += size
            else:
                self._disk_bytes += size - previous

    #: Upper bound on how long a capped cache goes between full directory
    #: sweeps (shorter when ``max_age_seconds`` demands it).
    SWEEP_INTERVAL_SECONDS = 60.0

    def _caps_maybe_exceeded(self, now: float) -> bool:  # requires-lock: _lock
        """Cheap pre-check against the tracked footprint: only a possible
        violation (or an unknown footprint, or a due periodic sweep)
        warrants the full directory scan."""
        if self._disk_count is None or now >= self._sweep_due:
            return True
        if self.max_entries is not None \
                and self._disk_count > self.max_entries:
            return True
        return self.max_bytes is not None and self._disk_bytes > self.max_bytes

    def _enforce_disk_caps(self, force: bool = False) -> int:  # requires-lock: _lock
        """LRU-by-mtime disk eviction; returns the entries removed."""
        if self.directory is None or (
                self.max_entries is None and self.max_bytes is None
                and self.max_age_seconds is None):
            return 0
        now = time.time()
        if not force and not self._caps_maybe_exceeded(now):
            return 0
        files = []
        for path in Path(self.directory).glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            files.append((stat.st_mtime, stat.st_size, path))
        files.sort()  # oldest first
        removed = 0
        survivors = []
        for mtime, size, path in files:
            if self.max_age_seconds is not None \
                    and now - mtime > self.max_age_seconds:
                if self._unlink(path):
                    removed += 1
                    self.stats.expired += 1
                    _note("expired")
                continue
            survivors.append((size, path))
        count = len(survivors)
        total = sum(size for size, _ in survivors)
        for size, path in survivors:  # oldest first: LRU order
            over_count = self.max_entries is not None \
                and count > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_count or over_bytes):
                break
            if self._unlink(path):
                removed += 1
                count -= 1
                total -= size
                self.stats.disk_evictions += 1
                _note("disk_eviction")
        self._disk_count = count
        self._disk_bytes = total
        # Amortise the next sweep: ten checks per age period (bounding
        # expiry staleness), never longer than the base interval (bounding
        # cap overshoot from other processes writing the same directory).
        interval = self.SWEEP_INTERVAL_SECONDS
        if self.max_age_seconds is not None:
            interval = min(interval, max(1.0, self.max_age_seconds / 10))
        self._sweep_due = now + interval
        return removed

    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    # -- introspection ---------------------------------------------------------

    def info(self) -> Dict[str, object]:
        """Inspection payload for ``cache-info`` and ``GET /v1/cache``."""
        # The directory walk touches no shared mutable state, so it runs
        # unlocked: a monitoring poll of a big cache must not stall every
        # concurrent compile-path get/put for the duration of the scan.
        disk_entries = 0
        disk_bytes = 0
        if self.directory is not None:
            for path in Path(self.directory).glob("*.json"):
                disk_entries += 1
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    pass
        with self._lock:
            return {
                "capacity": self.capacity,
                "memory_entries": len(self._memory),
                "directory": self.directory,
                "disk_entries": disk_entries,
                "disk_bytes": disk_bytes,
                "eviction": {
                    "max_entries": self.max_entries,
                    "max_bytes": self.max_bytes,
                    "max_age_seconds": self.max_age_seconds,
                },
                "corrupt_quarantined": self.stats.corrupt_quarantined,
                "stats": self.stats.to_dict(),
            }

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __repr__(self) -> str:
        tier = f", dir={self.directory!r}" if self.directory else ""
        return (f"ResultCache({len(self._memory)}/{self.capacity} in memory"
                f"{tier}, hits={self.stats.hits}, misses={self.stats.misses})")
