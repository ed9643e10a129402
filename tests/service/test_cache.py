"""ResultCache: LRU behaviour, disk tier, corruption handling, eviction
policy, stats."""

import json
import os

import pytest

from repro import faults
from repro.service import ResultCache


def entry(n):
    return {"entry_version": 1, "result": {"value": n}, "compile_seconds": 0.1}


class TestMemoryTier:
    def test_get_put_and_stats(self):
        cache = ResultCache()
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, entry(1))
        assert cache.get("a" * 64) == entry(1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("k1", entry(1))
        cache.put("k2", entry(2))
        assert cache.get("k1") is not None  # refresh k1; k2 becomes LRU
        cache.put("k3", entry(3))
        assert cache.get("k2") is None  # evicted
        assert cache.get("k1") is not None
        assert cache.get("k3") is not None
        assert cache.stats.evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)

    def test_len_and_keys(self):
        cache = ResultCache()
        cache.put("k2", entry(2))
        cache.put("k1", entry(1))
        assert len(cache) == 2
        assert cache.keys() == ["k1", "k2"]
        assert "k1" in cache and "zz" not in cache

    def test_clear(self):
        cache = ResultCache()
        cache.put("k1", entry(1))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(directory=str(tmp_path / "c"))
        first.put("deadbeef", entry(7))
        second = ResultCache(directory=str(tmp_path / "c"))
        assert second.get("deadbeef") == entry(7)
        assert second.stats.disk_hits == 1
        # promoted into memory: a second read is a memory hit
        assert second.get("deadbeef") == entry(7)
        assert second.stats.disk_hits == 1

    def test_eviction_does_not_lose_disk_entries(self, tmp_path):
        cache = ResultCache(capacity=1, directory=str(tmp_path / "c"))
        cache.put("k1", entry(1))
        cache.put("k2", entry(2))  # evicts k1 from memory only
        assert cache.get("k1") == entry(1)  # served from disk

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("cafe", entry(1))
        fresh = ResultCache(directory=str(tmp_path / "c"))
        (tmp_path / "c" / "cafe.json").write_text("{not json", encoding="utf-8")
        assert fresh.get("cafe") is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1

    def test_wrong_envelope_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        (tmp_path / "c" / "beef.json").write_text(
            json.dumps({"schema": 99, "entry": entry(1)}), encoding="utf-8"
        )
        assert cache.get("beef") is None
        assert cache.stats.corrupt == 1

    def test_hostile_keys_never_touch_the_filesystem(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("../escape", entry(1))  # memory-only, no file created
        assert not (tmp_path / "escape.json").exists()
        assert list((tmp_path / "c").glob("*")) == []
        assert cache.get("../escape") == entry(1)  # still served from memory

    def test_failed_disk_write_degrades_to_memory(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        # an unwritable store: the directory is actually a regular file
        (tmp_path / "c").rmdir()
        (tmp_path / "c").touch()
        cache.put("feed", entry(1))  # must not raise
        assert cache.stats.write_errors == 1
        assert cache.get("feed") == entry(1)  # memory tier still serves

    def test_clear_removes_both_tiers(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("k1", entry(1))
        cache.put("k2", entry(2))
        assert cache.clear() == 2
        assert len(cache) == 0
        assert list((tmp_path / "c").glob("*.json")) == []

    def test_info(self, tmp_path):
        cache = ResultCache(capacity=8, directory=str(tmp_path / "c"))
        cache.put("k1", entry(1))
        info = cache.info()
        assert info["capacity"] == 8
        assert info["memory_entries"] == 1
        assert info["disk_entries"] == 1
        assert info["disk_bytes"] > 0
        assert info["stats"]["puts"] == 1


class TestQuarantine:
    """Corrupt disk entries are renamed aside on first decode failure."""

    def test_corrupt_entry_quarantined_on_first_failure(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("cafe", entry(1))
        fresh = ResultCache(directory=str(tmp_path / "c"))
        (tmp_path / "c" / "cafe.json").write_text("{not json",
                                                  encoding="utf-8")
        assert fresh.get("cafe") is None
        assert fresh.stats.corrupt_quarantined == 1
        assert not (tmp_path / "c" / "cafe.json").exists()
        assert (tmp_path / "c" / "cafe.corrupt").exists()
        # later lookups are plain misses: no re-read, no double count
        assert fresh.get("cafe") is None
        assert fresh.stats.corrupt_quarantined == 1
        assert fresh.stats.corrupt == 1

    def test_info_surfaces_quarantine_count(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        (tmp_path / "c" / "dead.json").write_text("junk", encoding="utf-8")
        assert cache.info()["corrupt_quarantined"] == 0
        cache.get("dead")
        info = cache.info()
        assert info["corrupt_quarantined"] == 1
        assert info["stats"]["corrupt_quarantined"] == 1

    def test_reput_heals_a_quarantined_fingerprint(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        (tmp_path / "c" / "beef.json").write_text("junk", encoding="utf-8")
        assert cache.get("beef") is None  # quarantined
        cache.put("beef", entry(2))       # the recompute stores cleanly
        fresh = ResultCache(directory=str(tmp_path / "c"))
        assert fresh.get("beef") == entry(2)
        assert fresh.stats.corrupt == 0

    def test_injected_os_error_is_a_miss_without_quarantine(self, tmp_path):
        """Transient I/O failure: the bytes might be fine — keep them."""
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("feed", entry(3))
        fresh = ResultCache(directory=str(tmp_path / "c"))
        with faults.injected(faults.FaultPlan.from_spec(
                "cache.disk_read:os_error@1:errno=5")):
            assert fresh.get("feed") is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.corrupt_quarantined == 0
        assert (tmp_path / "c" / "feed.json").exists()
        assert fresh.get("feed") == entry(3)  # next read succeeds

    def test_injected_corruption_quarantines(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("f00d", entry(4))
        fresh = ResultCache(directory=str(tmp_path / "c"))
        with faults.injected(faults.FaultPlan.from_spec(
                "cache.disk_read:corrupt@1")):
            assert fresh.get("f00d") is None
        assert fresh.stats.corrupt_quarantined == 1
        assert (tmp_path / "c" / "f00d.corrupt").exists()

    def test_injected_write_error_counts_write_errors(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        with faults.injected(faults.FaultPlan.from_spec(
                "cache.disk_write:os_error@1:errno=28")):
            cache.put("deaf", entry(5))  # must not raise (ENOSPC)
        assert cache.stats.write_errors == 1
        assert cache.get("deaf") == entry(5)  # memory tier still serves
        assert not (tmp_path / "c" / "deaf.json").exists()

    def test_clear_sweeps_quarantined_files_too(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("babe", entry(6))
        (tmp_path / "c" / "dead.json").write_text("junk", encoding="utf-8")
        cache.get("dead")  # quarantined -> dead.corrupt
        cache.clear()
        assert list((tmp_path / "c").glob("*")) == []

    def test_quarantine_keeps_disk_footprint_consistent(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("k1", entry(1))
        cache.put("k2", entry(2))
        assert cache.info()["disk_entries"] == 2
        (tmp_path / "c" / "k1.json").write_text("junk", encoding="utf-8")
        fresh = ResultCache(directory=str(tmp_path / "c"))
        fresh.get("k1")  # quarantine
        assert fresh.info()["disk_entries"] == 1


def _set_mtimes(directory, *keys, start=1000.0, step=100.0):
    """Pin deterministic, strictly increasing mtimes onto disk entries."""
    for index, key in enumerate(keys):
        when = start + index * step
        os.utime(directory / f"{key}.json", (when, when))


class TestDiskEviction:
    """The disk-tier caps: LRU-by-mtime, enforced on write and on demand."""

    def test_max_entries_evicts_oldest_on_write(self, tmp_path):
        store = tmp_path / "c"
        cache = ResultCache(directory=str(store), max_entries=2)
        cache.put("k1", entry(1))
        cache.put("k2", entry(2))
        _set_mtimes(store, "k1", "k2")
        cache.put("k3", entry(3))  # write triggers enforcement
        stems = {path.stem for path in store.glob("*.json")}
        assert stems == {"k2", "k3"}  # k1 was oldest
        assert cache.stats.disk_evictions == 1

    def test_max_bytes_evicts_until_under_cap(self, tmp_path):
        store = tmp_path / "c"
        seed = ResultCache(directory=str(store))
        for key in ("k1", "k2", "k3"):
            seed.put(key, entry(1))
        _set_mtimes(store, "k1", "k2", "k3")
        size = (store / "k1.json").stat().st_size
        capped = ResultCache(directory=str(store), max_bytes=2 * size)
        removed = capped.evict()
        assert removed == 1
        assert {p.stem for p in store.glob("*.json")} == {"k2", "k3"}
        assert capped.stats.disk_evictions == 1

    def test_max_age_expires_old_entries(self, tmp_path):
        store = tmp_path / "c"
        seed = ResultCache(directory=str(store))
        seed.put("old1", entry(1))
        seed.put("new1", entry(2))
        ancient = 1000.0
        os.utime(store / "old1.json", (ancient, ancient))
        capped = ResultCache(directory=str(store), max_age_seconds=3600)
        assert capped.evict() == 1
        assert {p.stem for p in store.glob("*.json")} == {"new1"}
        assert capped.stats.expired == 1

    def test_disk_reads_refresh_mtime_for_lru(self, tmp_path):
        store = tmp_path / "c"
        seed = ResultCache(directory=str(store))
        seed.put("k1", entry(1))
        seed.put("k2", entry(2))
        _set_mtimes(store, "k1", "k2")
        # A fresh instance reads k1 from disk: that *use* must refresh its
        # mtime so eviction removes the cold k2, not the just-served k1.
        reader = ResultCache(directory=str(store), max_entries=1)
        assert reader.get("k1") == entry(1)
        reader.evict()
        assert {p.stem for p in store.glob("*.json")} == {"k1"}

    def test_caps_in_info(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"), max_entries=5,
                            max_bytes=1000, max_age_seconds=60.0)
        eviction = cache.info()["eviction"]
        assert eviction == {"max_entries": 5, "max_bytes": 1000,
                            "max_age_seconds": 60.0}
        stats = cache.info()["stats"]
        assert stats["disk_evictions"] == 0 and stats["expired"] == 0

    def test_caps_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=-1)
        with pytest.raises(ValueError, match="max_age_seconds"):
            ResultCache(max_age_seconds=0)

    def test_no_caps_no_eviction(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        for index in range(5):
            cache.put(f"k{index}", entry(index))
        assert cache.evict() == 0
        assert len(list((tmp_path / "c").glob("*.json"))) == 5

    def test_memory_only_cache_ignores_caps(self):
        cache = ResultCache(max_entries=1)
        cache.put("k1", entry(1))
        cache.put("k2", entry(2))
        assert cache.evict() == 0  # no disk tier to bound
        assert cache.get("k1") is not None and cache.get("k2") is not None

    def test_overwrites_do_not_inflate_the_tracked_footprint(self, tmp_path):
        store = tmp_path / "c"
        cache = ResultCache(directory=str(store), max_entries=2)
        for _ in range(5):
            cache.put("k1", entry(1))  # same key: one disk entry
        cache.put("k2", entry(2))
        assert cache.evict() == 0  # 2 entries, cap is 2 — nothing to do
        assert {p.stem for p in store.glob("*.json")} == {"k1", "k2"}
        assert cache.stats.disk_evictions == 0


class TestPeek:
    def test_peek_serves_both_tiers_without_stats(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        cache.put("k1", entry(1))
        fresh = ResultCache(directory=str(tmp_path / "c"))
        assert fresh.peek("k1") == entry(1)     # disk, no promotion
        assert fresh.peek("zz") is None
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 0
        assert fresh.stats.disk_hits == 0
        # not promoted: the first get() is still a disk hit
        assert fresh.get("k1") == entry(1)
        assert fresh.stats.disk_hits == 1

    def test_peek_does_not_refresh_disk_mtime(self, tmp_path):
        """A probe is not a use: entries that are only peeked must keep
        aging toward expiry (only served reads refresh the disk LRU)."""
        store = tmp_path / "c"
        cache = ResultCache(directory=str(store))
        cache.put("k1", entry(1))
        os.utime(store / "k1.json", (1000.0, 1000.0))
        fresh = ResultCache(directory=str(store))
        fresh.peek("k1")
        assert (store / "k1.json").stat().st_mtime == 1000.0
        fresh.get("k1")  # a served read *does* refresh
        assert (store / "k1.json").stat().st_mtime > 1000.0

    def test_peek_corrupt_entry_counts_nothing(self, tmp_path):
        store = tmp_path / "c"
        cache = ResultCache(directory=str(store))
        (store / "beef.json").write_text("{not json", encoding="utf-8")
        assert cache.peek("beef") is None
        assert cache.stats.corrupt == 0


class TestSharedDirectorySweep:
    def test_periodic_sweep_sees_other_writers(self, tmp_path):
        """The incremental footprint only counts this process's writes; the
        periodic full sweep re-grounds it, so caps hold on a directory
        other writers fill too."""
        store = tmp_path / "c"
        capped = ResultCache(directory=str(store), max_entries=2)
        capped.put("k1", entry(1))
        other = ResultCache(directory=str(store))  # a second writer
        other.put("k2", entry(2))
        other.put("k3", entry(3))
        _set_mtimes(store, "k1", "k2", "k3")
        capped.put("k4", entry(4))  # tracked footprint says 2: no scan yet
        assert len(list(store.glob("*.json"))) == 4
        capped._sweep_due = 0.0     # sweep timer expires
        capped.put("k5", entry(5))  # periodic sweep re-grounds and evicts
        stems = {path.stem for path in store.glob("*.json")}
        assert len(stems) == 2
        assert "k5" in stems  # the newest write survives


class TestVerifiedText:
    """The verify-once memo: text recorded for one entry object, bounded
    by the memory tier and dropped with the entry."""

    def test_text_is_returned_for_the_same_entry_object_only(self):
        cache = ResultCache()
        cache.put("k", entry(1))
        stored, text = cache.lookup("k")
        assert text is None  # a fresh put is unverified
        cache.note_verified("k", stored, '{"value":1}')
        assert cache.lookup("k") == (stored, '{"value":1}')
        assert cache.verified_text("k", stored) == '{"value":1}'
        assert cache.verified_text("k", entry(1)) is None  # equal, not same

    def test_note_verified_ignores_a_replaced_entry(self):
        cache = ResultCache()
        cache.put("k", entry(1))
        old = cache.get("k")
        cache.put("k", entry(2))
        cache.note_verified("k", old, "stale text")
        assert cache.lookup("k")[1] is None

    @pytest.mark.parametrize("drop", ["put", "evict", "note_stale", "clear"])
    def test_memo_dies_with_its_entry(self, drop):
        cache = ResultCache(capacity=1)
        cache.put("k", entry(1))
        stored = cache.get("k")
        cache.note_verified("k", stored, "text")
        if drop == "put":
            cache.put("k", stored)  # even the same object is re-verified
        elif drop == "evict":
            cache.put("other", entry(2))
            cache.put("k", stored)
        elif drop == "note_stale":
            cache.note_stale("k")
            cache.put("k", stored)
        else:
            cache.clear()
            cache.put("k", stored)
        assert cache.lookup("k") == (stored, None)
        assert len(cache._texts) <= cache.capacity

    def test_disk_promotion_comes_back_unverified(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put("k", entry(1))
        writer.note_verified("k", writer.get("k"), "text")
        reader = ResultCache(directory=tmp_path)
        assert reader.lookup("k") == (entry(1), None)
        assert reader.stats.disk_hits == 1

    def test_concurrent_put_verify_lookup_never_mismatch(self):
        """Threads racing put / lookup / note_verified on a tiny cache:
        a text only ever comes back for the entry it was recorded for,
        and the memo stays bounded by capacity."""
        import random
        import sys
        import threading

        cache = ResultCache(capacity=2)
        mismatches = []

        def text_of(stored):
            return json.dumps(stored["result"])

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(2000):
                key = rng.choice(("k0", "k1", "k2"))
                if rng.random() < 0.3:
                    cache.put(key, entry(rng.randrange(5)))
                    continue
                stored, text = cache.lookup(key)
                if stored is None:
                    continue
                if text is None:
                    cache.note_verified(key, stored, text_of(stored))
                elif text != text_of(stored):
                    mismatches.append((key, stored, text))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(cache._texts) <= cache.capacity
