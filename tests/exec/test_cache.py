"""Tests for the persistent JSON-lines solve cache."""

from __future__ import annotations

import errno
import json
import os
import sys
import threading
import time

import pytest

from repro.core.results import LossRateResult
from repro.exec.cache import SolveCache, default_cache_dir

RESULT = LossRateResult(
    lower=1.0 / 3.0, upper=0.5000000000000007, iterations=96,
    bins=256, converged=True, negligible=False,
)


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LRD_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == str(tmp_path / "override")

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LRD_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == str(tmp_path / "xdg" / "repro-lrd")


class TestSolveCache:
    def test_rejects_a_file_as_directory(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.touch()
        with pytest.raises(ValueError, match="not a directory"):
            SolveCache(target)

    def test_round_trip_is_float_exact(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        loaded = cache.get("k1")
        assert loaded == RESULT
        assert loaded.lower == RESULT.lower  # bit-exact, not approx

    def test_hit_and_miss_accounting(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.get("absent") is None
        cache.put("k1", RESULT)
        assert cache.get("k1") is not None
        assert cache.get("absent") is None
        assert cache.hits == 1
        assert cache.misses == 2

    def test_persists_across_instances(self, tmp_path):
        SolveCache(tmp_path).put("k1", RESULT)
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 1
        assert "k1" in reopened
        assert reopened.get("k1") == RESULT

    def test_duplicate_puts_write_one_record(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.put("k1", RESULT)
        lines = cache.path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_corrupt_lines_are_skipped(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        with cache.path.open("a") as handle:
            handle.write("{truncated garba\n")
            handle.write("\n")
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get("k1") == RESULT

    def test_clear_drops_memory_and_disk(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.clear()
        assert len(cache) == 0
        assert not cache.path.exists()
        assert SolveCache(tmp_path).get("k1") is None


class TestBulkApi:
    def test_get_many_preserves_order_and_accounting(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.put("k3", RESULT)
        loaded = cache.get_many(["k1", "k2", "k3", "k4"])
        assert loaded == [RESULT, None, RESULT, None]
        assert cache.hits == 2
        assert cache.misses == 2

    def test_get_many_of_nothing(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.get_many([]) == []
        assert cache.hits == 0 and cache.misses == 0

    def test_put_many_round_trips_and_counts_fresh_writes(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.put_many([("k1", RESULT), ("k2", RESULT)]) == 2
        reopened = SolveCache(tmp_path)
        assert reopened.get("k1") == RESULT
        assert reopened.get("k2") == RESULT

    def test_put_many_skips_present_keys(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        written = cache.put_many([("k1", RESULT), ("k2", RESULT)])
        assert written == 1
        lines = cache.path.read_text().strip().splitlines()
        assert len(lines) == 2  # one line per distinct key, no duplicates

    def test_put_many_appends_one_write_per_batch(self, tmp_path):
        # The whole batch lands as consecutive intact JSON lines even when
        # another writer left a truncated trailing line first.
        cache = SolveCache(tmp_path)
        cache.put("k0", RESULT)
        with cache.path.open("a") as handle:
            handle.write('{"key": "dead", "lower": 0.1')  # crashed writer
        cache.put_many([(f"b{i}", RESULT) for i in range(5)])
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 6
        assert all(f"b{i}" in reopened for i in range(5))
        assert "dead" not in reopened

    def test_empty_put_many_is_a_noop(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.put_many([]) == 0
        assert not cache.path.exists() or cache.path.read_text() == ""


class TestConcurrentWriters:
    def test_truncated_trailing_line_is_tolerated_and_repaired(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        with cache.path.open("a") as handle:
            handle.write('{"key": "k2", "lower": 0.1')  # writer died mid-record
        # Loading skips the damage instead of raising.
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 1
        # The next append confines the damage to its own line.
        reopened.put("k3", RESULT)
        final = SolveCache(tmp_path)
        assert "k1" in final and "k3" in final
        assert "k2" not in final

    def test_interleaved_instances_lose_no_records(self, tmp_path):
        """Two handles to one file (as two server workers would hold)."""
        writers = [SolveCache(tmp_path) for _ in range(2)]
        errors: list[Exception] = []

        def append(writer: SolveCache, offset: int) -> None:
            try:
                for i in range(50):
                    writer.put(f"w{offset}-{i}", RESULT)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=append, args=(writer, n))
            for n, writer in enumerate(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        merged = SolveCache(tmp_path)
        assert len(merged) == 100
        # Every line in the file is intact JSON.
        for line in merged.path.read_text().strip().splitlines():
            assert json.loads(line)["key"].startswith("w")


class TestCompact:
    def _duplicate_lines(self, cache: SolveCache, key: str, times: int) -> None:
        record = json.dumps({
            "key": key, "lower": RESULT.lower, "upper": RESULT.upper,
            "iterations": RESULT.iterations, "bins": RESULT.bins,
            "converged": RESULT.converged, "negligible": RESULT.negligible,
        })
        with cache.path.open("a") as handle:
            for _ in range(times):
                handle.write(record + "\n")

    def test_compact_keeps_one_record_per_key(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        cache.put("k2", RESULT)
        self._duplicate_lines(cache, "k1", 5)
        before, after = cache.compact()
        assert (before, after) == (7, 2)
        reopened = SolveCache(tmp_path)
        assert len(reopened) == 2
        assert reopened.get("k1") == RESULT

    def test_compact_empty_cache(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.compact() == (0, 0)
        cache.put("k1", RESULT)
        cache.clear()
        assert cache.compact() == (0, 0)
        assert not cache.path.exists()

    def test_compact_drops_corrupt_lines(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k1", RESULT)
        with cache.path.open("a") as handle:
            handle.write("{broken\n")
        before, after = cache.compact()
        assert (before, after) == (2, 1)

    def test_file_stats(self, tmp_path):
        cache = SolveCache(tmp_path)
        stats = cache.file_stats()
        assert stats["entries"] == 0
        assert stats["file_bytes"] == 0
        cache.put("k1", RESULT)
        self._duplicate_lines(cache, "k1", 2)
        stats = SolveCache(tmp_path).file_stats()
        assert stats["entries"] == 1
        assert stats["file_lines"] == 3
        assert stats["stale_lines"] == 2
        assert stats["file_bytes"] > 0

    def test_sizing_hints_default_to_none(self, tmp_path):
        stats = SolveCache(tmp_path).file_stats()
        assert stats["max_entries"] is None
        assert stats["max_bytes"] is None

    def test_sizing_hints_are_surfaced_not_enforced(self, tmp_path):
        cache = SolveCache(tmp_path, max_entries=1, max_bytes=1 << 20)
        cache.put("k1", RESULT)
        cache.put("k2", RESULT)
        stats = cache.file_stats()
        # Advisory: both entries remain; the hints flow to the LRU tier.
        assert stats["entries"] == 2
        assert stats["max_entries"] == 1
        assert stats["max_bytes"] == 1 << 20

    def test_sizing_hints_are_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SolveCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            SolveCache(tmp_path, max_bytes=0)


def _record_line(key: str, result: LossRateResult = RESULT, **fields: object) -> str:
    record = {
        "key": key, "lower": result.lower, "upper": result.upper,
        "iterations": result.iterations, "bins": result.bins,
        "converged": result.converged, "negligible": result.negligible,
    }
    record.update(fields)
    return json.dumps(record) + "\n"


def _reference_parse(path) -> dict[str, LossRateResult]:
    """Parse every line in full: last valid record per key (the reader's contract)."""
    store: dict[str, LossRateResult] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
            store[record["key"]] = LossRateResult(
                lower=float(record["lower"]), upper=float(record["upper"]),
                iterations=int(record["iterations"]), bins=int(record["bins"]),
                converged=bool(record["converged"]), negligible=bool(record["negligible"]),
            )
        except (KeyError, TypeError, ValueError):
            continue
    return store


OTHER = LossRateResult(
    lower=2.5e-7, upper=3.0000000000000004e-7, iterations=4096,
    bins=2048, converged=False, negligible=False,
)


class TestIndexedOpen:
    def test_decodes_only_the_records_a_lookup_hits(self, tmp_path, monkeypatch):
        import repro.exec.cache as cache_module

        SolveCache(tmp_path).put_many((f"k{i}", RESULT) for i in range(50))
        decoded: list[bytes] = []
        real = cache_module._decode_line

        def counting(line: bytes):
            decoded.append(line)
            return real(line)

        monkeypatch.setattr(cache_module, "_decode_line", counting)
        cache = SolveCache(tmp_path)
        assert len(cache) == 50
        assert cache.file_stats()["entries"] == 50
        assert decoded == []  # opening reads keys only
        assert cache.get_many(["k3", "k7", "absent"]) == [RESULT, RESULT, None]
        assert len(decoded) == 2
        assert cache.get("k3") == RESULT and "k7" in cache
        assert len(decoded) == 2  # memoised after the first hit

    def test_lookups_match_a_full_parse_of_a_messy_file(self, tmp_path):
        odd_keys = ['quote"key', "back\\slash", "unicodé", "tab\there"]
        lines = [
            _record_line("a"),
            _record_line("b", OTHER),
            "\n",
            "   \n",
            _record_line("a", OTHER),  # a later record supersedes
            "not json at all\n",
            '{"key": "torn", "lower": 0.1\n',
            json.dumps({"upper": 0.5, "key": "reordered", "lower": 0.25, "bins": 8,
                        "negligible": False, "converged": True, "iterations": 3},
                       separators=(",", ":")) + "\n",
            *(_record_line(key) for key in odd_keys),
            _record_line("b", lower="not a float"),  # framed, but invalid
            _record_line("only-bad", lower=-1.0),  # fails LossRateResult validation
            "[1, 2, 3]\n",
            _record_line("last-no-newline", OTHER).rstrip("\n"),
        ]
        path = tmp_path / "solve_cache.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        expected = _reference_parse(path)
        keys = [*expected, "torn", "only-bad", "missing"]
        cache = SolveCache(tmp_path)
        loaded = cache.get_many(keys)
        assert loaded == [expected.get(key) for key in keys]
        for got, want in zip(loaded, (expected.get(key) for key in keys)):
            if want is not None:  # bit-exact floats, not just equal within tolerance
                assert (got.lower, got.upper) == (want.lower, want.upper)
        assert cache.get("b") == OTHER  # the last *valid* record wins
        assert "only-bad" not in cache and "torn" not in cache
        assert len(cache) == len(expected)

    def test_file_round_trips_through_a_plain_json_reader(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put_many([("k1", RESULT), ("k2", OTHER)])
        assert _reference_parse(cache.path) == {"k1": RESULT, "k2": OTHER}


class TestCacheFaults:
    def test_mid_file_garbage_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "solve_cache.jsonl"
        path.write_bytes(
            _record_line("k1").encode()
            + b"\xff\xfe not even UTF-8\n"
            + b'{"key": "half", "lower": 0.1, "upp\n'
            + _record_line("k2", OTHER).encode()
            + b"{broken\n"
            + _record_line("k3").encode()
        )
        cache = SolveCache(tmp_path)
        assert cache.get_many(["k1", "k2", "k3", "half"]) == [RESULT, OTHER, RESULT, None]
        stats = cache.file_stats()
        assert stats["entries"] == 3
        assert stats["corrupt_lines"] == 3
        assert stats["file_lines"] == 6
        assert stats["stale_lines"] == 0

    def test_interrupted_put_many_loses_only_the_torn_record(self, tmp_path, monkeypatch):
        SolveCache(tmp_path).put("k0", RESULT)
        real_write = os.write

        def torn_write(fd: int, data) -> int:
            real_write(fd, bytes(data)[:-25])  # the last record loses its tail
            raise OSError(errno.ENOSPC, "No space left on device")

        writer = SolveCache(tmp_path)
        monkeypatch.setattr(os, "write", torn_write)
        with pytest.raises(OSError):
            writer.put_many([("k1", RESULT), ("k2", OTHER), ("k3", RESULT)])
        monkeypatch.setattr(os, "write", real_write)

        reader = SolveCache(tmp_path)
        assert reader.get_many(["k0", "k1", "k2", "k3"]) == [RESULT, RESULT, OTHER, None]
        assert reader.file_stats()["corrupt_lines"] == 1
        assert not reader.path.read_bytes().endswith(b"\n")
        # The next append starts on a fresh line, so nothing else is lost;
        # the failed writer did not mark its batch as stored.
        assert writer.put_many([("k3", RESULT), ("k4", OTHER)]) == 2
        final = SolveCache(tmp_path)
        assert final.get_many(["k0", "k1", "k2", "k3", "k4"]) == [
            RESULT, RESULT, OTHER, RESULT, OTHER,
        ]
        assert final.file_stats()["corrupt_lines"] == 1

    def test_compact_by_another_instance_under_a_live_reader(self, tmp_path):
        writer = SolveCache(tmp_path)
        results = {f"k{i}": (RESULT if i % 2 else OTHER) for i in range(40)}
        writer.put_many(results.items())
        with writer.path.open("a", encoding="utf-8") as handle:
            handle.write("garbage\n")
            for i in range(0, 40, 3):  # superseding duplicates shift every line
                handle.write(_record_line(f"k{i}", results[f"k{i}"]))
        reader = SolveCache(tmp_path)
        assert len(reader) == 40  # index built before the swap
        assert SolveCache(tmp_path).compact() == (55, 40)
        assert reader.get_many(list(results)) == list(results.values())
        assert all(key in reader for key in results)


class TestThreadSafety:
    def test_concurrent_first_access_reads_the_file_once(self, tmp_path):
        SolveCache(tmp_path).put_many((f"bg{i}", RESULT) for i in range(200))

        class SlowOpenCache(SolveCache):
            opens = 0

            def _read_records(self):
                SlowOpenCache.opens += 1
                time.sleep(0.05)  # widen the window a racing thread could use
                return super()._read_records()

        cache = SlowOpenCache(tmp_path)
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                if index == 0:
                    cache.put_many([("fresh", OTHER)])
                elif index == 1:
                    cache.file_stats()
                else:
                    len(cache)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert SlowOpenCache.opens == 1
        assert cache.get("fresh") == OTHER  # the put survived the other threads' opens
        assert len(cache) == 201
        assert cache.path.read_text().count('"fresh"') == 1


class TestFlagsRoundTrip:
    @pytest.mark.parametrize("result", [
        LossRateResult(lower=0.052748650764039395, upper=0.10467200847232382,
                       iterations=1344, bins=128, converged=False, negligible=False),
        LossRateResult(lower=0.0, upper=3.1e-12, iterations=64, bins=256,
                       converged=True, negligible=True),
    ], ids=["unconverged", "negligible"])
    def test_flags_survive_memory_and_disk(self, tmp_path, result):
        cache = SolveCache(tmp_path)
        cache.put("k", result)
        for source in (cache, SolveCache(tmp_path)):
            loaded = source.get("k")
            assert loaded == result
            assert (loaded.converged, loaded.negligible) == (result.converged, result.negligible)
            assert (loaded.lower, loaded.upper) == (result.lower, result.upper)
