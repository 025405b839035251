"""Hot-path cache correctness: PSL memoization, gating cache, buffered IO.

Each cache must be semantically invisible: memoized PSL lookups return
exactly what a cold instance returns, the allow-list decision cache is
invalidated by every state transition, and batched JSONL writes produce
byte-identical files.
"""

import io

import pytest

from repro.attestation.allowlist import (
    AllowList,
    AllowListDatabase,
    GatingDecision,
)
from repro.obs import Tracer
from repro.util.fsio import BufferedLineWriter
from repro.util.psl import PublicSuffixList

#: Hostname corpus spanning every lookup regime: single-label TLDs,
#: multi-label suffixes, deep subdomains, trailing dots, mixed case, and
#: bare public suffixes (the Chromium graceful-fallback path).
HOSTNAME_CORPUS = (
    "www.example.com",
    "example.com",
    "ad.foo.net",
    "www.foo.com",
    "tracker.cdn.foo.org",
    "www.example.co.uk",
    "www.shop.example.co.uk",
    "example.co.uk",
    "a.b.c.d.example.com.br",
    "WWW.EXAMPLE.COM",
    "Example.Co.UK",
    "www.example.com.",
    "example.co.jp.",
    "co.uk",
    "co.uk.",
    "com",
    "localhost",
)


class TestPSLMemoization:
    def test_cached_results_match_cold_instance(self):
        cached = PublicSuffixList()
        for hostname in HOSTNAME_CORPUS * 3:  # repeated → served from cache
            cold = PublicSuffixList()  # fresh instance: never a cache hit
            assert cached.public_suffix(hostname) == cold.public_suffix(hostname)
            assert cached.registrable_domain(hostname) == cold.registrable_domain(
                hostname
            )

    def test_repeat_lookups_hit_the_cache(self):
        psl = PublicSuffixList()
        psl.registrable_domain("www.example.co.uk")
        assert "www.example.co.uk" in psl._cache
        assert psl._cache["www.example.co.uk"] == ("co.uk", "example.co.uk")

    @pytest.mark.parametrize("bad", ["", "   ", "a..b.com", ".", ".."])
    def test_malformed_hostnames_raise_and_are_not_cached(self, bad):
        psl = PublicSuffixList()
        with pytest.raises(ValueError):
            psl.public_suffix(bad)
        assert bad not in psl._cache
        with pytest.raises(ValueError):  # second call raises identically
            psl.public_suffix(bad)

    def test_cache_overflow_clears_but_stays_correct(self, monkeypatch):
        import repro.util.psl as psl_module

        monkeypatch.setattr(psl_module, "_CACHE_LIMIT", 4)
        psl = PublicSuffixList()
        for index in range(20):
            assert (
                psl.registrable_domain(f"www.site{index}.com") == f"site{index}.com"
            )
        assert len(psl._cache) + len(psl._stale) <= 4
        assert psl.registrable_domain("www.site0.com") == "site0.com"

    def test_cache_never_exceeds_its_limit(self, monkeypatch):
        import repro.util.psl as psl_module

        # The module-level shorthand probes the default instance's live
        # generation itself; swap in a tiny one to drive it past its limit.
        psl = PublicSuffixList(cache_limit=8)
        monkeypatch.setattr(psl_module, "_DEFAULT_PSL", psl)
        hot = "bid.criteo.co.uk"
        for index in range(100):
            hostname = f"www.site{index}.com"
            assert psl_module.etld_plus_one(hostname) == f"site{index}.com"
            assert len(psl._cache) + len(psl._stale) <= 8
            assert psl_module.etld_plus_one(hot) == "criteo.co.uk"
            assert psl.public_suffix(f"cdn.site{index}.co.uk") == "co.uk"
            assert len(psl._cache) + len(psl._stale) <= 8
        assert hot in psl._cache or hot in psl._stale

    def test_hot_entries_survive_crossing_the_limit(self):
        """Regression: crossing the cache limit used to drop the whole
        dict, cold-starting every hot caller at once.  With segmented
        eviction, an entry touched at least once per generation is
        promoted before its generation dies — it must never be
        recomputed while one-shot hostnames stream past."""
        psl = PublicSuffixList(cache_limit=8)
        hot = "bid.criteo.co.uk"
        psl.registrable_domain(hot)
        for index in range(100):
            # Interleave the hot lookup with a stream of one-shot
            # hostnames that forces many generation turnovers.
            psl.registrable_domain(f"www.oneshot{index}.com")
            psl.registrable_domain(hot)
            assert hot in psl._cache or hot in psl._stale
        assert psl.registrable_domain(hot) == "criteo.co.uk"

    def test_one_shot_entries_age_out(self):
        psl = PublicSuffixList(cache_limit=8)
        psl.registrable_domain("www.oneshot.com")
        for index in range(50):  # never touched again → evicted
            psl.registrable_domain(f"www.filler{index}.com")
        assert "www.oneshot.com" not in psl._cache
        assert "www.oneshot.com" not in psl._stale

    def test_bare_suffix_fallback_preserved(self):
        psl = PublicSuffixList()
        # Chromium's graceful fallback: a bare suffix comes back
        # normalised (lowercased, trailing dot stripped) but unchanged.
        assert psl.registrable_domain("co.uk") == "co.uk"
        assert psl.registrable_domain("Co.UK.") == "co.uk"
        assert psl.registrable_domain("com") == "com"


class TestGatingDecisionCache:
    @pytest.fixture
    def database(self):
        return AllowListDatabase.from_allowlist(
            AllowList.of(["enrolled.com", "partner.org"])
        )

    def test_decisions_cached_per_caller(self, database):
        first = database.check_caller("api.enrolled.com")
        assert first is GatingDecision.ALLOWED_ENROLLED
        assert database._decisions["api.enrolled.com"] is first
        assert database.check_caller("api.enrolled.com") is first

    def test_corrupt_invalidates_cached_block(self, database):
        assert (
            database.check_caller("rogue.example")
            is GatingDecision.BLOCKED_NOT_ENROLLED
        )
        database.corrupt()
        # A stale cache entry would keep blocking — the Chromium bug
        # default-allows every caller once the database is corrupt.
        assert (
            database.check_caller("rogue.example")
            is GatingDecision.ALLOWED_DATABASE_CORRUPT
        )

    def test_remove_invalidates_cached_block(self, database):
        database.check_caller("rogue.example")
        database.remove()
        assert (
            database.check_caller("rogue.example")
            is GatingDecision.ALLOWED_DATABASE_CORRUPT
        )

    def test_update_invalidates_cached_decisions(self, database):
        assert (
            database.check_caller("newcomer.net")
            is GatingDecision.BLOCKED_NOT_ENROLLED
        )
        database.update(
            AllowList.of(["enrolled.com", "newcomer.net"]).serialize()
        )
        assert (
            database.check_caller("newcomer.net")
            is GatingDecision.ALLOWED_ENROLLED
        )

    def test_repair_after_corruption_restores_gating(self, database):
        database.corrupt()
        assert database.check_caller("rogue.example").allowed
        database.update(AllowList.of(["enrolled.com"]).serialize())
        assert (
            database.check_caller("rogue.example")
            is GatingDecision.BLOCKED_NOT_ENROLLED
        )


class TestBufferedLineWriter:
    def test_output_identical_to_unbuffered(self):
        lines = [f'{{"seq": {i}}}' for i in range(2500)]
        buffered = io.StringIO()
        with BufferedLineWriter(buffered, batch_size=1024) as writer:
            for line in lines:
                writer.write_line(line)
        assert buffered.getvalue() == "".join(f"{line}\n" for line in lines)

    def test_batches_reduce_write_calls(self):
        class CountingHandle(io.StringIO):
            writes = 0

            def write(self, text):
                CountingHandle.writes += 1
                return super().write(text)

        handle = CountingHandle()
        with BufferedLineWriter(handle, batch_size=100) as writer:
            for index in range(1000):
                writer.write_line(str(index))
        assert CountingHandle.writes == 10

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            BufferedLineWriter(io.StringIO(), batch_size=0)

    def test_aborted_export_leaves_no_partial_batch(self):
        """Regression: ``__exit__`` used to flush pending lines even when
        an exception was propagating, appending a torn trailing batch to
        the file a failed export leaves behind."""
        handle = io.StringIO()
        with pytest.raises(RuntimeError):
            with BufferedLineWriter(handle, batch_size=100) as writer:
                for index in range(250):  # two full batches reach the handle
                    writer.write_line(str(index))
                raise RuntimeError("export died mid-stream")
        written = handle.getvalue().splitlines()
        # Only the complete batches written before the failure survive;
        # the 50 queued lines are discarded with the export.
        assert written == [str(index) for index in range(200)]

    def test_aborted_export_with_empty_queue_is_clean(self):
        handle = io.StringIO()
        with pytest.raises(ValueError):
            with BufferedLineWriter(handle, batch_size=10):
                raise ValueError("nothing queued yet")
        assert handle.getvalue() == ""

    def test_tracer_export_roundtrips_through_buffer(self, tmp_path):
        tracer = Tracer()
        for index in range(3000):  # crosses multiple write batches
            tracer.emit("visit-finished", at=index, domain=f"site{index}.com")
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        events = Tracer.read_jsonl(path)
        assert len(events) == 3000
        assert events[0].fields == {"domain": "site0.com"}
        meta = Tracer.read_meta(path)
        assert meta is not None and meta.emitted == 3000
