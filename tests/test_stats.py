"""Unit tests for the statistics containers."""

from repro.mem.stats import CacheStats, TrafficStats


class TestCacheStats:
    def test_rates(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert stats.miss_rate == 0.25
        assert stats.hit_rate == 0.75

    def test_empty_rates(self):
        stats = CacheStats()
        assert stats.miss_rate == 0.0
        assert stats.hit_rate == 0.0
        assert stats.prefetch_accuracy == 0.0

    def test_prefetch_accuracy(self):
        stats = CacheStats(prefetch_issued=10, prefetch_useful=3)
        assert stats.prefetch_accuracy == 0.3

    def test_reset(self):
        stats = CacheStats(hits=5, misses=5, evictions=2, writebacks=1)
        stats.reset()
        assert stats.accesses == 0
        assert stats.evictions == 0


class TestTrafficStats:
    def test_total_and_overhead(self):
        traffic = TrafficStats(
            data_reads=10, data_writes=5, ctr_reads=3, ctr_writes=1,
            mt_reads=20, mac_accesses=2, reencryption_requests=4,
        )
        assert traffic.total == 45
        assert traffic.security_overhead == 30

    def test_as_dict_roundtrip(self):
        traffic = TrafficStats(data_reads=1, mt_reads=2)
        data = traffic.as_dict()
        assert data["data_reads"] == 1
        assert data["mt_reads"] == 2
        assert data["total"] == 3

    def test_reset(self):
        traffic = TrafficStats(data_reads=9)
        traffic.reset()
        assert traffic.total == 0
