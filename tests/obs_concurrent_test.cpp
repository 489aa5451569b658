// obs_concurrent_test.cpp — registry scrape vs. many writers under
// contention: snapshot() must stay consistent (never torn, never
// crashing, totals exact after join) while many threads hammer the same
// counter and histogram cells. This is also the TSan target for the obs
// layer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace amf::obs {
namespace {

TEST(ObsConcurrent, ScrapeWhileShardedWritersHammer) {
  Registry registry;
  Counter hits = registry.counter("stress_hits");
  Histogram latency = registry.histogram("stress_latency");
  Gauge depth = registry.gauge("stress_depth");

  constexpr int kWriters = 8;
  constexpr long long kIncrementsPerWriter = 200000;
  std::atomic<bool> stop_scraping{false};
  std::atomic<long long> scrapes{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (long long i = 0; i < kIncrementsPerWriter; ++i) {
        hits.add();
        latency.observe(static_cast<double>((i % 1000) + w));
        if ((i & 1023) == 0) depth.set(static_cast<double>(i));
      }
    });
  }

  // Scrape continuously while the writers run. Every intermediate
  // snapshot must be internally consistent: counter totals and both
  // histogram views (bucket counts, Welford moments) monotone across
  // scrapes and never past the true total. A histogram's buckets and
  // moments are copied under its one lock, so they agree exactly.
  constexpr std::uint64_t kTrueCount =
      static_cast<std::uint64_t>(kWriters) * kIncrementsPerWriter;
  std::thread scraper([&] {
    long long last_hits = 0;
    std::uint64_t last_bucket_total = 0;
    std::uint64_t last_count = 0;
    while (!stop_scraping.load(std::memory_order_acquire)) {
      const Snapshot snap = registry.snapshot();
      const long long h = snap.counter("stress_hits");
      EXPECT_GE(h, last_hits);
      last_hits = h;
      const HistogramSample* hist = snap.histogram("stress_latency");
      if (hist != nullptr) {
        std::uint64_t bucket_total = 0;
        for (std::uint64_t b : hist->buckets) bucket_total += b;
        const std::uint64_t count = hist->stats.count();
        EXPECT_GE(bucket_total, last_bucket_total);
        EXPECT_GE(count, last_count);
        EXPECT_LE(bucket_total, kTrueCount);
        EXPECT_LE(count, kTrueCount);
        EXPECT_EQ(bucket_total, count);
        last_bucket_total = bucket_total;
        last_count = count;
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (std::thread& t : writers) t.join();
  stop_scraping.store(true, std::memory_order_release);
  scraper.join();

  const Snapshot final_snap = registry.snapshot();
  EXPECT_EQ(final_snap.counter("stress_hits"),
            static_cast<long long>(kWriters) * kIncrementsPerWriter);
  const HistogramSample* hist = final_snap.histogram("stress_latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->stats.count(), kTrueCount);
  std::uint64_t final_bucket_total = 0;
  for (std::uint64_t b : hist->buckets) final_bucket_total += b;
  EXPECT_EQ(final_bucket_total, kTrueCount);
  EXPECT_GT(scrapes.load(), 0);
}

TEST(ObsConcurrent, ConcurrentRegistrationIsIdempotent) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<long long> total{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // All threads race to register the same names, then write.
      Counter c = registry.counter("shared_counter");
      Histogram h = registry.histogram("shared_hist");
      for (int i = 0; i < 10000; ++i) {
        c.add();
        h.observe(static_cast<double>(i));
      }
      total.fetch_add(10000);
    });
  }
  for (std::thread& t : threads) t.join();
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("shared_counter"), total.load());
  EXPECT_EQ(snap.histogram("shared_hist")->stats.count(),
            static_cast<std::uint64_t>(total.load()));
}

TEST(ObsConcurrent, SnapshotDuringWritesKeepsTotalsMonotone) {
  Registry registry;
  Counter c = registry.counter("monotone_counter");
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 100000; ++i) c.add();
    done.store(true, std::memory_order_release);
  });
  long long last = 0;
  while (!done.load(std::memory_order_acquire)) {
    const long long now = registry.snapshot().counter("monotone_counter");
    EXPECT_GE(now, last);
    last = now;
  }
  writer.join();
  EXPECT_EQ(registry.snapshot().counter("monotone_counter"), 100000);
}

}  // namespace
}  // namespace amf::obs
