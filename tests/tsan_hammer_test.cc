// Data-race hammers for the shared-state subsystems the thread-safety
// annotations now cover, meant to run under the tsan preset (they pass —
// slowly — on plain builds too). Each case maximizes the interleavings the
// static analysis reasons about: the metrics registry taking snapshots
// while other threads concurrently register and update metrics, and the
// memory profiler's stages and arenas under the same contention. A TSan
// report here means either an annotation is wrong (a field marked guarded
// that is touched unlocked) or a lock was dropped in a migration — both are
// exactly what the analyze preset + this suite exist to catch from
// opposite directions (compile time vs run time).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"

namespace tglink {
namespace {

TEST(TsanHammerTest, MetricsRegistryConcurrentSnapshotDuringRegistration) {
  // A private registry keeps the hammer isolated from GlobalMetrics(), so
  // assertions on counts are exact and other tests' metrics don't bleed in.
  obs::MetricsRegistry registry;
  constexpr int kWriterThreads = 3;
  constexpr int kNamesPerThread = 40;
  constexpr int kUpdatesPerName = 50;
  constexpr int kSnapshots = 200;
  std::atomic<bool> done{false};

  // Writers force the registration path (map insert under mu_) and the
  // lock-free update path simultaneously, with overlapping name sets so
  // first-registration races on the same name are common.
  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&registry, t] {
      for (int i = 0; i < kNamesPerThread; ++i) {
        // Half the names are shared across threads, half are private.
        const bool shared = (i % 2) == 0;
        const std::string name =
            "hammer." + std::string(shared ? "shared" : "own") + "." +
            std::to_string(shared ? i : i * kWriterThreads + t);
        obs::Counter& counter = registry.GetCounter(name);
        obs::Gauge& gauge = registry.GetGauge(name + ".gauge");
        obs::Histogram& hist = registry.GetHistogram(
            name + ".hist", obs::Histogram::UnitIntervalBounds());
        for (int u = 0; u < kUpdatesPerName; ++u) {
          counter.Increment();
          gauge.Set(static_cast<double>(u));
          hist.Observe(static_cast<double>(u % 10) / 10.0);
        }
      }
    });
  }

  // The snapshotter runs for the writers' whole lifetime: every Snapshot()
  // walks all three maps under mu_ while writers are inserting into them,
  // and serializes concurrently-updated atomics. Monotonicity of a counter
  // total across snapshots is the cheap coherence check.
  std::thread snapshotter([&registry, &done] {
    uint64_t last_total = 0;
    int taken = 0;
    while (taken < kSnapshots && !done.load()) {
      const obs::MetricsSnapshot snap = registry.Snapshot();
      uint64_t total = 0;
      for (const auto& c : snap.counters) total += c.value;
      EXPECT_GE(total, last_total);
      last_total = total;
      (void)snap.ToJson();
      ++taken;
    }
  });

  for (std::thread& th : writers) th.join();
  done.store(true);
  snapshotter.join();

  // Final state is exact: every registration landed once, every update
  // landed exactly once.
  const obs::MetricsSnapshot final_snap = registry.Snapshot();
  constexpr int kSharedNames = kNamesPerThread / 2;
  constexpr int kOwnNames = (kNamesPerThread / 2) * kWriterThreads;
  EXPECT_EQ(final_snap.counters.size(),
            static_cast<size_t>(kSharedNames + kOwnNames));
  EXPECT_EQ(final_snap.gauges.size(), final_snap.counters.size());
  EXPECT_EQ(final_snap.histograms.size(), final_snap.counters.size());
  uint64_t total = 0;
  for (const auto& c : final_snap.counters) total += c.value;
  EXPECT_EQ(total, static_cast<uint64_t>(kWriterThreads) * kNamesPerThread *
                       kUpdatesPerName);
}

TEST(TsanHammerTest, MemProfConcurrentStagesArenasAndSnapshots) {
  // The memory profiler's full shared surface under contention: stage
  // scopes interning and folding on several threads (first-registration
  // races on shared stage names), arena reports racing AtomicMax, raw
  // allocator traffic driving the hooks (when compiled in), and a
  // snapshotter walking the registries the whole time. Totals are exact
  // afterwards: relaxed atomics may reorder, but nothing may be lost.
  obs::ResetMemProfForTesting();
  obs::SetMemProfEnabled(true);

  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr uint64_t kArenaBytes = 64;
  std::atomic<bool> done{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int round = 0; round < kRounds; ++round) {
        TGLINK_MEM_STAGE("hammer.shared");
        {
          TGLINK_MEM_STAGE(round % 2 == 0 ? "hammer.even" : "hammer.odd");
          // Allocator traffic inside the stage; freed before scope exit so
          // the per-stage live delta nets out.
          std::vector<char> block(256 + static_cast<size_t>(t) * 64);
          block[0] = static_cast<char>(round);
        }
        obs::ReportArenaBytes("hammer.arena",
                              kArenaBytes + static_cast<uint64_t>(t));
        (void)obs::ThreadStageDepth();
        (void)obs::CurrentStageName();
      }
    });
  }

  std::thread snapshotter([&done] {
    while (!done.load()) {
      const obs::MemorySnapshot snap = obs::SnapshotMemory();
      for (size_t i = 1; i < snap.arenas.size(); ++i) {
        EXPECT_LT(snap.arenas[i - 1].name, snap.arenas[i].name);
      }
    }
  });

  for (std::thread& th : workers) th.join();
  done.store(true);
  snapshotter.join();

  const obs::MemorySnapshot snap = obs::SnapshotMemory();
  const auto stage = [&snap](const std::string& name) -> uint64_t {
    for (const auto& s : snap.stages) {
      if (s.name == name) return s.count;
    }
    return 0;
  };
  EXPECT_EQ(stage("hammer.shared"),
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(stage("hammer.even") + stage("hammer.odd"),
            static_cast<uint64_t>(kThreads) * kRounds);
  uint64_t arena_total = 0;
  for (const auto& arena : snap.arenas) {
    if (arena.name == "hammer.arena") {
      arena_total = arena.bytes_total;
      EXPECT_EQ(arena.reports, static_cast<uint64_t>(kThreads) * kRounds);
      EXPECT_EQ(arena.max_bytes, kArenaBytes + kThreads - 1);
    }
  }
  // Sum over threads of kRounds * (kArenaBytes + t).
  uint64_t want = 0;
  for (int t = 0; t < kThreads; ++t) {
    want += static_cast<uint64_t>(kRounds) * (kArenaBytes + t);
  }
  EXPECT_EQ(arena_total, want);
  if (obs::MemProfHooksCompiledIn()) {
    EXPECT_GT(obs::GlobalAllocTotals().bytes_allocated, 0u);
  }

  obs::SetMemProfEnabled(false);
  obs::ResetMemProfForTesting();
}

}  // namespace
}  // namespace tglink
