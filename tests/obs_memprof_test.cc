// Unit and integration coverage for the memory profiler (DESIGN.md §12):
// the /proc/self/status parser on fixture text, stage-scope semantics
// (nesting, depth cap, per-thread stacks), arena accumulation, snapshot
// determinism, the hook-gated byte counters, and an end-to-end
// LinkCensusPair run proving every production arena reports.
//
// Every test flips the runtime gate explicitly and restores the
// disabled-by-default state on exit, so ordering between tests (and with
// the rest of the suite) does not matter.

#include "tglink/obs/memprof.h"

#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tglink/linkage/iterative.h"
#include "tglink/util/parallel.h"
#include "tests/paper_example.h"

namespace tglink {
namespace obs {
namespace {

// Restores the profiler to its test-default state (disabled, empty
// registries) on scope exit, no matter how the test body ends.
class MemProfTestScope {
 public:
  MemProfTestScope() {
    ResetMemProfForTesting();
    SetMemProfEnabled(true);
  }
  ~MemProfTestScope() {
    SetMemProfEnabled(false);
    ResetMemProfForTesting();
  }
};

const ArenaStats* Arena(const MemorySnapshot& snapshot,
                        const std::string& name) {
  for (const ArenaStats& arena : snapshot.arenas) {
    if (arena.name == name) return &arena;
  }
  return nullptr;
}

const StageStats* Stage(const MemorySnapshot& snapshot,
                        const std::string& name) {
  for (const StageStats& stage : snapshot.stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

// --- ParseProcStatus on fixture text ---------------------------------------

TEST(MemProfParseTest, ParsesRssAndHwmFromRealisticStatusText) {
  const char* fixture =
      "Name:\ttable5_iterative\n"
      "Umask:\t0022\n"
      "VmPeak:\t   20480 kB\n"
      "VmHWM:\t   18328 kB\n"
      "VmRSS:\t   13684 kB\n"
      "Threads:\t2\n";
  RssSample sample;
  ASSERT_TRUE(ParseProcStatus(fixture, &sample));
  EXPECT_EQ(sample.vm_rss_kb, 13684u);
  EXPECT_EQ(sample.vm_hwm_kb, 18328u);
}

TEST(MemProfParseTest, AcceptsSpacePaddingAndMissingTrailingNewline) {
  RssSample sample;
  ASSERT_TRUE(ParseProcStatus("VmRSS:     42 kB", &sample));
  EXPECT_EQ(sample.vm_rss_kb, 42u);
  EXPECT_EQ(sample.vm_hwm_kb, 0u);
}

TEST(MemProfParseTest, RejectsTextWithoutEitherField) {
  RssSample sample;
  sample.vm_rss_kb = 99;  // must be cleared even on failure
  EXPECT_FALSE(ParseProcStatus("Name:\tx\nThreads:\t4\n", &sample));
  EXPECT_EQ(sample.vm_rss_kb, 0u);
  EXPECT_FALSE(ParseProcStatus("", &sample));
  // A field label with no digits is not a reading.
  EXPECT_FALSE(ParseProcStatus("VmRSS:\t kB\n", &sample));
}

TEST(MemProfParseTest, LiveSampleReadsNonZeroRssOnLinux) {
  const RssSample sample = SampleRss();
  // The test binary is resident, so both figures must be positive and the
  // high-water mark can never be below the current RSS.
  EXPECT_GT(sample.vm_rss_kb, 0u);
  EXPECT_GE(sample.vm_hwm_kb, sample.vm_rss_kb);
}

// --- stage scopes -----------------------------------------------------------

TEST(MemProfStageTest, NestedScopesTrackDepthAndCurrentName) {
  MemProfTestScope guard;
  EXPECT_EQ(ThreadStageDepth(), 0);
  EXPECT_STREQ(CurrentStageName(), "");
  {
    TGLINK_MEM_STAGE("outer");
    EXPECT_EQ(ThreadStageDepth(), 1);
    EXPECT_STREQ(CurrentStageName(), "outer");
    {
      TGLINK_MEM_STAGE("inner");
      EXPECT_EQ(ThreadStageDepth(), 2);
      EXPECT_STREQ(CurrentStageName(), "inner");
    }
    // Exiting the inner scope restores the parent as current.
    EXPECT_EQ(ThreadStageDepth(), 1);
    EXPECT_STREQ(CurrentStageName(), "outer");
  }
  EXPECT_EQ(ThreadStageDepth(), 0);
  EXPECT_STREQ(CurrentStageName(), "");

  const MemorySnapshot snapshot = SnapshotMemory();
  const StageStats* outer = Stage(snapshot, "outer");
  const StageStats* inner = Stage(snapshot, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 1u);
  // Both boundaries sampled RSS; the process is resident.
  EXPECT_GT(outer->peak_rss_kb, 0u);
  EXPECT_GE(outer->peak_vm_hwm_kb, outer->peak_rss_kb);
}

TEST(MemProfStageTest, RepeatedScopesAccumulateIntoOneEntry) {
  MemProfTestScope guard;
  for (int i = 0; i < 5; ++i) {
    TGLINK_MEM_STAGE("repeat");
  }
  const MemorySnapshot snapshot = SnapshotMemory();
  const StageStats* stage = Stage(snapshot, "repeat");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->count, 5u);
}

TEST(MemProfStageTest, DepthCapDropsExcessScopesWithoutCrashing) {
  MemProfTestScope guard;
  // 24 nested scopes against a 16-deep stack: the overflow scopes must be
  // inert (no count, no crash, no depth corruption on unwind).
  std::vector<ScopedMemStage*> scopes;
  scopes.reserve(24);
  for (int i = 0; i < 24; ++i) {
    scopes.push_back(new ScopedMemStage("deep"));
  }
  EXPECT_EQ(ThreadStageDepth(), 16);
  for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) delete *it;
  EXPECT_EQ(ThreadStageDepth(), 0);
  const MemorySnapshot snapshot = SnapshotMemory();
  const StageStats* stage = Stage(snapshot, "deep");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->count, 16u);  // only the in-cap scopes completed
}

TEST(MemProfStageTest, StageStacksAreThreadLocal) {
  MemProfTestScope guard;
  TGLINK_MEM_STAGE("main_thread");
  int other_depth = -1;
  std::thread observer([&other_depth] { other_depth = ThreadStageDepth(); });
  observer.join();
  EXPECT_EQ(other_depth, 0);  // the open scope belongs to this thread only
  EXPECT_EQ(ThreadStageDepth(), 1);
}

// --- arenas -----------------------------------------------------------------

TEST(MemProfArenaTest, ReportsAccumulateSumMaxAndCount) {
  MemProfTestScope guard;
  ReportArenaBytes("widget", 100);
  ReportArenaBytes("widget", 300);
  ReportArenaBytes("widget", 200);
  ReportArenaBytes("other", 7);
  const MemorySnapshot snapshot = SnapshotMemory();
  const ArenaStats* widget = Arena(snapshot, "widget");
  ASSERT_NE(widget, nullptr);
  EXPECT_EQ(widget->bytes_total, 600u);
  EXPECT_EQ(widget->max_bytes, 300u);
  EXPECT_EQ(widget->reports, 3u);
  const ArenaStats* other = Arena(snapshot, "other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->bytes_total, 7u);
}

TEST(MemProfArenaTest, SnapshotSortsArenasAndStagesByName) {
  MemProfTestScope guard;
  ReportArenaBytes("zeta", 1);
  ReportArenaBytes("alpha", 1);
  ReportArenaBytes("mid", 1);
  { TGLINK_MEM_STAGE("z_stage"); }
  { TGLINK_MEM_STAGE("a_stage"); }
  const MemorySnapshot snapshot = SnapshotMemory();
  ASSERT_EQ(snapshot.arenas.size(), 3u);
  EXPECT_EQ(snapshot.arenas[0].name, "alpha");
  EXPECT_EQ(snapshot.arenas[1].name, "mid");
  EXPECT_EQ(snapshot.arenas[2].name, "zeta");
  ASSERT_EQ(snapshot.stages.size(), 2u);
  EXPECT_EQ(snapshot.stages[0].name, "a_stage");
  EXPECT_EQ(snapshot.stages[1].name, "z_stage");
}

// --- allocation hooks -------------------------------------------------------

TEST(MemProfHookTest, EnabledHooksCountThreadAndGlobalBytes) {
  MemProfTestScope guard;
  if (!MemProfHooksCompiledIn()) {
    GTEST_SKIP() << "allocator hooks compiled out in this build";
  }
  constexpr size_t kBytes = 1 << 16;
  const AllocTotals before = ThreadAllocTotals();
  {
    std::vector<char> block(kBytes);
    // Touch so the allocation cannot be elided.
    block[0] = 1;
    block[kBytes - 1] = 1;
    const AllocTotals during = ThreadAllocTotals();
    EXPECT_GE(during.bytes_allocated - before.bytes_allocated, kBytes);
    EXPECT_GT(during.alloc_calls, before.alloc_calls);
  }
  const AllocTotals after = ThreadAllocTotals();
  // Symmetric usable-size accounting: the vector's buffer shows up on the
  // freed side with the same rounding as on the allocated side.
  EXPECT_GE(after.bytes_freed - before.bytes_freed, kBytes);
  const AllocTotals global = GlobalAllocTotals();
  EXPECT_GE(global.bytes_allocated, after.bytes_allocated);
}

TEST(MemProfHookTest, DisabledGateStopsCountingImmediately) {
  MemProfTestScope guard;
  SetMemProfEnabled(false);
  const AllocTotals before = ThreadAllocTotals();
  {
    std::vector<char> block(1 << 16);
    block[0] = 1;
  }
  const AllocTotals after = ThreadAllocTotals();
  EXPECT_EQ(after.bytes_allocated, before.bytes_allocated);
  EXPECT_EQ(after.alloc_calls, before.alloc_calls);
}

TEST(MemProfHookTest, StageDeltasAreZeroWhenHooksAbsent) {
  MemProfTestScope guard;
  if (MemProfHooksCompiledIn()) {
    GTEST_SKIP() << "covered by EnabledHooksCountThreadAndGlobalBytes";
  }
  {
    TGLINK_MEM_STAGE("no_hooks");
    std::vector<char> block(1 << 16);
    block[0] = 1;
  }
  const MemorySnapshot snapshot = SnapshotMemory();
  EXPECT_FALSE(snapshot.hooks_compiled);
  const StageStats* stage = Stage(snapshot, "no_hooks");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->count, 1u);  // stages still run; byte counts read zero
  EXPECT_EQ(stage->bytes_allocated, 0u);
  EXPECT_EQ(snapshot.allocator.bytes_allocated, 0u);
}

// --- compile-time contracts -------------------------------------------------

// The zero-overhead claims the header makes are pinned here too, so a
// regression fails this suite even if the header's own asserts are edited.
static_assert(std::is_trivially_destructible_v<AllocTotals>);
static_assert(std::is_trivially_copyable_v<AllocTotals>);
#if defined(TGLINK_MEMPROF_DISABLED)
static_assert(std::is_empty_v<ScopedMemStage>);
#endif

// --- end-to-end: the production arenas all report ---------------------------

TEST(MemProfIntegrationTest, LinkCensusPairReportsEveryProductionArena) {
  MemProfTestScope guard;

  // The paper fixture is too small for the pool to spawn inside the
  // pipeline, so the "pool" arena is exercised through an explicit parallel
  // section at the same thread count the run would use.
  SetParallelThreadCount(2);
  std::vector<int> sink(1024, 0);
  ParallelFor(sink.size(), "memprof_test.warmup",
              [&sink](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) sink[i] = static_cast<int>(i);
              });

  LinkageConfig config = configs::DefaultConfig();
  config.blocking = BlockingConfig::MakeInvertedIndex();
  const LinkageResult result =
      LinkCensusPair(testing_example::MakeCensus1871(),
                     testing_example::MakeCensus1881(), config);
  EXPECT_FALSE(result.iterations.empty());
  SetParallelThreadCount(1);

  const MemorySnapshot snapshot = SnapshotMemory();
  for (const char* name : {"simbatch", "candindex", "pool"}) {
    const ArenaStats* arena = Arena(snapshot, name);
    ASSERT_NE(arena, nullptr) << "arena " << name << " never reported";
    EXPECT_GT(arena->bytes_total, 0u) << "arena " << name << " reported zero";
    EXPECT_GT(arena->reports, 0u);
  }
  // The instrumented pipeline stages fed the registry as well.
  const StageStats* link = Stage(snapshot, "linkage.link_census_pair");
  ASSERT_NE(link, nullptr);
  EXPECT_GE(link->count, 1u);
  EXPECT_GT(link->peak_rss_kb, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace tglink
