// Memory & resource profiling: where the pipeline's bytes go, per stage.
//
// Three cooperating layers (DESIGN.md §12):
//
//  (a) Allocation tracking — global operator new/delete interposition
//      (defined in memprof.cc, linked into any binary that references this
//      header's API) feeding per-thread running totals plus process-wide
//      relaxed-atomic counters. Gated at runtime by the TGLINK_MEMPROF
//      environment variable (or SetMemProfEnabled); when off, every hook
//      is a single relaxed load and a tail call into malloc/free — near
//      free. The span tracer snapshots the thread totals at span entry and
//      exit, so every TGLINK_TRACE_SPAN carries bytes allocated / freed /
//      live-delta next to its wall time.
//
//  (b) Stage boundaries — TGLINK_MEM_STAGE(name) opens a scope on a
//      thread-local stage stack; entry and exit sample VmRSS/VmHWM from
//      /proc/self/status and fold allocation deltas into a process-wide
//      registry of named StageStats (stable entries, relaxed atomics —
//      same discipline as obs/metrics.h). Stages are phase-granular, so
//      the two /proc reads per scope are noise.
//
//  (c) Arena accounting — components that own large flat storage (SimBatch
//      value arenas, CandidateIndex posting lists, the thread pool) report
//      their *logical* footprint once it is final via
//      ReportArenaBytes(component, bytes). Logical sizes (size(), not
//      capacity()) keep the numbers bit-deterministic across runs and
//      machines, which is what lets tools/bench_diff.py gate them exactly.
//
// Compile-time escape hatch: building with -DTGLINK_MEMPROF_DISABLED
// (CMake: -DTGLINK_MEMPROF=OFF) compiles the stage scope down to an empty
// object and the allocator hooks out entirely; the static_asserts below
// pin that zero-overhead claim. The interposition itself can also be
// compiled out alone with TGLINK_MEMPROF_NO_HOOKS (the asan/tsan presets
// do this so the sanitizer allocators keep full fidelity); everything else
// — stages, RSS sampling, arenas — still works, with zero byte counts.

#ifndef TGLINK_OBS_MEMPROF_H_
#define TGLINK_OBS_MEMPROF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tglink {
namespace obs {

/// Running allocation totals, per thread or process-wide. Byte counts use
/// the allocator's usable size symmetrically on both sides, so
/// bytes_allocated - bytes_freed is an exact live figure.
struct AllocTotals {
  uint64_t bytes_allocated = 0;
  uint64_t bytes_freed = 0;
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
};

// The thread totals live in constant-initialized, trivially-destructible
// thread_local storage: no TLS guard on the allocation hot path, no
// __cxa_thread_atexit registration (which would itself allocate). These
// asserts pin the properties the hooks' re-entrancy safety rests on.
static_assert(std::is_trivially_destructible_v<AllocTotals>,
              "AllocTotals must stay trivially destructible: the allocator "
              "hooks touch it and must never re-enter the allocator");
static_assert(std::is_standard_layout_v<AllocTotals> &&
                  std::is_trivially_copyable_v<AllocTotals>,
              "AllocTotals is snapshotted by memcpy-like reads from the "
              "span tracer; keep it a plain aggregate");

/// True when the operator new/delete interposition is compiled into this
/// build (off under TGLINK_MEMPROF_NO_HOOKS / TGLINK_MEMPROF_DISABLED and
/// in binaries that do not link memprof.o). With hooks absent all byte
/// counts read zero; stages and arenas still function.
[[nodiscard]] bool MemProfHooksCompiledIn();

/// Runtime collection gate. First query reads the TGLINK_MEMPROF
/// environment variable (unset, "" or "0" = off); SetMemProfEnabled
/// overrides it either way.
[[nodiscard]] bool MemProfEnabled();
void SetMemProfEnabled(bool enabled);

/// The calling thread's running totals (zeros while disabled). The span
/// tracer subtracts two of these snapshots to price a span; the deltas are
/// therefore per-thread-inclusive: a span only sees allocations made on
/// its own thread (worker chunks carry their own spans).
[[nodiscard]] AllocTotals ThreadAllocTotals();

/// Process-wide totals across all threads.
[[nodiscard]] AllocTotals GlobalAllocTotals();

/// One VmRSS/VmHWM reading (kilobytes, as /proc reports them).
struct RssSample {
  uint64_t vm_rss_kb = 0;
  uint64_t vm_hwm_kb = 0;
};

/// Parses the "VmRSS:/VmHWM: ... kB" lines out of /proc/self/status text.
/// Returns false when neither field is present (non-Linux /proc text).
/// Exposed separately so the parser is testable on fixture text.
bool ParseProcStatus(std::string_view status_text, RssSample* out);

/// Reads /proc/self/status; all-zero sample when unavailable.
[[nodiscard]] RssSample SampleRss();

/// Aggregated statistics of one named stage across all its executions.
struct StageStats {
  std::string name;
  uint64_t count = 0;            // completed executions
  uint64_t bytes_allocated = 0;  // thread-inclusive, summed over executions
  uint64_t bytes_freed = 0;
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t peak_rss_kb = 0;     // max VmRSS seen at any boundary
  uint64_t peak_vm_hwm_kb = 0;  // max VmHWM seen at any boundary
};

/// Cumulative footprint reports of one named arena component.
struct ArenaStats {
  std::string name;
  uint64_t bytes_total = 0;  // sum over all reports
  uint64_t max_bytes = 0;    // largest single report
  uint64_t reports = 0;
};

/// Everything the RunReport `memory` block serializes, in one consistent
/// grab. Arenas and stages are sorted by name (deterministic).
struct MemorySnapshot {
  bool hooks_compiled = false;
  bool enabled = false;
  AllocTotals allocator;
  std::vector<ArenaStats> arenas;
  std::vector<StageStats> stages;
  RssSample rss;
};

[[nodiscard]] MemorySnapshot SnapshotMemory();

/// Records `bytes` of logical footprint against `component` (e.g.
/// "simbatch", "candindex", "pool"). Callers report once, when
/// the figure is final (constructor end or destructor); repeated reports
/// accumulate into bytes_total. Thread-safe.
void ReportArenaBytes(std::string_view component, uint64_t bytes);

/// Depth of the calling thread's stage stack (0 = no open stage) and the
/// innermost open stage name process-wide ("" when none; advisory — the
/// heartbeat reads it without synchronizing against stage exit).
[[nodiscard]] int ThreadStageDepth();
[[nodiscard]] const char* CurrentStageName();

/// Drops all stage/arena/allocator state. Test-only: never call while
/// another thread is inside a stage.
void ResetMemProfForTesting();

/// Periodic progress line on stderr: current stage, pairs/sec (from the
/// similarity.agg_calls counter) and live VmRSS. Idempotent; the thread is
/// joined by StopHeartbeat or automatically at process exit.
void StartHeartbeat(double interval_seconds);
void StopHeartbeat();

#if defined(TGLINK_MEMPROF_DISABLED)

/// Disabled mode: the scope carries no state and the macro compiles to a
/// no-op object — the static_assert is the "zero overhead" contract.
class ScopedMemStage {
 public:
  explicit ScopedMemStage(std::string_view) {}
  ScopedMemStage(const ScopedMemStage&) = delete;
  ScopedMemStage& operator=(const ScopedMemStage&) = delete;
};
static_assert(std::is_empty_v<ScopedMemStage>,
              "TGLINK_MEMPROF_DISABLED must compile the stage scope down "
              "to an empty object");

#else

/// RAII stage scope: registers on the thread-local stage stack, samples
/// RSS at both boundaries and folds this thread's allocation delta into
/// the named StageStats entry on exit.
class ScopedMemStage {
 public:
  explicit ScopedMemStage(std::string_view name);
  ~ScopedMemStage();

  ScopedMemStage(const ScopedMemStage&) = delete;
  ScopedMemStage& operator=(const ScopedMemStage&) = delete;

 private:
  void* entry_ = nullptr;  // StageEntry*, opaque to keep the header light
  AllocTotals on_entry_;
};

#endif  // TGLINK_MEMPROF_DISABLED

}  // namespace obs
}  // namespace tglink

#define TGLINK_MEMPROF_CONCAT_INNER(a, b) a##b
#define TGLINK_MEMPROF_CONCAT(a, b) TGLINK_MEMPROF_CONCAT_INNER(a, b)

/// Marks the enclosing scope as pipeline stage `name` for memory
/// accounting; pairs with (and is named like) the stage's TGLINK_TRACE_SPAN.
#define TGLINK_MEM_STAGE(name)                                        \
  ::tglink::obs::ScopedMemStage TGLINK_MEMPROF_CONCAT(                \
      tglink_mem_stage_, __LINE__)(name)

#endif  // TGLINK_OBS_MEMPROF_H_
